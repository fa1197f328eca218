"""Commutative monoids, each fixing at construction how it solves ``a + x = b``.

A monoid instance bundles its identity, its binary operation ``op`` (the
given callable, called directly) and plain attributes that the constructor
fixes from its arguments:

- ``is_finite``, ``is_group``: the elements are a sequence; an inverse exists.
- ``is_free_natural``, ``integer_addition``: the elements are the naturals,
  or the integers, under ``+``; only this module reads them.
- ``render(a)``, ``parse_element(text)``: the given renderer and parser,
  else ``str`` and ``int``.
- ``solve(a, b)``: every x with a + x = b, as a tuple.  A group gives
  ``inverse(a) + b``, the naturals b - a when a <= b and otherwise none (so
  ``x + 3 = 1`` is refuted without search), and another finite monoid the
  scan of its elements in order, run once per pair (a, b) and kept; any
  other monoid raises ``UndecidableError``.
- ``is_cancellative``: true for a group or the naturals, where ``solve``
  never gives two solutions.

Elements are plain Python values: arbitrary-precision integers for the
naturals and the integers, residues for the cyclic monoids, and indices
into the element list for monoids given by a Cayley table.  So every
finite monoid's elements are ``int``s, and membership refuses any other
value before comparing: ``2.0``, ``Fraction(1)`` or ``True`` equals an
element but is not one (``bool`` subclasses ``int``, so membership checks
the exact type).  There is no overflow anywhere; a wrapped sum would
fabricate solutions.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import add, neg

Element = object


class UndecidableError(Exception):
    """Raised when no capability of the monoid supports the question."""


class CommutativeMonoid:
    def __init__(
        self,
        name: str,
        identity: Element,
        op: Callable[[Element, Element], Element],
        *,
        elements: Sequence[Element] | None = None,
        inverse: Callable[[Element], Element] | None = None,
        free_natural: bool = False,
        integer_addition: bool = False,
        render: Callable[[Element], str] | None = None,
        parse: Callable[[str], Element] | None = None,
    ):
        self.name = name
        self.identity = identity
        self.op = op
        self.elements = elements
        self._inverse = inverse
        self.is_finite = elements is not None
        self.is_group = inverse is not None
        self.is_free_natural = free_natural
        self.integer_addition = integer_addition
        # membership: an int among the elements when finite (a non-int, bool
        # included, is refused before any comparison), a non-negative int over
        # N, an int over Z; any other infinite monoid takes every value
        if elements is not None:
            self.is_element = lambda a: type(a) is int and a in elements
        elif free_natural:
            self.is_element = lambda a: type(a) is int and a >= 0
        elif integer_addition:
            self.is_element = lambda a: type(a) is int
        else:
            self.is_element = lambda a: True
        self.render = render or str
        self.parse_element = parse or int
        # solve calls the given op and inverse; a finite scan runs once per (a, b)
        memo: dict[tuple[Element, Element], tuple[Element, ...]] = {}

        def scan(a: Element, b: Element) -> tuple[Element, ...]:
            found = memo.get((a, b))
            if found is None:
                found = memo[a, b] = tuple(x for x in elements if op(a, x) == b)
            return found

        def undecidable(a: Element, b: Element) -> tuple[Element, ...]:
            raise UndecidableError(f"cannot solve equations over {name}; undecidable here")

        if inverse is not None:
            self.solve = lambda a, b: (op(inverse(a), b),)
            self.is_cancellative = True
        elif free_natural:
            self.solve = lambda a, b: (b - a,) if a <= b else ()
            self.is_cancellative = True
        else:
            self.solve = scan if elements is not None else undecidable
            self.is_cancellative = False

    def inverse(self, a: Element) -> Element:
        if self._inverse is None:
            raise UndecidableError(f"{self.name} is not a group; undecidable here")
        return self._inverse(a)

    def values(self, bound: int | None = None) -> Sequence[Element]:
        """The coefficients a coordinate ranges over: every element of a
        finite monoid, else those of absolute value at most ``bound``."""
        if bound is not None and bound < 0:
            raise ValueError(f"coordinate bound {bound} is negative")
        if self.is_finite:
            return self.elements
        if bound is None:
            raise ValueError(f"{self.name} is infinite; a coordinate bound is required")
        if self.is_free_natural:
            return range(bound + 1)
        if self.is_group:
            return range(-bound, bound + 1)
        raise UndecidableError(f"cannot enumerate {self.name}; undecidable here")

    def sample(self, rng, hint: int = 10) -> Element:
        """The element ``rng.choice`` would draw from ``values(hint)``."""
        return self.samples(rng, hint, 1)[0]

    def samples(self, rng, hint: int, count: int) -> tuple:
        """``count`` draws of ``sample`` in one loop over one ``values(hint)``,
        without taking ``len()`` of a range too long for it."""
        values = self.values(hint)
        size = values.stop - values.start if isinstance(values, range) else len(values)
        draw = rng.randrange
        return tuple([values[draw(size)] for _ in range(count)])

    def __repr__(self) -> str:
        return f"CommutativeMonoid({self.name})"


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{text} is not a natural number")
    return value


def nat() -> CommutativeMonoid:
    """The natural numbers under addition."""
    return CommutativeMonoid("N", 0, add, free_natural=True, integer_addition=True, parse=_natural)


def int_group() -> CommutativeMonoid:
    """The integers under addition."""
    return CommutativeMonoid("Z", 0, add, inverse=neg, integer_addition=True)


def cyclic(m: int) -> CommutativeMonoid:
    """The integers mod m under addition."""
    if m < 1:
        raise ValueError(f"cyclic({m}): the modulus must be at least 1")
    return CommutativeMonoid(
        f"Z/{m}",
        0,
        lambda a, b: (a + b) % m,
        elements=range(m),
        inverse=lambda a: (-a) % m,
        parse=lambda s: int(s) % m,
    )


def _zero(text: str) -> int:
    if text != "0":
        raise ValueError(f"{text} is not 0, the one element of the trivial monoid")
    return 0


def trivial() -> CommutativeMonoid:
    """The one-element monoid."""
    return CommutativeMonoid(
        "1", 0, lambda a, b: 0, elements=(0,), inverse=lambda a: 0, parse=_zero
    )


def from_table(
    element_names: Sequence[str],
    table: Sequence[Sequence[str]],
    name: str = "table",
) -> CommutativeMonoid:
    """A finite commutative monoid from a Cayley table of element names.

    The table is validated in full: it must be square over the given
    elements, commutative, associative, and contain an identity.  The first
    violating pair or triple is reported.  Elements are represented by their
    index into ``element_names``.
    """
    names = list(element_names)
    for nm in names:
        if not isinstance(nm, str):
            raise ValueError(f"element name {nm!r} is not a string")
    if len(set(names)) != len(names):
        raise ValueError("duplicate element names in table monoid")
    index = {nm: i for i, nm in enumerate(names)}
    size = len(names)
    if len(table) != size or any(len(row) != size for row in table):
        raise ValueError(f"Cayley table must be {size}x{size} to match the element list")
    op_table = []
    for row in table:
        out_row = []
        for entry in row:
            if not isinstance(entry, str) or entry not in index:
                raise ValueError(f"table entry {entry!r} is not an element")
            out_row.append(index[entry])
        op_table.append(tuple(out_row))

    for a in range(size):
        for b in range(size):
            if op_table[a][b] != op_table[b][a]:
                raise ValueError(
                    f"not commutative: {names[a]}*{names[b]} != {names[b]}*{names[a]}"
                )
    identity_idx = None
    for e in range(size):
        if all(op_table[e][a] == a for a in range(size)):
            identity_idx = e
            break
    if identity_idx is None:
        raise ValueError("table has no identity element")
    for a in range(size):
        for b in range(size):
            for c in range(size):
                if op_table[op_table[a][b]][c] != op_table[a][op_table[b][c]]:
                    raise ValueError(
                        "not associative at triple "
                        f"({names[a]}, {names[b]}, {names[c]})"
                    )

    inverse = None
    inv_map = {}
    for a in range(size):
        for b in range(size):
            if op_table[a][b] == identity_idx:
                inv_map[a] = b
                break
    if len(inv_map) == size:
        inverse = lambda a: inv_map[a]  # noqa: E731

    def parse(text: str) -> int:
        if text in index:
            return index[text]
        i = int(text)
        if not 0 <= i < size:
            raise ValueError(f"element index {i} out of range for {name}")
        return i

    return CommutativeMonoid(
        name,
        identity_idx,
        lambda a, b: op_table[a][b],
        elements=tuple(range(size)),
        inverse=inverse,
        render=lambda a: names[a],
        parse=parse,
    )


def boolean() -> CommutativeMonoid:
    """The two-element monoid with saturating addition (1 + 1 = 1)."""
    return from_table(["0", "1"], [["0", "1"], ["1", "1"]], name="bool")


def load_table(path: str) -> CommutativeMonoid:
    """Read a table monoid from a JSON file: {"name", "elements", "table"}.
    A file that is not JSON, or not text, is refused naming the file."""
    import json  # here, so that a command with no table file never loads it

    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "elements" not in data or "table" not in data:
        raise ValueError(f"{path}: expected JSON object with 'elements' and 'table'")
    elements, table, name = data["elements"], data["table"], data.get("name", "table")
    if not (isinstance(name, str) and isinstance(elements, list) and isinstance(table, list)
            and all(isinstance(row, list) for row in table)):
        raise ValueError(f"{path}: 'name' must be a string, 'elements' a list, 'table' a list of lists")
    return from_table(elements, table, name=name)

