"""Eilenberg-MacLane simplicial monoids over a commutative monoid.

For a commutative monoid M and degree n, level k of the space is the
reduced free monoid over M on the k-cells of the n-sphere: a direct sum of
one copy of M per monotone surjection [k] -> [n], the basepoint acting as
the identity.  Simplices are dense coefficient vectors indexed by the
generator list in lexicographic order, held as named tuples
``(level, coords)``: hashable, immutable, and equal to a plain tuple of the
same value.

Operators are induced by precomposition on the sphere.  The i-th face of a
vector adds up, for each target generator g, the coordinates of all sources
h with h after the i-th coface equal to g; sources whose composite is not
surjective fall onto the basepoint and contribute nowhere.  Worked out for
M the naturals and degree 2 at level 3, where the generators are 0012,
0112, 0122 and a vector is written (a, b, c), this gives

    d0 (a, b, c) = (a)        d1 (a, b, c) = (a + b)
    d2 (a, b, c) = (b + c)    d3 (a, b, c) = (c)

into the single level-2 coordinate at the generator 012.  Every face
plan, for one face here or for faces of simplices laid end to end in
``emhorn.horn``, comes from ``_face_plan``.  A plan with a two-source fiber
runs as one generated function, compiled once per fiber layout in a process
and shared by every space; here d1 is ``lambda c: (op(c[0],c[1]),)``.  The
operators and the levelwise sum refuse a simplex whose coordinate count is
not the rank of its level; a level must be an int.

Degree 0 makes every level a single copy of M with all operators the
identity (the discrete simplicial monoid).  Degree 1 is the nerve of M;
``NerveView`` exposes the classical chain coordinates on top of it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Sequence
from operator import itemgetter

from .delta import MonotoneMap, enumerate_surjections
from .monoid import CommutativeMonoid, Element


class EMSimplex(namedtuple("EMSimplex", "level coords")):
    """A level-k element: one coefficient per generator, in canonical order.

    The operators below build their results with ``tuple.__new__``, since
    their coordinates are already tuples."""

    __slots__ = ()

    def __new__(cls, level: int, coords: Sequence[Element]) -> EMSimplex:
        if type(coords) is not tuple:
            coords = tuple(coords)
        return tuple.__new__(cls, (level, coords))


def _level(k):
    if type(k) is not int:  # ``True`` would read level 1's tables
        raise ValueError(f"level must be an int, got {k!r}")
    return k


class _Levels(dict):
    """Level k of a truncation: the monotone surjections [k] -> [degree],
    enumerated on first read.  The one check that refuses a level outside
    ``0..dim_bound``, with the message every level argument shares."""

    def __init__(self, degree: int, dim_bound: int):
        super().__init__()
        self.degree, self.dim_bound = degree, dim_bound

    def __missing__(self, k: int) -> list[MonotoneMap]:
        if not 0 <= k <= self.dim_bound:
            raise ValueError(f"level {k} outside truncation 0..{self.dim_bound}")
        gens = self[k] = enumerate_surjections(k, self.degree)
        return gens


class EMSpace:
    """The simplicial monoid of a commutative monoid in a fixed degree.

    Construction enumerates nothing: level k is enumerated on the first read
    of ``gens[k]``, and each face and degeneracy table on first use.
    """

    def __init__(self, monoid: CommutativeMonoid, degree: int, dim_bound: int):
        if type(degree) is not int or type(dim_bound) is not int:
            raise ValueError(
                f"degree and dimension bound must be ints, got {degree!r} and {dim_bound!r}"
            )
        if degree < 0 or dim_bound < 0:
            raise ValueError("degree and dimension bound must be non-negative")
        self.monoid = monoid
        self.degree = degree
        self.dim_bound = dim_bound
        self.gens = _Levels(degree, dim_bound)
        self._gen_index: dict[int, dict[tuple[int, ...], int]] = {}  # filled per level on first use
        self._degeneracy_targets: dict[tuple[int, int], list[int]] = {}
        self._face_fibers: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        # per (level, operator index): the operator and the width it takes
        self._face_plans: dict[tuple[int, int], tuple] = {}
        self._degeneracy_plans: dict[tuple[int, int], tuple] = {}
        self._gen_names: dict[int, tuple[str, ...]] = {}
        # filled by emhorn.horn: per horn shape (n, k), its given faces,
        # equations, filler check, from its first validation its compatibility
        # check, and from the first filled horn it decides its filler map
        self._horn_shapes: dict[tuple[int, int], object] = {}

    @property
    def name(self) -> str:
        return f"K({self.monoid.name},{self.degree})"

    def gen_names(self, k: int) -> list[str]:
        if _level(k) not in self._gen_names:
            self._gen_names[k] = tuple(str(g) for g in self.gens[k])
        return list(self._gen_names[k])

    def rank(self, k: int) -> int:
        """The number of coordinates at level k, which must lie in the truncation."""
        return len(self.gens[k])

    def zero(self, k: int) -> EMSimplex:
        return tuple.__new__(EMSimplex, (k, (self.monoid.identity,) * self.rank(_level(k))))

    def simplex(self, k: int, coords: Sequence[Element]) -> EMSimplex:
        if len(coords) != self.rank(_level(k)):
            raise self._width_error(EMSimplex(k, coords))
        return tuple.__new__(EMSimplex, (k, tuple(coords)))

    def face_fibers(self, k: int, i: int) -> list[tuple[int, ...]]:
        """Per level-(k-1) generator g, the level-k generators whose value tuple
        with value i dropped is g's; the others fall onto the basepoint."""
        key = (k, i)
        if key not in self._face_fibers:
            if not (1 <= k <= self.dim_bound and 0 <= i <= k):
                raise ValueError(f"face ({k}, {i}) out of range")
            index = self._index(k - 1)
            fibers: list[list[int]] = [[] for _ in index]
            for src, h in enumerate(self.gens[k]):
                tgt = index.get(h.values[:i] + h.values[i + 1 :])
                if tgt is not None:
                    fibers[tgt].append(src)
            self._face_fibers[key] = [tuple(f) for f in fibers]
        return self._face_fibers[key]

    # every face plan (``_face_plan``) reads its fibers from this alias, so an
    # override of face_fibers sees only the reads of the shapes' rows and a
    # patched module name is never looked up
    _fibers = face_fibers

    def degeneracy_targets(self, k: int, j: int) -> list[int]:
        """Per level-k generator, the index of its value tuple with value j
        repeated: its j-th degeneracy, one-to-one and never the basepoint."""
        key = (k, j)
        if key not in self._degeneracy_targets:
            if not (0 <= k < self.dim_bound and 0 <= j <= k):
                raise ValueError(f"degeneracy ({k}, {j}) out of range")
            index = self._index(k + 1)
            targets = [index[h.values[: j + 1] + h.values[j:]] for h in self.gens[k]]
            self._degeneracy_targets[key] = targets
        return self._degeneracy_targets[key]

    def _index(self, k: int) -> dict[tuple[int, ...], int]:
        """Level k's generators by value tuple; a tuple that is no key is not surjective."""
        if k not in self._gen_index:
            self._gen_index[k] = {g.values: pos for pos, g in enumerate(self.gens[k])}
        return self._gen_index[k]

    def face(self, k: int, i: int, x: EMSimplex) -> EMSimplex:
        level, coords = x
        if level != k:
            raise ValueError(f"simplex at level {level}, face asked at level {k}")
        plan = self._face_plans.get((k, i))
        if plan is None:
            plan = self._face_plans[k, i] = _face_plan(self, k, [(0, i)]), self.rank(k)
        apply, width = plan
        if len(coords) != width:
            raise self._width_error(x)
        return tuple.__new__(EMSimplex, (level - 1, apply(coords)))

    def degeneracy(self, k: int, j: int, x: EMSimplex) -> EMSimplex:
        level, coords = x
        if level != k:
            raise ValueError(f"simplex at level {level}, degeneracy asked at level {k}")
        plan = self._degeneracy_plans.get((k, j))
        if plan is None:
            targets = self.degeneracy_targets(k, j)
            apply = _degeneracy_plan(targets, self.rank(k + 1), self.monoid.identity)
            plan = self._degeneracy_plans[k, j] = apply, self.rank(k)
        apply, width = plan
        if len(coords) != width:
            raise self._width_error(x)
        return tuple.__new__(EMSimplex, (level + 1, apply(coords)))

    def _width_error(self, x: EMSimplex) -> ValueError:
        return ValueError(
            f"level {x.level} of {self.name} has {self.rank(x.level)} coordinates, "
            f"got {len(x.coords)}"
        )

    def add(self, x: EMSimplex, y: EMSimplex) -> EMSimplex:
        k = x.level
        if k != y.level:
            raise ValueError(f"cannot add levels {k} and {y.level}")
        width = self.rank(k)
        for z in (x, y):
            if len(z.coords) != width:
                raise self._width_error(z)
        op = self.monoid.op
        return tuple.__new__(EMSimplex, (k, tuple(map(op, x.coords, y.coords))))

    def neg(self, x: EMSimplex) -> EMSimplex:
        if len(x.coords) != self.rank(x.level):
            raise self._width_error(x)
        return tuple.__new__(EMSimplex, (x.level, tuple(map(self.monoid.inverse, x.coords))))

    def sub(self, x: EMSimplex, y: EMSimplex) -> EMSimplex:
        return self.add(x, self.neg(y))

    def random_simplex(self, k: int, rng, hint: int = 10) -> EMSimplex:
        """A level-k simplex, one ``monoid.sample`` draw per coordinate."""
        return tuple.__new__(EMSimplex, (k, self.monoid.samples(rng, hint, self.rank(_level(k)))))

    def enumerate_level(self, k: int, bound: int | None = None) -> list[EMSimplex]:
        """All level-k simplices, each coordinate in ``monoid.values(bound)``."""
        rank = self.rank(_level(k))
        return [
            tuple.__new__(EMSimplex, (k, coords))
            for coords in itertools.product(self.monoid.values(bound), repeat=rank)
        ]

    def first_outside(self, k: int, simplices: dict):
        """The first key of ``simplices``, in the dict's order, whose value is
        not a level-k simplex with every coordinate in the monoid, else None."""
        rank, is_element = self.rank(k), self.monoid.is_element
        for key, x in simplices.items():
            if not (isinstance(x, EMSimplex) and x.level == k and len(x.coords) == rank
                    and all(map(is_element, x.coords))):
                return key
        return None

    def render_simplex(self, x: EMSimplex) -> str:
        M = self.monoid
        literal = f"level:{x.level} [" + ",".join(M.render(c) for c in x.coords) + "]"
        if not x.coords:
            return literal + "  (trivial level)"
        named = ", ".join(
            f"{g}={M.render(c)}" for g, c in zip(self.gen_names(x.level), x.coords)
        )
        return f"{literal}  ({named})"

    def __repr__(self) -> str:
        return f"EMSpace({self.name}, D={self.dim_bound})"


def _gather(positions: list[int]):
    """The coordinates at ``positions``, as a tuple."""
    if len(positions) == 1:
        only = positions[0]
        return lambda coords: (coords[only],)
    return itemgetter(*positions) if positions else (lambda coords: ())


# per fiber layout, the maker of its face kernel, shared by every space: a
# sweep builds fresh spaces on every pass
_KERNELS: dict[tuple, object] = {}


def _face_plan(K: EMSpace, k: int, parts: list[tuple[int, int]]):
    """Per part ``(at, i)``, face i of the level-k simplex whose coordinates
    start at ``at`` (at 0, the cached fibers), concatenated, as one function
    on coordinate tuples.  Every fiber has one or two sources (the repeat-set
    lemma in ``emhorn.horn._solve``).  A gather where all have one, else a
    function compiled once per layout, one tuple display whose term per fiber
    is ``c[a]`` or ``op(c[a], c[b])``, bound to ``K``'s ``op``."""
    fibers = [tuple(at + s for s in f) if at else f for at, i in parts for f in K._fibers(k, i)]
    if all(len(fiber) == 1 for fiber in fibers):
        return _gather([fiber[0] for fiber in fibers])
    layout = tuple(fibers)
    make = _KERNELS.get(layout)
    if make is None:
        terms = "".join(
            f"c[{f[0]:d}]," if len(f) == 1 else f"op(c[{f[0]:d}],c[{f[1]:d}])," for f in fibers
        )
        scope: dict = {}
        exec(f"def make(op):\n    return lambda c: ({terms})", scope)
        make = _KERNELS[layout] = scope["make"]
    return make(K.monoid.op)


def _degeneracy_plan(targets: list[int], size: int, identity: Element):
    """The j-th degeneracy as one function on coordinate tuples.  Its table
    is one-to-one, so each of the ``size`` result slots gathers its one
    source or, read past the end of the coordinates, the identity."""
    positions = [len(targets)] * size
    for src, tgt in enumerate(targets):
        positions[tgt] = src
    pick, pad = _gather(positions), (identity,)
    return lambda coords: pick(coords + pad)


class NerveView:
    """Degree 1 seen through the classical nerve coordinates.

    A level-k element of the nerve is a chain (m_1, ..., m_k) of monoid
    elements.  The chain entry m_j sits on the edge (j-1, j), which is the
    generator with j zeroes, so converting to the canonical coefficient
    vector reverses the chain.  Faces in chain form drop the first entry
    (i = 0), drop the last (i = k), and multiply adjacent entries in
    between; ``check_face_coincidence`` confirms these agree with the
    induced operators.
    """

    def __init__(self, monoid: CommutativeMonoid, dim_bound: int):
        self.space = EMSpace(monoid, 1, dim_bound)
        self.monoid = monoid

    def from_chain(self, chain: Sequence[Element]) -> EMSimplex:
        return self.space.simplex(len(chain), tuple(reversed(chain)))

    def chain_face(self, i: int, chain: Sequence[Element]) -> tuple[Element, ...]:
        k = len(chain)
        if not 0 <= i <= k:
            raise ValueError(f"face {i} out of range at level {k}")
        if i == 0:
            return tuple(chain[1:])
        if i == k:
            return tuple(chain[:-1])
        merged = self.monoid.op(chain[i - 1], chain[i])
        return tuple(chain[: i - 1]) + (merged,) + tuple(chain[i + 1 :])

    def check_face_coincidence(self, chains) -> None:
        """Assert the chain-form faces match the induced ones on each chain."""
        for chain in chains:
            k = len(chain)
            if k == 0:
                continue
            x = self.from_chain(chain)
            for i in range(k + 1):
                via_chain = self.from_chain(self.chain_face(i, chain))
                via_space = self.space.face(k, i, x)
                if via_chain != via_space:
                    raise AssertionError(
                        f"nerve face mismatch at d{i} of {chain}: {via_chain} != {via_space}"
                    )
