"""Order-preserving maps between the finite ordinals [n] = {0, 1, ..., n}.

These are the morphisms of the simplex category.  Precomposition with the
maps built here defines every face and degeneracy operator; ``emhorn.em``'s
value rule for its operator tables is tested against that definition.

Conventions:

- A map f: [m] -> [n] is stored as the tuple of its values (f(0), ..., f(m))
  together with an explicit codomain.  Maps into codomains up to [9] print
  as digit strings, so the identity of [2] prints as ``012`` and the unique
  surjection [3] -> [1] repeating 0 prints as ``0011``.
- ``compose(f, g)`` applies f first; it is "g after f".
- ``coface(n, i)`` is the injection [n-1] -> [n] whose image misses i, and
  ``codegeneracy(n, j)`` is the surjection [n+1] -> [n] that hits j twice.
- Enumerations are lexicographic on value tuples and all downstream
  coordinate vectors index generators in this order.

>>> str(compose(coface(3, 0), MonotoneMap((0, 1, 2, 2), 2)))
'122'
>>> [str(f) for f in enumerate_surjections(3, 2)]
['0012', '0112', '0122']
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class MonotoneMap:
    """A weakly increasing map [m] -> [n], determined by its value tuple."""

    values: tuple[int, ...]
    cod: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a monotone map has at least one value; [m] is never empty")
        if self.cod < 0:
            raise ValueError(f"codomain [{self.cod}] is not an ordinal")
        if any(v < 0 or v > self.cod for v in self.values):
            raise ValueError(f"values {self.values} leave the codomain [{self.cod}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"values {self.values} are not weakly increasing")

    @property
    def dom(self) -> int:
        return len(self.values) - 1

    def __str__(self) -> str:
        if self.cod <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"MonotoneMap({self.values!r}, cod={self.cod})"


def compose(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    """Apply f: [m] -> [n] first, then g: [n] -> [p].

    >>> str(compose(coface(2, 1), codegeneracy(1, 0)))
    '01'
    """
    if f.cod != g.dom:
        raise ValueError(f"cannot compose: codomain [{f.cod}] != domain [{g.dom}]")
    return MonotoneMap(tuple(g.values[v] for v in f.values), g.cod)


def coface(n: int, i: int) -> MonotoneMap:
    """The strictly increasing map [n-1] -> [n] whose image misses i."""
    if n < 1:
        raise ValueError("cofaces exist only into [n] with n >= 1")
    if not 0 <= i <= n:
        raise ValueError(f"coface index {i} out of range for [{n}]")
    return MonotoneMap(tuple(v for v in range(n + 1) if v != i), n)


def codegeneracy(n: int, j: int) -> MonotoneMap:
    """The surjection [n+1] -> [n] taking the value j twice."""
    if n < 0:
        raise ValueError(f"[{n}] is not an ordinal")
    if not 0 <= j <= n:
        raise ValueError(f"codegeneracy index {j} out of range for [{n}]")
    return MonotoneMap(tuple(range(j + 1)) + tuple(range(j, n + 1)), n)


def enumerate_surjections(m: int, n: int) -> list[MonotoneMap]:
    """All monotone surjections [m] -> [n], lexicographic; there are C(m, n).

    A surjection is fixed by the m - n positions p in 1..m where it repeats
    its value, f(p) = f(p - 1).  Choosing those positions in lexicographic
    order lists the maps in lexicographic order on values.

    >>> [str(f) for f in enumerate_surjections(2, 2)]
    ['012']
    """
    if m < 0 or n < 0:
        raise ValueError("objects of the simplex category are [m] with m >= 0")
    if m < n:
        return []
    maps = []
    for repeats in itertools.combinations(range(1, m + 1), m - n):
        steps = (p not in repeats for p in range(1, m + 1))
        maps.append(MonotoneMap(tuple(itertools.accumulate(steps, initial=0)), n))
    return maps
