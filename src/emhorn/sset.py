"""The cells of the quotient n-sphere, level by level, up to a truncation.

Level k is the basepoint followed by the monotone surjections [k] -> [n],
so the level-3 cells of the 2-sphere really are ``*``, ``0012``, ``0112``
and ``0122``.  Only the cells live here: the sphere's faces and
degeneracies act through ``emhorn.em.EMSpace``, whose coordinates are the
cells other than the basepoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .delta import MonotoneMap, enumerate_surjections

BASEPOINT = "*"

SimplexId = Union[MonotoneMap, str]


def render_id(x: SimplexId) -> str:
    return x if isinstance(x, str) else str(x)


@dataclass(frozen=True)
class TruncatedSphere:
    dim_bound: int
    levels: tuple[tuple[SimplexId, ...], ...]

    def level(self, k: int) -> tuple[SimplexId, ...]:
        if not 0 <= k <= self.dim_bound:
            raise ValueError(f"level {k} outside truncation 0..{self.dim_bound}")
        return self.levels[k]


def sphere(n: int, dim_bound: int) -> TruncatedSphere:
    """The n-sphere as the quotient of the n-simplex by its boundary."""
    if n < 1:
        raise ValueError("the quotient sphere is defined for n >= 1")
    return TruncatedSphere(dim_bound, tuple(
        (BASEPOINT, *enumerate_surjections(k, n)) for k in range(dim_bound + 1)
    ))
