"""The cells of the quotient n-sphere, level by level, up to a truncation.

Level k is the basepoint followed by the monotone surjections [k] -> [n],
so the level-3 cells of the 2-sphere really are ``*``, ``0012``, ``0112``
and ``0122``.  Only the cells live here: the sphere's faces and
degeneracies act through ``emhorn.em.EMSpace``, whose coordinates are the
cells other than the basepoint, enumerated on first read by the same level
container.
"""

from __future__ import annotations

from typing import Union

from .delta import MonotoneMap
from .em import _Levels

BASEPOINT = "*"

# a cell's name is its str(); the acceptance gate renders cells through this name
render_id = str


class TruncatedSphere:
    def __init__(self, n: int, dim_bound: int):
        self._cells = _Levels(n, dim_bound)  # K(N,n)'s generators

    def level(self, k: int) -> tuple[Union[MonotoneMap, str], ...]:
        return (BASEPOINT, *self._cells[k])


def sphere(n: int, dim_bound: int) -> TruncatedSphere:
    """The n-sphere as the quotient of the n-simplex by its boundary."""
    if n < 1:
        raise ValueError("the quotient sphere is defined for n >= 1")
    return TruncatedSphere(n, dim_bound)
