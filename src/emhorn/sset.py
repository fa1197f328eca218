"""Finite simplicial sets, truncated at an explicit dimension bound.

A truncated simplicial set stores its level sets and full face and
degeneracy tables.  Operators that would leave the truncation are simply
absent, and the identity checks quantify only within range.  Everything is
finite, so the simplicial identities can be verified by a table scan.

Simplex identifiers are the monotone maps themselves (for the standard
simplices) plus a reserved basepoint token for the quotient spheres.  That
keeps fixtures self-describing: the level-3 cells of the 2-sphere really
are ``*``, ``0012``, ``0112`` and ``0122``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

from .delta import (
    MonotoneMap, coface, codegeneracy, compose, enumerate_monotone, enumerate_surjections
)

BASEPOINT = "*"

SimplexId = Union[MonotoneMap, str]


def render_id(x: SimplexId) -> str:
    return x if isinstance(x, str) else str(x)


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    name: str
    dim_bound: int
    levels: tuple[tuple[SimplexId, ...], ...]
    faces: Mapping[tuple[int, int, SimplexId], SimplexId] = field(repr=False)
    degeneracies: Mapping[tuple[int, int, SimplexId], SimplexId] = field(repr=False)

    def level(self, k: int) -> tuple[SimplexId, ...]:
        if not 0 <= k <= self.dim_bound:
            raise ValueError(f"level {k} outside truncation 0..{self.dim_bound}")
        return self.levels[k]

    def face(self, k: int, i: int, x: SimplexId) -> SimplexId:
        if not (1 <= k <= self.dim_bound and 0 <= i <= k):
            raise ValueError(f"face ({k}, {i}) out of range")
        return self.faces[(k, i, x)]

    def degeneracy(self, k: int, j: int, x: SimplexId) -> SimplexId:
        if not (0 <= k < self.dim_bound and 0 <= j <= k):
            raise ValueError(f"degeneracy ({k}, {j}) out of range")
        return self.degeneracies[(k, j, x)]

    def dump(self) -> str:
        """One line per level, simplices in canonical order."""
        return "\n".join(
            f"{k}: " + " ".join(render_id(x) for x in self.levels[k])
            for k in range(self.dim_bound + 1)
        )


def _build(name: str, dim_bound: int, levels: tuple, act: Callable) -> TruncatedSimplicialSet:
    """The face and degeneracy tables: ``act`` of each coface and codegeneracy."""
    faces, degeneracies = {}, {}
    for k in range(dim_bound + 1):
        cofaces = [coface(k, i) for i in range(k + 1)] if k > 0 else []
        codegeneracies = [codegeneracy(k, j) for j in range(k + 1)] if k < dim_bound else []
        for x in levels[k]:
            for i, theta in enumerate(cofaces):
                faces[(k, i, x)] = act(theta, x)
            for j, theta in enumerate(codegeneracies):
                degeneracies[(k, j, x)] = act(theta, x)
    return TruncatedSimplicialSet(name, dim_bound, levels, faces, degeneracies)


def standard_simplex(n: int, dim_bound: int) -> TruncatedSimplicialSet:
    """The n-simplex: level k holds every monotone map [k] -> [n]."""
    levels = tuple(tuple(enumerate_monotone(k, n)) for k in range(dim_bound + 1))
    return _build(f"Delta[{n}]", dim_bound, levels, compose)


def sphere(n: int, dim_bound: int) -> TruncatedSimplicialSet:
    """The n-sphere as the quotient of the n-simplex by its boundary.

    Level k is the basepoint plus the monotone surjections [k] -> [n]; an
    operator sends a cell to its composite when that stays surjective and
    to the basepoint otherwise.
    """
    if n < 1:
        raise ValueError("the quotient sphere is defined for n >= 1")
    levels = tuple(
        (BASEPOINT,) + tuple(enumerate_surjections(k, n)) for k in range(dim_bound + 1)
    )

    def act(theta: MonotoneMap, x: SimplexId) -> SimplexId:
        if x == BASEPOINT:
            return BASEPOINT
        y = compose(theta, x)
        return y if y.is_surjective() else BASEPOINT

    return _build(f"S^{n}", dim_bound, levels, act)


def simplicial_identity_violations(X: TruncatedSimplicialSet) -> list[str]:
    """Scan the tables for violations of the simplicial identities.

    Returns a description of each failure; an empty list means the
    structure is simplicial as far as the truncation can see.
    """
    bad = []
    D = X.dim_bound
    for k in range(2, D + 1):
        for x in X.level(k):
            for j in range(1, k + 1):
                for i in range(j):
                    lhs = X.face(k - 1, i, X.face(k, j, x))
                    rhs = X.face(k - 1, j - 1, X.face(k, i, x))
                    if lhs != rhs:
                        bad.append(f"d{i} d{j} {render_id(x)}: {render_id(lhs)} != {render_id(rhs)}")
    for k in range(D - 1):
        for x in X.level(k):
            for j in range(k + 1):
                for i in range(j + 1):
                    lhs = X.degeneracy(k + 1, i, X.degeneracy(k, j, x))
                    rhs = X.degeneracy(k + 1, j + 1, X.degeneracy(k, i, x))
                    if lhs != rhs:
                        bad.append(f"s{i} s{j} {render_id(x)}")
    for k in range(D):
        for x in X.level(k):
            for j in range(k + 1):
                sx = X.degeneracy(k, j, x)
                for i in range(k + 2):
                    got = X.face(k + 1, i, sx)
                    if i < j:
                        want = X.degeneracy(k - 1, j - 1, X.face(k, i, x))
                    elif i in (j, j + 1):
                        want = x
                    else:
                        want = X.degeneracy(k - 1, j, X.face(k, i - 1, x))
                    if got != want:
                        bad.append(f"d{i} s{j} {render_id(x)}: {render_id(got)} != {render_id(want)}")
    return bad
