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

into the single level-2 coordinate at the generator 012.  The operators
and the levelwise sum refuse a simplex whose coordinate count is not the
rank of its level.

Degree 0 makes every level a single copy of M with all operators the
identity (the discrete simplicial monoid).  Degree 1 is the nerve of M;
``NerveView`` exposes the classical chain coordinates on top of it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter
from typing import Optional, Sequence

from .delta import MonotoneMap, coface, codegeneracy, compose, enumerate_surjections
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


class EMSpace:
    """The simplicial monoid of a commutative monoid in a fixed degree.

    Immutable after construction; face and degeneracy actions are looked up
    in index tables computed once per (level, operator index).
    """

    def __init__(self, monoid: CommutativeMonoid, degree: int, dim_bound: int):
        if degree < 0 or dim_bound < 0:
            raise ValueError("degree and dimension bound must be non-negative")
        self.monoid = monoid
        self.degree = degree
        self.dim_bound = dim_bound
        self.gens: list[list[MonotoneMap]] = [
            enumerate_surjections(k, degree) for k in range(dim_bound + 1)
        ]
        self._gen_index: list[dict[MonotoneMap, int]] = [
            {g: i for i, g in enumerate(gs)} for gs in self.gens
        ]
        self._face_targets: dict[tuple[int, int], list[int]] = {}
        self._degeneracy_targets: dict[tuple[int, int], list[int]] = {}
        self._face_fibers: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._face_plans: dict[tuple[int, int], tuple] = {}
        self._degeneracy_plans: dict[tuple[int, int], tuple] = {}
        self._gen_names: dict[int, tuple[str, ...]] = {}
        self._horn_shapes: dict[tuple[int, int], tuple] = {}  # filled by emhorn.horn

    @property
    def name(self) -> str:
        return f"K({self.monoid.name},{self.degree})"

    def gen_names(self, k: int) -> list[str]:
        if k not in self._gen_names:
            self.rank(k)  # refuses a level outside the truncation
            self._gen_names[k] = tuple(str(g) for g in self.gens[k])
        return list(self._gen_names[k])

    def rank(self, k: int) -> int:
        """The number of coordinates at level k, which must lie in the truncation."""
        if not 0 <= k <= self.dim_bound:
            raise ValueError(f"level {k} outside truncation 0..{self.dim_bound}")
        return len(self.gens[k])

    def zero(self, k: int) -> EMSimplex:
        return tuple.__new__(EMSimplex, (k, (self.monoid.identity,) * self.rank(k)))

    def simplex(self, k: int, coords: Sequence[Element]) -> EMSimplex:
        if len(coords) != self.rank(k):
            raise ValueError(
                f"level {k} of {self.name} has {self.rank(k)} coordinates, got {len(coords)}"
            )
        return tuple.__new__(EMSimplex, (k, tuple(coords)))

    def face_targets(self, k: int, i: int) -> list[int]:
        """For each level-k generator, the index of its i-th face generator,
        or -1 when the composite falls onto the basepoint."""
        key = (k, i)
        if key not in self._face_targets:
            if not (1 <= k <= self.dim_bound and 0 <= i <= k):
                raise ValueError(f"face ({k}, {i}) out of range")
            self._face_targets[key] = self._precompose(coface(k, i), k)
        return self._face_targets[key]

    def face_fibers(self, k: int, i: int) -> list[tuple[int, ...]]:
        """For each level-(k-1) generator, the level-k generators mapping to it."""
        key = (k, i)
        if key not in self._face_fibers:
            fibers: list[list[int]] = [[] for _ in self.gens[k - 1]]
            for src, tgt in enumerate(self.face_targets(k, i)):
                if tgt >= 0:
                    fibers[tgt].append(src)
            self._face_fibers[key] = [tuple(f) for f in fibers]
        return self._face_fibers[key]

    def degeneracy_targets(self, k: int, j: int) -> list[int]:
        """The same for the j-th degeneracy; it keeps every image, so no -1."""
        key = (k, j)
        if key not in self._degeneracy_targets:
            if not (0 <= k < self.dim_bound and 0 <= j <= k):
                raise ValueError(f"degeneracy ({k}, {j}) out of range")
            self._degeneracy_targets[key] = self._precompose(codegeneracy(k, j), k)
        return self._degeneracy_targets[key]

    def _precompose(self, theta: MonotoneMap, k: int) -> list[int]:
        """Per level-k generator h, the index of h after theta, or -1 on the basepoint."""
        index = self._gen_index[theta.dom]
        return [index.get(compose(theta, h), -1) for h in self.gens[k]]

    def face(self, k: int, i: int, x: EMSimplex) -> EMSimplex:
        level, coords = x
        if level != k:
            raise ValueError(f"simplex at level {level}, face asked at level {k}")
        plan = self._face_plans.get((k, i))
        if plan is None:
            plan = self._face_plans[k, i] = _plan(
                self.face_targets(k, i), self.rank(k - 1), self.monoid
            )
        if len(coords) != len(self.gens[k]):
            raise self._width_error(x)
        return tuple.__new__(EMSimplex, (k - 1, plan(coords)))

    def degeneracy(self, k: int, j: int, x: EMSimplex) -> EMSimplex:
        level, coords = x
        if level != k:
            raise ValueError(f"simplex at level {level}, degeneracy asked at level {k}")
        plan = self._degeneracy_plans.get((k, j))
        if plan is None:
            plan = self._degeneracy_plans[k, j] = _plan(
                self.degeneracy_targets(k, j), self.rank(k + 1), self.monoid
            )
        if len(coords) != len(self.gens[k]):
            raise self._width_error(x)
        return tuple.__new__(EMSimplex, (k + 1, plan(coords)))

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
        coords = tuple(self.monoid.sample(rng, hint) for _ in range(self.rank(k)))
        return tuple.__new__(EMSimplex, (k, coords))

    def enumerate_level(self, k: int, bound: Optional[int] = None) -> list[EMSimplex]:
        """All level-k simplices, with coordinates capped at ``bound`` when
        the monoid is infinite."""
        M = self.monoid
        rank = self.rank(k)
        if bound is not None and bound < 0:
            raise ValueError(f"coordinate bound {bound} is negative")
        if M.is_finite:
            values = list(M.elements)
        elif bound is not None:
            if M.is_free_natural:
                values = list(range(bound + 1))
            elif M.is_group:
                values = list(range(-bound, bound + 1))
            else:
                raise ValueError(f"cannot enumerate level over {M.name}")
        else:
            raise ValueError(f"{M.name} is infinite; a coordinate bound is required")
        return [
            tuple.__new__(EMSimplex, (k, coords))
            for coords in itertools.product(values, repeat=rank)
        ]

    def contains(self, k: int, x) -> bool:
        rank = self.rank(k)
        return isinstance(x, EMSimplex) and x.level == k and len(x.coords) == rank

    def encode(self, x: EMSimplex) -> list:
        """The JSON form of a simplex: its coordinates."""
        return list(x.coords)

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


def _plan(targets: list[int], size: int, monoid: CommutativeMonoid):
    """An operator table as one function from a coordinate tuple to the
    ``size`` coordinates of the result.

    It gathers the first source of each target slot, then folds the later
    (target, source) pairs onto it in source order.  A slot no source maps
    to takes the identity, read from a copy of the coordinates with the
    identity appended.  Every i-th face fiber has one or two sources, so a
    face never pays for that copy; a degeneracy, which leaves slots empty,
    has no later sources and so no fold.
    """
    first = [-1] * size
    rest = []
    for src, tgt in enumerate(targets):
        if tgt < 0:
            continue
        if first[tgt] < 0:
            first[tgt] = src
        else:
            rest.append((tgt, src))
    if size == 1:
        only = first[0]
        pick = lambda coords: (coords[only],)
    else:
        pick = itemgetter(*first) if first else (lambda coords: ())
    gather = pick
    if -1 in first:
        pad = (monoid.identity,)
        gather = lambda coords: pick(coords + pad)
    if not rest:
        return gather
    rest = tuple(rest)
    op = monoid.op

    def fold(coords):
        out = list(gather(coords))
        for tgt, src in rest:
            out[tgt] = op(out[tgt], coords[src])
        return tuple(out)

    return fold


def em_space(monoid: CommutativeMonoid, degree: int, dim_bound: int) -> EMSpace:
    return EMSpace(monoid, degree, dim_bound)


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
        self.dim_bound = dim_bound

    def from_chain(self, chain: Sequence[Element]) -> EMSimplex:
        return self.space.simplex(len(chain), tuple(reversed(chain)))

    def to_chain(self, x: EMSimplex) -> tuple[Element, ...]:
        return tuple(reversed(x.coords))

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
                assert via_chain == via_space, (
                    f"nerve face mismatch at d{i} of {chain}: "
                    f"{via_chain} != {via_space}"
                )


def nerve_view(monoid: CommutativeMonoid, dim_bound: int) -> NerveView:
    return NerveView(monoid, dim_bound)
