from math import comb

import pytest

from emhorn.delta import MonotoneMap, codegeneracy, compose, coface
from emhorn.em import EMSimplex, EMSpace
from emhorn.monoid import nat
from emhorn.sset import BASEPOINT, sphere
from support import brute_monotone_tuples, surjective


def names(level):
    return [str(x) for x in level]


class TestSphere:
    def test_low_levels_of_two_sphere(self):
        S = sphere(2, 3)
        assert names(S.level(0)) == ["*"]
        assert names(S.level(1)) == ["*"]
        assert names(S.level(2)) == ["*", "012"]
        assert names(S.level(3)) == ["*", "0012", "0112", "0122"]

    def test_level_counts(self):
        for n in range(1, 4):
            S = sphere(n, 8)
            for k in range(9):
                assert len(S.level(k)) == 1 + comb(k, n)

    def test_levels_are_the_em_generators(self):
        # the sphere's cells other than the basepoint are K(M,n)'s coordinates
        for n in range(1, 4):
            S, K = sphere(n, 6), EMSpace(nat(), n, 6)
            for k in range(7):
                assert names(S.level(k)) == [BASEPOINT] + K.gen_names(k)

    def test_basepoint_is_fixed(self):
        # the basepoint is the zero vector of K(N,2)
        K = EMSpace(nat(), 2, 4)
        for k in range(1, 5):
            for i in range(k + 1):
                assert K.face(k, i, K.zero(k)) == K.zero(k - 1)
        for k in range(4):
            for j in range(k + 1):
                assert K.degeneracy(k, j, K.zero(k)) == K.zero(k + 1)

    def test_non_surjective_composites_collapse(self):
        K = EMSpace(nat(), 2, 3)
        x = K.simplex(3, [1, 0, 0])  # the cell 0012
        assert K.face(3, 2, x) == K.zero(2)  # 002 misses 1

    def test_degree_zero_refused(self):
        with pytest.raises(ValueError, match="defined for n >= 1"):
            sphere(0, 3)


class TestQuotientCompatibility:
    def test_collapsing_boundary_gives_the_sphere(self):
        n, D = 2, 5
        K = EMSpace(nat(), n, D)
        S = sphere(n, D)
        simplex = {
            k: [MonotoneMap(t, n) for t in brute_monotone_tuples(k, n)] for k in range(D + 1)
        }

        def collapse(x):
            k = x.dom
            return EMSimplex(k, tuple(int(g == x) for g in K.gens[k]))

        for k in range(D + 1):
            surjections = [x for x in simplex[k] if surjective(x)]
            assert list(S.level(k)) == [BASEPOINT] + surjections
        # the collapse commutes with every face and degeneracy, on every cell
        for k in range(D + 1):
            for x in simplex[k]:
                for i in range(k + 1 if k else 0):
                    assert K.face(k, i, collapse(x)) == collapse(compose(coface(k, i), x))
                for j in range(k + 1 if k < D else 0):
                    assert K.degeneracy(k, j, collapse(x)) == collapse(
                        compose(codegeneracy(k, j), x)
                    )


class TestTruncationBoundaries:
    def test_out_of_range_rejected(self):
        for D in (2, 10**6):
            S = sphere(2, D)
            for k in (D + 1, -1):
                with pytest.raises(ValueError, match=rf"^level {k} outside truncation 0\.\.{D}$"):
                    S.level(k)

    def test_a_deep_truncation_enumerates_only_the_levels_read(self, levels_read):
        S = sphere(2, 10**6)
        assert levels_read == []
        assert names(S.level(3)) == ["*", "0012", "0112", "0122"]
        assert levels_read == [(3, 2)]
