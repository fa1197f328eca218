import dataclasses
from math import comb

import pytest

from emhorn.delta import MonotoneMap, codegeneracy, coface, identity
from emhorn.sset import (
    BASEPOINT,
    render_id,
    simplicial_identity_violations,
    sphere,
    standard_simplex,
)


def names(level):
    return [render_id(x) for x in level]


class TestStandardSimplex:
    def test_level_one_count(self):
        X = standard_simplex(2, 3)
        assert len(X.level(1)) == 6

    def test_unique_injective_top_cell(self):
        X = standard_simplex(2, 3)
        injectives = [x for x in X.level(2) if x.is_injective()]
        assert names(injectives) == ["012"]

    def test_faces_of_top_cell(self):
        X = standard_simplex(2, 3)
        top = MonotoneMap((0, 1, 2), 2)
        assert [str(X.face(2, i, top)) for i in range(3)] == ["12", "02", "01"]

    def test_level_counts(self):
        # monotone maps [k] -> [n] are the (k+1)-multisets of n+1 values
        for n in range(4):
            X = standard_simplex(n, 6)
            for k in range(7):
                assert len(X.level(k)) == comb(n + k + 1, k + 1)

    def test_degeneracies_of_top_cell(self):
        for n in range(4):
            X = standard_simplex(n, n + 1)
            for j in range(n + 1):
                assert X.degeneracy(n, j, identity(n)) == codegeneracy(n, j)

    def test_boundary_is_a_subcomplex(self):
        # the non-surjective cells; at level n everything but the identity
        for n in range(1, 4):
            D = 5
            X = standard_simplex(n, D)
            inside = [{x for x in X.level(k) if not x.is_surjective()} for k in range(D + 1)]
            assert inside[n] == set(X.level(n)) - {identity(n)}
            assert_closed_under_operators(X, inside)

    def test_horns_are_subcomplexes(self):
        # the cells whose image together with k misses a vertex
        for n in range(1, 4):
            D = 5
            X = standard_simplex(n, D)
            for k in range(n + 1):
                inside = [
                    {x for x in X.level(lv) if set(x.values) | {k} != set(range(n + 1))}
                    for lv in range(D + 1)
                ]
                assert_closed_under_operators(X, inside)
                faces_of_top = [X.face(n, i, identity(n)) in inside[n - 1] for i in range(n + 1)]
                assert faces_of_top == [i != k for i in range(n + 1)]
                assert coface(n, k) not in inside[n - 1]


def assert_closed_under_operators(X, inside):
    D = X.dim_bound
    for k in range(D + 1):
        for x in inside[k]:
            for i in range(k + 1 if k else 0):
                assert X.face(k, i, x) in inside[k - 1]
            for j in range(k + 1 if k < D else 0):
                assert X.degeneracy(k, j, x) in inside[k + 1]


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

    def test_basepoint_is_fixed(self):
        S = sphere(2, 4)
        for k in range(1, 5):
            for i in range(k + 1):
                assert S.face(k, i, BASEPOINT) == BASEPOINT
        for k in range(4):
            for j in range(k + 1):
                assert S.degeneracy(k, j, BASEPOINT) == BASEPOINT

    def test_non_surjective_composites_collapse(self):
        S = sphere(2, 3)
        x = MonotoneMap((0, 0, 1, 2), 2)
        assert S.face(3, 2, x) == BASEPOINT

    def test_dump_is_canonical(self):
        S = sphere(2, 3)
        assert S.dump() == "0: *\n1: *\n2: * 012\n3: * 0012 0112 0122"

class TestSimplicialIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_families_satisfy_identities(self, n):
        D = 6
        for X in (standard_simplex(n, D), sphere(n, D)):
            assert simplicial_identity_violations(X) == []


class TestIdentityScanner:
    def test_reports_a_corrupted_face(self):
        X = standard_simplex(2, 3)
        faces = dict(X.faces)
        faces[(2, 0, identity(2))] = MonotoneMap((0, 1), 2)
        bad = simplicial_identity_violations(dataclasses.replace(X, faces=faces))
        assert "d0 d1 012: 2 != 1" in bad
        assert "d0 s1 012: 112 != 001" in bad

    def test_reports_a_corrupted_degeneracy(self):
        X = standard_simplex(2, 3)
        degeneracies = dict(X.degeneracies)
        degeneracies[(1, 0, MonotoneMap((0, 1), 2))] = MonotoneMap((0, 1, 1), 2)
        bad = simplicial_identity_violations(dataclasses.replace(X, degeneracies=degeneracies))
        assert "s0 s0 01" in bad
        assert "d0 s0 01: 11 != 01" in bad


class TestQuotientCompatibility:
    def test_collapsing_boundary_gives_the_sphere(self):
        n, D = 2, 5
        Dx = standard_simplex(n, D)
        S = sphere(n, D)
        collapse = {
            k: {x: (x if x.is_surjective() else BASEPOINT) for x in Dx.level(k)}
            for k in range(D + 1)
        }
        for k in range(D + 1):
            surjective = [x for x in Dx.level(k) if x.is_surjective()]
            assert list(S.level(k)) == [BASEPOINT] + surjective
        # the collapse commutes with every face and degeneracy, on every cell
        for k in range(D + 1):
            for x in Dx.level(k):
                for i in range(k + 1 if k else 0):
                    assert S.face(k, i, collapse[k][x]) == collapse[k - 1][Dx.face(k, i, x)]
                for j in range(k + 1 if k < D else 0):
                    assert S.degeneracy(k, j, collapse[k][x]) == collapse[k + 1][Dx.degeneracy(k, j, x)]


class TestTruncationBoundaries:
    def test_out_of_range_rejected(self):
        X = standard_simplex(2, 2)
        with pytest.raises(ValueError):
            X.level(3)
        with pytest.raises(ValueError):
            X.face(3, 0, MonotoneMap((0, 1, 2), 2))
        with pytest.raises(ValueError):
            X.degeneracy(2, 0, MonotoneMap((0, 1, 2), 2))
