import itertools
import random
from math import comb

import pytest

from emhorn.delta import MonotoneMap, coface
from emhorn.em import EMSimplex, EMSpace, NerveView
from emhorn.horn import build_constraints, horn_from_simplex, solve_em
from emhorn.monoid import boolean, cyclic, int_group, nat, trivial
from support import (
    degeneracy_by_composition,
    em_homomorphism_violations,
    em_identity_violations,
    face_by_composition,
    reversal,
    reverse_simplex,
    unit_vectors,
)


@pytest.fixture
def K_nat2():
    return EMSpace(nat(), 2, 4)


class TestConstruction:
    def test_generator_lists_degree_two(self, K_nat2):
        assert K_nat2.gen_names(2) == ["012"]
        assert K_nat2.gen_names(3) == ["0012", "0112", "0122"]

    def test_levels_below_degree_are_trivial(self, K_nat2):
        assert K_nat2.rank(0) == 0
        assert K_nat2.rank(1) == 0

    def test_generator_counts(self):
        for n in range(4):
            K = EMSpace(nat(), n, 8)
            for k in range(9):
                assert K.rank(k) == comb(k, n)

    def test_degree_zero_single_generator_everywhere(self):
        K = EMSpace(nat(), 0, 4)
        assert all(K.rank(k) == 1 for k in range(5))

    def test_trivial_monoid_is_a_point(self):
        K = EMSpace(trivial(), 2, 4)
        for k in range(5):
            assert K.enumerate_level(k) == [K.zero(k)]

    def test_levels_are_enumerated_on_first_read_only(self, levels_read):
        K = EMSpace(nat(), 2, 10**6)
        assert levels_read == []
        assert K.gen_names(3) == ["0012", "0112", "0122"] and K.rank(3) == 3
        assert levels_read == [(3, 2)]

    def test_enumeration_refuses_a_negative_bound(self, K_nat2):
        assert len(K_nat2.enumerate_level(3, bound=0)) == 1
        for K in (K_nat2, EMSpace(int_group(), 1, 3), EMSpace(cyclic(2), 1, 3)):
            with pytest.raises(ValueError, match="coordinate bound -1 is negative"):
                K.enumerate_level(2, bound=-1)

    def test_simplex_validates_width(self, K_nat2):
        with pytest.raises(ValueError):
            K_nat2.simplex(3, (1, 2))
        with pytest.raises(ValueError):
            K_nat2.simplex(9, ())


class TestFaces:
    def test_index_above_the_level_is_refused(self, K_nat2):
        # level 3 is in the truncation; only i > k is out of range, and a
        # table built for it would send every coordinate to the basepoint
        with pytest.raises(ValueError, match=r"face \(3, 4\) out of range"):
            K_nat2.face_fibers(3, 4)

    def test_level_three_face_formulas(self, K_nat2):
        rng = random.Random(0)
        for _ in range(100):
            a, b, c = (rng.randrange(10**6) for _ in range(3))
            x = K_nat2.simplex(3, (a, b, c))
            assert K_nat2.face(3, 0, x).coords == (a,)
            assert K_nat2.face(3, 1, x).coords == (a + b,)
            assert K_nat2.face(3, 2, x).coords == (b + c,)
            assert K_nat2.face(3, 3, x).coords == (c,)

    @pytest.mark.parametrize("degree", range(5))
    @pytest.mark.parametrize(
        "operator, oracle, levels",
        [("face", face_by_composition, range(1, 7)),
         ("degeneracy", degeneracy_by_composition, range(6))],
        ids=["face", "degeneracy"],
    )
    def test_unit_vectors_against_composition_oracle(self, operator, oracle, levels, degree):
        # entry by entry: each unit vector is one generator, so this compares
        # every entry of every table up to level 6 with the defining composite
        K = EMSpace(nat(), degree, 6)
        apply = getattr(K, operator)
        for x in unit_vectors(K):
            if x.level in levels:
                for i in range(x.level + 1):
                    assert apply(x.level, i, x) == oracle(K, x.level, i, x), (x, i)

    def test_filling_tables_builds_no_map(self, monkeypatch):
        K = EMSpace(nat(), 3, 8)
        for k in range(9):
            K.gens[k]
        built = []
        init = MonotoneMap.__init__

        def counting(f, values, cod):
            built.append(f)
            init(f, values, cod)

        monkeypatch.setattr(MonotoneMap, "__init__", counting)
        for k in range(1, 9):
            for i in range(k + 1):
                K.face_fibers(k, i)
        for k in range(8):
            for j in range(k + 1):
                K.degeneracy_targets(k, j)
        assert built == []
        coface(2, 1)  # the patch does count the maps that are built
        assert len(built) == 1

    def test_random_faces_against_composition_oracle(self):
        rng = random.Random(9)
        for M in (nat(), cyclic(4), boolean()):
            K = EMSpace(M, 2, 4)
            for k in (2, 3, 4):
                for _ in range(25):
                    x = K.random_simplex(k, rng, 50)
                    for i in range(k + 1):
                        assert K.face(k, i, x) == face_by_composition(K, k, i, x)

    def test_face_level_mismatch_rejected(self, K_nat2):
        with pytest.raises(ValueError):
            K_nat2.face(3, 0, K_nat2.zero(2))
        with pytest.raises(ValueError):
            K_nat2.face(5, 0, K_nat2.zero(4))


class TestReversal:
    """Reversing ``[k]`` is an isomorphism ``K(M,d) ~ K(M,d)^op``: it takes
    face ``i`` to face ``k - i``.  Sweeps solve only one shape of each
    mirrored pair on the strength of it."""

    MONOIDS = [nat, lambda: cyclic(2), boolean]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("make", MONOIDS, ids=["N", "Z/2", "bool"])
    def test_fibers_of_face_i_go_to_those_of_face_k_minus_i(self, make, degree):
        K = EMSpace(make(), degree, 5)
        for k in range(1, 6):
            upper, lower = reversal(K, k), reversal(K, k - 1)
            assert sorted(upper) == list(range(K.rank(k)))
            for i in range(k + 1):
                mirror = K.face_fibers(k, k - i)
                for g, fiber in enumerate(K.face_fibers(k, i)):
                    assert sorted(upper[h] for h in fiber) == sorted(mirror[lower[g]]), (k, i, g)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("make", MONOIDS, ids=["N", "Z/2", "bool"])
    def test_reversal_commutes_with_the_defining_faces(self, make, degree):
        K = EMSpace(make(), degree, 5)
        rng = random.Random(17)
        samples = [x for x in unit_vectors(K) if x.level >= 1]
        samples += [K.random_simplex(k, rng, 1000) for k in range(1, 6) for _ in range(8)]
        for x in samples:
            k, rx = x.level, reverse_simplex(K, x)
            for i in range(k + 1):
                assert reverse_simplex(K, face_by_composition(K, k, i, x)) == face_by_composition(
                    K, k, k - i, rx
                ), (x, i)


class TestDegeneracies:
    def test_level_two_degeneracies_place_single_coordinate(self, K_nat2):
        x = K_nat2.simplex(2, (7,))
        s0 = K_nat2.degeneracy(2, 0, x)
        assert dict(zip(K_nat2.gen_names(3), s0.coords)) == {
            "0012": 7, "0112": 0, "0122": 0,
        }
        s1 = K_nat2.degeneracy(2, 1, x)
        assert dict(zip(K_nat2.gen_names(3), s1.coords)) == {
            "0012": 0, "0112": 7, "0122": 0,
        }

    def test_index_above_the_level_is_refused(self, K_nat2):
        # level 2 is in the truncation; only j > k is out of range
        with pytest.raises(ValueError, match=r"degeneracy \(2, 3\) out of range"):
            K_nat2.degeneracy_targets(2, 3)

    def test_the_top_level_has_no_degeneracy(self, K_nat2):
        # s_0 of level 4 would land in level 5, outside the truncation 0..4
        with pytest.raises(ValueError, match=r"degeneracy \(4, 0\) out of range"):
            K_nat2.degeneracy_targets(4, 0)

    def test_identity_simplex_is_preserved(self, K_nat2):
        for k in range(4):
            for j in range(k + 1):
                assert K_nat2.degeneracy(k, j, K_nat2.zero(k)) == K_nat2.zero(k + 1)


class TestMonoidStructure:
    def test_coordinatewise_addition(self, K_nat2):
        x = K_nat2.simplex(3, (1, 0, 2))
        y = K_nat2.simplex(3, (0, 3, 1))
        assert K_nat2.add(x, y).coords == (1, 3, 3)
        assert K_nat2.add(x, K_nat2.zero(3)) == x

    def test_faces_are_additive(self, K_nat2):
        rng = random.Random(1)
        for _ in range(50):
            x = K_nat2.random_simplex(3, rng, 100)
            y = K_nat2.random_simplex(3, rng, 100)
            assert K_nat2.face(3, 1, K_nat2.add(x, y)) == K_nat2.add(
                K_nat2.face(3, 1, x), K_nat2.face(3, 1, y)
            )

    def test_add_level_mismatch_rejected(self, K_nat2):
        with pytest.raises(ValueError):
            K_nat2.add(K_nat2.zero(2), K_nat2.zero(3))


class TestSimplicialIdentities:
    @pytest.mark.parametrize(
        "make", [nat, int_group, lambda: cyclic(4), boolean, trivial]
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_identities_on_random_simplices(self, make, n):
        K = EMSpace(make(), n, 6)
        rng = random.Random(hash((str(K.monoid.name), n)) % (2**32))
        assert em_identity_violations(K, rng, per_level=40) == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identities_on_every_sphere_cell(self, n):
        # exhaustive: the unit vectors over N are the sphere's cells
        K = EMSpace(nat(), n, 6)
        assert em_identity_violations(K, None, simplices=unit_vectors(K)) == []

    def test_the_scan_reports_a_corrupted_face(self):
        K = EMSpace(nat(), 2, 4)
        K._face_fibers[(3, 0)] = [(1,)]  # d0 of 0112 is 112, on the basepoint, not 012
        bad = em_identity_violations(K, None, simplices=unit_vectors(K))
        assert "d0 d1 at level 4 of K(N,2)" in bad

    def test_the_scan_reports_a_corrupted_degeneracy(self):
        K = EMSpace(nat(), 2, 4)
        K._degeneracy_targets[(2, 0)] = [1]  # s0 of 012 is 0012, not 0112
        bad = em_identity_violations(K, None, simplices=unit_vectors(K))
        assert "d0 s0 at level 2 of K(N,2)" in bad

    @pytest.mark.parametrize("make", [nat, lambda: cyclic(4), boolean])
    def test_operators_are_homomorphisms(self, make):
        K = EMSpace(make(), 2, 5)
        rng = random.Random(11)
        assert em_homomorphism_violations(K, rng, samples=30) == []


class TestDegreeZero:
    def test_all_operators_are_the_identity(self):
        rng = random.Random(2)
        for M in (nat(), cyclic(4)):
            K = EMSpace(M, 0, 5)
            for k in range(6):
                for _ in range(20):
                    x = K.random_simplex(k, rng, 100)
                    if k >= 1:
                        for i in range(k + 1):
                            assert K.face(k, i, x).coords == x.coords
                    if k < 5:
                        for j in range(k + 1):
                            assert K.degeneracy(k, j, x).coords == x.coords


class TestNerveView:
    def test_level_two_faces_in_chain_form(self):
        nv = NerveView(nat(), 4)
        assert nv.space.gen_names(2) == ["001", "011"]
        x = nv.from_chain((5, 7))
        # coordinate at 001 is the second chain entry, at 011 the first
        assert dict(zip(nv.space.gen_names(2), x.coords)) == {"001": 7, "011": 5}
        assert nv.space.face(2, 1, x).coords == (12,)
        assert nv.space.face(2, 0, x) == nv.from_chain((7,))
        assert nv.space.face(2, 2, x) == nv.from_chain((5,))

    def test_level_counts_match_chains(self):
        nv = NerveView(cyclic(3), 5)
        for k in range(6):
            assert nv.space.rank(k) == k

    def test_chain_roundtrip(self):
        nv = NerveView(int_group(), 4)
        chain = (3, -1, 4, 1)
        assert tuple(reversed(nv.from_chain(chain).coords)) == chain

    @pytest.mark.parametrize("make", [lambda: cyclic(4), boolean, trivial])
    def test_coincidence_exhaustive_finite(self, make):
        M = make()
        nv = NerveView(M, 4)
        for k in range(5):
            nv.check_face_coincidence(itertools.product(M.elements, repeat=k))

    def test_coincidence_sampled_nat(self):
        nv = NerveView(nat(), 4)
        rng = random.Random(4)
        chains = [
            tuple(rng.randrange(50) for _ in range(k)) for k in range(1, 5) for _ in range(50)
        ]
        nv.check_face_coincidence(chains)


class TestSimplexWidth:
    """Operators refuse a simplex whose coordinate count does not match its
    level, instead of gathering from the wrong vector."""

    def test_face_rejects_the_wrong_width(self, K_nat2):
        with pytest.raises(ValueError, match="level 3 of K\\(N,2\\) has 3 coordinates, got 2"):
            K_nat2.face(3, 3, EMSimplex(3, (5, 7)))
        with pytest.raises(ValueError, match="got 4"):
            K_nat2.face(3, 0, EMSimplex(3, (1, 2, 3, 4)))

    def test_degeneracy_rejects_the_wrong_width(self, K_nat2):
        with pytest.raises(ValueError, match="level 2 of K\\(N,2\\) has 1 coordinates, got 0"):
            K_nat2.degeneracy(2, 0, EMSimplex(2, ()))
        with pytest.raises(ValueError, match="got 2"):
            K_nat2.degeneracy(2, 1, EMSimplex(2, (1, 2)))

    def test_add_rejects_the_wrong_width(self, K_nat2):
        x = K_nat2.simplex(3, (1, 0, 2))
        with pytest.raises(ValueError, match="got 2"):
            K_nat2.add(x, EMSimplex(3, (1, 1)))
        with pytest.raises(ValueError, match="got 4"):
            K_nat2.add(EMSimplex(3, (1, 1, 1, 1)), x)

    def test_levels_beyond_the_truncation_stay_value_errors(self, K_nat2):
        with pytest.raises(ValueError):
            K_nat2.face(5, 0, EMSimplex(5, (0,) * 10))
        with pytest.raises(ValueError):
            K_nat2.degeneracy(4, 0, EMSimplex(4, (0,) * 6))
        with pytest.raises(ValueError, match="outside truncation"):
            K_nat2.add(EMSimplex(9, ()), EMSimplex(9, ()))
        with pytest.raises(ValueError, match="outside truncation"):
            K_nat2.add(EMSimplex(-1, ()), EMSimplex(-1, ()))

    @pytest.mark.parametrize("level", [-1, 5, 7])
    def test_every_level_argument_is_checked_against_the_truncation(self, K_nat2, level):
        message = f"level {level} outside truncation 0..4"
        calls = [
            lambda: K_nat2.rank(level),
            lambda: K_nat2.zero(level),
            lambda: K_nat2.simplex(level, ()),
            lambda: K_nat2.random_simplex(level, random.Random(0)),
            lambda: K_nat2.enumerate_level(level, bound=1),
            lambda: K_nat2.contains(level, EMSimplex(level, ())),
            lambda: K_nat2.gen_names(level),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_neg_rejects_the_wrong_width(self):
        K = EMSpace(int_group(), 2, 4)
        with pytest.raises(ValueError, match="level 3 of K\\(Z,2\\) has 3 coordinates, got 1"):
            K.neg(EMSimplex(3, (1,)))
        with pytest.raises(ValueError, match="outside truncation"):
            K.neg(EMSimplex(-1, ()))

    def test_random_simplex_draws_one_sample_per_generator(self, K_nat2):
        drawn, replay = random.Random(11), random.Random(11)
        x = K_nat2.random_simplex(4, drawn, hint=7)
        assert x.coords == tuple(nat().sample(replay, 7) for _ in range(K_nat2.rank(4)))
        assert drawn.random() == replay.random()


class TestSimplexContract:
    """Simplices are named tuples (level, coords): immutable, hashable by
    value and equal to a plain tuple, but only an ``EMSimplex`` is one."""

    def test_every_constructor_returns_the_named_type(self, K_nat2):
        rng = random.Random(5)
        x = K_nat2.simplex(3, (1, 0, 2))
        K_int = EMSpace(int_group(), 2, 4)
        y = K_nat2.simplex(3, (2, 1, 4))
        filler = solve_em(build_constraints(K_nat2, horn_from_simplex(K_nat2, 3, 1, y))).filler
        results = [
            K_nat2.face(3, 1, x),
            K_nat2.degeneracy(3, 2, x),
            K_nat2.add(x, x),
            K_int.neg(K_int.simplex(3, (1, -2, 3))),
            K_nat2.zero(4),
            x,
            K_nat2.random_simplex(4, rng),
            *K_nat2.enumerate_level(3, bound=1),
            filler,
        ]
        assert filler == y
        for r in results:
            assert type(r) is EMSimplex, r

    def test_fields_and_coercion(self):
        x = EMSimplex(2, [5])
        assert type(x.coords) is tuple
        assert (x.level, x.coords) == (2, (5,))
        assert x == EMSimplex(2, (5,)) == (2, (5,))

    def test_equal_values_hash_equal(self):
        assert hash(EMSimplex(3, [1, 2, 3])) == hash(EMSimplex(3, (1, 2, 3)))
        assert len({EMSimplex(3, [1, 2, 3]), EMSimplex(3, (1, 2, 3))}) == 1

    def test_immutable(self):
        x = EMSimplex(2, (5,))
        with pytest.raises(AttributeError):
            x.level = 3
        with pytest.raises(AttributeError):
            x.coords = (6,)
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_repr_is_unchanged(self):
        assert repr(EMSimplex(2, (5,))) == "EMSimplex(level=2, coords=(5,))"

    def test_a_plain_tuple_is_not_contained(self, K_nat2):
        assert K_nat2.contains(2, EMSimplex(2, (5,)))
        assert not K_nat2.contains(2, (2, (5,)))


class TestWideOperators:
    """Operators at levels the other tests do not reach, against the
    defining formulas."""

    SPACES = [(lambda: cyclic(5), 5), (nat, 3), (boolean, 4)]

    @pytest.mark.parametrize("make, degree", SPACES)
    def test_wide_faces_against_composition_oracle(self, make, degree):
        K = EMSpace(make(), degree, 9)
        rng = random.Random(degree)
        for k in (7, 8, 9):
            for _ in range(3):
                x = K.random_simplex(k, rng, 50)
                for i in range(k + 1):
                    assert K.face(k, i, x) == face_by_composition(K, k, i, x)

    @pytest.mark.parametrize("make, degree", SPACES)
    def test_every_degeneracy_against_composition_oracle(self, make, degree):
        K = EMSpace(make(), degree, 9)
        rng = random.Random(10 + degree)
        for k in range(9):
            x = K.random_simplex(k, rng, 50)
            for j in range(k + 1):
                assert K.degeneracy(k, j, x) == degeneracy_by_composition(K, k, j, x)

    def test_every_face_fiber_has_one_or_two_sources(self):
        for degree in range(6):
            K = EMSpace(nat(), degree, 8)
            for k in range(1, 9):
                for i in range(k + 1):
                    sizes = {len(fiber) for fiber in K.face_fibers(k, i)}
                    assert sizes <= {1, 2}, (degree, k, i, sizes)
