import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import emhorn.horn as horn_module
from emhorn.em import EMSpace
from emhorn.horn import (
    CERTIFICATE_SCHEMA,
    CertStep,
    Equation,
    FillerResult,
    HornProblem,
    _propagate,
    brute_force_filler,
    build_constraints,
    certificate_json,
    count_fillers,
    horn_from_simplex,
    iter_compatible_horn_data,
    iter_fillers,
    moore_filler,
    quasicategory_counterexample,
    solve_em,
    sweep_kan,
    sweep_quasicategory,
    validate_horn,
)
from emhorn.monoid import (
    CommutativeMonoid,
    UndecidableError,
    boolean,
    cyclic,
    from_table,
    int_group,
    nat,
    trivial,
)
from support import equations_by_composition, random_compatible_horns


def nat_horn(f0, f2, f3, k=1):
    K = EMSpace(nat(), 2, 3)
    faces = {0: K.simplex(2, (f0,)), 2: K.simplex(2, (f2,)), 3: K.simplex(2, (f3,))}
    if k != 1:
        raise ValueError("helper builds the inner horn missing face 1")
    return K, HornProblem(K, 3, 1, faces)


class TestValidateHorn:
    def test_degree_two_level_one_compatibility_is_vacuous(self):
        K, p = nat_horn(5, 1, 3)
        assert validate_horn(p) == (True, None)

    def test_nerve_horn_at_dimension_two(self):
        N = EMSpace(nat(), 1, 3)
        p = HornProblem(N, 2, 1, {0: N.simplex(1, (4,)), 2: N.simplex(1, (9,))})
        assert validate_horn(p) == (True, None)

    def test_missing_and_extra_faces_rejected(self):
        K = EMSpace(nat(), 2, 3)
        with pytest.raises(ValueError, match="needs faces"):
            validate_horn(HornProblem(K, 3, 1, {0: K.simplex(2, (1,))}))
        faces = {i: K.simplex(2, (1,)) for i in (0, 1, 2, 3)}
        with pytest.raises(ValueError, match="needs faces"):
            validate_horn(HornProblem(K, 3, 1, faces))

    def test_horn_outside_its_range_rejected(self):
        K = EMSpace(nat(), 2, 3)
        for n, k, faces, message in (
            (0, 0, {}, "horns exist in dimension >= 1, got n=0"),
            (3, 4, {}, "horn index 4 out of range for \\[3\\]"),
            (4, 1, dict.fromkeys((0, 2, 3, 4), K.zero(3)), "dimension 4 exceeds truncation 3"),
        ):
            with pytest.raises(ValueError, match=message):
                validate_horn(HornProblem(K, n, k, faces))

    def test_wrong_level_rejected(self):
        K = EMSpace(nat(), 2, 3)
        faces = {0: K.simplex(3, (1, 1, 1)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (1,))}
        with pytest.raises(ValueError, match="level"):
            validate_horn(HornProblem(K, 3, 1, faces))

    @pytest.mark.parametrize(
        "make, outside",
        [
            (lambda: cyclic(2), 5), (boolean, 7), (nat, -2),
            (lambda: cyclic(3), 2.0), (lambda: cyclic(3), Fraction(1)),
            (boolean, 2.0), (boolean, Fraction(1)),
        ],
        ids=["Z/2", "bool", "N", "Z/3 2.0", "Z/3 Fraction", "bool 2.0", "bool Fraction"],
    )
    def test_coordinates_outside_the_monoid_rejected(self, make, outside):
        # the solver, the constructive filler and the certificate would
        # otherwise each take the value as given; a non-int equal to an
        # element is not one either
        K = EMSpace(make(), 2, 3)
        p = HornProblem(K, 3, 1, {0: K.simplex(2, (outside,)), 2: K.zero(2), 3: K.zero(2)})
        message = f"face 0 is not a level-2 simplex of K\\({K.monoid.name},2\\)"
        with pytest.raises(ValueError, match=message):
            validate_horn(p)
        with pytest.raises(ValueError, match=message):
            build_constraints(K, p)
        if K.monoid.is_group:
            with pytest.raises(ValueError, match=message):
                moore_filler(K, p)

    def test_enumerator_refuses_shapes_outside_the_truncation(self):
        K = EMSpace(cyclic(2), 2, 3)
        for n, k, message in (
            (0, 0, "horns exist in dimension >= 1, got n=0"),
            (3, 5, "horn index 5 out of range for \\[3\\]"),
            (4, 1, "dimension 4 exceeds truncation 3"),
        ):
            with pytest.raises(ValueError, match=message):
                next(iter_compatible_horn_data(K, n, k))

    def test_incompatible_em_faces_found(self):
        # at dimension 4 the faces meet in level 2, so mismatches are visible
        K = EMSpace(nat(), 2, 4)
        rng = random.Random(0)
        y = K.random_simplex(4, rng, 5)
        p = horn_from_simplex(K, 4, 2, y)
        assert validate_horn(p) == (True, None)
        broken = dict(p.faces)
        broken[0] = K.add(broken[0], K.simplex(3, (1, 0, 0)))
        ok, violation = validate_horn(HornProblem(K, 4, 2, broken))
        assert not ok and violation[0] == 0


class TestBuildConstraints:
    def test_inner_horn_missing_one(self):
        K, p = nat_horn(7, 1, 3)
        sys_ = build_constraints(K, p)
        assert [str(v) for v in sys_.variables] == ["0012", "0112", "0122"]
        got = [(eq.face, eq.vars, eq.rhs) for eq in sys_.equations]
        assert got == [(0, (0,), 7), (2, (1, 2), 1), (3, (2,), 3)]

    def test_inner_horn_missing_two(self):
        K = EMSpace(nat(), 2, 3)
        faces = {0: K.simplex(2, (7,)), 1: K.simplex(2, (9,)), 3: K.simplex(2, (2,))}
        sys_ = build_constraints(K, HornProblem(K, 3, 2, faces))
        got = [(eq.face, eq.vars, eq.rhs) for eq in sys_.equations]
        assert got == [(0, (0,), 7), (1, (0, 1), 9), (3, (2,), 2)]

    def test_degree_two_horn_at_dimension_two_is_empty(self):
        K = EMSpace(nat(), 2, 3)
        p = HornProblem(K, 2, 1, {0: K.zero(1), 2: K.zero(1)})
        sys_ = build_constraints(K, p)
        assert sys_.equations == []
        assert solve_em(sys_).found

    def test_space_other_than_the_horn_target_is_refused(self):
        # over the integers this horn has the filler (0, -2, 3); over the
        # naturals, where its faces live, it has none
        K, p = nat_horn(0, 1, 3)
        Z = EMSpace(int_group(), 2, 3)
        refused = "the horn maps into K\\(N,2\\), not the given K\\({},2\\)"
        for call in (build_constraints, moore_filler, brute_force_filler, iter_fillers):
            with pytest.raises(ValueError, match=refused.format("Z")):
                list(call(Z, p)) if call is iter_fillers else call(Z, p)
        with pytest.raises(ValueError, match=refused.format("N")):
            build_constraints(EMSpace(nat(), 2, 3), p)
        assert not solve_em(build_constraints(K, p)).found


class TestSolveEM:
    def test_unsolvable_chain_over_naturals(self):
        K, p = nat_horn(0, 1, 3)
        res = solve_em(build_constraints(K, p))
        assert not res.found
        kinds = [s.kind for s in res.steps]
        assert kinds == ["assign", "assign", "contradiction"]
        last = res.steps[-1]
        assert last.variable == "0112"
        assert last.known == 3 and last.rhs == 1
        assert last.equation == "x(0112) + 3 = 1"

    def test_solvable_by_propagation(self):
        K, p = nat_horn(2, 5, 1)
        res = solve_em(build_constraints(K, p))
        assert res.found
        assert res.filler.coords == (2, 4, 1)

    def test_integers_always_fill(self):
        K = EMSpace(int_group(), 2, 3)
        faces = {0: K.simplex(2, (0,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (3,))}
        res = solve_em(build_constraints(K, HornProblem(K, 3, 1, faces)))
        assert res.found
        assert res.filler.coords == (0, -2, 3)

    def test_group_horn_at_trivial_constraint_level(self):
        # the faces live in a trivial level, so there are no equations and
        # the identity simplex fills; this must not be a special-cased error
        for degree in (2, 3):
            K = EMSpace(int_group(), degree, degree)
            p = HornProblem(
                K, degree, 1,
                {i: K.zero(degree - 1) for i in range(degree + 1) if i != 1},
            )
            res = solve_em(build_constraints(K, p))
            assert res.found
            assert res.filler == K.zero(degree)

    def test_boolean_requires_search_not_first_guess(self):
        # 1 + x = 1 has two solutions; committing to the first would miss
        # the filler that the remaining equations need
        N = EMSpace(boolean(), 1, 4)
        p = HornProblem(
            N,
            3,
            2,
            {
                0: N.simplex(2, (0, 1)),
                1: N.simplex(2, (0, 1)),
                3: N.simplex(2, (1, 1)),
            },
        )
        assert validate_horn(p) == (True, None)
        res = solve_em(build_constraints(N, p))
        brute = brute_force_filler(N, p)
        assert brute.found
        assert res.found

    def test_filler_reverifies_against_faces(self):
        rng = random.Random(6)
        K = EMSpace(cyclic(5), 2, 4)
        for n in (3, 4):
            for p in random_compatible_horns(K, n, 1, rng, 20):
                res = solve_em(build_constraints(K, p))
                assert res.found
                for i, x in p.faces.items():
                    assert K.face(n, i, res.filler) == x

    def test_exhausted_search_records_note(self):
        K = EMSpace(boolean(), 2, 3)
        faces = {0: K.simplex(2, (1,)), 2: K.simplex(2, (0,)), 3: K.simplex(2, (1,))}
        res = solve_em(build_constraints(K, HornProblem(K, 3, 1, faces)))
        assert not res.found
        # chain certificate: c is forced to 1 and then x + 1 = 0 fails
        assert res.steps[-1].kind == "contradiction"

    def test_count_at_the_degree_level_is_the_monoid_size(self):
        # at n = d every element fills the one coordinate
        for M in (boolean(), cyclic(3), trivial()):
            K = EMSpace(M, 2, 2)
            system = build_constraints(K, HornProblem(K, 2, 1, {0: K.zero(1), 2: K.zero(1)}))
            assert count_fillers(system, 5) == len(M.elements)
            assert solve_em(system).filler == K.zero(2)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_count_limit_below_one_is_refused(self, limit):
        K = EMSpace(nat(), 2, 3)
        p = HornProblem(K, 2, 1, {0: K.simplex(1, ()), 2: K.simplex(1, ())})
        B = EMSpace(boolean(), 2, 3)
        q = HornProblem(B, 3, 1, {i: B.simplex(2, (1,)) for i in (0, 2, 3)})
        for system in (build_constraints(K, p), build_constraints(B, q)):
            with pytest.raises(ValueError, match=f"filler count limit {limit} is below 1"):
                count_fillers(system, limit)

    def test_no_capability_raises(self):
        bare = CommutativeMonoid("bare", 0, lambda a, b: a + b)
        K = EMSpace(bare, 2, 3)
        p = HornProblem(K, 3, 1, {i: K.zero(2) for i in (0, 2, 3)})
        with pytest.raises(UndecidableError, match="undecidable here"):
            solve_em(build_constraints(K, p))


def _repeats(g):
    """A surjection's repeat set: the positions p with g(p) = g(p-1)."""
    return frozenset(p for p in range(1, len(g.values)) if g.values[p] == g.values[p - 1])


class TestCompleteness:
    """Propagation decides every horn over a cancellative monoid; the
    proof in ``_solve`` rests on the repeat-set form of the face rows."""

    def test_every_shape_of_the_naturals_is_complete(self):
        shapes = 0
        for d in range(1, 7):
            top = min(d + 5, 10)
            K = EMSpace(nat(), d, top)
            for n in range(1, top + 1):
                index = {_repeats(g): v for v, g in enumerate(K.gens[n])}
                for i in range(n + 1):
                    row_of = {v: vs for vs in K.face_fibers(n, i) for v in vs}
                    for v, g in enumerate(K.gens[n]):
                        R = _repeats(g)
                        if (i == 0 and 1 in R) or (i == n and n in R) or {i, i + 1} <= R:
                            assert row_of[v] == (v,), (d, n, i, g)
                        elif 0 < i < n and len(R & {i, i + 1}) == 1:
                            moved = index[R ^ {i, i + 1}]
                            assert row_of[v] == tuple(sorted((v, moved))), (d, n, i, g)
                        else:
                            assert v not in row_of, (d, n, i, g)
                for k in range(n + 1):
                    shape = horn_module._horn_shape(K, n, k)
                    rows = shape.rows
                    reached = _propagate(rows, [0] * len(rows), [None] * len(K.gens[n]), int_group())[0]
                    assert (None not in reached) == (n != d), (d, n, k)
                    shapes += 1
        assert shapes == 290

    @pytest.mark.parametrize(
        "order, degree, top", [(2, 1, 4), (2, 2, 5), (2, 3, 5), (3, 2, 4)],
        ids=["Z/2 d=1", "Z/2 d=2", "Z/2 d=3", "Z/3 d=2"],
    )
    def test_finite_group_horns_match_simplices(self, order, degree, top):
        # above level d every group horn has exactly one filler, so the
        # compatible data are the level-n simplices, |G|^C(n,d) of them
        K = EMSpace(cyclic(order), degree, top)
        for n in range(degree + 1, top + 1):
            for k in range(n + 1):
                data = sum(1 for _ in iter_compatible_horn_data(K, n, k))
                assert data == order ** math.comb(n, degree), (n, k)


class TestOtherInnerHorn:
    def test_missing_two_also_fails_over_naturals(self):
        # empirical: the equations are a = f0, a + b = f1, c = f3, so the
        # same order obstruction appears whenever f0 exceeds f1
        K = EMSpace(nat(), 2, 3)
        for f0, f1, f3 in itertools.product(range(4), repeat=3):
            faces = {
                0: K.simplex(2, (f0,)),
                1: K.simplex(2, (f1,)),
                3: K.simplex(2, (f3,)),
            }
            p = HornProblem(K, 3, 2, faces)
            got = solve_em(build_constraints(K, p)).found
            assert got == (f0 <= f1), (f0, f1, f3)


class TestMonotonicityWitness:
    def test_filler_exists_iff_last_face_at_most_middle(self):
        K = EMSpace(nat(), 2, 3)
        for f0 in range(7):
            for f2 in range(7):
                for f3 in range(7):
                    p = HornProblem(
                        K, 3, 1,
                        {
                            0: K.simplex(2, (f0,)),
                            2: K.simplex(2, (f2,)),
                            3: K.simplex(2, (f3,)),
                        },
                    )
                    expected = f3 <= f2
                    got = solve_em(build_constraints(K, p)).found
                    assert got == expected, (f0, f2, f3)
                    bound = max(f0, f2, f3)
                    brute = brute_force_filler(K, p, value_bound=bound)
                    assert brute.found == expected


def rationals():
    # neither an element list nor any integer flag: only the group capability
    return CommutativeMonoid("Q", Fraction(0), lambda a, b: a + b, inverse=lambda a: -a)


class TestMooreFiller:
    def test_matches_solver_on_integers(self):
        K = EMSpace(int_group(), 2, 3)
        faces = {0: K.simplex(2, (0,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (3,))}
        p = HornProblem(K, 3, 1, faces)
        res = moore_filler(K, p)
        assert res.found
        assert all(K.face(3, i, res.filler) == x for i, x in faces.items())
        solved = solve_em(build_constraints(K, p))
        assert solved.found and solved.filler.coords == (0, -2, 3)

    def test_exhaustive_mod_two_all_horns(self):
        K = EMSpace(cyclic(2), 2, 3)
        for k in range(4):
            indices = [i for i in range(4) if i != k]
            for vals in itertools.product((0, 1), repeat=3):
                faces = {i: K.simplex(2, (v,)) for i, v in zip(indices, vals)}
                p = HornProblem(K, 3, k, faces)
                res = moore_filler(K, p)
                assert res.found
                assert all(K.face(3, i, res.filler) == x for i, x in faces.items())

    def test_outer_horns_over_cyclic_six(self):
        rng = random.Random(12)
        K = EMSpace(cyclic(6), 2, 4)
        for n in (3, 4):
            for k in (0, n):
                for p in random_compatible_horns(K, n, k, rng, 25):
                    res = moore_filler(K, p)
                    assert res.found

    def test_solver_returns_constructive_filler_across_degrees(self):
        # fillers are unique up to the top coordinate at level n = degree,
        # which no face sees and both leave at the identity
        rng = random.Random(99)
        for degree in (2, 3):
            K = EMSpace(int_group(), degree, 5)
            for n in range(max(2, degree), 6):
                for _ in range(10):
                    k = rng.randrange(n + 1)
                    y = K.random_simplex(n, rng, 9)
                    p = horn_from_simplex(K, n, k, y)
                    by_solver = solve_em(build_constraints(K, p))
                    by_correction = moore_filler(K, p)
                    assert by_solver.found and by_correction.found
                    assert by_solver.filler == by_correction.filler
                    if n != degree:
                        assert by_solver.filler == y
                    for i, x in p.faces.items():
                        assert K.face(n, i, by_solver.filler) == x

    def test_agrees_with_brute_force_small_groups(self):
        for M in (cyclic(2), cyclic(3)):
            K = EMSpace(M, 2, 3)
            for k in range(4):
                for p in iter_compatible_horn_data(K, 3, k):
                    assert moore_filler(K, p).found
                    assert brute_force_filler(K, p).found

    def test_group_outside_the_builtins_is_filled(self):
        K = EMSpace(rationals(), 2, 3)
        system = build_constraints(K, HornProblem(K, 2, 1, {0: K.zero(1), 2: K.zero(1)}))
        res = solve_em(system)
        assert res.found and res.filler == K.zero(2)
        assert count_fillers(system) == 2
        y = K.simplex(3, (Fraction(1, 2), Fraction(-3), Fraction(2, 7)))
        assert solve_em(build_constraints(K, horn_from_simplex(K, 3, 1, y))).filler == y

    def test_rejects_non_group(self):
        K, p = nat_horn(1, 1, 1)
        with pytest.raises(ValueError, match="group"):
            moore_filler(K, p)

    def test_rejects_incompatible_data(self):
        K = EMSpace(int_group(), 2, 4)
        rng = random.Random(1)
        p = horn_from_simplex(K, 4, 1, K.random_simplex(4, rng, 5))
        broken = dict(p.faces)
        broken[0] = K.add(broken[0], K.simplex(3, (1, 0, 0)))
        with pytest.raises(ValueError, match="incompatible"):
            moore_filler(K, HornProblem(K, 4, 1, broken))


GROUPS = [
    (int_group, lambda rng: rng.randrange(-9, 10)),
    (rationals, lambda rng: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))),
    (lambda: cyclic(4), lambda rng: rng.randrange(4)),
]


class TestGroupBranch:
    """After propagation a group horn is finished by the constructive
    filler; these pin what that branch promises."""

    @pytest.mark.parametrize("make, element", GROUPS, ids=["Z", "Q", "Z/4"])
    def test_fillers_are_unique_except_at_the_degree_level(self, make, element):
        # the fillers form a coset of N_n K(A,m), which is A at n = m and
        # zero elsewhere; at n = m the identity simplex is returned
        rng = random.Random(7)
        for degree in (1, 2, 3):
            K = EMSpace(make(), degree, 4)
            for n in range(max(2, degree), 5):
                for k in range(n + 1):
                    y = K.simplex(n, tuple(element(rng) for _ in K.gens[n]))
                    system = build_constraints(K, horn_from_simplex(K, n, k, y))
                    filler = solve_em(system).filler
                    assert filler == (K.zero(n) if n == degree else y)
                    for limit in (1, 2, 3):
                        assert count_fillers(system, limit) == (limit if n == degree else 1)

    def test_decision_carries_only_propagation_steps(self):
        # the branch adds no step and no note of its own, and the
        # certificate stays in the documented layout
        rng = random.Random(9)
        K = EMSpace(int_group(), 2, 4)
        for n in (2, 3, 4):
            for k in range(n + 1):
                for p in random_compatible_horns(K, n, k, rng, 4):
                    res = solve_em(build_constraints(K, p))
                    assert res.found and res.note is None
                    assert all(step.kind == "assign" for step in res.steps)
                    jsonschema.validate(certificate_json(p, res), CERTIFICATE_SCHEMA)

    def test_incompatible_group_data_is_refused_before_solving(self):
        # the constructive filler reads only the faces, so compatibility is
        # checked when the system is built
        K = EMSpace(int_group(), 2, 4)
        p = horn_from_simplex(K, 4, 2, K.random_simplex(4, random.Random(3), 5))
        broken = dict(p.faces)
        broken[0] = K.add(broken[0], K.simplex(3, (1, 0, 0)))
        with pytest.raises(ValueError, match="incompatible"):
            build_constraints(K, HornProblem(K, 4, 2, broken))


class TestBruteForce:
    def test_boolean_counterexample_by_scan(self):
        K = EMSpace(boolean(), 2, 3)
        faces = {0: K.simplex(2, (1,)), 2: K.simplex(2, (0,)), 3: K.simplex(2, (1,))}
        res = brute_force_filler(K, HornProblem(K, 3, 1, faces))
        assert not res.found
        assert "8" in res.note  # the whole level was scanned

    def test_trivial_monoid_always_fills(self):
        K = EMSpace(trivial(), 2, 4)
        for n in (2, 3, 4):
            for k in range(n + 1):
                p = HornProblem(K, n, k, {i: K.zero(n - 1) for i in range(n + 1) if i != k})
                res = brute_force_filler(K, p)
                assert res.found

    def test_iter_fillers_counts_multiplicity(self):
        K = EMSpace(boolean(), 2, 3)
        faces = {0: K.simplex(2, (1,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (1,))}
        p = HornProblem(K, 3, 1, faces)
        fillers = list(iter_fillers(K, p))
        assert len(fillers) == 2  # middle coordinate free in {0, 1}
        assert count_fillers(build_constraints(K, p)) == 2


class TestOracleAgreement:
    @pytest.mark.parametrize("make", [lambda: cyclic(2), boolean, trivial])
    def test_exhaustive_dimension_three(self, make):
        K = EMSpace(make(), 2, 3)
        for k in range(4):
            for p in iter_compatible_horn_data(K, 3, k):
                fast = solve_em(build_constraints(K, p)).found
                slow = brute_force_filler(K, p).found
                assert fast == slow

    def test_enumerator_matches_product_filter(self):
        K = EMSpace(cyclic(2), 2, 3)
        got = {
            tuple(sorted((i, x.coords) for i, x in p.faces.items()))
            for p in iter_compatible_horn_data(K, 3, 1)
        }
        expected = set()
        for vals in itertools.product((0, 1), repeat=3):
            faces = {i: K.simplex(2, (v,)) for i, v in zip((0, 2, 3), vals)}
            p = HornProblem(K, 3, 1, faces)
            if validate_horn(p)[0]:
                expected.add(tuple(sorted((i, x.coords) for i, x in p.faces.items())))
        assert got == expected

    def test_enumerator_matches_filter_with_real_compatibility(self):
        # dimension 4 over the nerve: pair conditions actually bite
        N = EMSpace(cyclic(2), 1, 4)
        got = [p for p in iter_compatible_horn_data(N, 4, 1)]
        for p in got:
            assert validate_horn(p) == (True, None)
        candidates = N.enumerate_level(3)
        count = 0
        for choice in itertools.product(range(len(candidates)), repeat=4):
            faces = dict(zip((0, 2, 3, 4), (candidates[c] for c in choice)))
            if validate_horn(HornProblem(N, 4, 1, faces))[0]:
                count += 1
        assert len(got) == count


class TestCounterexampleReport:
    @pytest.mark.parametrize("f0", [0, 17])
    def test_no_filler_and_final_equation(self, f0):
        rep = quasicategory_counterexample(f0)
        assert not rep.result.found
        last = rep.result.steps[-1]
        assert last.kind == "contradiction"
        assert last.variable == "0112"
        assert (last.known, last.rhs) == (3, 1)
        text = "\n".join(rep.lines())
        assert "x(0112) + 3 = 1" in text
        assert "no filler exists" in text

    def test_contrast_run_over_the_integers(self):
        K = EMSpace(int_group(), 2, 3)
        f0 = 17
        faces = {0: K.simplex(2, (f0,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (3,))}
        res = solve_em(build_constraints(K, HornProblem(K, 3, 1, faces)))
        assert res.found
        assert res.filler.coords == (f0, -2, 3)

    def test_json_certificate_validates(self):
        rep = quasicategory_counterexample(5)
        data = rep.to_json()
        jsonschema.validate(data, CERTIFICATE_SCHEMA)
        assert data["result"] == "no_filler"
        assert data["horn"] == {"n": 3, "k": 1, "faces": {"0": [5], "2": [1], "3": [3]}}

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            quasicategory_counterexample(-1)


class TestSweeps:
    def test_naturals_fail_with_inner_witness(self):
        K = EMSpace(nat(), 2, 3)
        report = sweep_quasicategory(K, 3, bound=3)
        assert not report.passed
        assert report.witness.n == 3 and report.witness.k in (1, 2)
        # the blocking equation pins the middle coordinate against the order
        last = report.witness_result.steps[-1]
        assert last.kind == "contradiction"

    def test_kan_passes_for_small_cyclic_groups(self):
        for m in (2, 3):
            K = EMSpace(cyclic(m), 2, 3)
            report = sweep_kan(K, 3)
            assert report.passed
            assert report.instances > 0

    def test_kan_passes_mod_two_at_dimension_four(self):
        K = EMSpace(cyclic(2), 2, 4)
        report = sweep_kan(K, 4)
        assert report.passed
        assert report.instances > 0

    def test_nerve_sweeps_pass_with_unique_fillers(self):
        for M, bound in ((cyclic(4), None), (boolean(), None), (nat(), 5)):
            N = EMSpace(M, 1, 4)
            report = sweep_quasicategory(N, 4, bound=bound, check_unique=True)
            assert report.passed
            assert report.unique is True

    def test_negative_bound_is_refused(self):
        with pytest.raises(ValueError, match="coordinate bound -1 is negative"):
            sweep_quasicategory(EMSpace(nat(), 2, 3), 3, bound=-1)
        with pytest.raises(ValueError, match="coordinate bound -2 is negative"):
            sweep_kan(EMSpace(int_group(), 1, 3), 3, bound=-2)
        # refused up front, also where no level would be enumerated
        with pytest.raises(ValueError, match="coordinate bound -1 is negative"):
            sweep_quasicategory(EMSpace(nat(), 2, 1), 1, bound=-1)
        with pytest.raises(ValueError, match="coordinate bound -2 is negative"):
            sweep_kan(EMSpace(int_group(), 1, 1), 1, bound=-2)

    def test_dimension_outside_the_truncation_is_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a horn was enumerated")

        monkeypatch.setattr(horn_module, "iter_compatible_horn_data", refuse)
        for max_dim in (9, 3, -1):
            message = f"sweep dimension {max_dim} outside truncation 0..2"
            with pytest.raises(ValueError, match=message):
                sweep_kan(EMSpace(cyclic(2), 2, 2), max_dim)
            with pytest.raises(ValueError, match=message):
                sweep_quasicategory(EMSpace(nat(), 2, 2), max_dim, bound=1)
        report = sweep_kan(EMSpace(cyclic(2), 2, 2), 0)
        assert report.passed and report.instances == 0

    def test_degenerate_dimensions_pass_trivially(self):
        K = EMSpace(trivial(), 2, 4)
        assert sweep_quasicategory(K, 4).passed
        K0 = EMSpace(nat(), 0, 3)
        assert sweep_quasicategory(K0, 3, bound=3).passed

    def test_report_json_shape(self):
        K = EMSpace(nat(), 2, 3)
        report = sweep_quasicategory(K, 3, bound=2)
        data = report.to_json()
        assert data["pass"] is False
        jsonschema.validate(data["witness"], CERTIFICATE_SCHEMA)
        assert "FAIL" in report.summary()


class TestFiniteMonoidSweep:
    def test_boolean_sweep_is_not_unique_and_fails(self):
        # Lambda^1[2] -> K(bool,2) has empty faces, so its one coordinate is free
        report = sweep_quasicategory(EMSpace(boolean(), 2, 3), 3, check_unique=True)
        assert report.unique is False
        witness = report.nonunique_witness
        assert (witness.n, witness.k) == (2, 1)
        assert all(x.coords == () for x in witness.faces.values())
        fillers = iter_fillers(witness.target, witness)
        assert [y.coords for y in fillers] == [(0,), (1,)]
        assert report.summary() == (
            "quasicategory sweep of K(bool,2) up to dimension 3: FAIL (3 horn instances)\n"
            "counterexample: Lambda^1[3] -> K(bool,2)\n"
            "  face 0: [0]\n"
            "  face 2: [0]\n"
            "  face 3: [1]\n"
            "  assign: x(0012) = 0\n"
            "  assign: x(0122) = 1\n"
            "  contradiction: x(0112) + 1 = 0\n"
            "fillers NOT unique"
        )

    def test_finite_monoid_reports_no_bound(self):
        # every element is enumerated, so the default bound never applies
        for report in (
            sweep_quasicategory(EMSpace(boolean(), 2, 3), 3),
            sweep_kan(EMSpace(cyclic(2), 1, 3), 3, bound=1),
        ):
            assert report.bound is None and report.to_json()["bound"] is None
            assert "coordinate bound" not in report.summary()
        assert sweep_quasicategory(EMSpace(nat(), 2, 3), 3, bound=2).bound == 2


def table_z3():
    return from_table(["0", "1", "2"], [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]], "Z/3t")


def max_monoid():
    return from_table(["0", "1", "2"], [["0", "1", "2"], ["1", "1", "2"], ["2", "2", "2"]], "max")


def saturating_monoid():
    return from_table(["0", "1", "2"], [["0", "1", "2"], ["1", "2", "2"], ["2", "2", "2"]], "sat")


class TestSolverAgainstScan:
    """The solver pipeline against the exhaustive scan, over a group and
    over monoids that are not cancellative: a seeded sample of compatible
    horns for every degree 1-3 and horn shape up to level 4."""

    @pytest.mark.parametrize(
        "make",
        [lambda: cyclic(2), table_z3, lambda: cyclic(4), boolean, trivial, max_monoid,
         saturating_monoid],
        ids=["Z/2", "table Z/3", "Z/4", "bool", "trivial", "max", "saturating"],
    )
    def test_counts_and_verdicts_agree(self, make):
        rng = random.Random(2006)
        for degree in (1, 2, 3):
            K = EMSpace(make(), degree, 4)
            for n in range(1, 5):
                for k in range(n + 1):
                    horns = list(iter_compatible_horn_data(K, n, k))
                    for p in rng.sample(horns, min(6, len(horns))):
                        system = build_constraints(K, p)
                        scanned = len(list(itertools.islice(iter_fillers(K, p), 2)))
                        assert count_fillers(system) == scanned, p
                        assert solve_em(system).found == brute_force_filler(K, p).found, p


FACTORS = {
    "1": trivial, "bool": boolean, "sat2": saturating_monoid, "max3": max_monoid,
    "Z/2": lambda: cyclic(2),
}


def product(A, B):
    """A x B as a table monoid, validated by ``from_table``."""
    pairs = list(itertools.product(A.elements, B.elements))
    names = {pair: f"({A.render(pair[0])},{B.render(pair[1])})" for pair in pairs}
    table = [[names[A.op(a, c), B.op(b, e)] for c, e in pairs] for a, b in pairs]
    return from_table(list(names.values()), table, f"{A.name}x{B.name}")


@st.composite
def product_horn_shapes(draw):
    """A non-cancellative factor times another factor or the trivial
    monoid, a degree 1-2 and a horn shape: up to level 4 over two
    elements, level 3 otherwise."""
    A = FACTORS[draw(st.sampled_from(["bool", "sat2", "max3"]))]()
    B = FACTORS[draw(st.sampled_from(list(FACTORS)))]()
    M = product(A, B)
    n = draw(st.integers(1, 4 if len(M.elements) == 2 else 3))
    return EMSpace(M, draw(st.integers(1, 2)), n), n, draw(st.integers(0, n))


class TestProductMonoids:
    """The filler count against the exhaustive scan over products of
    monoids that are not cancellative, for every compatible horn."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(product_horn_shapes())
    def test_counts_agree_with_the_scan(self, shape):
        K, n, k = shape
        for p in iter_compatible_horn_data(K, n, k):
            scanned = list(iter_fillers(K, p))
            system = build_constraints(K, p)
            assert count_fillers(system, 2) == min(2, len(scanned)), p
            # search returns the first filler in the scan's order
            assert solve_em(system).filler == next(iter(scanned), None), p


def _reference_unique_sweep(K, max_dim, bound):
    """A check_unique inner sweep from the public calls alone:
    (instances, unique, nonunique_witness, failing horn or None)."""
    instances, unique, nonunique = 0, True, None
    for n in range(1, min(max_dim, K.dim_bound) + 1):
        for k in range(1, n):
            for p in iter_compatible_horn_data(K, n, k, bound=bound):
                instances += 1
                system = build_constraints(K, p)
                if not solve_em(system).found:
                    return instances, unique, nonunique, p
                if count_fillers(system) > 1 and nonunique is None:
                    unique, nonunique = False, p
    return instances, unique, nonunique, None


class TestSweepRules:
    """A sweep validates only its witness, and a check_unique sweep
    solves each horn once; neither may change what the sweep reports."""

    def _count_validations(self, monkeypatch):
        calls = []

        def counting(problem):
            calls.append(problem)
            return validate_horn(problem)

        monkeypatch.setattr(horn_module, "validate_horn", counting)
        return calls

    def test_passing_sweep_validates_nothing(self, monkeypatch):
        calls = self._count_validations(monkeypatch)
        report = sweep_kan(EMSpace(cyclic(2), 2, 3), 3)
        assert report.passed and report.instances > 0
        assert calls == []

    def test_failing_sweep_validates_its_witness_once(self, monkeypatch):
        calls = self._count_validations(monkeypatch)
        report = sweep_quasicategory(EMSpace(nat(), 2, 3), 3, bound=2)
        assert calls == [report.witness]
        assert not report.passed and report.instances == 3
        w = report.witness
        assert (w.n, w.k) == (3, 1)
        assert {i: x.coords for i, x in w.faces.items()} == {0: (0,), 2: (0,), 3: (1,)}
        assert report.witness_result == FillerResult(
            None,
            (
                CertStep("assign", "0012", "x(0012) = 0", 0, known=0, rhs=0, face=0),
                CertStep("assign", "0122", "x(0122) = 1", 1, known=0, rhs=1, face=3),
                CertStep("contradiction", "0112", "x(0112) + 1 = 0", None,
                         known=1, rhs=0, face=2),
            ),
        )

    def test_incompatible_horn_still_raises(self, monkeypatch):
        K = EMSpace(cyclic(2), 1, 3)
        good = horn_from_simplex(K, 3, 1, K.simplex(3, (1, 0, 1)))
        bad = HornProblem(K, 3, 1, dict(good.faces))
        bad.faces[0] = K.add(bad.faces[0], K.simplex(2, (1, 0)))
        monkeypatch.setattr(
            horn_module, "iter_compatible_horn_data", lambda target, n, k, bound=None: iter([bad])
        )
        with pytest.raises(ValueError, match="incompatible horn data at face pair"):
            sweep_kan(K, 3)

    @pytest.mark.parametrize(
        "make, degree, max_dim, bound",
        [
            (nat, 1, 3, 5), (nat, 2, 3, 2), (lambda: cyclic(4), 1, 4, None), (boolean, 1, 3, None),
            (lambda: cyclic(2), 2, 3, None), (boolean, 2, 3, None), (trivial, 2, 4, None),
        ],
        ids=["N1", "N2", "Z/4", "bool", "Z/2 not unique", "bool2 not unique, fails",
             "trivial group branch"],
    )
    def test_unique_sweep_matches_public_calls(self, monkeypatch, make, degree, max_dim, bound):
        K = EMSpace(make(), degree, max_dim)
        expected = _reference_unique_sweep(K, max_dim, bound)
        runs = []
        solve = horn_module._solve
        monkeypatch.setattr(
            horn_module, "_solve", lambda *args: runs.append(args) or solve(*args)
        )
        report = sweep_quasicategory(K, max_dim, bound=bound, check_unique=True)
        got = (report.instances, report.unique, report.nonunique_witness, report.witness)
        assert got == expected
        assert len(runs) == report.instances

    def test_results_compare_by_value(self):
        K, p = nat_horn(2, 5, 1)
        system = build_constraints(K, p)
        assert solve_em(system) == solve_em(system)
        other = solve_em(build_constraints(*nat_horn(3, 5, 1)))
        assert other.found and other != solve_em(system)
        result = solve_em(system)
        assert "CertStep(kind='assign', variable='0012', equation='x(0012) = 2'" in repr(result)
        assert result.steps is result.steps

    def test_results_are_frozen_values_with_rendered_steps(self):
        result = solve_em(build_constraints(*nat_horn(2, 5, 1)))
        assert type(result.steps) is tuple and result.steps
        assert all(type(step) is CertStep for step in result.steps)
        assert result.found
        assert vars(result) == {"filler": result.filler, "steps": result.steps, "note": None}
        assert hash(result) == hash(solve_em(build_constraints(*nat_horn(2, 5, 1))))
        with pytest.raises(AttributeError):
            result.note = "changed"


class TestHornShapes:
    """The equation structure is compiled once per horn shape (space, n, k)
    and shared; only the right-hand sides belong to one horn."""

    def test_passing_sweep_builds_each_shape_once_and_no_equation(self, monkeypatch):
        fiber_calls = []

        class Recording(EMSpace):
            def face_fibers(self, k, i):
                fiber_calls.append((k, i))
                return super().face_fibers(k, i)

        built = []
        real = horn_module.Equation
        monkeypatch.setattr(
            horn_module, "Equation", lambda *args: built.append(args) or real(*args)
        )
        report = sweep_kan(Recording(cyclic(2), 2, 3), 3)
        assert report.passed and report.instances > 0
        # face i at level n belongs to the n shapes (n, k) with k != i
        for (n, i), calls in Counter(fiber_calls).items():
            assert calls <= n, (n, i, calls)
        assert built == []

    def _horn(self, K, f0, f2, f3):
        faces = {0: K.simplex(2, (f0,)), 2: K.simplex(2, (f2,)), 3: K.simplex(2, (f3,))}
        return HornProblem(K, 3, 1, faces)

    def test_systems_of_one_shape_keep_their_own_equations(self):
        K = EMSpace(nat(), 2, 3)
        a = build_constraints(K, self._horn(K, 7, 1, 3))
        b = build_constraints(K, self._horn(K, 2, 5, 4))
        assert a.shape is b.shape
        assert a.equations == [
            Equation(0, 0, (0,), 7), Equation(2, 0, (1, 2), 1), Equation(3, 0, (2,), 3)
        ]
        assert b.equations == [
            Equation(0, 0, (0,), 2), Equation(2, 0, (1, 2), 5), Equation(3, 0, (2,), 4)
        ]
        assert not solve_em(a).found
        assert solve_em(b).filler.coords == (2, 1, 4)

    @pytest.mark.parametrize(
        "make, bound",
        [(nat, 2), (lambda: cyclic(2), None), (boolean, None), (saturating_monoid, None)],
        ids=["N", "Z/2", "bool", "saturating"],
    )
    def test_equations_match_the_defining_formula(self, make, bound):
        for degree in (1, 2, 3):
            K = EMSpace(make(), degree, 4)
            for n in range(1, 5):
                for k in range(n + 1):
                    for p in iter_compatible_horn_data(K, n, k, bound=bound):
                        assert build_constraints(K, p).equations == equations_by_composition(K, p)
