import functools
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import emhorn.horn as horn_module
from emhorn.em import EMSimplex, EMSpace
from emhorn.horn import (
    CERTIFICATE_SCHEMA,
    CertStep,
    Equation,
    FillerResult,
    HornProblem,
    _propagate,
    _render_steps,
    _solve,
    brute_force_filler,
    build_constraints,
    certificate_json,
    count_fillers,
    horn_from_simplex,
    iter_compatible_horn_data,
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
from support import (
    commutative_tables,
    equations_by_composition,
    face_by_composition,
    pairwise_validation,
    random_compatible_horns,
    render_steps_reference,
    reverse_simplex,
    scan_fillers,
)


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

    @pytest.mark.parametrize(
        "n, k, keys, message",
        [
            (2, False, (1, 2), "horn indices must be ints, got n=2, k=False"),
            (2, 0, (True, 2), "face index True is not an int"),
            (2, 0, (1.0, 2), "face index 1.0 is not an int"),
            (2.0, 0, (1, 2), "horn indices must be ints, got n=2.0, k=0"),
        ],
        ids=["k=False", "face True", "face 1.0", "n=2.0"],
    )
    def test_indices_that_are_not_ints_rejected(self, n, k, keys, message):
        # each equals an int index, and (2, False) hashes like (2, 0), so
        # the shape cached for (2, 0) would take the horn, and its
        # certificate would carry "k": false or a face key "True" or "1.0"
        N = EMSpace(nat(), 1, 3)
        good = HornProblem(N, 2, 0, {1: N.simplex(1, (4,)), 2: N.simplex(1, (9,))})
        assert validate_horn(good) == (True, None)
        p = HornProblem(N, n, k, dict(zip(keys, good.faces.values())))
        with pytest.raises(ValueError, match=message):
            validate_horn(p)
        with pytest.raises(ValueError, match=message):
            solve_em(build_constraints(N, p))
        if all(type(i) is int for i in keys):  # the shape itself is refused
            with pytest.raises(ValueError, match=message):
                next(iter_compatible_horn_data(N, n, k, bound=1))
            with pytest.raises(ValueError, match=message):
                horn_from_simplex(N, n, k, N.zero(2))

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
            (lambda: cyclic(2), True), (boolean, False),
        ],
        ids=[
            "Z/2", "bool", "N", "Z/3 2.0", "Z/3 Fraction", "bool 2.0", "bool Fraction",
            "Z/2 True", "bool False",
        ],
    )
    def test_coordinates_outside_the_monoid_rejected(self, make, outside):
        # the solver, the constructive filler and the certificate would
        # otherwise each take the value as given; a non-int equal to an
        # element is not one either, nor is a bool, which the certificate
        # schema would refuse
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

    @pytest.mark.parametrize(
        "n, k, message",
        [
            (0, 0, "horns exist in dimension >= 1, got n=0"),
            (3, 4, "horn index 4 out of range for \\[3\\]"),
            (3, 7, "horn index 7 out of range for \\[3\\]"),
            (4, 1, "dimension 4 exceeds truncation 3"),
        ],
        ids=["n=0", "k=n+1", "k=7", "n=D+1"],
    )
    def test_every_entry_point_refuses_a_shape_with_no_horns(self, n, k, message):
        # a refused shape is never cached, so a second call is refused again
        K = EMSpace(int_group(), 2, 3)
        p = HornProblem(K, n, k, {})
        calls = {
            "validate_horn": lambda: validate_horn(p),
            "build_constraints": lambda: build_constraints(K, p),
            "iter_compatible_horn_data": lambda: next(iter_compatible_horn_data(K, n, k, bound=1)),
            "horn_from_simplex": lambda: horn_from_simplex(K, n, k, K.zero(3)),
            "moore_filler": lambda: moore_filler(K, p),
            "brute_force_filler": lambda: brute_force_filler(K, p, 1),
        }
        for name, call in calls.items():
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    call()
            assert K._horn_shapes == {}, name

    def test_enumerator_refuses_shapes_outside_the_truncation(self):
        K = EMSpace(cyclic(2), 2, 3)
        for n, k, message in (
            (0, 0, "horns exist in dimension >= 1, got n=0"),
            (3, 5, "horn index 5 out of range for \\[3\\]"),
            (4, 1, "dimension 4 exceeds truncation 3"),
        ):
            with pytest.raises(ValueError, match=message):
                next(iter_compatible_horn_data(K, n, k))

    @pytest.mark.parametrize(
        "make, outside", [(boolean, True), (nat, -1), (int_group, 2.0)],
        ids=["bool True", "N -1", "Z 2.0"],
    )
    @pytest.mark.parametrize(
        "malformed",
        [EMSimplex(3, (0,)), EMSimplex(2, (0, 0)), (2, (0,))],
        ids=["level", "width", "plain tuple"],
    )
    @pytest.mark.parametrize("element_first", [True, False], ids=["element first", "malformed first"])
    def test_the_first_bad_face_in_the_dicts_order_is_named(
        self, make, outside, malformed, element_first
    ):
        # membership is checked once over all faces, but a failure names
        # the first bad face in the dict's order, not in index order
        K = EMSpace(make(), 2, 3)
        bad = [(2, malformed), (0, K.simplex(2, (outside,)))]
        if element_first:
            bad.reverse()
        p = HornProblem(K, 3, 1, dict([(3, K.zero(2))] + bad))
        message = f"face {bad[0][0]} is not a level-2 simplex of K\\({K.monoid.name},2\\)$"
        with pytest.raises(ValueError, match=message):
            validate_horn(p)
        with pytest.raises(ValueError, match=message):
            build_constraints(K, p)
        # alone, the malformed face is refused too, though a wrong level
        # can have the right width and a plain tuple equals a simplex
        p = HornProblem(K, 3, 1, {0: K.zero(2), 2: malformed, 3: K.zero(2)})
        with pytest.raises(ValueError, match="face 2 is not a level-2 simplex"):
            validate_horn(p)

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


def _agrees_with_pairwise_validation(problem, face=face_by_composition):
    """``validate_horn`` and ``build_constraints`` give the reference's
    verdict and pair on ``problem``; returns whether it is compatible."""
    want = pairwise_validation(problem, face)
    assert validate_horn(problem) == want, problem
    if want[0]:
        build_constraints(problem.target, problem)
    else:
        with pytest.raises(ValueError) as raised:
            build_constraints(problem.target, problem)
        assert str(raised.value) == f"incompatible horn data at face pair {want[1]}"
    return want[0]


class TestCompiledValidation:
    """The compatibility check compiled per shape against the pairwise
    loop over the defining formula (``support.pairwise_validation``)."""

    @pytest.mark.parametrize("make", [lambda: cyclic(2), boolean], ids=["Z/2", "bool"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_every_datum_of_every_shape_up_to_dimension_4(self, make, degree):
        # covers n = 1 and the shapes whose level n - 2 is empty, where
        # every datum passes: n = 2, n = 3 in degree 2 or 3, n = 4 in degree 3
        K = EMSpace(make(), degree, 4)
        face = functools.lru_cache(maxsize=None)(face_by_composition)
        for n in range(1, 5):
            level = K.enumerate_level(n - 1)
            for k in range(n + 1):
                given = [i for i in range(n + 1) if i != k]
                verdicts = Counter(
                    _agrees_with_pairwise_validation(
                        HornProblem(K, n, k, dict(zip(given, data))), face
                    )
                    for data in itertools.product(level, repeat=n)
                )
                assert sum(verdicts.values()) == len(level) ** n
                if n <= 2 or K.rank(n - 2) == 0:
                    assert not verdicts[False]

    @pytest.mark.parametrize(
        "make",
        [nat, int_group] + [lambda t=t: _table_monoid(t) for t in commutative_tables(3)],
        ids=["N", "Z"] + [f"table{t}" for t in range(9)],
    )
    def test_perturbed_compatible_horns_at_dimensions_5_and_6(self, make):
        M = make()
        rng = random.Random(19)
        verdicts = Counter()
        for degree in (2, 3):
            K = EMSpace(M, degree, 6)
            for n in (5, 6):
                for p in random_compatible_horns(K, n, rng.randrange(n + 1), rng, 6, hint=3):
                    faces = dict(p.faces)
                    for _ in range(rng.randrange(3)):  # 0, 1 or 2 perturbed coordinates
                        i = rng.choice(sorted(faces))
                        coords = list(faces[i].coords)
                        pos = rng.randrange(len(coords))
                        coords[pos] = M.sample(rng, 3)
                        faces[i] = K.simplex(n - 1, coords)
                    verdicts[_agrees_with_pairwise_validation(HornProblem(K, n, p.k, faces))] += 1
        assert verdicts[True] and verdicts[False]

    def test_the_check_is_built_once_per_shape_on_first_validation(self):
        K = EMSpace(int_group(), 2, 4)

        def checked():
            return [key for key, shape in K._horn_shapes.items() if shape.check is not None]

        assert sweep_quasicategory(K, 4, bound=1).passed and checked() == []
        (p,) = random_compatible_horns(K, 4, 2, random.Random(4), 1)
        build_constraints(K, p)
        shape = K._horn_shapes[4, 2]
        check = shape.check
        validate_horn(p)
        assert checked() == [(4, 2)] and K._horn_shapes[4, 2] is shape and shape.check is check


class TestBuildConstraints:
    def test_inner_horn_missing_one(self):
        K, p = nat_horn(7, 1, 3)
        sys_ = build_constraints(K, p)
        assert K.gen_names(3) == ["0012", "0112", "0122"]
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
        for call in (build_constraints, moore_filler, brute_force_filler):
            with pytest.raises(ValueError, match=refused.format("Z")):
                call(Z, p)
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
                    rows, reached = shape.rows, [None] * len(K.gens[n])
                    _propagate(rows, [0] * len(rows), reached, int_group())
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

    def test_reference_scan_counts_multiplicity(self):
        K = EMSpace(boolean(), 2, 3)
        faces = {0: K.simplex(2, (1,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (1,))}
        p = HornProblem(K, 3, 1, faces)
        fillers = list(scan_fillers(p))
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

    @pytest.mark.parametrize(
        "make, bound, max_n",
        [(lambda: cyclic(2), None, 4), (boolean, None, 4), (nat, 1, 4)]
        + [(lambda t=t: _table_monoid(t), None, 3) for t in commutative_tables(3)],
        ids=["Z/2", "bool", "N"] + [f"table{t}" for t in range(9)],
    )
    def test_enumerator_is_the_ordered_product_filter(self, make, bound, max_n):
        """Sweep witnesses and the golden files read the enumeration order:
        every shape yields exactly the horns of the product of the level-(n-1)
        candidates over the given indices, in that product's order, that
        ``validate_horn`` accepts."""
        M = make()
        for degree in range(4):
            K = EMSpace(M, degree, max_n)
            for n in range(1, max_n + 1):
                candidates = K.enumerate_level(n - 1, bound=bound)
                for k in range(n + 1):
                    given = [i for i in range(n + 1) if i != k]
                    expected = [
                        list(zip(given, choice))
                        for choice in itertools.product(candidates, repeat=len(given))
                        if validate_horn(HornProblem(K, n, k, dict(zip(given, choice))))[0]
                    ]
                    got = [list(p.faces.items()) for p in iter_compatible_horn_data(K, n, k, bound)]
                    assert got == expected, (degree, n, k)


class _ListingSpace(EMSpace):
    """An ``EMSpace`` that keeps every level list it enumerates, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.listed = []

    def enumerate_level(self, k, bound=None):
        level = super().enumerate_level(k, bound)
        self.listed.append((k, level))
        return level


class TestLevelJoin:
    """A sweep lists each level once and joins it, shape by shape, into the
    horns' right-hand sides; ``iter_compatible_horn_data`` joins it into
    horns whose faces are the level's own simplices."""

    @pytest.mark.parametrize(
        "make, degree, bound",
        [(lambda: cyclic(2), 2, None), (nat, 1, 2), (boolean, 2, None)],
        ids=["Z/2", "N", "bool"],
    )
    def test_joined_right_hand_sides_are_the_horns_coordinates(self, make, degree, bound):
        K = EMSpace(make(), degree, 4)
        for n in range(1, 5):
            level = horn_module._level_faces(K, n, bound)
            for k in range(n + 1):
                shape = horn_module._horn_shape(K, n, k)
                joined = list(horn_module._compatible_faces(shape.given, level, lambda x: x.coords))
                horns = iter_compatible_horn_data(K, n, k, bound)
                # the zero horn is compatible, so no shape is empty
                assert joined and joined == [shape.coords(p.faces) for p in horns], (n, k)

    @pytest.mark.parametrize(
        "sweep, make, degree, max_dim, bound",
        [(sweep_kan, lambda: cyclic(2), 2, 4, None), (sweep_quasicategory, nat, 1, 3, 2)],
        ids=["kan", "quasicategory"],
    )
    def test_a_sweep_lists_each_level_once(self, sweep, make, degree, max_dim, bound):
        K = _ListingSpace(make(), degree, max_dim)
        report = sweep(K, max_dim, bound=bound)
        assert report.passed and report.instances > 0
        assert [k for k, _ in K.listed] == list(range(max_dim))

    def test_horn_faces_are_the_levels_own_simplices(self):
        K = _ListingSpace(cyclic(3), 2, 4)
        for n, k in ((3, 1), (4, 0), (4, 2), (4, 4)):
            horns = list(iter_compatible_horn_data(K, n, k))
            level_k, level = K.listed[-1]
            own = {id(x) for x in level}
            assert level_k == n - 1 and len(horns) > 1
            assert all(id(x) in own for p in horns for x in p.faces.values()), (n, k)


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

    @pytest.mark.parametrize("f0", [2.5, True, "3", -1])
    def test_free_face_must_be_a_natural_number(self, f0):
        with pytest.raises(ValueError, match="the free face value must be a natural number"):
            quasicategory_counterexample(f0)

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

    def test_schema_refuses_string_coordinates(self):
        data = quasicategory_counterexample(5).to_json()
        string_face = {**data["horn"], "faces": {"0": ["5"], "2": [1], "3": [3]}}
        for bad in ({**data, "horn": string_face}, {**data, "witness": ["a"]}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, CERTIFICATE_SCHEMA)

    def test_rejects_negative_parameter(self):
        with pytest.raises(ValueError):
            quasicategory_counterexample(-1)


class TestRecords:
    """The records keep their field equality, hashing, immutability and reprs."""

    FACES = (
        "{0: EMSimplex(level=2, coords=(0,)), 2: EMSimplex(level=2, coords=(1,)), "
        "3: EMSimplex(level=2, coords=(3,))}"
    )
    STEPS = (
        "(CertStep(kind='assign', variable='0012', equation='x(0012) = 0', value=0, known=0, "
        "rhs=0, face=0), CertStep(kind='assign', variable='0122', equation='x(0122) = 3', "
        "value=3, known=0, rhs=3, face=3), CertStep(kind='contradiction', variable='0112', "
        "equation='x(0112) + 3 = 1', value=None, known=3, rhs=1, face=2))"
    )

    def test_horn_problems_and_sweep_reports_compare_by_field_and_are_unhashable(self):
        K, p = nat_horn(0, 1, 3)
        same = HornProblem(K, 3, 1, dict(p.faces))
        assert p == same and not p != same
        assert p != HornProblem(K, 3, 1, {**p.faces, 3: K.simplex(2, (4,))})
        assert p != nat_horn(0, 1, 3)[1]  # another space, compared by identity
        assert p != (K, 3, 1, p.faces)
        report, again = (sweep_kan(EMSpace(cyclic(2), 2, 3), 2) for _ in range(2))
        assert report == again
        again.instances += 1  # a sweep counts into its report
        assert report != again
        for record in (p, report, build_constraints(K, p), quasicategory_counterexample()):
            with pytest.raises(TypeError):
                hash(record)

    def test_reprs(self):
        K, p = nat_horn(0, 1, 3)
        problem = f"HornProblem(target=EMSpace(K(N,2), D=3), n=3, k=1, faces={self.FACES})"
        assert repr(K) == "EMSpace(K(N,2), D=3)" and repr(p) == problem
        system = build_constraints(K, p)
        assert repr(system) == f"ConstraintSystem(problem={problem})"  # no shape, no rhs
        assert repr(system.equations[0]) == "Equation(face=0, gen_pos=0, vars=(0,), rhs=0)"
        result = f"FillerResult(filler=None, steps={self.STEPS}, note=None)"
        assert repr(solve_em(system)) == result
        assert repr(quasicategory_counterexample()) == (
            f"CounterexampleReport(problem={problem}, result={result})"
        )
        assert repr(sweep_kan(EMSpace(cyclic(2), 2, 3), 2)) == (
            "SweepReport(target='K(Z/2,2)', mode='kan', max_dim=2, bound=None, instances=5, "
            "passed=True, witness=None, witness_result=None, unique=None, nonunique_witness=None)"
        )

    def test_equations_are_frozen_and_hashed_by_their_fields(self):
        e = Equation(0, 1, (2, 3), 4)
        assert e == Equation(0, 1, (2, 3), 4) and hash(e) == hash((0, 1, (2, 3), 4))
        assert (e.face, e.gen_pos, e.vars, e.rhs) == (0, 1, (2, 3), 4)
        with pytest.raises(AttributeError):
            e.rhs = 5


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

        monkeypatch.setattr(horn_module, "_compatible_faces", refuse)
        for max_dim in (9, 3, -1):
            message = f"sweep dimension {max_dim} outside truncation 0..2"
            with pytest.raises(ValueError, match=message):
                sweep_kan(EMSpace(cyclic(2), 2, 2), max_dim)
            with pytest.raises(ValueError, match=message):
                sweep_quasicategory(EMSpace(nat(), 2, 2), max_dim, bound=1)
        report = sweep_kan(EMSpace(cyclic(2), 2, 2), 0)
        assert report.passed and report.instances == 0

    @pytest.mark.parametrize("sweep, shapes", [(sweep_kan, 9), (sweep_quasicategory, 3)])
    def test_bound_zero_is_a_bound(self, sweep, shapes):
        # every coordinate is 0, so each shape up to 3 has the one zero
        # horn, which the zero simplex fills
        report = sweep(EMSpace(nat(), 2, 3), 3, bound=0)
        assert report.passed and report.bound == 0
        assert report.instances == shapes

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
        fillers = scan_fillers(witness)
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
                        scanned = len(list(itertools.islice(scan_fillers(p), 2)))
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
            scanned = list(scan_fillers(p))
            system = build_constraints(K, p)
            assert count_fillers(system, 2) == min(2, len(scanned)), p
            # search returns the first filler in the scan's order
            assert solve_em(system).filler == next(iter(scanned), None), p


def _shapes(max_dim, inner_only):
    """The horn shapes of a sweep, in the order it visits them."""
    for n in range(1, max_dim + 1):
        yield from ((n, k) for k in (range(1, n) if inner_only else range(n + 1)))


def _reference_sweep(K, max_dim, bound, inner_only, check_unique=False):
    """A sweep that decides every horn of every shape from the public calls:
    (instances, passed, witness, witness_result, unique, nonunique_witness),
    the fields of a ``SweepReport``."""
    instances, unique, nonunique = 0, (True if check_unique else None), None
    for n, k in _shapes(max_dim, inner_only):
        for p in iter_compatible_horn_data(K, n, k, bound=bound):
            instances += 1
            system = build_constraints(K, p)
            result = solve_em(system)
            if not result.found:
                return instances, False, p, result, unique, nonunique
            if check_unique and count_fillers(system) > 1 and nonunique is None:
                unique, nonunique = False, p
    return instances, True, None, None, unique, nonunique


def _report_fields(report):
    return (report.instances, report.passed, report.witness, report.witness_result,
            report.unique, report.nonunique_witness)


def _mirrored_horns(K, report, max_dim, bound, inner_only):
    """The horns of the shapes with 2k > n that a sweep reached before its
    witness's shape, each shape counted through the enumerator."""
    w = report.witness
    total = 0
    for n, k in _shapes(max_dim, inner_only):
        if w is not None and (n, k) == (w.n, w.k):
            break
        if 2 * k > n:
            total += sum(1 for _ in iter_compatible_horn_data(K, n, k, bound=bound))
    return total


def _reverse_horn(K, p):
    """The horn of shape (n, n-k) that the reversal of [n] makes of ``p``."""
    faces = {p.n - i: reverse_simplex(K, x) for i, x in p.faces.items()}
    return HornProblem(K, p.n, p.n - p.k, faces)


def _horn_key(p):
    return p.n, p.k, tuple(sorted((i, x.coords) for i, x in p.faces.items()))


def _table_monoid(table):
    names = [str(e) for e in range(len(table))]
    return from_table(names, [[names[c] for c in row] for row in table], "t" + str(table))


class TestMirroredShapes:
    """The reversal of [n] carries the horns of shape (n, k) one to one onto
    those of (n, n-k), with as many fillers, so a sweep that solves only the
    shapes with 2k <= n reports what solving every shape reports."""

    @pytest.mark.parametrize(
        "make, bound",
        [(nat, 2), (lambda: cyclic(2), None), (boolean, None)],
        ids=["N bounded", "Z/2", "bool"],
    )
    def test_horns_and_filler_counts_are_mirrored(self, make, bound):
        for degree in (1, 2, 3):
            K = EMSpace(make(), degree, 4)
            for n in range(1, 5):
                for k in range(n + 1):
                    horns = list(iter_compatible_horn_data(K, n, k, bound=bound))
                    mirror = list(iter_compatible_horn_data(K, n, n - k, bound=bound))
                    images = {_horn_key(_reverse_horn(K, p)) for p in horns}
                    assert len(images) == len(horns) == len(mirror)
                    assert images == {_horn_key(q) for q in mirror}, (degree, n, k)
                    for p in horns:
                        got = count_fillers(build_constraints(K, _reverse_horn(K, p)), 2)
                        assert got == count_fillers(build_constraints(K, p), 2), p

    def test_sweeps_match_per_shape_decisions_on_every_small_table(self):
        """Every commutative table of order 1-3, degrees 1 and 2, up to
        dimension 4: 48 sweeps, of which 27 fail and 11 find a horn with two
        fillers, so witnesses and the uniqueness flag are both compared."""
        failed = nonunique = 0
        for order in (1, 2, 3):
            for table in commutative_tables(order):
                M = _table_monoid(table)
                for degree in (1, 2):
                    K = EMSpace(M, degree, 4)
                    for report, inner_only, check_unique in (
                        (sweep_kan(K, 4), False, False),
                        (sweep_quasicategory(K, 4, check_unique=True), True, True),
                    ):
                        expected = _reference_sweep(K, 4, None, inner_only, check_unique)
                        assert _report_fields(report) == expected, (table, degree, report.mode)
                        failed += not report.passed
                        nonunique += report.unique is False
        assert (failed, nonunique) == (27, 11)


class TestSweepRules:
    """A sweep validates only its witness, and a check_unique sweep
    decides each horn once; neither may change what the sweep reports."""

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
        # the bad horn follows a good one of its shape, so the shape's filler
        # map is built by then, and its output fails the filler check
        K = EMSpace(cyclic(2), 1, 3)
        good = horn_from_simplex(K, 3, 1, K.simplex(3, (1, 0, 1)))
        bad = HornProblem(K, 3, 1, dict(good.faces))
        bad.faces[0] = K.add(bad.faces[0], K.simplex(2, (1, 0)))
        horns = [tuple(p.faces[i] for i in (0, 2, 3)) for p in (good, bad)]
        # the given faces (0, 2, 3) are those of shape (3, 1) alone
        monkeypatch.setattr(
            horn_module, "_compatible_faces",
            lambda given, level, piece: iter(
                [sum(map(piece, faces), ()) for faces in horns] if given == (0, 2, 3) else []
            ),
        )
        with pytest.raises(ValueError, match="incompatible horn data at face pair"):
            sweep_kan(K, 3)
        assert K._horn_shapes[3, 1].fill is not None

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
        expected = _reference_sweep(K, max_dim, bound, inner_only=True, check_unique=True)
        runs = []
        solve = horn_module._solve
        monkeypatch.setattr(
            horn_module, "_solve", lambda *args: runs.append(args) or solve(*args)
        )
        report = sweep_quasicategory(K, max_dim, bound=bound, check_unique=True)
        assert _report_fields(report) == expected
        # one ``_solve`` call per horn of a solved shape, whether the shape's
        # filler map or propagation decides it; the shapes with 2k > n count
        # their mirror's horns and decide none
        mirrored = _mirrored_horns(K, report, max_dim, bound, inner_only=True)
        assert len(runs) == report.instances - mirrored

    def test_filler_map_decides_after_one_solve_per_shape(self, monkeypatch):
        # above the degree a cancellative shape propagates on its first horn
        # only; a map that fell back on every horn would propagate on all
        runs = []
        propagate = horn_module._propagate
        monkeypatch.setattr(
            horn_module, "_propagate",
            lambda rows, rhs, assignment, M: runs.append(id(rows))
            or propagate(rows, rhs, assignment, M),
        )
        K = EMSpace(cyclic(2), 2, 4)
        report = sweep_kan(K, 4)
        assert report.passed and report.instances > len(runs)
        shapes = {id(shape.rows): key for key, shape in K._horn_shapes.items()}
        above = Counter(shapes[run] for run in runs if shapes[run][0] > 2)
        assert sorted(above) == [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2)]  # the shapes with 2k <= n
        assert set(above.values()) == {1}

    def test_passing_sweep_builds_problems_only_for_its_witnesses(self, monkeypatch):
        built = []
        real = horn_module.HornProblem
        monkeypatch.setattr(
            horn_module, "HornProblem", lambda *args: built.append(args) or real(*args)
        )
        report = sweep_kan(EMSpace(cyclic(2), 2, 3), 3)
        assert report.passed and report.instances > 0
        assert built == []
        report = sweep_quasicategory(EMSpace(cyclic(2), 2, 3), 3, check_unique=True)
        assert report.passed and report.unique is False
        assert [real(*args) for args in built] == [report.nonunique_witness]
        built.clear()
        report = sweep_quasicategory(EMSpace(nat(), 2, 3), 3, bound=2)
        assert not report.passed
        assert [real(*args) for args in built] == [report.witness]

    def _record_checks(self, monkeypatch):
        """Every solution ``_solve`` returns, a shape's filler map's among
        them, and every ``_fills`` call, as (shape, right-hand sides,
        coordinates)."""
        solved, checked = [], []
        solve, fills = horn_module._solve, horn_module._fills

        def solving(K, n, shape, rhs, limit):
            out = solve(K, n, shape, rhs, limit)
            solved.extend((id(shape), rhs, tuple(s)) for s in out[0])
            return out

        def checking(shape, rhs, coords):
            checked.append((id(shape), rhs, tuple(coords)))
            return fills(shape, rhs, coords)

        monkeypatch.setattr(horn_module, "_solve", solving)
        monkeypatch.setattr(horn_module, "_fills", checking)
        return solved, checked

    @pytest.mark.parametrize(
        "make, degree, bound, check_unique",
        [(lambda: cyclic(2), 2, None, False), (lambda: cyclic(2), 2, None, True),
         (boolean, 1, None, True), (nat, 1, 3, True)],
        ids=["Z/2 kan", "Z/2 unique", "bool unique", "N unique"],
    )
    def test_sweep_checks_each_filler_once(self, monkeypatch, make, degree, bound, check_unique):
        # whichever gave a filler, the solver or a shape's filler map
        solved, checked = self._record_checks(monkeypatch)
        K = EMSpace(make(), degree, 3)
        if check_unique:
            report = sweep_quasicategory(K, 3, bound=bound, check_unique=True)
        else:
            report = sweep_kan(K, 3, bound=bound)
        assert report.passed and solved
        assert Counter(checked) == Counter(solved)
        assert set(Counter(checked).values()) == {1}

    def test_public_calls_check_each_filler_once(self, monkeypatch):
        solved, checked = self._record_checks(monkeypatch)
        K = EMSpace(boolean(), 2, 3)
        faces = {0: K.simplex(2, (0,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (1,))}
        system = build_constraints(K, HornProblem(K, 3, 1, faces))
        assert solve_em(system).found
        assert len(solved) == len(checked) == 1
        assert count_fillers(system) == 2
        assert len(solved) == len(checked) == 3 and checked[1:] == solved[1:]

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

    def test_cert_steps_are_named_tuples_with_defaults(self):
        assert CertStep._fields == (
            "kind", "variable", "equation", "value", "known", "rhs", "face"
        )
        step = CertStep("exhausted", None, "search exhausted", None)
        assert (step.known, step.rhs, step.face) == (None, None, None)
        assert step == ("exhausted", None, "search exhausted", None, None, None, None)
        assert CertStep(kind="assign", variable="012", equation="x(012) = 1", value=1,
                        face=2) == ("assign", "012", "x(012) = 1", 1, None, None, 2)
        assert repr(CertStep("assign", "0012", "x(0012) = 2", 2, known=0, rhs=2, face=0)) == (
            "CertStep(kind='assign', variable='0012', equation='x(0012) = 2', value=2, "
            "known=0, rhs=2, face=0)"
        )
        for name in CertStep._fields:
            with pytest.raises(AttributeError):
                setattr(step, name, "changed")


def _render_cases():
    """(monoid, bound) for N, Z/3, bool and every commutative table of order 3."""
    tables = [
        from_table("abc", [["abc"[x] for x in row] for row in table], name=f"table{i}")
        for i, table in enumerate(commutative_tables(3))
    ]
    return [(nat(), 2), (cyclic(3), None), (boolean(), None)] + [(M, None) for M in tables]


class TestRenderSteps:
    def test_steps_match_the_reference_on_every_small_decision(self):
        # every decision of every shape with d <= 3 and n <= 4: fillers,
        # contradictions with and without a variable, and exhausted searches
        seen = Counter()
        for M, bound in _render_cases():
            for d in range(4):
                K = EMSpace(M, d, 4)
                for n in range(1, 5):
                    for k in range(n + 1):
                        for p in iter_compatible_horn_data(K, n, k, bound):
                            system = build_constraints(K, p)
                            _, _, raw, values, note = _solve(K, n, system.shape, system.rhs, 1)
                            got = _render_steps(system, raw, values, note)
                            want = render_steps_reference(system, raw, values, note)
                            assert type(got) is tuple and len(got) == len(want)
                            for a, b in zip(got, want):
                                assert type(a) is CertStep and repr(a) == repr(b)
                                assert all(x == y and type(x) is type(y) for x, y in zip(a, b))
                            seen.update(
                                ("no unknown" if s.kind == "contradiction" and s.variable is None
                                 else s.kind)
                                + (" known" if s.known not in (None, M.identity) else "")
                                for s in got
                            )
        # x + identity = b always has the solution b, so a contradiction on
        # a variable always has a known part
        for kind in ("assign", "assign known", "contradiction known", "no unknown",
                     "no unknown known", "exhausted"):
            assert seen[kind], kind


# Each case breaks one check from inside and calls what it guards; the
# error must reach the caller with ``assert`` statements stripped.
_BROKEN_CHECKS = {
    "solver": (
        "h._fills = lambda shape, rhs, coords: False\n"
        "K = EMSpace(nat(), 2, 3)\n"
        "solve_em(build_constraints(K, horn_from_simplex(K, 3, 1, K.simplex(3, (1, 1, 0)))))",
        "solver produced a non-filler; this is a bug",
    ),
    "moore": (
        "h._fills = lambda shape, rhs, coords: False\n"
        "K = EMSpace(int_group(), 2, 3)\n"
        "moore_filler(K, horn_from_simplex(K, 3, 1, K.simplex(3, (1, 1, 0))))",
        "constructive filler missed a face; this is a bug",
    ),
    "propagation": (
        "h._propagate = lambda rows, rhs, assignment, M: ([], None)\n"
        "K = EMSpace(nat(), 2, 3)\n"
        "solve_em(build_constraints(K, horn_from_simplex(K, 3, 1, K.simplex(3, (1, 1, 0)))))",
        "propagation left a cancellative horn open; this is a bug",
    ),
    "sweep": (
        "h._fills = lambda shape, rhs, coords: False\n"
        "sweep_kan(EMSpace(cyclic(2), 2, 4), 4)",
        "solver produced a non-filler; this is a bug",
    ),
    "nerve": (
        "view = NerveView(nat(), 2)\n"
        "view.chain_face = lambda i, chain: tuple(chain[1:])\n"
        "view.check_face_coincidence([(1, 2)])",
        "nerve face mismatch at d1 of (1, 2): ",
    ),
}


class TestReverification:
    """Every filler that a verdict or a count rests on is checked against the
    given faces, and the internal checks raise under ``python -O`` too."""

    @pytest.mark.parametrize("case", sorted(_BROKEN_CHECKS))
    def test_checks_survive_python_O(self, case):
        call, message = _BROKEN_CHECKS[case]
        script = (
            "import sys\n"
            "import emhorn.horn as h\n"
            "from emhorn import *\n"
            "try:\n"
            + "".join(f"    {line}\n" for line in call.splitlines())
            + "except AssertionError as exc:\n"
            "    print(sys.flags.optimize, exc)\n"
        )
        src = str(Path(horn_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        assert run.stdout.startswith(f"1 {message}"), run.stdout

    def test_count_rests_on_every_filler(self, monkeypatch):
        K = EMSpace(boolean(), 2, 3)
        faces = {0: K.simplex(2, (0,)), 2: K.simplex(2, (1,)), 3: K.simplex(2, (1,))}
        p = HornProblem(K, 3, 1, faces)
        first, second = scan_fillers(p)
        system = build_constraints(K, p)
        assert count_fillers(system) == 2
        fills = horn_module._fills
        monkeypatch.setattr(
            horn_module, "_fills",
            lambda shape, rhs, coords: coords != second.coords and fills(shape, rhs, coords),
        )
        assert solve_em(system).filler == first
        with pytest.raises(AssertionError, match="solver produced a non-filler"):
            count_fillers(system)

    def test_unique_sweep_rests_on_every_filler(self, monkeypatch):
        # the one horn of shape (3, 1) has the fillers (0, 0, 1) and
        # (0, 1, 1), which search finds; a search that gave (1, 1, 1), whose
        # face 0 is 1, for the second fails only the sweep that counts two
        K = EMSpace(boolean(), 2, 3)
        faces = (K.simplex(2, (0,)), K.simplex(2, (1,)), K.simplex(2, (1,)))
        monkeypatch.setattr(
            horn_module, "_compatible_faces",
            lambda given, level, piece: iter(
                [sum(map(piece, faces), ())] if given == (0, 2, 3) else []
            ),
        )
        report = sweep_quasicategory(K, 3, check_unique=True)
        assert report.passed and report.unique is False
        assert tuple(report.nonunique_witness.faces.values()) == faces
        monkeypatch.setattr(
            horn_module, "_branch", lambda rows, rhs, M, partial, unset: iter([(0, 0, 1), (1, 1, 1)])
        )
        assert sweep_quasicategory(K, 3).passed
        with pytest.raises(AssertionError, match="solver produced a non-filler"):
            sweep_quasicategory(K, 3, check_unique=True)


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

    def test_filler_check_gives_every_given_face(self):
        # the one plan per shape that checks a filler, against faces taken
        # from generator composites, concatenated in given order
        rng = random.Random(7)
        for M, degree in ((nat(), 2), (int_group(), 3), (cyclic(3), 1), (boolean(), 0)):
            K = EMSpace(M, degree, 5)
            for n in range(1, 6):
                for k in range(n + 1):
                    shape = horn_module._horn_shape(K, n, k)
                    for _ in range(3):
                        y = K.random_simplex(n, rng, 4)
                        faces = [face_by_composition(K, n, i, y).coords for i in shape.given]
                        assert shape.faces_of(y.coords) == sum(faces, ()), (K, n, k, y)

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


def _filler_map_cases():
    """The cancellative monoids of the filler-map test, each with its coordinate bound."""
    tables = [_table_monoid(t) for t in commutative_tables(3)]
    return ([(nat(), 2), (int_group(), 1)] + [(cyclic(m), None) for m in (2, 3, 4)]
            + [(M, None) for M in tables if M.is_group])


class TestFillerMap:
    """Above the degree, ``_solve`` decides each horn of a cancellative shape
    by the shape's filler map, compiled from the propagation steps of the
    first filled horn; where the map gives no filler, it propagates.  Checked
    on every shape with d <= 3, d < n <= 2d+2 and k <= n/2."""

    CANDIDATES, HORNS, RANDOM = 729, 1000, 20

    def _data(self, K, Z, n, k, bound, rng):
        """Right-hand sides of compatible horns of shape (n, k) in K: the
        first HORNS in sweep order when level n-1 has at most CANDIDATES
        candidates, and the faces of RANDOM random simplices.  Over N, also
        the faces of each all-ones simplex over Z with one coordinate -1 whose
        faces are natural numbers: as the filler over Z is unique, these are
        horns over N that do not fill."""
        shape = horn_module._horn_shape(K, n, k)
        data = []
        if len(K.monoid.values(bound)) ** K.rank(n - 1) <= self.CANDIDATES:
            level = horn_module._level_faces(K, n, bound)
            horns = horn_module._compatible_faces(shape.given, level, lambda x: x.coords)
            data = list(itertools.islice(horns, self.HORNS))
        for _ in range(self.RANDOM):
            data.append(shape.faces_of(K.random_simplex(n, rng, bound or 1).coords))
        if K.monoid.is_free_natural:
            faces_of, rank = horn_module._horn_shape(Z, n, k).faces_of, K.rank(n)
            for s in range(rank):
                rhs = faces_of(tuple(-1 if t == s else 1 for t in range(rank)))
                if min(rhs, default=0) >= 0:
                    data.append(rhs)
        return data

    def _sweep_with(self, monkeypatch, K, n, k, horns):
        """``sweep_kan(K, n)`` with ``horns`` (right-hand sides) as the only
        compatible horns of shape (n, k) and none of any other shape."""
        given = horn_module._horn_shape(K, n, k).given
        with monkeypatch.context() as patch:
            patch.setattr(
                horn_module, "_compatible_faces",
                lambda other, level, piece: iter(horns if other == given else []),
            )
            return sweep_kan(K, n)

    def test_only_cancellative_shapes_above_the_degree_get_a_map(self):
        # over bool a row with one unknown may have two solutions, so the
        # steps of one horn need not serve the next, nor a count of 1 hold
        for M, mapped in ((boolean(), []), (cyclic(2), [(3, 0), (3, 1), (4, 0), (4, 1), (4, 2)])):
            K = EMSpace(M, 2, 4)
            sweep_kan(K, 4)
            assert sorted(key for key, shape in K._horn_shapes.items() if shape.fill) == mapped

    @pytest.mark.parametrize(
        "M, bound", _filler_map_cases(), ids=lambda value: getattr(value, "name", str(value))
    )
    def test_map_gives_the_solvers_filler(self, monkeypatch, M, bound):
        rng = random.Random(11)
        shapes = refuted = 0
        for d in range(4):
            K, Z = EMSpace(M, d, 2 * d + 2), EMSpace(int_group(), d, 2 * d + 2)
            for n in range(d + 1, 2 * d + 3):
                for k in range(n // 2 + 1):
                    shape, fill = horn_module._horn_shape(K, n, k), None
                    shapes += 1
                    for rhs in self._data(K, Z, n, k, bound, rng):
                        shape.fill = None  # so ``_solve`` propagates
                        solutions, count, steps, _, _ = horn_module._solve(K, n, shape, rhs, 2)
                        assert (shape.fill is not None) == bool(solutions)
                        if fill is None:  # as ``_solve`` builds it, from the first filled horn
                            assert solutions, (K, n, k, rhs)
                            fill, good = horn_module._filler_map(shape, steps, M), rhs
                        coords = fill(rhs)
                        assert solutions == ([] if coords is None else [coords]), (K, n, k, rhs)
                        assert count == len(solutions)
                        if coords is None:
                            # a negative coordinate: ``_solve`` falls back to
                            # propagation, whose certificate the sweep reports
                            assert M.is_free_natural
                            refuted += 1
                            shape.fill = None
                            report = self._sweep_with(monkeypatch, K, n, k, [good, rhs])
                            assert shape.fill is not None and report.instances == 2
                            assert shape.coords(report.witness.faces) == rhs
                            system = build_constraints(K, report.witness)
                            assert report.witness_result == solve_em(system)
                            assert report.witness_result.steps[-1].kind == "contradiction"
        assert shapes == 41
        assert (refuted > 0) == M.is_free_natural

    def _decide(self, K, n, k, rhs, cold):
        """``solve_em``'s result and certificate and ``count_fillers``'s count
        on the horn of shape (n, k) in K with right-hand sides ``rhs``; if
        ``cold``, each call starts with no filler map built for the shape."""
        shape = horn_module._horn_shape(K, n, k)
        width = K.rank(n - 1)
        faces = {i: K.simplex(n - 1, rhs[p * width:(p + 1) * width])
                 for p, i in enumerate(shape.given)}
        problem = HornProblem(K, n, k, faces)
        system = build_constraints(K, problem)
        decisions = []
        for decide in (solve_em, functools.partial(count_fillers, limit=2)):
            if cold:
                shape.fill = None
            decisions.append(decide(system))
        result, count = decisions
        return result, certificate_json(problem, result), count

    @pytest.mark.parametrize(
        "M, bound", _filler_map_cases(), ids=lambda value: getattr(value, "name", str(value))
    )
    def test_certificates_from_a_warm_map(self, monkeypatch, M, bound):
        # a warm space has the shape's map built, from another horn, and a
        # cold one none; the refuted horns over N, where the map gives None,
        # are decided by propagation on both
        propagated = []
        propagate = horn_module._propagate
        monkeypatch.setattr(
            horn_module, "_propagate",
            lambda *args: propagated.append(args) or propagate(*args),
        )
        rng = random.Random(13)
        shapes = refuted = 0
        for d in range(4):
            top = 2 * d + 2
            warm, cold, Z = EMSpace(M, d, top), EMSpace(M, d, top), EMSpace(int_group(), d, top)
            for n in range(d + 1, top + 1):
                for k in range(n // 2 + 1):
                    shapes += 1
                    y = warm.random_simplex(n, rng, bound or 1)
                    solve_em(build_constraints(warm, horn_from_simplex(warm, n, k, y)))
                    fill = horn_module._horn_shape(warm, n, k).fill
                    assert fill is not None
                    for rhs in self._data(warm, Z, n, k, bound, rng):
                        propagated.clear()
                        got = self._decide(warm, n, k, rhs, cold=False)
                        result, _, count = got
                        # the map decided a filled horn, for both calls
                        assert count == result.found and not (result.found and propagated)
                        assert horn_module._horn_shape(warm, n, k).fill is fill
                        assert got == self._decide(cold, n, k, rhs, cold=True), (M, n, k, rhs)
                        if not result.found:
                            assert M.is_free_natural
                            assert result.steps[-1].kind == "contradiction"
                            refuted += 1
        assert shapes == 41
        assert (refuted > 0) == M.is_free_natural
