"""The acceptance gate: one test per numbered criterion.

Each test pins the tolerances stated up front (exact equality everywhere,
no deferred calibration) and asserts its runtime budget.  The conftest
prints a PASS/FAIL line per criterion in the terminal summary.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import jsonschema
import pytest

from emhorn.em import EMSpace, NerveView
from emhorn.horn import (
    CERTIFICATE_SCHEMA,
    HornProblem,
    brute_force_filler,
    build_constraints,
    horn_from_simplex,
    iter_compatible_horn_data,
    moore_filler,
    quasicategory_counterexample,
    solve_em,
    sweep_kan,
    sweep_quasicategory,
)
from emhorn.monoid import boolean, cyclic, int_group, nat, trivial
from emhorn.sset import render_id, sphere
from support import em_homomorphism_violations, em_identity_violations

pytestmark = pytest.mark.acceptance


def test_criterion_1_example_reproduction():
    start = time.monotonic()
    S = sphere(2, 3)
    assert [[render_id(x) for x in S.level(k)] for k in range(4)] == [
        ["*"], ["*"], ["*", "012"], ["*", "0012", "0112", "0122"],
    ]
    K = EMSpace(nat(), 2, 3)
    assert K.gen_names(2) == ["012"]
    assert K.gen_names(3) == ["0012", "0112", "0122"]
    rng = random.Random(20260810)
    for _ in range(100):
        a, b, c = (rng.randrange(10**6 + 1) for _ in range(3))
        x = K.simplex(3, (a, b, c))
        assert K.face(3, 0, x).coords == (a,)
        assert K.face(3, 1, x).coords == (a + b,)
        assert K.face(3, 2, x).coords == (b + c,)
        assert K.face(3, 3, x).coords == (c,)
    assert time.monotonic() - start < 1.0


def test_criterion_2_no_filler_certificate():
    start = time.monotonic()
    for f0 in range(21):
        report = quasicategory_counterexample(f0)
        assert not report.result.found
        last = report.result.steps[-1]
        assert last.kind == "contradiction"
        assert last.variable == "0112"
        assert (last.known, last.rhs) == (3, 1)
        assert last.equation == "x(0112) + 3 = 1"
    assert time.monotonic() - start < 1.0


def test_criterion_3_group_kan_evidence():
    start = time.monotonic()
    for m in (2, 3):
        K = EMSpace(cyclic(m), 2, 3)
        report = sweep_kan(K, 3)
        assert report.passed, report.summary()
    KZ = EMSpace(int_group(), 2, 4)
    rng = random.Random(3)
    for idx in range(500):
        n = 3 if idx % 2 == 0 else 4
        k = rng.randrange(n + 1)
        if n == 3:
            faces = {
                i: KZ.simplex(2, (rng.randrange(-50, 51),))
                for i in range(4)
                if i != k
            }
            problem = HornProblem(KZ, 3, k, faces)
        else:
            problem = horn_from_simplex(KZ, 4, k, KZ.random_simplex(4, rng, 50))
        result = moore_filler(KZ, problem)
        assert result.found
        for i, x in problem.faces.items():
            assert KZ.face(n, i, result.filler) == x
    assert time.monotonic() - start < 10.0


def test_criterion_4_nerve_quasicategory_evidence():
    start = time.monotonic()
    for M, bound in ((cyclic(4), None), (boolean(), None), (nat(), 5)):
        N = EMSpace(M, 1, 4)
        report = sweep_quasicategory(N, 4, bound=bound, check_unique=True)
        assert report.passed, report.summary()
        assert report.unique is True, report.summary()
        assert report.instances > 0
    assert time.monotonic() - start < 10.0


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    for make in (lambda: cyclic(2), boolean, trivial):
        K = EMSpace(make(), 2, 4)
        for k in range(4):
            for problem in iter_compatible_horn_data(K, 3, k):
                fast = solve_em(build_constraints(K, problem)).found
                slow = brute_force_filler(K, problem).found
                assert fast == slow
        population = [
            problem
            for k in range(5)
            for problem in iter_compatible_horn_data(K, 4, k)
        ]
        assert population
        rng = random.Random(55)
        for _ in range(500):
            problem = rng.choice(population)
            fast = solve_em(build_constraints(K, problem)).found
            slow = brute_force_filler(K, problem).found
            assert fast == slow
    assert time.monotonic() - start < 30.0


def test_criterion_6_structural_suites():
    from math import comb

    start = time.monotonic()
    makers = [nat, int_group, lambda: cyclic(4), boolean, trivial]
    for make in makers:
        for n in range(4):
            K = EMSpace(make(), n, 6)
            rng = random.Random(n * 1009 + len(K.monoid.name))
            assert em_identity_violations(K, rng, per_level=200, hint=100) == []
            assert em_homomorphism_violations(K, rng, samples=40, hint=100) == []
    for n in range(4):
        K = EMSpace(nat(), n, 8)
        for k in range(9):
            assert K.rank(k) == comb(k, n)
    # the worked example, bit for bit
    K = EMSpace(nat(), 2, 3)
    assert K.gen_names(2) == ["012"] and K.gen_names(3) == ["0012", "0112", "0122"]
    x = K.simplex(3, (4, 7, 9))
    assert [K.face(3, i, x).coords for i in range(4)] == [(4,), (11,), (16,), (9,)]
    # induced faces against the chain formulas on the nerve
    for make in (lambda: cyclic(4), boolean, trivial):
        M = make()
        view = NerveView(M, 4)
        for k in range(1, 5):
            view.check_face_coincidence(itertools.product(M.elements, repeat=k))
    assert time.monotonic() - start < 10.0


def test_criterion_7_discreteness_and_degeneracy():
    start = time.monotonic()
    rng = random.Random(7)
    for M in (nat(), cyclic(4)):
        K = EMSpace(M, 0, 4)
        for k in range(5):
            for _ in range(25):
                x = K.random_simplex(k, rng, 100)
                if k >= 1:
                    assert all(K.face(k, i, x).coords == x.coords for i in range(k + 1))
                if k < 4:
                    assert all(
                        K.degeneracy(k, j, x).coords == x.coords for j in range(k + 1)
                    )
    P = EMSpace(trivial(), 2, 4)
    for k in range(5):
        assert P.enumerate_level(k) == [P.zero(k)]
    assert sweep_quasicategory(EMSpace(nat(), 0, 3), 3, bound=3).passed
    assert sweep_quasicategory(P, 4).passed
    assert time.monotonic() - start < 1.0


def test_criterion_8_cli_determinism():
    start = time.monotonic()
    cmd = [sys.executable, "-m", "emhorn", "paper-counterexample", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    jsonschema.validate(json.loads(first.stdout), CERTIFICATE_SCHEMA)
    assert time.monotonic() - start < 1.0
