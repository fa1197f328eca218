"""The names the benchmark in ``perfbench/`` patches or overrides.

The benchmark times layers by replacing module attributes and subclassing
``EMSpace``.  A rename or a call path that bypasses one of these names
would show up there only as failed operations; here it fails at once.
That a failing sweep calls ``emhorn.horn.validate_horn`` is checked by
``TestSweepRules`` in ``test_horn.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import emhorn.em as em_module
from emhorn.cli import main
from emhorn.em import EMSpace
from emhorn.horn import build_constraints, horn_from_simplex, moore_filler, solve_em
from emhorn.monoid import boolean, cyclic, int_group, nat

HARNESS = Path(__file__).resolve().parent.parent / "perfbench" / "harness.py"


def _harness():
    spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exercise(K):
    """Faces, fibers and degeneracies of K, through the horn solvers."""
    y = K.simplex(3, tuple(K.monoid.elements[i % 3] for i in range(K.rank(3))))
    problem = horn_from_simplex(K, 3, 1, y)
    return solve_em(build_constraints(K, problem)).filler, moore_filler(K, problem).filler


def test_space_takes_generators_from_em_module_name(levels_read):
    # levels_read (conftest.py) patches emhorn.em.enumerate_surjections
    K = EMSpace(nat(), 2, 3)
    assert levels_read == []
    for k in range(4):
        K.rank(k)
    assert levels_read == [(0, 2), (1, 2), (2, 2), (3, 2)]
    for k in range(4):
        K.gen_names(k)
    assert levels_read == [(0, 2), (1, 2), (2, 2), (3, 2)]


def test_operator_overrides_are_honoured():
    calls = set()

    class Recording(EMSpace):
        def face(self, k, i, x):
            calls.add("face")
            return super().face(k, i, x)

        def degeneracy(self, k, j, x):
            calls.add("degeneracy")
            return super().degeneracy(k, j, x)

        def face_fibers(self, k, i):
            calls.add("face_fibers")
            return super().face_fibers(k, i)

        def degeneracy_targets(self, k, j):
            calls.add("degeneracy_targets")
            return super().degeneracy_targets(k, j)

    assert _exercise(Recording(cyclic(3), 2, 3)) == _exercise(EMSpace(cyclic(3), 2, 3))
    assert calls == {"face", "degeneracy", "face_fibers", "degeneracy_targets"}


def test_spaces_built_before_the_module_name_is_patched_keep_working(monkeypatch):
    # the benchmark swaps emhorn.em.EMSpace for a traced subclass while
    # spaces built earlier, such as the paper's, are still in use
    before = EMSpace(cyclic(3), 2, 3)
    expected = _exercise(EMSpace(cyclic(3), 2, 3))
    tracer = _harness().Tracer()
    monkeypatch.setattr(em_module, "EMSpace", _harness().traced_space_class(tracer))
    assert _exercise(before) == expected


def test_cli_builds_spaces_through_em_module_name(monkeypatch, capsys):
    built = []

    class Recording(EMSpace):
        def __init__(self, *args):
            built.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(em_module, "EMSpace", Recording)
    assert main(["faces", "--monoid", "nat", "--n", "2", "--level", "3"]) == 0
    assert built == [(2, 4)]
    assert capsys.readouterr().out.startswith("faces at level 3 of K(N,2):")


def test_benchmark_monoid_copy_and_traced_space_agree():
    harness = _harness()
    tracer = harness.Tracer()
    tracer.phase = "unit"
    for M in (nat(), int_group(), cyclic(3), boolean()):
        C = harness.counting_monoid(M, tracer)
        flags = ("identity", "elements", "is_finite", "is_group", "is_free_natural",
                 "integer_addition")
        assert [getattr(C, f) for f in flags] == [getattr(M, f) for f in flags]
        assert C.op(1, 1) == M.op(1, 1)
    assert tracer.counted("monoid.op_calls") == 4
    traced = harness.traced_space_class(tracer)(harness.counting_monoid(cyclic(3), tracer), 2, 3)
    assert _exercise(traced) == _exercise(EMSpace(cyclic(3), 2, 3))
    for layer in ("em.face", "em.degeneracy", "em.tables"):
        assert tracer.calls(layer) > 0, layer
    assert tracer.counted("monoid.op_calls") > 4
