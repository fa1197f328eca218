"""Shared pieces of the benchmark: statistics, tracing, run metadata.

Nothing here imports emhorn at module level, so ``run.py`` can refuse to
start with a clear message when the package sources are missing.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

clock = time.perf_counter


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_setups(setup, repeats):
    """Run ``setup`` ``repeats`` times; return the last state and every time."""
    times = []
    state = None
    for _ in range(repeats):
        t0 = clock()
        state = setup()
        times.append(clock() - t0)
    return state, times


RAISED = "raised"


def attempt(fn, *args):
    """``fn(*args)``, or ``RAISED`` if it raises: the caller counts that
    operation as failed instead of stopping the run."""
    try:
        return fn(*args)
    except Exception:  # any error of the program under test is a failed operation
        return RAISED


def build_tables(K):
    """Every face and degeneracy table of the space ``K``, so that none is
    built lazily inside a timed call."""
    for k in range(1, K.dim_bound + 1):
        for i in range(k + 1):
            K.face_fibers(k, i)
    for k in range(K.dim_bound):
        for j in range(k + 1):
            K.degeneracy_targets(k, j)


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory, plus per-name totals and counters.

    A span has a name, start, end and the span that was open when it began.
    Coarse spans (one per public call the benchmark makes) are kept in full;
    fine ones (per operator application) are folded into the totals only,
    so memory stays bounded on long runs.  Self time is a span's duration
    minus the time its child spans cover; calls are sequential, so children
    never overlap.

    Totals and counters are kept per phase (``setup`` or ``unit``), so a
    workload can report set-up layers and timed-work layers apart.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans = []
        self.totals = {}  # (phase, name) -> [calls, total_s, self_s]
        self.counts = {}  # (phase, name) -> int
        self._stack = [[None, 0.0, 0.0, None]]  # name, start, child_s, span id
        self._next_id = 0

    def begin(self, name, keep=True):
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, clock(), 0.0, span_id])

    def end(self):
        end = clock()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[2] += duration
        entry = self.totals.setdefault((self.phase, name), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if span_id is not None:
            self.spans.append((span_id, name, parent[3], start, end))

    def count(self, name, amount=1):
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, *args, keep=True, **kwargs):
        self.begin(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, name, fn, keep=True):
        def wrapper(*args, **kwargs):
            self.begin(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def iterate(self, name, iterable, count_name):
        """Yield from ``iterable``, timing each step as a fine span and
        counting the items under ``count_name``."""
        it = iter(iterable)
        while True:
            self.begin(name, keep=False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end()
            self.count(count_name)
            yield item

    def calls(self, name, phases=("unit",)):
        return sum(self.totals.get((p, name), (0, 0.0, 0.0))[0] for p in phases)

    def self_s(self, name, phases=("unit",)):
        return sum(self.totals.get((p, name), (0, 0.0, 0.0))[2] for p in phases)

    def counted(self, name, phases=("unit",)):
        return sum(self.counts.get((p, name), 0) for p in phases)

    def dump(self):
        return {
            "fields": ["id", "name", "parent", "start", "end"],
            "spans": [list(s) for s in self.spans],
            "totals": [
                {"phase": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                for (p, n), (c, t, s) in sorted(self.totals.items())
            ],
            "counts": [
                {"phase": p, "name": n, "count": c}
                for (p, n), c in sorted(self.counts.items())
            ],
        }


def counting_monoid(M, tracer):
    """A copy of ``M`` whose operation counts its calls in ``tracer``.

    The capability flags, inverse, rendering and parsing are the same, so
    every solver takes the same path as on ``M``.
    """
    from emhorn import CommutativeMonoid

    op = M.op
    key = ("unit", "monoid.op_calls")
    counts = tracer.counts

    def counted_op(a, b):
        if tracer.phase == "unit":
            counts[key] = counts.get(key, 0) + 1
        return op(a, b)

    return CommutativeMonoid(
        M.name,
        M.identity,
        counted_op,
        elements=M.elements,
        inverse=M.inverse if M.is_group else None,
        free_natural=M.is_free_natural,
        integer_addition=M.integer_addition,
        render=M.render,
        parse=M.parse_element,
    )


def traced_space_class(tracer):
    """An ``EMSpace`` subclass that records construction, table building
    and every face and degeneracy application in ``tracer``."""
    from emhorn import EMSpace

    class TracedEMSpace(EMSpace):
        def __init__(self, *args, **kwargs):
            tracer.begin("em.build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.end()

        def face_fibers(self, k, i):
            tracer.begin("em.tables", keep=False)
            try:
                return super().face_fibers(k, i)
            finally:
                tracer.end()

        def degeneracy_targets(self, k, j):
            tracer.begin("em.tables", keep=False)
            try:
                return super().degeneracy_targets(k, j)
            finally:
                tracer.end()

        def face(self, k, i, x):
            tracer.count("em.face_coords", len(x.coords))
            tracer.begin("em.face", keep=False)
            try:
                return super().face(k, i, x)
            finally:
                tracer.end()

        def degeneracy(self, k, j, x):
            tracer.begin("em.degeneracy", keep=False)
            try:
                return super().degeneracy(k, j, x)
            finally:
                tracer.end()

    return TracedEMSpace


@contextlib.contextmanager
def patched(module, name, replacement):
    """Replace a module attribute for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# Per-layer metrics common to the workloads


LAYER_METRICS = [
    ("delta.surjections_s", "s"),
    ("delta.surjections_calls", "count"),
    ("delta.maps", "count"),
    ("sset.sphere_s", "s"),
    ("em.build_s", "s"),
    ("em.tables_s", "s"),
    ("em.face_calls", "count"),
    ("em.face_s", "s"),
    ("em.face_coords_per_s", "1/s"),
    ("em.degeneracy_calls", "count"),
    ("em.degeneracy_s", "s"),
    ("monoid.op_calls", "count"),
    ("horn.enumerate_s", "s"),
    ("horn.instances", "count"),
    ("horn.validate_calls", "count"),
    ("horn.validate_s", "s"),
    ("horn.compile_s", "s"),
    ("horn.equations", "count"),
    ("horn.solve_calls", "count"),
    ("horn.solve_s", "s"),
    ("horn.count_fillers_s", "s"),
    ("horn.render_s", "s"),
    ("horn.verdict.filler", "count"),
    ("horn.verdict.contradiction", "count"),
    ("horn.verdict.exhausted", "count"),
    ("horn.cert_steps", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

BOTH = ("setup", "unit")


def layer_metrics(tracer, counts, untraced_s, traced_s, extra=None):
    """Every per-layer metric, from one traced run.

    Layers that build things (delta, sset, em construction and tables,
    horn enumeration) are summed over set-up and timed work, since a
    workload may do them in either; operator and solver layers count the
    timed work only.  A layer the workload does not use reads 0.
    """
    t = tracer
    face_s = t.self_s("em.face")
    values = {
        "delta.surjections_s": t.self_s("delta.surjections", BOTH),
        "delta.surjections_calls": t.calls("delta.surjections", BOTH),
        "delta.maps": t.counted("delta.maps", BOTH),
        "sset.sphere_s": t.self_s("sset.sphere", BOTH),
        "em.build_s": t.self_s("em.build", BOTH),
        "em.tables_s": t.self_s("em.tables", BOTH),
        "em.face_calls": t.calls("em.face"),
        "em.face_s": face_s,
        "em.face_coords_per_s": t.counted("em.face_coords") / face_s if face_s else 0.0,
        "em.degeneracy_calls": t.calls("em.degeneracy"),
        "em.degeneracy_s": t.self_s("em.degeneracy"),
        "monoid.op_calls": t.counted("monoid.op_calls"),
        "horn.enumerate_s": t.self_s("horn.enumerate", BOTH),
        "horn.instances": t.counted("horn.instances", BOTH),
        "horn.validate_calls": t.calls("horn.validate"),
        "horn.validate_s": t.self_s("horn.validate"),
        "horn.compile_s": t.self_s("horn.build_constraints"),
        "horn.equations": t.counted("horn.equations"),
        "horn.solve_calls": t.calls("horn.solve"),
        "horn.solve_s": t.self_s("horn.solve"),
        "horn.count_fillers_s": t.self_s("horn.count_fillers"),
        "horn.render_s": t.self_s("horn.render"),
        "horn.verdict.filler": counts.get("filler", 0),
        "horn.verdict.contradiction": counts.get("contradiction", 0),
        "horn.verdict.exhausted": counts.get("exhausted", 0),
        "horn.cert_steps": counts.get("cert_steps", 0),
        "cli.interpreter_ms": 0.0,
        "cli.import_ms": 0.0,
        "cli.main_ms": 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    values.update(extra or {})
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


# ---------------------------------------------------------------------------
# Run metadata


def reference_loop_s(repeats=3):
    """Median time of a fixed pure-Python loop: a diagnostic of host speed,
    never used to rescale a metric."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(clock() - t0)
    return median(times)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "emhorn").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata():
    return {
        "git_sha": _git_sha(),
        "source_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "reference_loop_s": reference_loop_s(),
        "argv": sys.argv[1:],
    }
