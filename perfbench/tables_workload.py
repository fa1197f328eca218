"""``tables``: wide simplices checked against the simplicial identities.

Set-up builds K(N,2), K(N,3), K(N,4) and K(Z/5,5) to dimension 12 and
K(Z,3) to dimension 11 with every face and degeneracy table, plus the
spheres S^n truncated at the same dimensions.  The timed work then checks
seeded simplices of 66 to 792 coordinates against

    d_i d_j = d_{j-1} d_i  (i < j)      and      d_j s_j = d_{j+1} s_j = id.

This uses the ``em`` operators the opposite way from ``sweep``: few calls
on wide vectors instead of many calls on narrow ones, and it is the only
workload where ``delta`` enumeration, ``sset`` and table building dominate
set-up.  The ``horn`` layer is unused.

One sample is one space's pair (x, z): x at the top level for the face
identities, z one level below for the degeneracy identities.  Samples go
round-robin over the spaces, so every run has the same mix.
"""

from __future__ import annotations

import random

import emhorn
import emhorn.em as em_module

import harness
from harness import clock
from oracle import FaceOracle

SETUP_REPEATS = 3
POOL_PER_SPACE = 32
MIN_PASSES = 5

# (monoid, degree, dimension)
GRID = [("nat", 2, 12), ("nat", 3, 12), ("nat", 4, 12), ("cyclic5", 5, 12), ("int", 3, 11)]


def _monoid(name):
    return {"nat": emhorn.nat, "int": emhorn.int_group, "cyclic5": lambda: emhorn.cyclic(5)}[name]()


def setup(seed, space_class=None, wrap_monoid=None, sphere=None):
    """Spaces with all tables, spheres, and the seeded pool of samples."""
    space_class = space_class or emhorn.EMSpace
    wrap_monoid = wrap_monoid or (lambda M: M)
    sphere = sphere or emhorn.sphere
    spaces = []
    for name, degree, dim in GRID:
        K = space_class(wrap_monoid(_monoid(name)), degree, dim)
        harness.build_tables(K)
        spaces.append(K)
        sphere(degree, dim)
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_PER_SPACE):
        for K in spaces:
            D = K.dim_bound
            pool.append((K, K.random_simplex(D, rng), K.random_simplex(D - 1, rng)))
    return pool


def apply_operators(K, x, z, call=lambda fn, *args: fn(*args)):
    """All operator applications of one sample, each made through ``call``.

    Returns (faces, face_faces, degeneracies, degeneracy_faces) with
    faces[j] = d_j x, face_faces[j][i] = d_i d_j x, degeneracies[j] = s_j z
    and degeneracy_faces[j] = (d_j s_j z, d_{j+1} s_j z).
    """
    D = x.level
    faces = [call(K.face, D, j, x) for j in range(D + 1)]
    face_faces = [[call(K.face, D - 1, i, f) for i in range(D)] for f in faces]
    degeneracies = [call(K.degeneracy, D - 1, j, z) for j in range(D)]
    degeneracy_faces = [
        (call(K.face, D, j, s), call(K.face, D, j + 1, s)) for j, s in enumerate(degeneracies)
    ]
    return faces, face_faces, degeneracies, degeneracy_faces


class ApplicationTimer:
    """Times each operator application and keeps, per pool item and per
    application, the fastest time seen."""

    def __init__(self, pool):
        self.best = [[float("inf")] * applications(x.level) for _, x, _ in pool]
        self.total_s = 0.0
        self._row = None
        self._pos = 0

    def start(self, idx):
        self._row = self.best[idx]
        self._pos = 0

    def __call__(self, fn, *args):
        t0 = clock()
        out = fn(*args)
        elapsed = clock() - t0
        self.total_s += elapsed
        if elapsed < self._row[self._pos]:
            self._row[self._pos] = elapsed
        self._pos += 1
        return out

    def sample_times(self):
        return [sum(row) for row in self.best]


def applications(D):
    """Operator applications per sample at top level D."""
    return (D + 1) + (D + 1) * D + D + 2 * D


def identities_hold(z, outputs):
    faces, face_faces, _, degeneracy_faces = outputs
    D = len(faces) - 1
    for j in range(D + 1):
        for i in range(j):
            if face_faces[j][i] != face_faces[i][j - 1]:
                return False
    return all(a == z and b == z for a, b in degeneracy_faces)


def faces_match_oracle(oracle, K, x, faces):
    return all(
        tuple(f.coords) == oracle.face(K.monoid.name, K.degree, x.level, j, x.coords)
        for j, f in enumerate(faces)
    )


def _check_sample(oracle, checked, idx, K, x, z, outputs):
    """Identities always; the faces against the oracle once per pool item."""
    if not identities_hold(z, outputs):
        return False
    if idx not in checked:
        checked.add(idx)
        return faces_match_oracle(oracle, K, x, outputs[0])
    return True


def run(seed, seconds, trace):
    pool, setup_times = harness.timed_setups(lambda: setup(seed), SETUP_REPEATS)
    if trace:
        return _run_traced(seed, pool, setup_times)

    oracle = FaceOracle()
    checked = set()
    timer = ApplicationTimer(pool)
    failed = 0
    passes = 0
    deadline = clock() + seconds
    while clock() < deadline or passes < MIN_PASSES:
        for idx, (K, x, z) in enumerate(pool):
            timer.start(idx)
            try:
                outputs = apply_operators(K, x, z, timer)
            except Exception:  # counted as a failed sample
                outputs = None
            if outputs is None or not _check_sample(oracle, checked, idx, K, x, z, outputs):
                failed += 1
        passes += 1
    best = timer.sample_times()

    attempted = passes * len(pool)
    apps_per_pass = sum(applications(x.level) for _, x, _ in pool)
    named = {
        "operator_apps_per_s": (apps_per_pass / sum(best), "1/s"),
        "sample_p50_us": (harness.median(best) * 1e6, "us"),
        "sample_p90_us": (harness.percentile(best, 90) * 1e6, "us"),
        "setup_s": (harness.median(setup_times), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "named_metrics": named,
        "end_to_end": {
            "throughput_per_s": named["operator_apps_per_s"][0],
            "latency_p50_us": named["sample_p50_us"][0],
            "latency_tail_us": named["sample_p90_us"][0],
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
        },
        "counts": {"pool": len(pool), "applications_per_pool_pass": apps_per_pass},
        "notes": {
            "passes": passes,
            "operator_apps_per_s_all_repeats": passes * apps_per_pass / timer.total_s,
            "setup_times_s": setup_times,
        },
    }


def _run_traced(seed, plain_pool, setup_times):
    """One untraced and one traced pass over the pool; set-up is traced
    too, with ``enumerate_surjections`` timed where ``EMSpace`` calls it."""
    t0 = clock()
    plain = [harness.attempt(apply_operators, K, x, z) for K, x, z in plain_pool]
    untraced_s = clock() - t0

    tracer = harness.Tracer()
    original = em_module.enumerate_surjections

    def surjections(m, n):
        maps = original(m, n)
        tracer.count("delta.maps", len(maps))
        return maps

    traced_surjections = tracer.wrap("delta.surjections", surjections, keep=False)
    with harness.patched(em_module, "enumerate_surjections", traced_surjections):
        pool = setup(
            seed,
            space_class=harness.traced_space_class(tracer),
            wrap_monoid=lambda M: harness.counting_monoid(M, tracer),
            sphere=tracer.wrap("sset.sphere", emhorn.sphere),
        )
    tracer.phase = "unit"
    t0 = clock()
    outputs = [tracer.call("sample", harness.attempt, apply_operators, K, x, z) for K, x, z in pool]
    traced_s = clock() - t0
    tracer.phase = "check"

    oracle = FaceOracle()
    failed = 0
    for idx, ((K, x, z), out, ref) in enumerate(zip(pool, outputs, plain)):
        if out == harness.RAISED or out != ref or not _check_sample(oracle, set(), idx, K, x, z, out):
            failed += 1
    counts = {
        "pool": len(pool),
        "applications_per_pool_pass": sum(applications(x.level) for _, x, _ in pool),
        "monoid.op_calls": tracer.counted("monoid.op_calls"),
    }
    return {
        "attempted": len(pool),
        "failed": failed,
        "per_layer": harness.layer_metrics(tracer, {}, untraced_s, traced_s),
        "counts": counts,
        "trace": tracer.dump(),
        "notes": {"setup_times_s": setup_times},
    }
