"""``sweep``: exhaustive evidence sweeps, through the public API.

One pass calls ``sweep_kan(K(Z/2,2), 4)``, ``sweep_kan(K(Z/3,2), 3)``,
``sweep_quasicategory(K(Z/2,3), 4)`` and the unique-filler nerve sweep
``sweep_quasicategory(K(N,1), 3, bound=5, check_unique=True)``: 809 horn
instances, all fillable, so the time goes into the success path.  The
timed call is the public sweep function itself, so a fast path inside the
sweep shows.  The sweeps are exhaustive; the seed changes nothing.

These are the ROADMAP's four evidence runs, each one dimension lower.  At
full size (16,227 instances) one public call lasts 0.5 to 2.5 s, too long
for the fastest of a run's repeats to escape the slow stretches of a
shared host: ten runs of the same code spread by 0.14 to 0.17 (quartile
distance over median), and by 0.29 to 0.34 with another process on the
two cores.  At this size a call lasts 5 to 50 ms, repeats hundreds of
times per run, and ten runs spread by about 0.08.

Each pass runs on freshly built spaces whose face and degeneracy tables
were filled during set-up, so no pass inherits another's per-space state.
"""

from __future__ import annotations

import emhorn
import emhorn.horn as horn_module

import harness
from harness import clock
from oracle import verdict

SETUP_REPEATS = 3
MIN_PASSES = 20

# (kind, monoid factory name, degree, max_dim, bound, check_unique, instances)
SWEEPS = [
    ("kan", ("cyclic", 2), 2, 4, 3, False, 357),
    ("kan", ("cyclic", 3), 2, 3, 3, False, 113),
    ("quasicategory", ("cyclic", 2), 3, 4, 3, False, 51),
    ("quasicategory", ("nat",), 1, 3, 5, True, 288),
]
INSTANCES_PER_PASS = sum(s[-1] for s in SWEEPS)


def _monoid(spec):
    if spec[0] == "cyclic":
        return emhorn.cyclic(spec[1])
    return emhorn.nat()


def setup(space_class=None, wrap_monoid=None):
    """One fresh space per sweep, with every table built."""
    space_class = space_class or emhorn.EMSpace
    wrap_monoid = wrap_monoid or (lambda M: M)
    spaces = []
    for _, spec, degree, max_dim, _, _, _ in SWEEPS:
        K = space_class(wrap_monoid(_monoid(spec)), degree, max_dim)
        harness.build_tables(K)
        spaces.append(K)
    return spaces


def _sweep_ok(spec, passed, instances, unique):
    check_unique, expected = spec[5], spec[6]
    return (
        passed is True
        and instances == expected
        and unique is (True if check_unique else None)
    )


def _public_pass(spaces):
    """One pass of the public sweeps: per-sweep times and failed instances."""
    times = []
    failed = 0
    for spec, K in zip(SWEEPS, spaces):
        kind, _, _, max_dim, bound, check_unique, instances = spec
        t0 = clock()
        try:
            if kind == "kan":
                report = emhorn.sweep_kan(K, max_dim, bound=bound)
            else:
                report = emhorn.sweep_quasicategory(
                    K, max_dim, bound=bound, check_unique=check_unique
                )
        except Exception:  # counted as failed instances
            report = None
        times.append(clock() - t0)
        if report is None or report.mode != kind or not _sweep_ok(
            spec, report.passed, report.instances, report.unique
        ):
            failed += instances
    return times, failed


def run(seed, seconds, trace):
    del seed  # the sweeps are exhaustive
    setup_times = []
    if trace:
        spaces, setup_times = harness.timed_setups(setup, SETUP_REPEATS)
        return _run_traced(spaces, setup_times)

    per_sweep = [[] for _ in SWEEPS]
    failed = 0
    passes = 0
    deadline = clock() + seconds
    while clock() < deadline or passes < MIN_PASSES:
        t0 = clock()
        spaces = setup()
        setup_times.append(clock() - t0)
        times, pass_failed = _public_pass(spaces)
        failed += pass_failed
        passes += 1
        for acc, t in zip(per_sweep, times):
            acc.append(t)
    while len(setup_times) < SETUP_REPEATS:
        setup_times += harness.timed_setups(setup, 1)[1]

    best = [min(t) for t in per_sweep]
    attempted = INSTANCES_PER_PASS * passes
    named = {
        "horns_per_s": (INSTANCES_PER_PASS / sum(best), "1/s"),
        "sweep_pass_s": (sum(best), "s"),
        "slowest_sweep_s": (max(best), "s"),
        "setup_s": (harness.median(setup_times), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "named_metrics": named,
        "end_to_end": {
            "throughput_per_s": named["horns_per_s"][0],
            "latency_p50_us": named["sweep_pass_s"][0] * 1e6,
            "latency_tail_us": named["slowest_sweep_s"][0] * 1e6,
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
        },
        "counts": {"instances": INSTANCES_PER_PASS if failed == 0 else None},
        "notes": {
            "passes": passes,
            "per_sweep_s": per_sweep,
            "horns_per_s_all_repeats": attempted / sum(map(sum, per_sweep)),
            "setup_times_s": setup_times,
        },
    }


def _run_traced(plain_spaces, setup_times):
    """The public sweeps untraced, then the same sweeps rebuilt from public
    calls with a span around each: ``iter_compatible_horn_data``, then
    ``build_constraints`` (``validate_horn`` inside it), ``solve_em`` and,
    on the nerve, ``count_fillers``."""
    times, failed = _public_pass(plain_spaces)
    untraced_s = sum(times)

    tracer = harness.Tracer()
    spaces = setup(
        space_class=harness.traced_space_class(tracer),
        wrap_monoid=lambda M: harness.counting_monoid(M, tracer),
    )
    tracer.phase = "unit"
    counts = {"filler": 0, "contradiction": 0, "exhausted": 0, "cert_steps": 0}
    per_sweep = []
    validate = tracer.wrap("horn.validate", emhorn.validate_horn)
    with harness.patched(horn_module, "validate_horn", validate):
        t0 = clock()
        for spec, K in zip(SWEEPS, spaces):
            outcome = tracer.call("sweep", harness.attempt, _traced_sweep, tracer, spec, K, counts)
            per_sweep.append((0, False, None) if outcome == harness.RAISED else outcome)
        traced_s = clock() - t0
    tracer.phase = "check"

    for spec, (instances, passed, unique) in zip(SWEEPS, per_sweep):
        if not _sweep_ok(spec, passed, instances, unique):
            failed += spec[-1]
    counts["instances"] = [entry[0] for entry in per_sweep]
    counts["monoid.op_calls"] = tracer.counted("monoid.op_calls")
    return {
        "attempted": INSTANCES_PER_PASS * 2,
        "failed": failed,
        "per_layer": harness.layer_metrics(tracer, counts, untraced_s, traced_s),
        "counts": counts,
        "trace": tracer.dump(),
        "notes": {"setup_times_s": setup_times, "public_sweep_s": times},
    }


def _traced_sweep(tracer, spec, K, counts):
    """Mirror of one public sweep; returns (instances, passed, unique)."""
    kind, _, _, max_dim, bound, check_unique, _ = spec
    instances = 0
    unique = True if check_unique else None
    for n in range(1, min(max_dim, K.dim_bound) + 1):
        ks = range(1, n) if kind == "quasicategory" else range(n + 1)
        for k in ks:
            horns = emhorn.iter_compatible_horn_data(K, n, k, bound=bound)
            for problem in tracer.iterate("horn.enumerate", horns, "horn.instances"):
                instances += 1
                system = tracer.call("horn.build_constraints", emhorn.build_constraints, K, problem)
                tracer.count("horn.equations", len(system.equations))
                result = tracer.call("horn.solve", emhorn.solve_em, system)
                counts[verdict(result)] += 1
                counts["cert_steps"] += len(result.steps)
                if not result.found:
                    return instances, False, unique
                if check_unique and n >= 2:
                    system = tracer.call(
                        "horn.build_constraints", emhorn.build_constraints, K, problem
                    )
                    count = tracer.call("horn.count_fillers", emhorn.count_fillers, system)
                    if count > 1:
                        unique = False
    return instances, True, unique
