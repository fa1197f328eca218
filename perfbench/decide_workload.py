"""``decide``: a seeded, shuffled stream of independent library decisions.

Each decision is ``solve_em(build_constraints(K, p))`` followed by
``certificate_json(p, r)``, timed on its own, one caller, the next call
only after the previous one returns.  This is the workload where no-filler
verdicts, residual search and certificate rendering carry real weight.

The mix:
- compatible horns over K(N,2) at n=3 (coordinates up to 3) and n=4 (up
  to 2), many of them contradiction certificates;
- compatible horns over K(sat3,3) at n=4 and K(max3,4) at n=5, finite
  monoids that are not cancellative, so residual search runs and some
  verdicts are ``exhausted``;
- ``horn_from_simplex`` horns over K(Z,3) at n=5,6 and K(bool,4) at n=6,7:
  wide fillable systems with 10 to 35 unknowns.
"""

from __future__ import annotations

import random

import emhorn
import emhorn.horn as horn_module

import harness
from harness import clock
from oracle import OutputChecker, max3, sat3, verdict

STREAM_LENGTH = 2000
SETUP_REPEATS = 3
MIN_PASSES = 5
# Set-up is repeated (untimed for the decisions) every few passes as
# well, so its median samples the whole run rather than its first second.
SETUP_EVERY = 5

# (group, percent of the stream); every seed gets exactly this mix, so the
# seed varies the inputs and their order but not the share of each kind.
MIX = [
    ("N2n3", 25),
    ("N2n4", 25),
    ("sat3n4", 10),
    ("max3n5", 10),
    ("Z3n5", 8),
    ("Z3n6", 7),
    ("bool4n6", 8),
    ("bool4n7", 7),
]


def setup(seed, space_class=None, wrap_monoid=None, enumerate_horns=None):
    """Spaces, their tables and the decision stream for ``seed``.

    The stream is a list of (space, problem); equal seeds give equal
    streams.
    """
    space_class = space_class or emhorn.EMSpace
    wrap_monoid = wrap_monoid or (lambda M: M)
    enumerate_horns = enumerate_horns or (lambda it: it)

    def space(M, degree, dim):
        K = space_class(wrap_monoid(M), degree, dim)
        harness.build_tables(K)
        return K

    n2 = space(emhorn.nat(), 2, 4)
    s3 = space(sat3(), 3, 4)
    m3 = space(max3(), 4, 5)
    z3 = space(emhorn.int_group(), 3, 6)
    b4 = space(emhorn.boolean(), 4, 7)

    pools = {}
    for group, K, n, bound in [
        ("N2n3", n2, 3, 3),
        ("N2n4", n2, 4, 2),
        ("sat3n4", s3, 4, None),
        ("max3n5", m3, 5, None),
    ]:
        pools[group] = [
            p
            for k in range(n + 1)
            for p in enumerate_horns(emhorn.iter_compatible_horn_data(K, n, k, bound=bound))
        ]
    from_simplex = {
        "Z3n5": (z3, 5),
        "Z3n6": (z3, 6),
        "bool4n6": (b4, 6),
        "bool4n7": (b4, 7),
    }
    rng = random.Random(seed)
    groups = [g for g, weight in MIX for _ in range(weight * STREAM_LENGTH // 100)]
    rng.shuffle(groups)
    stream = []
    for group in groups:
        if group in pools:
            problem = rng.choice(pools[group])
            stream.append((problem.target, problem))
        else:
            K, n = from_simplex[group]
            y = K.random_simplex(n, rng, hint=10)
            stream.append((K, emhorn.horn_from_simplex(K, n, rng.randrange(n + 1), y)))
    return stream


def _decide(K, problem):
    result = emhorn.solve_em(emhorn.build_constraints(K, problem))
    return result, emhorn.certificate_json(problem, result)


def _stream_counts(outputs):
    counts = {"instances": len(outputs), "filler": 0, "contradiction": 0,
              "exhausted": 0, "cert_steps": 0}
    for result, _ in outputs:
        counts[verdict(result)] += 1
        counts["cert_steps"] += len(result.steps)
    return counts


def _check_first_outputs(stream, first):
    """Indices of stream items whose first output fails the checks."""
    checker = OutputChecker()
    bad = set()
    for idx, out in enumerate(first):
        K, problem = stream[idx]
        if out == harness.RAISED or not checker.decision_ok(K, problem, *out):
            bad.add(idx)
    return bad


def run(seed, seconds, trace):
    stream, setup_times = harness.timed_setups(lambda: setup(seed), SETUP_REPEATS)
    if trace:
        return _run_traced(seed, stream, setup_times)

    first = [None] * len(stream)
    best = [float("inf")] * len(stream)
    differs = [0] * len(stream)
    passes = 0
    total_s = 0.0
    deadline = clock() + seconds
    while clock() < deadline or passes < MIN_PASSES:
        for idx, (K, problem) in enumerate(stream):
            t0 = clock()
            try:
                out = _decide(K, problem)
            except Exception:  # counted as a failed operation
                out = harness.RAISED
            elapsed = clock() - t0
            total_s += elapsed
            best[idx] = min(best[idx], elapsed)
            if first[idx] is None:
                first[idx] = out
            elif out != first[idx]:
                differs[idx] += 1
        passes += 1
        if passes % SETUP_EVERY == 0:
            setup_times += harness.timed_setups(lambda: setup(seed), 1)[1]

    bad = _check_first_outputs(stream, first)
    attempted = passes * len(stream)
    failed = sum(passes if idx in bad else n for idx, n in enumerate(differs))
    ok_outputs = [out for out in first if out != harness.RAISED]
    named = {
        "horns_per_s": (len(best) / sum(best), "1/s"),
        "decide_p50_us": (harness.median(best) * 1e6, "us"),
        "decide_p99_us": (harness.percentile(best, 99) * 1e6, "us"),
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
            "latency_p50_us": named["decide_p50_us"][0],
            "latency_tail_us": named["decide_p99_us"][0],
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
        },
        "counts": _stream_counts(ok_outputs) if len(ok_outputs) == len(stream) else None,
        "notes": {
            "decisions": attempted,
            "passes": passes,
            "horns_per_s_all_repeats": attempted / total_s,
            "setup_times_s": setup_times,
        },
    }


def _run_traced(seed, plain_stream, setup_times):
    """One untraced and one traced pass over the stream, with spans around
    each public call."""
    t0 = clock()
    plain = [harness.attempt(_decide, K, p) for K, p in plain_stream]
    untraced_s = clock() - t0

    tracer = harness.Tracer()
    stream = setup(
        seed,
        space_class=harness.traced_space_class(tracer),
        wrap_monoid=lambda M: harness.counting_monoid(M, tracer),
        enumerate_horns=lambda it: tracer.iterate("horn.enumerate", it, "horn.instances"),
    )
    tracer.phase = "unit"

    def decide(K, problem):
        system = tracer.call("horn.build_constraints", emhorn.build_constraints, K, problem)
        tracer.count("horn.equations", len(system.equations))
        result = tracer.call("horn.solve", emhorn.solve_em, system)
        return result, tracer.call("horn.render", emhorn.certificate_json, problem, result)

    validate = tracer.wrap("horn.validate", emhorn.validate_horn)
    with harness.patched(horn_module, "validate_horn", validate):
        t0 = clock()
        outputs = [tracer.call("decide", harness.attempt, decide, K, p) for K, p in stream]
        traced_s = clock() - t0
    tracer.phase = "check"

    bad = _check_first_outputs(stream, outputs)
    mismatched = {idx for idx, (a, b) in enumerate(zip(outputs, plain)) if a != b}
    failed = len(bad | mismatched)
    counts = _stream_counts([out for out in outputs if out != harness.RAISED])
    counts["monoid.op_calls"] = tracer.counted("monoid.op_calls")
    metrics = harness.layer_metrics(tracer, counts, untraced_s, traced_s)
    return {
        "attempted": len(stream),
        "failed": failed,
        "per_layer": metrics,
        "counts": counts,
        "trace": tracer.dump(),
        "notes": {"setup_times_s": setup_times},
    }
