"""``cli``: the README's example commands, each a cold subprocess.

Each invocation is ``python -m emhorn ...`` in a fresh interpreter, one at
a time, so this workload measures interpreter start-up, imports, argparse
and per-invocation space construction; a per-space cache can never hit
here.  ``check-horn`` and ``faces`` take seeded values; the command list
repeats in full cycles, so every run has the same mix.

Checks, outside the timed region: exit codes as the README documents them,
stdout byte-identical across repeats of one command, the counterexample's
chain ending in ``x(0112) + 3 = 1``, and fillers and faces recomputed by
the benchmark's own face evaluator.

The untimed parent imports no part of the package: the kernel counts the
parent's peak resident memory at fork time into a child's reported peak,
so a large parent would inflate ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

import harness
from harness import clock
from oracle import FaceOracle

SETUP_REPEATS = 3
# Set-up is repeated between cycles as well, so its median samples the
# whole run rather than its first second.
SETUP_EVERY = 3
MIN_INVOCATIONS = 50
TIMEOUT_S = 60
PROBE_REPEATS = 5


def commands(seed):
    """(argv, expected exit code, check of stdout) for ``seed``."""
    rng = random.Random(seed)
    oracle = FaceOracle()
    f0 = rng.randrange(10)
    a, b, c = (rng.randrange(2) for _ in range(3))
    g0, g2 = rng.randrange(10), rng.randrange(5)
    g3 = g2 + 1 + rng.randrange(5)
    s = [rng.randrange(10) for _ in range(3)]

    def counterexample_text(out):
        lines = out.splitlines()
        return lines[-2:] == [
            "required: x(0112) + 3 = 1: no solution in N   [face 2]",
            "no filler exists",
        ] and lines[0].startswith(f"horn Lambda^1[3] -> K(N,2) with faces 0 -> ({f0}),")

    def counterexample_json(out):
        cert = json.loads(out)
        return (
            cert["result"] == "no_filler"
            and cert["certificate"][-1]["equation"] == "x(0112) + 3 = 1"
        )

    def filler(out):
        m = re.search(r"^filler: level:3 \[([0-9,]*)\]", out, re.M)
        if not m:
            return False
        coords = tuple(int(v) for v in m.group(1).split(","))
        given = {0: (a,), 2: (b,), 3: (c,)}
        return all(oracle.face("Z/2", 2, 3, i, coords) == x for i, x in given.items())

    def no_filler(out):
        return (
            f"required: x(0112) + {g3} = {g2}: no solution in N\n" in out
            and out.endswith("no filler exists\n")
        )

    def enumerate_level(out):
        return out == (
            "S^2[3]: * 0012 0112 0122\n"
            "K(N,2)[3] = N^3\n"
            "generators: 0012 0112 0122\n"
        )

    def faces(out):
        got = re.findall(r"^d(\d) -> level:2 \[(\d+)\]", out, re.M)
        want = [(str(i), str(oracle.face("N", 2, 3, i, tuple(s))[0])) for i in range(4)]
        return got == want

    def sweep_fails(out):
        return out.startswith(
            "quasicategory sweep of K(N,2) up to dimension 3: FAIL (3 horn instances"
        )

    def sweep_passes(out):
        return out.startswith("kan sweep of K(Z/2,2) up to dimension 3: pass")

    literal = "level:3 [" + ",".join(map(str, s)) + "]"
    return [
        (["paper-counterexample", "--f0", str(f0)], 0, counterexample_text),
        (["paper-counterexample", "--format", "json"], 0, counterexample_json),
        (["check-horn", "--monoid", "cyclic:2", "--n", "2", "--horn", "3,1",
          "--faces", f"0:[{a}]", f"2:[{b}]", f"3:[{c}]"], 0, filler),
        (["check-horn", "--monoid", "nat", "--n", "2", "--horn", "3,1",
          "--faces", f"0:[{g0}]", f"2:[{g2}]", f"3:[{g3}]"], 1, no_filler),
        (["enumerate", "--monoid", "nat", "--n", "2", "--level", "3"], 0, enumerate_level),
        (["faces", "--monoid", "nat", "--n", "2", "--simplex", literal], 0, faces),
        (["sweep", "--kind", "quasicategory", "--monoid", "nat", "--n", "2",
          "--dim", "3", "--bound", "3"], 1, sweep_fails),
        (["sweep", "--kind", "kan", "--monoid", "cyclic:2", "--n", "2", "--dim", "3"],
         0, sweep_passes),
    ]


def _env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(harness.SRC) + (os.pathsep + path if path else "")
    return env


def invoke(argv, env):
    """One cold subprocess: (wall seconds, exit code, stdout bytes)."""
    t0 = clock()
    proc = subprocess.run(
        argv, cwd=harness.ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, timeout=TIMEOUT_S, check=False,
    )
    return clock() - t0, proc.returncode, proc.stdout


def setup(seed, env):
    """The seeded command list, plus one cold invocation that loads the
    interpreter, the package and its bytecode into the page cache."""
    cmds = commands(seed)
    invoke([sys.executable, "-m", "emhorn", *cmds[0][0]], env)
    return cmds


def _output_ok(cmd, code, out):
    _, expected_code, check = cmd
    if code != expected_code:
        return False
    try:
        return check(out.decode())
    except (ValueError, KeyError, IndexError):
        return False


def run(seed, seconds, trace):
    env = _env()
    cmds, setup_times = harness.timed_setups(lambda: setup(seed, env), SETUP_REPEATS)
    if trace:
        return _run_traced(cmds, env, setup_times)

    first = [None] * len(cmds)
    best = [float("inf")] * len(cmds)
    bad = set()
    latencies = []
    failed = 0
    cycles = 0
    deadline = clock() + seconds
    while clock() < deadline or len(latencies) < MIN_INVOCATIONS:
        for idx, cmd in enumerate(cmds):
            try:
                elapsed, code, out = invoke([sys.executable, "-m", "emhorn", *cmd[0]], env)
            except subprocess.TimeoutExpired:
                elapsed, code, out = TIMEOUT_S, None, None
            latencies.append(elapsed)
            best[idx] = min(best[idx], elapsed)
            if first[idx] is None:
                first[idx] = (code, out)
                if not _output_ok(cmd, code, out or b""):
                    bad.add(idx)
            if idx in bad or (code, out) != first[idx]:
                failed += 1
        cycles += 1
        if cycles % SETUP_EVERY == 0:
            setup_times += harness.timed_setups(lambda: setup(seed, env), 1)[1]

    attempted = len(latencies)
    named = {
        "cli_p50_ms": (harness.median(best) * 1e3, "ms"),
        "cli_p80_ms": (harness.percentile(best, 80) * 1e3, "ms"),
        "setup_s": (harness.median(setup_times), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(children=True), "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "named_metrics": named,
        "end_to_end": {
            "throughput_per_s": len(best) / sum(best),
            "latency_p50_us": named["cli_p50_ms"][0] * 1e3,
            "latency_tail_us": named["cli_p80_ms"][0] * 1e3,
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
        },
        "counts": {"commands": len(cmds), "cycles": attempted // len(cmds)},
        "notes": {
            "invocations": attempted,
            "cli_p50_ms_all_repeats": harness.median(latencies) * 1e3,
            "cli_p80_ms_all_repeats": harness.percentile(latencies, 80) * 1e3,
            "setup_times_s": setup_times,
        },
    }


def _main_in_process(argv):
    from emhorn.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


def _run_traced(cmds, env, setup_times):
    """Interpreter start-up and package import as cold subprocesses, then
    one untraced and one traced in-process pass of ``emhorn.cli.main``
    over the command list, with every ``EMSpace`` the commands build
    traced."""
    import emhorn
    import emhorn.em as em_module
    import emhorn.horn as horn_module

    interpreter = [invoke([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBE_REPEATS)]
    importing = [
        invoke([sys.executable, "-c", "import emhorn"], env)[0] for _ in range(PROBE_REPEATS)
    ]
    cold = [invoke([sys.executable, "-m", "emhorn", *cmd[0]], env) for cmd in cmds]

    for cmd in cmds:  # imports and first-call work, outside the timed pass
        harness.attempt(_main_in_process, cmd[0])
    main_times = []
    plain = []
    for cmd in cmds:
        t0 = clock()
        plain.append(harness.attempt(_main_in_process, cmd[0]))
        main_times.append(clock() - t0)
    untraced_s = sum(main_times)

    tracer = harness.Tracer()
    tracer.phase = "unit"
    original = em_module.enumerate_surjections

    def surjections(m, n):
        maps = original(m, n)
        tracer.count("delta.maps", len(maps))
        return maps

    traced = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(harness.patched(em_module, "EMSpace", harness.traced_space_class(tracer)))
        stack.enter_context(harness.patched(
            em_module, "enumerate_surjections", tracer.wrap("delta.surjections", surjections, keep=False)
        ))
        stack.enter_context(harness.patched(
            horn_module, "validate_horn", tracer.wrap("horn.validate", emhorn.validate_horn)
        ))
        t0 = clock()
        for cmd in cmds:
            traced.append(tracer.call("cli.main", harness.attempt, _main_in_process, cmd[0]))
        traced_s = clock() - t0
    tracer.phase = "check"

    failed = 0
    for cmd, (_, code, out), p, t in zip(cmds, cold, plain, traced):
        if not _output_ok(cmd, code, out) or p != (code, out) or t != (code, out):
            failed += 1
    extra = {
        "cli.interpreter_ms": harness.median(interpreter) * 1e3,
        "cli.import_ms": harness.median(importing) * 1e3,
        "cli.main_ms": harness.median(main_times) * 1e3,
    }
    counts = {"commands": len(cmds)}
    return {
        "attempted": len(cmds) * 3,
        "failed": failed,
        "per_layer": harness.layer_metrics(tracer, counts, untraced_s, traced_s, extra),
        "counts": counts,
        "trace": tracer.dump(),
        "notes": {"setup_times_s": setup_times, "cold_ms": [c[0] * 1e3 for c in cold]},
    }
