"""Self-tests of the benchmark: exact counts repeat, the decide mix is
rich enough, and a directory without the package sources is refused.

Run from the root of a checkout:  python3 -m pytest perfbench -q
(about a minute; every test runs the benchmark as a subprocess).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


def bench(workload, seed, trace, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc


def bench_record(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, record


def exact_counts(last, record):
    """The counts of a run: every per-layer metric measured in ``count``,
    plus the workload's own count record."""
    counts = {
        name: m["value"] for name, m in last["metrics"].items() if m["unit"] == "count"
    }
    return counts, record["counts"]


@pytest.mark.parametrize("workload", ["decide", "tables", "cli", "sweep"])
def test_traced_counts_repeat_exactly(workload):
    first = exact_counts(*bench_record(workload, 3, 1))
    second = exact_counts(*bench_record(workload, 3, 1))
    assert first == second
    layers, counts = first
    if workload == "sweep":
        assert counts["instances"] == [357, 113, 51, 288]
        assert layers["horn.verdict.filler"] == 809
    if workload == "decide":
        assert all(
            layers[f"horn.verdict.{kind}"] > 0
            for kind in ("filler", "contradiction", "exhausted")
        )


def test_decide_stream_counts_repeat_and_mix_all_verdicts():
    _, first = bench_record("decide", 5, 0)
    _, second = bench_record("decide", 5, 0)
    assert first["counts"] == second["counts"]
    counts = first["counts"]
    assert counts["instances"] == 2000
    assert counts["filler"] > 0 and counts["contradiction"] > 0 and counts["exhausted"] > 0


def test_refuses_a_directory_without_sources():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("decide", 1, 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
