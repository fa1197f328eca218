"""Every ``BENCH_*.json`` record agrees with itself and with ``BENCHMARK.json``.

A record holds paired perfbench runs of a parent and a change, and a claim
read from them.  The claim must name a workload and an end-to-end metric the
benchmark declares, its medians must be the medians of the recorded runs of
that workload, its ratio must be change over parent, and every recorded run
must have been correct.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _correct_flags(node):
    """Every ``correct`` value anywhere in the record."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "correct":
                yield value
            else:
                yield from _correct_flags(value)
    elif isinstance(node, list):
        for value in node:
            yield from _correct_flags(value)


def test_there_are_records():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
class TestBenchRecord:
    def test_claim_names_a_declared_workload_and_metric(self, path):
        claim = json.loads(path.read_text())["claim"]
        benchmark = _benchmark()
        assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
        assert claim["metric"] in {m["name"] for m in benchmark["end_to_end"]}

    def test_claim_medians_are_the_medians_of_the_runs(self, path):
        record = json.loads(path.read_text())
        claim = record["claim"]
        runs = record["workloads"][claim["workload"]]["runs"]
        assert len(runs) == claim["pairs"]
        for side in ("parent", "change"):
            values = [run[side]["metrics"][claim["metric"]]["value"] for run in runs]
            assert math.isclose(claim[f"{side}_median"], statistics.median(values), rel_tol=1e-12)

    def test_ratio_is_change_over_parent(self, path):
        claim = json.loads(path.read_text())["claim"]
        ratio = claim["change_median"] / claim["parent_median"]
        assert math.isclose(claim["ratio"], ratio, rel_tol=1e-12)

    def test_every_run_is_correct(self, path):
        record = json.loads(path.read_text())
        for workload in record["workloads"].values():
            assert workload["runs"]
            for run in workload["runs"]:
                assert run["parent"]["correct"] is True and run["change"]["correct"] is True
        assert all(flag is True for flag in _correct_flags(record))
