"""Run one workload of the emhorn benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,decide,tables,cli} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload is timed with tracing off and the last
line of stdout is a JSON object with the end-to-end metrics; the lines
before it give the same figures under their per-workload names, plus the
run metadata.  With ``--trace 1`` a separate traced run reports the
per-layer metrics instead.  Every output is checked; ``failed`` counts the
operations whose output failed a check or that raised.  The full result,
with the exact counts and, for traced runs, every span, is written to
``.bench_out/`` in the checkout.

The package is imported from ``src/`` of the checkout; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import harness

WORKLOADS = ("sweep", "decide", "tables", "cli")

END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name):
    if not (harness.SRC / "emhorn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emhorn sources under {harness.SRC}")
    sys.path.insert(0, str(harness.SRC))
    return importlib.import_module(f"{name}_workload")


def main(argv=None):
    args = parse_args(argv)
    workload = load_workload(args.workload)
    meta = harness.metadata()
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END
        }
        for name, (value, unit) in result["named_metrics"].items():
            print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(f"{args.workload}: attempted {attempted}, failed {failed}")
    if result.get("counts") is not None:
        print(f"{args.workload}: counts {json.dumps(result['counts'], sort_keys=True)}")
    print(f"{args.workload}: meta {json.dumps(meta, sort_keys=True)}")

    harness.OUT_DIR.mkdir(exist_ok=True)
    out_path = harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(result, meta=meta, metrics=metrics,
                  workload=args.workload, seed=args.seed, seconds=args.seconds)
    if "named_metrics" in record:
        record["named_metrics"] = {
            k: {"value": v, "unit": u} for k, (v, u) in record["named_metrics"].items()
        }
    out_path.write_text(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
