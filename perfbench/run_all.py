"""Run every workload, each in its own process, and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run_all.py [--seed N] [--seconds S]

Prints, per workload, the per-workload metric lines of ``run.py`` (every
end-to-end figure by name with its unit, and ``failed_frac``) followed by
its JSON result line.  Exits 1 if any workload fails or reports a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            if " = " in line or line.startswith("{"):
                print(line)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: FAILED (exit {proc.returncode})", file=sys.stderr)
            sys.stderr.write(proc.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
