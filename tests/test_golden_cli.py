"""Golden stdout for every command line shown in the README, and for the
full level listing of ``enumerate`` in degrees 0, 1 and 2.

Each command runs through ``emhorn.cli.main`` in-process, in text and JSON
form where it takes ``--format``; exit code and stdout must match
``golden_cli.json`` byte for byte.  The table monoid is read from a
temporary file whose path never reaches stdout.

Regenerate the golden file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from emhorn.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

BOOLEAN_TABLE = {"name": "bool", "elements": ["0", "1"], "table": [["0", "1"], ["1", "1"]]}

README_COMMANDS = [
    ["enumerate", "--monoid", "nat", "--n", "2", "--level", "3"],
    ["faces", "--monoid", "nat", "--n", "2", "--level", "3"],
    ["faces", "--monoid", "nat", "--n", "2", "--simplex", "level:3 [5,1,3]"],
    ["check-horn", "--monoid", "cyclic:2", "--n", "2", "--horn", "3,1",
     "--faces", "0:[1]", "2:[1]", "3:[0]"],
    ["check-horn", "--monoid", "nat", "--n", "2", "--horn", "3,1",
     "--faces", "0:[5]", "2:[1]", "3:[3]"],
    ["sweep", "--kind", "quasicategory", "--monoid", "nat", "--n", "2", "--dim", "3",
     "--bound", "3"],
    ["sweep", "--kind", "kan", "--monoid", "cyclic:2", "--n", "2", "--dim", "3"],
    ["sweep", "--kind", "quasicategory", "--monoid", "cyclic:4", "--n", "1", "--dim", "4",
     "--unique"],
    ["paper-counterexample", "--f0", "5"],
    ["paper-counterexample"],
    ["check-horn", "--monoid", "table:{table}", "--n", "2", "--horn", "3,1",
     "--faces", "0:[1]", "2:[0]", "3:[1]"],
    ["sweep", "--kind", "kan", "--monoid", "table:{table}", "--n", "1", "--dim", "3"],
]

# The full listing (sphere dump and JSON sphere map) of every degree shape:
# no sphere, the circle, and the 2-sphere.
LISTING_COMMANDS = [
    ["enumerate", "--monoid", "nat", "--n", str(n)] for n in (0, 1, 2)
]

# Every command takes --format, so each runs in both forms.
CASES = [
    argv + ["--format", form]
    for argv in README_COMMANDS + LISTING_COMMANDS
    for form in ("text", "json")
]


def _run(argv: list[str], table: Path) -> dict:
    concrete = [arg.replace("{table}", str(table)) for arg in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(concrete)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def _table_file(directory: Path) -> Path:
    path = directory / "bool.json"
    path.write_text(json.dumps(BOOLEAN_TABLE))
    return path


def _golden() -> dict:
    return {" ".join(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_readme_command_matches_golden(argv, tmp_path):
    expected = _golden()[" ".join(argv)]
    got = _run(argv, _table_file(tmp_path))
    assert (got["exit"], got["stdout"]) == (expected["exit"], expected["stdout"])


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = _table_file(Path(tmp))
        entries = [_run(argv, table) for argv in CASES]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(entries)} cases to {GOLDEN}\n")
