"""Golden certificates for a seeded sample of horn decisions.

Each record holds the ``certificate_json`` of
``solve_em(build_constraints(K, p))``, all seven ``CertStep`` fields of
every step, the result note and ``count_fillers``; the recomputed record
must equal the one in ``golden_certificates.json``.  The sample covers
compatible horns over N (degrees 1 and 2), Z/3, bool, and saturating +
and max on {0,1,2} (both not cancellative), horns made by forgetting a
face of random simplices of K(Z,3).

Regenerate the golden file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_certificates.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from emhorn.em import EMSpace
from emhorn.horn import (
    build_constraints,
    certificate_json,
    count_fillers,
    horn_from_simplex,
    iter_compatible_horn_data,
    solve_em,
)
from emhorn.monoid import boolean, cyclic, from_table, int_group, nat

GOLDEN = Path(__file__).with_name("golden_certificates.json")


def _saturating():
    return from_table(["0", "1", "2"], [["0", "1", "2"], ["1", "2", "2"], ["2", "2", "2"]], "sat")


def _max():
    return from_table(["0", "1", "2"], [["0", "1", "2"], ["1", "1", "2"], ["2", "2", "2"]], "max")


# (family, monoid factory, degree, top level, coordinate bound per level,
#  horns drawn per horn shape)
SAMPLED = [
    ("N1", nat, 1, 4, {1: 3, 2: 3, 3: 2, 4: 2}, 4),
    ("N2", nat, 2, 4, {1: 3, 2: 3, 3: 3, 4: 2}, 6),
    ("Z3d2", lambda: cyclic(3), 2, 4, {}, 4),
    ("bool1", boolean, 1, 4, {}, 4),
    ("bool2", boolean, 2, 4, {}, 4),
    ("sat1", _saturating, 1, 4, {}, 4),
    ("sat2", _saturating, 2, 4, {}, 4),
    ("sat3", _saturating, 3, 4, {}, 12),
    ("max1", _max, 1, 4, {}, 4),
    ("max2", _max, 2, 4, {}, 4),
    ("max3", _max, 3, 4, {}, 12),
]
FAMILIES = [entry[0] for entry in SAMPLED] + ["Zd3_simplex"]


def _systems(family):
    """The (label, constraint system) pairs of one family, in order."""
    rng = random.Random(f"golden-{family}")
    for name, make, degree, top, bounds, per_shape in SAMPLED:
        if name != family:
            continue
        K = EMSpace(make(), degree, top)
        for n in range(1, top + 1):
            for k in range(n + 1):
                horns = list(iter_compatible_horn_data(K, n, k, bound=bounds.get(n)))
                picks = sorted(rng.sample(range(len(horns)), min(per_shape, len(horns))))
                for idx in picks:
                    yield f"{name} n={n} k={k} #{idx}", build_constraints(K, horns[idx])
    if family == "Zd3_simplex":
        K = EMSpace(int_group(), 3, 5)
        for n in (4, 5):
            for k in range(n + 1):
                for rep in range(4):
                    y = K.random_simplex(n, rng, hint=10)
                    p = horn_from_simplex(K, n, k, y)
                    yield f"Zd3 n={n} k={k} r{rep}", build_constraints(K, p)


def _record(label, system):
    result = solve_em(system)
    return {
        "case": label,
        "certificate": certificate_json(system.problem, result),
        "steps": [
            [s.kind, s.variable, s.equation, s.value, s.known, s.rhs, s.face]
            for s in result.steps
        ],
        "note": result.note,
        "count": count_fillers(system),
    }


def _records(family):
    return [_record(label, system) for label, system in _systems(family)]


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("family", FAMILIES)
def test_certificates_match_golden(family):
    expected = _golden()[family]
    got = _records(family)
    assert [r["case"] for r in got] == [r["case"] for r in expected]
    for mine, theirs in zip(got, expected):
        assert mine == theirs, mine["case"]


def test_golden_covers_every_verdict():
    records = [r for family in _golden().values() for r in family]
    assert len(records) >= 300
    finals = {r["steps"][-1][0] for r in records if r["certificate"]["result"] == "no_filler"}
    assert finals == {"contradiction", "exhausted"}
    assert {r["count"] for r in records} == {0, 1, 2}


if __name__ == "__main__":
    data = {family: _records(family) for family in FAMILIES}
    # one record per line keeps the file small and its diffs readable
    blocks = [
        f"{json.dumps(family)}: [\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in recs) + "\n]"
        for family, recs in data.items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    total = sum(len(v) for v in data.values())
    sys.stdout.write(f"wrote {total} records in {len(data)} families to {GOLDEN}\n")
