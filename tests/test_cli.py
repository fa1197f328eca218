import json

import jsonschema

from emhorn.cli import main
from emhorn.horn import CERTIFICATE_SCHEMA

BOOLEAN_TABLE = '{"name": "bool", "elements": ["0", "1"], "table": [["0", "1"], ["1", "1"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_level_three_over_naturals(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--monoid", "nat", "--n", "2", "--level", "3")
        assert code == 0
        assert out == (
            "S^2[3]: * 0012 0112 0122\n"
            "K(N,2)[3] = N^3\n"
            "generators: 0012 0112 0122\n"
        )

    def test_all_levels_dump(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--monoid", "nat", "--n", "2", "--dim", "3")
        assert code == 0
        assert "0: *\n1: *\n2: * 012\n3: * 0012 0112 0122\n" in out
        assert "3: N^3  generators: 0012 0112 0122" in out

    def test_json_form(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--monoid", "cyclic:4", "--n", "2", "--level", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["space"] == "K(Z/4,2)"
        assert data["levels"][0]["generators"] == ["012"]

    def test_degree_zero_has_no_sphere_section(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--monoid", "nat", "--n", "0", "--dim", "2")
        assert code == 0
        assert "S^" not in out
        assert "K(N,0) levels:" in out

    def test_level_outside_the_truncation_exits_two(self, capsys):
        for n in ("0", "2"):
            for fmt in ("text", "json"):
                for level in ("5", "-1"):
                    code, out, err = run(
                        capsys, "enumerate", "--n", n, "--dim", "3", f"--level={level}",
                        "--format", fmt,
                    )
                    assert code == 2 and out == ""
                    assert err == f"error: level {level} outside truncation 0..3\n"


class TestFaces:
    def test_symbolic_fibers(self, capsys):
        code, out, _ = run(capsys, "faces", "--monoid", "nat", "--n", "2", "--level", "3")
        assert code == 0
        assert out == (
            "faces at level 3 of K(N,2):\n"
            "d0: 012 <- 0012\n"
            "d1: 012 <- 0012 + 0112\n"
            "d2: 012 <- 0112 + 0122\n"
            "d3: 012 <- 0122\n"
        )

    def test_evaluated_on_simplex_literal(self, capsys):
        code, out, _ = run(
            capsys, "faces", "--monoid", "nat", "--n", "2",
            "--simplex", "level:3 [5,1,3]",
        )
        assert code == 0
        assert "d0 -> level:2 [5]  (012=5)" in out
        assert "d1 -> level:2 [6]  (012=6)" in out
        assert "d2 -> level:2 [4]  (012=4)" in out
        assert "d3 -> level:2 [3]  (012=3)" in out

    def test_malformed_literal_exits_two(self, capsys):
        code, _, err = run(capsys, "faces", "--monoid", "nat", "--simplex", "nope")
        assert code == 2
        assert "malformed simplex literal" in err


class TestCheckHorn:
    def test_filler_with_verification_transcript(self, capsys):
        code, out, _ = run(
            capsys, "check-horn", "--monoid", "cyclic:2", "--n", "2",
            "--horn", "3,1", "--faces", "0:[1]", "2:[1]", "3:[0]",
        )
        assert code == 0
        assert "filler: level:3 [1,1,0]  (0012=1, 0112=1, 0122=0)" in out
        assert "verified: d0 -> [1] matches face 0" in out
        assert "verified: d3 -> [0] matches face 3" in out

    def test_no_filler_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "check-horn", "--monoid", "nat", "--n", "2",
            "--horn", "3,1", "--faces", "0:[5]", "2:[1]", "3:[3]",
        )
        assert code == 1
        assert "x(0112) + 3 = 1" in out
        assert "no filler exists" in out

    def test_json_certificate_validates(self, capsys):
        code, out, _ = run(
            capsys, "check-horn", "--monoid", "int", "--n", "2",
            "--horn", "3,1", "--faces", "0:[0]", "2:[1]", "3:[3]",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, CERTIFICATE_SCHEMA)
        assert data["witness"] == [0, -2, 3]

    def test_incompatible_faces_exit_two(self, capsys):
        code, _, err = run(
            capsys, "check-horn", "--monoid", "nat", "--n", "2", "--dim", "4",
            "--horn", "4,2",
            "--faces", "0:[1,0,0]", "1:[0,0,0]", "3:[0,0,0]", "4:[0,0,0]",
        )
        assert code == 2
        assert "incompatible" in err

    def test_negative_dim_exits_two(self, capsys):
        # the horn fills at any dimension >= 3, so only the check can refuse it
        code, out, err = run(
            capsys, "check-horn", "--n", "2", "--horn", "3,1",
            "--faces", "0:[1]", "2:[1]", "3:[1]", "--dim", "-4",
        )
        assert code == 2 and out == ""
        assert "dimension bound must be non-negative" in err

    def test_wrong_width_face_exits_two(self, capsys):
        code, _, err = run(
            capsys, "check-horn", "--monoid", "nat", "--n", "2",
            "--horn", "3,1", "--faces", "0:[1,2]", "2:[1]", "3:[0]",
        )
        assert code == 2
        assert "coordinates" in err

    def test_table_monoid_from_file(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(BOOLEAN_TABLE)
        code, out, _ = run(
            capsys, "check-horn", "--monoid", f"table:{path}", "--n", "2",
            "--horn", "3,1", "--faces", "0:[1]", "2:[0]", "3:[1]",
        )
        assert code == 1
        assert "no filler exists" in out

    def test_numeric_element_names_exit_two(self, capsys, tmp_path):
        path = tmp_path / "numeric.json"
        path.write_text('{"elements": [0, 1, 2], "table": [[0, 1, 2], [1, 2, 2], [2, 2, 2]]}')
        for argv in (
            ["faces", "--monoid", f"table:{path}", "--n", "1", "--dim", "3",
             "--simplex", "level:2 [1,1]"],
            ["check-horn", "--monoid", f"table:{path}", "--n", "1", "--horn", "2,1",
             "--faces", "0:[1]", "2:[1]"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == "error: element name 0 is not a string\n"

    def test_table_files_of_the_wrong_shape_exit_two(self, capsys, tmp_path):
        path = tmp_path / "shape.json"
        for text in (
            '{"elements": 3, "table": []}',
            '{"elements": ["a"], "table": [5]}',
            '{"name": ["x"], "elements": ["a"], "table": [["a"]]}',
        ):
            path.write_text(text)
            code, out, err = run(
                capsys, "enumerate", "--monoid", f"table:{path}", "--n", "1", "--level", "1"
            )
            assert code == 2 and out == ""
            assert err.startswith(f"error: {path}: ")

    def test_negative_natural_literals_exit_two(self, capsys):
        for argv in (
            ["check-horn", "--monoid", "nat", "--n", "2", "--horn", "3,1",
             "--faces", "0:[5]", "2:[1]", "3:[-3]"],
            ["faces", "--monoid", "nat", "--n", "2", "--simplex", "level:3 [-5,1,3]"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "is not a natural number" in err

    def test_missing_table_file_exits_two(self, capsys):
        code, _, err = run(
            capsys, "check-horn", "--monoid", "table:/nonexistent.json", "--n", "2",
            "--horn", "3,1", "--faces", "0:[1]", "2:[1]", "3:[0]",
        )
        assert code == 2
        assert err.startswith("error:")


class TestSweep:
    def test_naturals_quasicategory_fails(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "quasicategory", "--monoid", "nat",
            "--n", "2", "--dim", "3", "--bound", "3",
        )
        assert code == 1
        assert "FAIL" in out
        assert "counterexample: Lambda^" in out

    def test_cyclic_kan_passes(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "kan", "--monoid", "cyclic:2",
            "--n", "2", "--dim", "3",
        )
        assert code == 0
        assert "pass" in out

    def test_nerve_unique_flag(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "quasicategory", "--monoid", "cyclic:4",
            "--n", "1", "--dim", "3", "--unique",
        )
        assert code == 0
        assert "fillers unique" in out

    def test_negative_bound_exits_two(self, capsys):
        # at --dim 1 there is no inner horn, so no level is ever enumerated
        for monoid_spec, degree, dim, bound in (
            ("nat", "2", "3", "-1"), ("int", "1", "3", "-2"), ("nat", "2", "1", "-1"),
            ("cyclic:2", "2", "2", "-5"),  # a finite monoid ignores the bound otherwise
        ):
            code, out, err = run(
                capsys, "sweep", "--monoid", monoid_spec, "--n", degree, "--dim", dim,
                "--bound", bound,
            )
            assert code == 2 and out == ""
            assert f"coordinate bound {bound} is negative" in err

    def test_negative_bound_with_kan_sweep_exits_two(self, capsys):
        # at --dim 1 a Kan sweep has no horn either
        code, out, err = run(
            capsys, "sweep", "--kind", "kan", "--monoid", "int", "--n", "1",
            "--dim", "1", "--bound", "-2",
        )
        assert code == 2 and out == ""
        assert "coordinate bound -2 is negative" in err

    def test_unique_with_kan_sweep_exits_two(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--kind", "kan", "--monoid", "cyclic:2",
            "--n", "1", "--dim", "3", "--unique",
        )
        assert code == 2 and out == ""
        assert "--unique applies to quasicategory sweeps only" in err

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "quasicategory", "--monoid", "nat",
            "--n", "2", "--dim", "3", "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        jsonschema.validate(data["witness"], CERTIFICATE_SCHEMA)


class TestCounterexampleCommand:
    def test_text_narrative(self, capsys):
        code, out, _ = run(capsys, "paper-counterexample", "--f0", "5")
        assert code == 0
        assert out == (
            "horn Lambda^1[3] -> K(N,2) with faces 0 -> (5), 2 -> (1), 3 -> (3)\n"
            "forced: x(0012) = 5   [face 0]\n"
            "forced: x(0122) = 3   [face 3]\n"
            "required: x(0112) + 3 = 1: no solution in N   [face 2]\n"
            "no filler exists\n"
        )

    def test_json_is_deterministic_and_valid(self, capsys):
        code1, out1, _ = run(capsys, "paper-counterexample", "--format", "json")
        code2, out2, _ = run(capsys, "paper-counterexample", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        jsonschema.validate(json.loads(out1), CERTIFICATE_SCHEMA)


class TestUsageErrors:
    def test_unknown_monoid_spec(self, capsys):
        code, _, err = run(capsys, "enumerate", "--monoid", "weird")
        assert code == 2
        assert "unknown monoid spec" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_malformed_horn_flag(self, capsys):
        code, _, err = run(
            capsys, "check-horn", "--monoid", "nat", "--horn", "3",
            "--faces", "0:[1]",
        )
        assert code == 2
        assert "expected 'n,k'" in err
