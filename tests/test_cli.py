import json

import jsonschema

import emhorn.sset
from emhorn.cli import main
from emhorn.horn import CERTIFICATE_SCHEMA
from emhorn.sset import sphere

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

    def test_sphere_cells_are_not_built_from_the_sphere(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerate built the sphere")

        monkeypatch.setattr(emhorn.sset, "sphere", refuse)
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--dim", "22", "--level", "3")
        assert code == 0
        assert out.startswith("S^3[3]: * 0123\n")

    def test_sphere_cells_match_the_sphere(self, capsys):
        S = sphere(10, 11)
        code, out, _ = run(capsys, "enumerate", "--n", "10", "--dim", "11", "--format", "json")
        assert code == 0
        cells = json.loads(out)["sphere"]
        assert cells == {str(k): [str(x) for x in S.level(k)] for k in range(12)}
        code, out, _ = run(capsys, "enumerate", "--n", "10", "--dim", "11")
        assert code == 0
        listing = "\n".join(
            f"{k}: " + " ".join(map(str, S.level(k))) for k in range(12)
        )
        assert listing + "\nK(N,10) levels:\n" in out

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

    def test_a_level_enumerates_only_that_level(self, capsys, levels_read):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--dim", "120", "--level", "3")
        assert code == 0 and levels_read == [(3, 2)]
        assert out.endswith("generators: 0012 0112 0122\n")

    def test_json_dim_is_the_requested_bound(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "2", "--dim", "120", "--level", "3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 120
        assert [lv["level"] for lv in data["levels"]] == [3]

    def test_a_negative_degree_or_dim_is_refused_before_the_level(self, capsys):
        for command, level in (("enumerate", "5"), ("enumerate", "-1"), ("faces", "0")):
            for n, dim in (("-1", "3"), ("2", "-1")):
                code, out, err = run(capsys, command, "--n", n, "--dim", dim, f"--level={level}")
                assert code == 2 and out == ""
                assert err == "error: degree and dimension bound must be non-negative\n"


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

    def test_trivial_target_level(self, capsys):
        code, out, _ = run(capsys, "faces", "--n", "2", "--level", "2")
        assert code == 0
        assert out == (
            "faces at level 2 of K(N,2):\n"
            "d0: (trivial target level)\n"
            "d1: (trivial target level)\n"
            "d2: (trivial target level)\n"
        )

    def test_a_level_enumerates_only_it_and_the_level_below(self, capsys, levels_read):
        code, out, _ = run(capsys, "faces", "--n", "2", "--dim", "80", "--level", "3")
        assert code == 0 and sorted(levels_read) == [(2, 2), (3, 2)]
        assert out.endswith("d3: 012 <- 0122\n")

    def test_a_simplex_enumerates_only_its_level_and_the_level_below(self, capsys, levels_read):
        code, out, _ = run(
            capsys, "faces", "--n", "2", "--dim", "80", "--simplex", "level:3 [5,1,3]",
        )
        assert code == 0 and sorted(levels_read) == [(2, 2), (3, 2)]
        assert out.endswith("d3 -> level:2 [3]  (012=3)\n")
        # above --dim the level is refused before it is enumerated
        levels_read.clear()
        code, out, err = run(
            capsys, "faces", "--n", "2", "--dim", "2", "--simplex", "level:3 [5,1,3]",
        )
        assert code == 2 and out == "" and levels_read == []
        assert err == "error: level 3 outside truncation 0..2\n"
        code, out, err = run(capsys, "faces", "--n", "2", "--dim", "80", "--simplex", "level:0 []")
        assert code == 2 and out == "" and levels_read == [(0, 2)]
        assert err == "error: faces need a level in 1..80, got 0\n"

    def test_level_above_the_bound_exits_two(self, capsys):
        code, out, err = run(capsys, "faces", "--n", "2", "--dim", "80", "--level", "81")
        assert code == 2 and out == ""
        assert err == "error: faces need a level in 1..80, got 81\n"

    def test_level_with_a_simplex_is_a_usage_error(self, capsys):
        # the literal names its own level, so a second level is refused, not ignored
        code, out, err = run(
            capsys, "faces", "--simplex", "level:3 [5,1,3]", "--level", "2",
        )
        assert code == 2 and out == ""
        assert err.startswith("usage: emhorn faces")
        assert "argument --level: not allowed with argument --simplex" in err

    def test_level_zero_exits_two(self, capsys):
        for argv in (["--level", "0"], ["--simplex", "level:0 []"]):
            code, out, err = run(capsys, "faces", *argv)
            assert code == 2 and out == ""
            assert err == "error: faces need a level in 1..4, got 0\n"


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

    def test_cyclic_monoid_of_huge_order_fills(self, capsys):
        # the elements are a range, so none of them is ever built
        code, out, _ = run(
            capsys, "check-horn", "--monoid", "cyclic:1000000000000", "--n", "2",
            "--horn", "3,1", "--faces", "0:[1]", "2:[999999999999]", "3:[0]",
        )
        assert code == 0
        assert "filler: level:3 [1,999999999999,0]" in out
        # past 2**63 elements a range has no len(); n = d counts without it
        code, out, _ = run(
            capsys, "check-horn", "--monoid", "cyclic:100000000000000000000", "--n", "2",
            "--horn", "2,1", "--faces", "0:[]", "2:[]",
        )
        assert code == 0
        assert "filler: level:2 [0]" in out

    def test_no_filler_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "check-horn", "--monoid", "nat", "--n", "2",
            "--horn", "3,1", "--faces", "0:[5]", "2:[1]", "3:[3]",
        )
        assert code == 1
        assert "x(0112) + 3 = 1" in out
        assert "no filler exists" in out

    def test_exhausted_search_transcript(self, capsys, tmp_path):
        path = tmp_path / "sat2.json"
        path.write_text(
            '{"name": "sat2", "elements": ["0","1","2"], '
            '"table": [["0","1","2"],["1","2","2"],["2","2","2"]]}'
        )
        code, out, _ = run(
            capsys, "check-horn", "--monoid", f"table:{path}", "--n", "2",
            "--horn", "3,0", "--faces", "1:[0]", "2:[2]", "3:[1]",
        )
        assert code == 1
        assert out == (
            "horn Lambda^0[3] -> K(sat2,2)\n"
            "face 1: level:2 [0]  (012=0)\n"
            "face 2: level:2 [2]  (012=2)\n"
            "face 3: level:2 [1]  (012=1)\n"
            "forced: x(0122) = 1   [face 3]\n"
            "search exhausted; x(0012): 3 candidates, x(0112): 3 candidates\n"
            "no filler exists\n"
        )

    def test_a_horn_enumerates_only_its_levels(self, capsys, levels_read):
        # levels n and n - 1, and n - 2 where the faces' own faces must agree
        faces = ("--faces", "0:[5]", "2:[1]", "3:[3]")
        code, out, _ = run(capsys, "check-horn", "--n", "2", "--dim", "80", "--horn", "3,1", *faces)
        assert code == 1 and sorted(levels_read) == [(1, 2), (2, 2), (3, 2)]
        assert out.endswith("no filler exists\n")
        # a horn above --dim reaches its own level, as before
        levels_read.clear()
        code, _, _ = run(capsys, "check-horn", "--n", "2", "--dim", "1", "--horn", "3,1", *faces)
        assert code == 1 and sorted(levels_read) == [(1, 2), (2, 2), (3, 2)]
        # below dimension 1 the first face's level is refused against --dim
        code, out, err = run(
            capsys, "check-horn", "--n", "2", "--dim", "5", "--horn", "0,0", "--faces", "1:[]",
        )
        assert code == 2 and out == ""
        assert err == "error: level -1 outside truncation 0..5\n"

    def test_a_horn_below_dimension_one_enumerates_no_level(self, capsys, levels_read):
        code, out, err = run(
            capsys, "check-horn", "--n", "2", "--dim", "80", "--horn", "0,0", "--faces", "1:[]",
        )
        assert code == 2 and out == "" and levels_read == []
        assert err == "error: level -1 outside truncation 0..80\n"

    def test_face_given_twice_exits_two(self, capsys):
        code, out, err = run(
            capsys, "check-horn", "--n", "2", "--horn", "3,1",
            "--faces", "0:[1]", "0:[1]", "3:[1]",
        )
        assert code == 2 and out == ""
        assert err == "error: face 0 given twice\n"

    def test_malformed_face_literal_exits_two(self, capsys):
        code, out, err = run(
            capsys, "check-horn", "--n", "2", "--horn", "3,1",
            "--faces", "0:5", "2:[1]", "3:[1]",
        )
        assert code == 2 and out == ""
        assert err == "error: malformed face literal '0:5'; expected 'i:[v1,v2,...]'\n"

    def test_table_elements_parse_by_name_or_index(self, capsys, tmp_path):
        path = tmp_path / "ft.json"
        path.write_text('{"name": "bool", "elements": ["f", "t"], "table": [["f", "t"], ["t", "t"]]}')
        argv = ["check-horn", "--monoid", f"table:{path}", "--n", "1", "--horn", "2,1", "--faces"]
        code, out, _ = run(capsys, *argv, "0:[1]", "2:[f]")
        assert code == 0
        assert "face 0: level:1 [t]  (01=t)\n" in out
        assert "filler: level:2 [t,f]  (001=t, 011=f)\n" in out
        code, out, err = run(capsys, *argv, "0:[5]", "2:[f]")
        assert code == 2 and out == ""
        assert err == "error: element index 5 out of range for bool\n"

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

    def test_trivial_monoid_literals_other_than_zero_exit_two(self, capsys):
        code, out, err = run(
            capsys, "check-horn", "--monoid", "trivial", "--n", "1", "--horn", "2,1",
            "--faces", "0:[banana]", "2:[-99]",
        )
        assert code == 2 and out == ""
        assert "is not 0" in err

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

    def test_witness_faces_use_element_names(self, capsys, tmp_path):
        path = tmp_path / "ft.json"
        path.write_text('{"elements": ["f","t"], "table": [["f","t"],["t","t"]]}')
        code, out, _ = run(
            capsys, "sweep", "--kind", "kan", "--monoid", f"table:{path}",
            "--n", "1", "--dim", "3",
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            "counterexample: Lambda^0[2] -> K(table,1)",
            "  face 1: [f]",
            "  face 2: [t]",
            "  assign: x(011) = t",
            "  contradiction: x(001) + t = f",
        ]

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

    def test_bounded_integer_sweep(self, capsys):
        # face data over Z are enumerated from -bound to bound
        code, out, _ = run(
            capsys, "sweep", "--monoid", "int", "--n", "1", "--dim", "3", "--bound", "1",
            "--unique",
        )
        assert code == 0
        assert out == (
            "quasicategory sweep of K(Z,1) up to dimension 3: pass "
            "(51 horn instances, coordinate bound 1)\n"
            "fillers unique\n"
        )

    def test_full_size_evidence_sweeps(self, capsys):
        # the benchmark's four sweeps one dimension up: 16,227 horns in all
        for argv, expected in (
            (("--kind", "kan", "--monoid", "cyclic:2", "--n", "2", "--dim", "5"),
             "kan sweep of K(Z/2,2) up to dimension 5: pass (6501 horn instances)\n"),
            (("--kind", "kan", "--monoid", "cyclic:3", "--n", "2", "--dim", "4"),
             "kan sweep of K(Z/3,2) up to dimension 4: pass (3758 horn instances)\n"),
            (("--kind", "quasicategory", "--monoid", "cyclic:2", "--n", "3", "--dim", "5"),
             "quasicategory sweep of K(Z/2,3) up to dimension 5: pass (4147 horn instances)\n"),
            (("--kind", "quasicategory", "--monoid", "nat", "--n", "1", "--dim", "4",
              "--bound", "5", "--unique"),
             "quasicategory sweep of K(N,1) up to dimension 4: pass "
             "(1821 horn instances, coordinate bound 5)\nfillers unique\n"),
        ):
            assert run(capsys, "sweep", *argv) == (0, expected, "")

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

    def test_malformed_cyclic_spec_names_the_spec(self, capsys):
        code, _, err = run(
            capsys, "check-horn", "--monoid", "cyclic:abc", "--horn", "3,1", "--faces", "0:[1]"
        )
        assert code == 2
        assert err == (
            "error: unknown monoid spec 'cyclic:abc'; "
            "use nat, int, cyclic:m, trivial or table:<file>\n"
        )

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_malformed_horn_flag(self, capsys):
        code, _, err = run(
            capsys, "check-horn", "--monoid", "nat", "--horn", "3",
            "--faces", "0:[1]",
        )
        assert code == 2
        assert "expected 'n,k'" in err
