import json
import subprocess
import sys

import pytest

from bipolarsoft import parse
from bipolarsoft.cli import main

import corpus
import oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "validate", str(fixtures_dir / "house_example.bss.json"))
    assert code == 0
    assert out.strip() == "valid: m=8 n=5 complete=false"
    assert err == ""


def test_validate_overlap_names_parameter_and_witness(capsys, tmp_path):
    bad = tmp_path / "bad.bss.json"
    bad.write_text(json.dumps({
        "universe": ["u1", "u2"],
        "pairs": [{"pos": "e1", "neg": "e2"}],
        "assignments": [{"param": "e1", "positive": ["u1"], "negative": ["u1", "u2"]}],
    }))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "DisjointnessViolation" in err
    assert "e1" in err and "u1" in err


def test_validate_malformed_document(capsys, tmp_path):
    bad = tmp_path / "broken.bss.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "ParseError" in err
    assert "line" in err


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "absent.bss.json"))
    assert code == 2


def test_table_text_and_determinism(capsys, fixtures_dir):
    path = str(fixtures_dir / "houses_a.bss.json")
    code, out1, _ = run_cli(capsys, "table", path)
    assert code == 0
    assert out1.splitlines()[1].split() == ["u1", "(1,0)", "(0,1)", "(0,1)", "(0,0)"]
    code, out2, _ = run_cli(capsys, "table", path)
    assert out1 == out2


def test_table_csv_and_json(capsys, fixtures_dir):
    path = str(fixtures_dir / "houses_a.bss.json")
    code, out, _ = run_cli(capsys, "table", path, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == 'u1,"1,0","0,1","0,1","0,0"'
    code, out, _ = run_cli(capsys, "table", path, "--format", "json")
    doc = json.loads(out)
    assert doc["cells"][0][0] == [1, 0]


def test_table_output_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run_cli(
        capsys, "table", str(fixtures_dir / "houses_a.bss.json"), "-o", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith(" ")


_FORMAT_BYTES = {
    ("table", "text"): "    (e1,é2)\nü1  (1,0)\nu2  (0,1)\n",
    ("table", "csv"): 'object,"(e1,é2)"\nü1,"1,0"\nu2,"0,1"\n',
    ("table", "json"): (
        '{\n  "rows": [\n    "ü1",\n    "u2"\n  ],\n'
        '  "columns": [\n    {\n      "pos": "e1",\n      "neg": "é2"\n    }\n  ],\n'
        '  "cells": [\n    [\n      [\n        1,\n        0\n      ]\n    ],\n'
        '    [\n      [\n        0,\n        1\n      ]\n    ]\n  ]\n}\n'
    ),
    ("decide", "text"): (
        "object  c+  c-  score\nü1       1   0      1\nu2       0   1     -1\n"
        "max score: 1\noptimal: ü1\n"
    ),
    ("decide", "csv"): "object,c_plus,c_minus,score\nü1,1,0,1\nu2,0,1,-1\n",
    ("decide", "json"): (
        '{\n  "rows": [\n'
        '    {\n      "object": "ü1",\n      "c_plus": 1,\n      "c_minus": 0,\n      "score": 1\n    },\n'
        '    {\n      "object": "u2",\n      "c_plus": 0,\n      "c_minus": 1,\n      "score": -1\n    }\n'
        '  ],\n  "max_score": 1,\n  "optimal": [\n    "ü1"\n  ]\n}\n'
    ),
}


@pytest.mark.parametrize("command,fmt", sorted(_FORMAT_BYTES))
def test_render_formats_are_byte_exact(capsys, tmp_path, command, fmt):
    # Text pads columns and right-aligns counts; CSV rows end in LF; JSON is
    # indented by two spaces, keeps non-ASCII labels and ends in LF.
    doc = tmp_path / "accents.bss.json"
    doc.write_text(json.dumps({
        "universe": ["ü1", "u2"],
        "pairs": [{"pos": "e1", "neg": "é2"}],
        "assignments": [{"param": "e1", "positive": ["ü1"], "negative": ["u2"]}],
    }), encoding="utf-8")
    expected = _FORMAT_BYTES[command, fmt]
    code, out, err = run_cli(capsys, command, str(doc), "--format", fmt)
    assert (code, out, err) == (0, expected, "")
    target = tmp_path / "out"
    assert run_cli(capsys, command, str(doc), "--format", fmt, "-o", str(target))[0] == 0
    assert target.read_bytes() == expected.encode("utf-8")


def test_op_union_matches_reference(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "op", "union",
        str(fixtures_dir / "houses_a.bss.json"),
        str(fixtures_dir / "houses_b.bss.json"),
    )
    assert code == 0
    assert oracle.member_view(parse(out)) == corpus.UNION_AB


def test_op_intersect_matches_reference(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "op", "intersect",
        str(fixtures_dir / "houses_a.bss.json"),
        str(fixtures_dir / "houses_b.bss.json"),
    )
    assert code == 0
    assert oracle.member_view(parse(out)) == corpus.INTERSECTION_AB


def test_op_complement(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "op", "complement", str(fixtures_dir / "houses_a.bss.json")
    )
    assert code == 0
    assert parse(out) == corpus.houses_a().complement()


def test_op_and_product_has_squared_parameters(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "op", "and",
        str(fixtures_dir / "houses3_a.bss.json"),
        str(fixtures_dir / "houses3_b.bss.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 9
    assert oracle.member_view(parse(out)) == corpus.AND_PRODUCT_CELLS


def test_op_or_product(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "op", "or",
        str(fixtures_dir / "houses3_a.bss.json"),
        str(fixtures_dir / "houses3_b.bss.json"),
    )
    assert code == 0
    assert oracle.member_view(parse(out)) == corpus.OR_PRODUCT_CELLS


def test_op_subset_true_false(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "op", "subset",
        str(fixtures_dir / "houses_c.bss.json"),
        str(fixtures_dir / "houses_a.bss.json"),
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(
        capsys, "op", "subset",
        str(fixtures_dir / "houses_a.bss.json"),
        str(fixtures_dir / "houses_c.bss.json"),
    )
    assert (code, out.strip()) == (1, "false")


def test_op_equals(capsys, fixtures_dir):
    a = str(fixtures_dir / "houses_a.bss.json")
    b = str(fixtures_dir / "houses_b.bss.json")
    code, out, _ = run_cli(capsys, "op", "equals", a, a)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "op", "equals", a, b)
    assert (code, out.strip()) == (1, "false")


def test_op_wrong_operand_count(capsys, fixtures_dir):
    code, out, err = run_cli(capsys, "op", "union", str(fixtures_dir / "houses_a.bss.json"))
    assert code == 2
    assert out == ""
    assert err == "error: op union takes 2 operand file(s), got 1\n"


@pytest.mark.parametrize("name", ["and", "or"])
def test_op_product_rejects_colliding_composite_ids(capsys, tmp_path, name):
    # (a,b) x c and a x (b,c) both compose to the positive id "(a,b,c)": the document is
    # valid, its products are not
    path = tmp_path / "collide.bss.json"
    path.write_text(json.dumps({
        "universe": ["u1"],
        "pairs": [{"pos": e, "neg": f"not-{k}"} for k, e in enumerate(["a,b", "c", "a", "b,c"])],
        "assignments": [],
    }))
    assert run_cli(capsys, "validate", str(path)) == (0, "valid: m=1 n=4 complete=false\n", "")
    code, out, err = run_cli(capsys, "op", name, str(path), str(path))
    assert code == 1
    assert out == ""
    assert err == "error: InvalidSpace: duplicate positive parameter identifier '(a,b,c)'\n"


def test_op_space_mismatch(capsys, fixtures_dir):
    code, _, err = run_cli(
        capsys, "op", "union",
        str(fixtures_dir / "houses_a.bss.json"),
        str(fixtures_dir / "houses3_a.bss.json"),
    )
    assert code == 1
    assert "SpaceMismatch" in err


def test_op_output_is_byte_stable(capsys, fixtures_dir, tmp_path):
    args = (
        "op", "union",
        str(fixtures_dir / "houses_a.bss.json"),
        str(fixtures_dir / "houses_b.bss.json"),
    )
    first = tmp_path / "one.bss.json"
    second = tmp_path / "two.bss.json"
    assert main([*args, "-o", str(first)]) == 0
    assert main([*args, "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_decide_text(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "decide", str(fixtures_dir / "house_example.bss.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["u1", "3", "1", "2"]
    assert lines[-1] == "optimal: u1"


def test_decide_json(capsys, fixtures_dir):
    code, out, _ = run_cli(
        capsys, "decide", str(fixtures_dir / "house_example.bss.json"), "--format", "json"
    )
    doc = json.loads(out)
    rows = [(r["object"], r["c_plus"], r["c_minus"], r["score"]) for r in doc["rows"]]
    assert tuple(rows) == corpus.HOUSE_SCORE_ROWS
    assert doc["optimal"] == ["u1"]


def test_decide_all_neutral(capsys, tmp_path):
    blank = tmp_path / "blank.bss.json"
    blank.write_text(json.dumps({
        "universe": ["u1", "u2"],
        "pairs": [{"pos": "e1", "neg": "e2"}],
        "assignments": [],
    }))
    code, out, _ = run_cli(capsys, "decide", str(blank), "--format", "json")
    doc = json.loads(out)
    assert doc["max_score"] == 0
    assert doc["optimal"] == ["u1", "u2"]


def test_decide_complemented_fixture_is_argmin(capsys, fixtures_dir, tmp_path):
    flipped = tmp_path / "flipped.bss.json"
    code = main([
        "op", "complement", str(fixtures_dir / "house_example.bss.json"),
        "-o", str(flipped),
    ])
    assert code == 0
    code, out, _ = run_cli(capsys, "decide", str(flipped), "--format", "json")
    doc = json.loads(out)
    worst = min(r[3] for r in corpus.HOUSE_SCORE_ROWS)
    argmin = [u for u, _, _, s in corpus.HOUSE_SCORE_ROWS if s == worst]
    assert doc["optimal"] == argmin


def test_check_laws_single_law_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "check-laws", "--law", "union-idempotent", "--exhaustive", "2", "2"
    )
    assert code == 0
    doc = json.loads(out)
    report = doc["laws"][0]
    assert report["law"] == "union-idempotent"
    assert report["instances_checked"] == 81
    assert report["holds"] is True
    assert doc["must_hold_failures"] == []


def test_check_laws_expected_failure_keeps_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check-laws", "--law", "excluded-middle-unconditional",
        "--exhaustive", "2", "2",
    )
    assert code == 0
    report = json.loads(out)["laws"][0]
    assert report["holds"] is False
    assert report["must_hold"] is False
    assert report["counterexample"]["operands"]


@pytest.mark.parametrize("flags, count", [
    ((), 81 + 1000),
    (("--exhaustive", "1", "1", "--random", "5"), 3 + 5),
], ids=["default-sources", "both-sources"])
def test_check_laws_instance_sources(capsys, flags, count):
    code, out, _ = run_cli(capsys, "check-laws", "--law", "union-idempotent", *flags)
    assert code == 0
    assert json.loads(out)["laws"][0]["instances_checked"] == count


def test_check_laws_random_only(capsys):
    code, out, _ = run_cli(
        capsys, "check-laws", "--law", "demorgan-union", "--random", "50", "--seed", "7"
    )
    assert code == 0
    report = json.loads(out)["laws"][0]
    assert report["instances_checked"] == 50


def test_check_laws_seeded_runs_are_identical(capsys, tmp_path):
    args = ["check-laws", "--law", "union-commutative", "--random", "30", "--seed", "11"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main([*args, "-o", str(one)]) == 0
    assert main([*args, "-o", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_check_laws_bounds_too_large(capsys):
    code, _, err = run_cli(capsys, "check-laws", "--exhaustive", "5", "5", "--random", "0")
    assert code == 2
    assert "BoundsTooLarge" in err


@pytest.mark.parametrize("flags", [
    ("--exhaustive", "0", "0"),
    ("--bounds", "0", "4", "--random", "3"),
    ("--random", "-5", "--law", "union-commutative"),
    ("--random", "many"),
])
def test_check_laws_rejects_out_of_range_flags(capsys, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["check-laws", *flags])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer" in captured.err
    assert "Traceback" not in captured.err


def test_check_laws_budget_counts_operand_tuples(capsys):
    # 3x4 sets are enumerable, but ternary laws would need (3^12)^3 tuples
    code, out, err = run_cli(capsys, "check-laws", "--exhaustive", "3", "4")
    assert code == 2
    assert out == ""
    assert "BoundsTooLarge" in err


@pytest.mark.parametrize("flags, line", [
    ("--random 600000", "600000 random instances per law exceed 3^12"),
    ("--exhaustive 3 3 --law union-commutative --law union-associative",
     "3^18 exhaustive instances exceed the limit of 3^12"),
    ("--random 531441 --bounds 20 12",
     "531441 random instances of up to 20x12x1 cells exceed 38263752 cells per law"),
    ("--exhaustive 2 2 --random 531441 --bounds 12 12 --law union-associative",
     "531441 random instances of up to 12x12x3 cells exceed 38263752 cells per law"),
], ids=["count-cap", "pool-budget", "random-budget-first-arity", "pool-before-random-budget"])
def test_check_laws_budget_errors_are_pinned(capsys, flags, line):
    # the pool is checked before the random source, each arity in selection order
    code, out, err = run_cli(capsys, "check-laws", *flags.split())
    assert (code, out, err) == (2, "", f"error: BoundsTooLarge: {line}\n")


@pytest.mark.parametrize("content, error", [
    (None, "error: [Errno"),
    (b"\xff\xfe{}", "error: ParseError: byte 0: not UTF-8"),
    (b"[" * 100_000, "error: ParseError: document: arrays or objects nested too deeply"),
    pytest.param(b"[" + b"1" * 5000 + b"]", "error: ParseError: document: Exceeds the limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no limit on integer digits")),
], ids=["directory", "not-utf8", "nested-100k", "integer-5000-digits"])
def test_unreadable_input_exits_two(capsys, tmp_path, content, error):
    path = tmp_path / "input.bss.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(error)
    assert "Traceback" not in err


def test_check_laws_unknown_law(capsys):
    code, _, err = run_cli(capsys, "check-laws", "--law", "no-such-law")
    assert code == 2
    assert "UnknownLaw" in err


def test_usage_error_exits_two(fixtures_dir):
    with pytest.raises(SystemExit) as err:
        main(["op", "frobnicate", str(fixtures_dir / "houses_a.bss.json")])
    assert err.value.code == 2


def test_module_entry_point(fixtures_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "bipolarsoft", "validate",
         str(fixtures_dir / "house_example.bss.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "valid: m=8 n=5 complete=false"


def test_unwritable_output_fails_before_any_work(capsys, tmp_path, monkeypatch):
    from bipolarsoft import laws

    def reached(*args, **kwargs):
        raise AssertionError("run_catalogue ran although -o cannot be written")

    monkeypatch.setattr(laws, "run_catalogue", reached)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "check-laws", "--law", "union-associative",
                             "--exhaustive", "2", "2", "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno")
    assert not target.parent.exists()


def test_failing_command_leaves_output_untouched(capsys, tmp_path):
    bad = tmp_path / "broken.bss.json"
    bad.write_text("{not json")
    existing = tmp_path / "existing.txt"
    existing.write_bytes(b"earlier result\n")
    fresh = tmp_path / "fresh.txt"
    # ids that are not Unicode text cannot be written out
    surrogate = tmp_path / "surrogate.bss.json"
    surrogate.write_text('{"universe": ["\\ud800"], "pairs": [{"pos": "e", "neg": "f"}], '
                         '"assignments": []}')
    assert run_cli(capsys, "decide", str(bad), "-o", str(existing))[0] == 2
    assert run_cli(capsys, "table", str(bad), "-o", str(fresh))[0] == 2
    assert run_cli(capsys, "op", "complement", str(surrogate), "-o", str(existing))[0] == 2
    assert existing.read_bytes() == b"earlier result\n"
    assert not fresh.exists()


def test_check_laws_random_count_over_budget(capsys, monkeypatch):
    from bipolarsoft import laws

    def reached(*args, **kwargs):
        raise AssertionError("a law was checked although the random count is over budget")

    monkeypatch.setattr(laws, "check_law", reached)
    monkeypatch.setattr(laws, "_sweep", reached)
    code, out, err = run_cli(capsys, "check-laws", "--random", "531442")
    assert code == 2
    assert out == ""
    assert "BoundsTooLarge" in err


def test_check_laws_random_cells_over_budget(capsys, monkeypatch):
    from bipolarsoft import laws

    def reached(*args, **kwargs):
        raise AssertionError("a law was checked although the random instances are over budget")

    monkeypatch.setattr(laws, "check_law", reached)
    monkeypatch.setattr(laws, "_sweep", reached)
    code, out, err = run_cli(capsys, "check-laws", "--law", "union-idempotent",
                             "--random", "1", "--bounds", "100000", "100000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: BoundsTooLarge: ") and err.count("\n") == 1


def test_check_laws_without_instances_exits_two(capsys):
    code, out, err = run_cli(capsys, "check-laws", "--random", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidArgument: ") and err.count("\n") == 1
