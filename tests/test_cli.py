"""CLI surface: exit codes, canonical output, command behaviour."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hassecheck import __version__
from hassecheck.cli import EX_OK, EX_OPERATIONAL, EX_USAGE, canonical_json, main
from hassecheck.lmfdb import fixture_dir
from hassecheck.matgrp import Matrix, closure, matrix, projectivize, standard_constructors
from hassecheck.nfdata import default_bound

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_usage_error_is_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EX_USAGE


NEWFORM_COMMANDS = [
    ["analyze", "--label", "49.2.c.a"],
    ["scan"],
    ["congruence", "--f", "9099.2.a.e", "--g", "9099.2.a.g"],
]


@pytest.mark.parametrize("ell", ["9", "1", "seven"])
@pytest.mark.parametrize("argv", NEWFORM_COMMANDS + [["enumerate-hasse"]], ids=lambda a: a[0])
def test_non_prime_ell_is_a_usage_error(capsys, argv, ell):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--ell", ell])
    assert exc.value.code == EX_USAGE
    assert "--ell" in capsys.readouterr().err


@pytest.mark.parametrize("argv", NEWFORM_COMMANDS, ids=lambda a: a[0])
def test_ell_2_is_a_usage_error_on_the_newform_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--ell", "2"])
    assert exc.value.code == EX_USAGE


@pytest.mark.parametrize("bound", ["0", "1", "-5"])
@pytest.mark.parametrize(
    "argv", NEWFORM_COMMANDS + [["fetch", "--label", "49.2.c.a", "--source", "fixtures"]], ids=lambda a: a[0]
)
def test_bound_below_2_is_a_usage_error(capsys, argv, bound):
    # no prime is below 2, so such a bound would test nothing and still print verdicts
    if argv[0] != "fetch":
        argv = argv + ["--ell", "7"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bound", bound])
    assert exc.value.code == EX_USAGE
    assert "--bound" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "335"])
def test_enumerate_hasse_bound_below_the_ambient_order_is_a_usage_error(capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate-hasse", "--ell", "7", "--bound", bound])
    assert exc.value.code == EX_USAGE
    err = capsys.readouterr().err
    assert f"--bound {bound}" in err and "336" in err


def test_enumerate_hasse_ell_2(capsys):
    rc, out, _ = run(capsys, ["enumerate-hasse", "--ell", "2"])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["hasse_subgroups"] == []
    assert doc["subgroup_classes"] == 4
    assert doc["config"]["ell"] == 2


@pytest.mark.parametrize("ell", [5, 7])
def test_enumerate_hasse_generators_close_to_the_printed_order(capsys, ell):
    rc, out, _ = run(capsys, ["enumerate-hasse", "--ell", str(ell)])
    assert rc == EX_OK
    subs = json.loads(out)["hasse_subgroups"]
    assert subs
    for sub in subs:
        lifts = [Matrix(tuple(g), 2, ell) for g in sub["generators"]]
        assert projectivize(closure(lifts)).order() == sub["order"]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_enumerate_hasse_stdout_matches_golden(capsys, ell):
    rc, out, _ = run(capsys, ["enumerate-hasse", "--ell", str(ell)])
    assert rc == EX_OK
    assert out == (GOLDEN / f"enumerate_hasse_ell{ell}.json").read_text()


def test_group_reports_ignore_the_cache_variable(capsys, monkeypatch, tmp_path):
    # a group command has no cache, so $HASSE_CACHE_DIR must not reach its report
    monkeypatch.setenv("HASSE_CACHE_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["enumerate-hasse", "--ell", "3"])
    assert rc == EX_OK
    assert out == (GOLDEN / "enumerate_hasse_ell3.json").read_text()


def test_check_group_trivial(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(closure([matrix([[1, 0], [0, 1]], 7)]).to_json())
    rc, out, _ = run(capsys, ["check-group", "--file", str(path)])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["result"]["is_hasse"] is False
    assert doc["result"]["global_fixed_point"] is not None


@pytest.mark.parametrize(
    "kind, point", [("borel", [1, 0]), ("split_cartan", [0, 1])], ids=["borel", "split-cartan"]
)
def test_check_group_reports_the_least_global_fixed_point(tmp_path, capsys, kind, point):
    # the Borel group fixes (1:0) alone; the split Cartan fixes (0:1) and (1:0)
    path = tmp_path / f"{kind}.json"
    path.write_text(standard_constructors(kind, 7).to_json())
    rc, out, _ = run(capsys, ["check-group", "--file", str(path)])
    assert rc == EX_OK
    assert json.loads(out)["result"]["global_fixed_point"] == point


@pytest.mark.parametrize(
    "entry, shown", [(1.5, "1.5"), ("1", "'1'"), (True, "True")], ids=["float", "string", "bool"]
)
def test_check_group_rejects_non_integer_entries(tmp_path, capsys, entry, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"modulus": 7, "dim": 2, "generators": [[entry, 0, 0, 1]]}))
    rc, out, err = run(capsys, ["check-group", "--file", str(path)])
    assert rc == EX_OPERATIONAL
    assert out == ""
    assert f"ValueError: matrix entries must be integers, not {shown}" in err


@pytest.mark.parametrize("field, value", [("modulus", 7.0), ("dim", 2.0)])
def test_check_group_rejects_a_non_int_modulus_or_dim(tmp_path, capsys, field, value):
    path = tmp_path / "bad.json"
    doc = {"modulus": 7, "dim": 2, "generators": [[1, 0, 0, 1]], field: value}
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["check-group", "--file", str(path)])
    assert rc == EX_OPERATIONAL
    assert out == ""
    assert f"ValueError: {field} must be an integer, not {value}" in err


def test_check_group_over_the_closure_cap_exits_2_and_names_the_error(tmp_path, capsys, monkeypatch):
    from hassecheck import matgrp

    path = tmp_path / "gl2.json"
    path.write_text(standard_constructors("gl2", 7).to_json())
    monkeypatch.setattr(matgrp, "DEFAULT_CAP", 100)
    rc, out, err = run(capsys, ["check-group", "--file", str(path)])
    assert rc == EX_OPERATIONAL == 2
    assert out == ""
    assert err == "error: ClosureCapError: group closure exceeded the cap of 100 elements\n"


def test_check_group_d6(tmp_path, capsys):
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    path = tmp_path / "d6.json"
    path.write_text(g.to_json())
    rc, out, _ = run(capsys, ["check-group", "--file", str(path)])
    assert json.loads(out)["result"]["is_hasse"] is True


def test_classify_pgl2_cli(tmp_path, capsys):
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    path = tmp_path / "d6.json"
    path.write_text(g.to_json())
    rc, out, _ = run(capsys, ["classify-pgl2", "--file", str(path)])
    doc = json.loads(out)
    assert doc["classification"]["dickson_label"] == "dihedral(6)"
    assert doc["classification"]["sutherland"]["predicted_hasse"] is True


def test_classify_pgl2_cli_at_ell_2(tmp_path, capsys):
    g = closure([matrix([[1, 1], [0, 1]], 2), matrix([[1, 0], [1, 1]], 2)])
    path = tmp_path / "pgl2_f2.json"
    path.write_text(g.to_json())
    rc, out, _ = run(capsys, ["classify-pgl2", "--file", str(path)])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["classification"]["order"] == 6
    assert doc["classification"]["stabilized_pair"] == "nonsplit"
    # F_2^x modulo squares is trivial, so the projective determinant is onto
    assert doc["classification"]["projective_det_surjective"] is True
    # (l - 1)/2 is not an integer at l = 2
    assert doc["classification"]["sutherland"]["cond1_dihedral_odd_n"] is False


def test_verify_lemma31_cli(tmp_path, capsys):
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    g2 = closure([matrix([[0, -3], [1, 1]], 7)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(g.to_json())
    p2.write_text(g2.to_json())
    rc, out, _ = run(capsys, ["verify-lemma31", "--g", str(p1), "--g2", str(p2)])
    doc = json.loads(out)
    assert doc["predicted"] is True
    assert doc["brute_force"]["is_hasse"] is True
    assert doc["contract_holds"] is True


def test_commands_in_one_process_behave_as_in_fresh_ones(tmp_path, capsys):
    # the parser is built once per process: a success, a usage error and a
    # different command after them each match a fresh interpreter's run
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    g2 = closure([matrix([[0, -3], [1, 1]], 7)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(g.to_json())
    p2.write_text(g2.to_json())
    commands = [
        ["verify-lemma31", "--g", str(p1), "--g2", str(p2)],
        ["verify-lemma31", "--g", str(p1)],
        ["scan", "--ell", "7", "--source", "fixtures", "--bound", "1000", "--format", "json",
         "--labels", "189.2.p.a"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    results = []
    for argv in commands:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "hassecheck.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert (rc, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        results.append(rc)
    assert results == [EX_OK, EX_USAGE, EX_OK]


@pytest.mark.parametrize(
    "second, message",
    [
        (
            closure([matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 7)]),
            "block_diagonal expects dim-2 groups",
        ),
        (closure([matrix([[0, -4], [1, 1]], 11)]), "groups must share the modulus"),
    ],
    ids=["dim-4", "ell-7-and-11"],
)
def test_verify_lemma31_rejects_bad_factors(tmp_path, capsys, second, message):
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(g.to_json())
    p2.write_text(second.to_json())
    rc, out, err = run(capsys, ["verify-lemma31", "--g", str(p1), "--g2", str(p2)])
    assert rc == EX_OPERATIONAL
    assert out == ""
    assert message in err


def test_analyze_fixture(capsys):
    rc, out, _ = run(capsys, ["analyze", "--label", "189.2.p.a", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["verdict"]["verdict"] == "hasse"
    assert doc["config"]["source"] == "fixtures"


@pytest.mark.parametrize("label, bound, resolved", [
    ("189.2.p.a", None, 432), ("189.2.p.a", "300", 300), ("20.2.e.a", None, default_bound(20)),
])
def test_analyze_echoes_the_bound_the_verdict_used(capsys, label, bound, resolved):
    argv = ["analyze", "--label", label, "--ell", "7"] + (["--bound", bound] if bound else [])
    rc, out, _ = run(capsys, argv)
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["config"]["resolved_bound"] == doc["verdict"]["reasons"]["bound"] == resolved


@pytest.mark.parametrize("label, bound, why", [
    ("20.2.e.a", 200, {"inert": True}),
    ("56.2.e.a", 200, {"ramified": True}),
    ("7938.2.a.bk", default_bound(7938), {
        "split_in_coefficient_field": True,
        "data_coverage": "7938.2.a.bk: coefficients cover primes up to 1009, but 1333584 is required",
    }),
])
def test_analyze_prints_every_reason_on_an_undetermined_path(capsys, monkeypatch, label, bound, why):
    # the full document, byte for byte: every reason key on the inert, ramified and coverage paths
    monkeypatch.delenv("HASSE_CACHE_DIR", raising=False)
    rc, out, err = run(capsys, ["analyze", "--label", label, "--ell", "7"])
    reasons = {
        "ell_ge_7": True,
        "ell_3_mod_4": True,
        "split_in_coefficient_field": False,
        "dihedral_ideal": None,
        "n": None,
        "n_odd": False,
        "n_gt_1": False,
        "n_divides_half_ell_minus_1": False,
        "other_ideal_not_borel": False,
        "bound": bound,
    }
    config = {"version": __version__, "command": "analyze", "source": "fixtures", "ell": 7, "bound": None,
              "cache_dir": "", "label": label, "resolved_bound": bound}
    verdict = {"label": label, "ell": 7, "verdict": "undetermined", "reasons": reasons | why}
    assert (rc, err) == (EX_OK, "")
    assert out == canonical_json({"config": config, "verdict": verdict, "reports": []})


def test_analyze_reads_a_cache_dir(tmp_path, capsys):
    (tmp_path / "forms").mkdir()
    shutil.copy(fixture_dir() / "189.2.p.a.json", tmp_path / "forms")
    argv = ["analyze", "--label", "189.2.p.a", "--ell", "7"]
    rc, out, err = run(capsys, argv + ["--source", "cache_only", "--cache-dir", str(tmp_path)])
    assert (rc, err) == (EX_OK, "")
    _, fixture_out, _ = run(capsys, argv)
    assert json.loads(out)["verdict"] == json.loads(fixture_out)["verdict"]


def test_analyze_unknown_label_is_operational_error(capsys):
    rc, out, err = run(capsys, ["analyze", "--label", "11.2.a.a", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OPERATIONAL
    assert "NotFoundError" in err


def test_verdicts_never_affect_exit_code(capsys):
    rc, out, _ = run(capsys, ["analyze", "--label", "63.2.e.a", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OK
    assert json.loads(out)["verdict"]["verdict"] == "not_hasse"


def test_scan_json_byte_identical(capsys):
    argv = ["scan", "--ell", "7", "--level-max", "100", "--source", "fixtures", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == EX_OK
    assert out1 == out2


def test_scan_jobs_is_a_usage_error(capsys):
    # the scan runs in one process; a stale --jobs must fail loudly
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--ell", "7", "--source", "fixtures", "--jobs", "2"])
    assert exc.value.code == EX_USAGE
    assert "--jobs" in capsys.readouterr().err


def test_scan_table_format_with_reference(capsys):
    rc, out, _ = run(capsys, [
        "scan", "--ell", "7", "--level-max", "189", "--source", "fixtures",
        "--check-reference",
    ])
    assert rc == EX_OK
    assert "189.2.p.a" in out
    # the published C3 for 49.2.c.a is ruled out by a_3 = 0 (criterion 5a):
    # the scan's C2 must surface as the one discrepancy
    lines = out.splitlines()
    head = lines.index("# reference discrepancies: 1")
    assert [json.loads(line.removeprefix("#   ")) for line in lines[head + 1:]] == [
        {"label": "49.2.c.a", "expected_image": "C3", "observed_images": ["C2"],
         "kind": "image_mismatch"},
    ]


def test_undetermined_table_rows_name_the_needed_bound(capsys):
    rc, out, _ = run(capsys, ["scan", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OK
    lines = [line for line in out.splitlines() if " undetermined " in line]
    assert len(lines) == 7
    for line in lines:
        level = int(line.split()[1])
        assert f"but {default_bound(level)} is required" in line


def test_congruence_cli(capsys):
    rc, out, _ = run(capsys, [
        "congruence", "--f", "189.2.p.a", "--g", "189.2.p.a", "--ell", "7",
        "--source", "fixtures",
    ])
    assert rc == EX_OK
    assert json.loads(out)["result"]["congruent"] is True


def test_fetch_lists_candidates_from_fixtures(capsys):
    rc, out, _ = run(capsys, [
        "fetch", "--source", "fixtures", "--cm", "false", "--inner-twist-count", "1",
    ])
    assert rc == EX_OK
    doc = json.loads(out)
    assert "7938.2.a.bj" in doc["labels"] and len(doc["labels"]) == 6
    assert doc["errors"] == []  # no committed fixture fails to load


def test_scan_filters_select_the_non_cm_rows_of_the_golden_scan(capsys):
    rc, out, _ = run(capsys, [
        "scan", "--ell", "7", "--source", "fixtures", "--bound", "1000", "--format", "json",
        "--no-cm", "--inner-twist-count", "1",
    ])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["config"]["filters"] == {"dimension": 2, "cm": False, "inner_twist_count": 1}
    golden = json.loads((GOLDEN / "scan_ell7_b1000.json").read_text())
    labels = ["7938.2.a.bj", "7938.2.a.bk", "7938.2.a.bp", "7938.2.a.bq", "9099.2.a.e", "9099.2.a.g"]
    assert doc["rows"] == [row for row in golden if row["label"] in labels]
    assert [row["label"] for row in doc["rows"]] == labels


def test_scan_at_ell_13_matches_the_golden_cm_rows(capsys):
    # a CM form's a_p are exact at every l, so its rows pin the scan beyond l = 7
    rc, out, _ = run(capsys, ["scan", "--ell", "13", "--source", "fixtures", "--bound", "1000", "--format", "json"])
    assert rc == EX_OK
    cm = {path.stem for path in fixture_dir().glob("*.json") if json.loads(path.read_text())["cm"]}
    rows = [row for row in json.loads(out)["rows"] if row["label"] in cm]
    assert len(rows) == 12
    # byte for byte: parsed JSON would read true as 1 and 1.0 as 1
    assert json.dumps(rows, indent=1, sort_keys=True) + "\n" == (GOLDEN / "scan_ell13_b1000_cm.json").read_text()


def test_scan_filters_apply_to_explicit_labels(capsys):
    # 63.2.e.a has CM, so --no-cm leaves only the 9099.2.a.e row
    rc, out, _ = run(capsys, [
        "scan", "--ell", "7", "--labels", "63.2.e.a", "9099.2.a.e", "--no-cm",
        "--bound", "1000", "--source", "fixtures", "--format", "json",
    ])
    assert rc == EX_OK
    golden = json.loads((GOLDEN / "scan_ell7_b1000.json").read_text())
    assert json.loads(out)["rows"] == [row for row in golden if row["label"] == "9099.2.a.e"]


def test_fetch_one_label_from_fixtures(capsys):
    rc, out, _ = run(capsys, ["fetch", "--source", "fixtures", "--label", "189.2.p.a"])
    assert rc == EX_OK
    doc = json.loads(out)
    assert {k: doc[k] for k in ("label", "level", "ap_max_prime", "cached")} == {
        "label": "189.2.p.a", "level": 189, "ap_max_prime": 1009, "cached": True,
    }
    assert (doc["config"]["label"], doc["config"]["source"]) == ("189.2.p.a", "fixtures")


def test_fetch_dimension_is_a_usage_error(capsys):
    # records are quadratic-field forms only, so the dimension is not an option
    with pytest.raises(SystemExit) as exc:
        main(["fetch", "--source", "fixtures", "--dimension", "4"])
    assert exc.value.code == EX_USAGE
    assert "--dimension" in capsys.readouterr().err


def test_reproduce_tables_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # both tables, their discrepancy lists and the second scan, which reuses the first one's records
    assert proc.stdout == (GOLDEN / "reproduce_tables.txt").read_text()


def test_reproduce_tables_script_rejects_a_bound_below_two():
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    proc = subprocess.run([sys.executable, str(script), "--bound", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "1 is below 2, so no prime would be tested" in proc.stderr
    assert proc.stdout == ""
