"""CLI surface: exit codes, canonical output, command behaviour."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hassecheck.cli import EX_OK, EX_OPERATIONAL, EX_USAGE, main
from hassecheck.matgrp import Matrix, closure, identity, matrix, projectivize
from hassecheck.nfdata import default_bound


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


def test_check_group_trivial(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(closure([identity(2, 7)]).to_json())
    rc, out, _ = run(capsys, ["check-group", "--file", str(path)])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["result"]["is_hasse"] is False
    assert doc["result"]["global_fixed_point"] is not None


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


def test_analyze_fixture(capsys):
    rc, out, _ = run(capsys, ["analyze", "--label", "189.2.p.a", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OK
    doc = json.loads(out)
    assert doc["verdict"]["verdict"] == "hasse"
    assert doc["config"]["source"] == "fixtures"


def test_analyze_unknown_label_is_operational_error(capsys):
    rc, out, err = run(capsys, ["analyze", "--label", "11.2.a.a", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OPERATIONAL
    assert "NotFoundError" in err


def test_verdicts_never_affect_exit_code(capsys):
    rc, out, _ = run(capsys, ["analyze", "--label", "63.2.e.a", "--ell", "7", "--source", "fixtures"])
    assert rc == EX_OK
    assert json.loads(out)["verdict"]["verdict"] == "not_hasse"


def test_scan_json_byte_identical(capsys):
    # the worker count changes neither the rows nor the echoed config
    argv = ["scan", "--ell", "7", "--level-max", "100", "--source", "fixtures",
            "--format", "json", "--jobs"]
    rc1, out1, _ = run(capsys, argv + ["1"])
    rc2, out2, _ = run(capsys, argv + ["2"])
    assert rc1 == rc2 == EX_OK
    assert out1 == out2


def test_scan_table_format_with_reference(capsys):
    rc, out, _ = run(capsys, [
        "scan", "--ell", "7", "--level-max", "189", "--source", "fixtures",
        "--jobs", "1", "--check-reference",
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
    rc, out, _ = run(capsys, ["scan", "--ell", "7", "--source", "fixtures", "--jobs", "1"])
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
    labels = json.loads(out)["labels"]
    assert "7938.2.a.bj" in labels and len(labels) == 6


def test_reproduce_tables_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "== mod-7 scan, level <= 189 (CM forms, both ideals) ==" in out
    assert "== mod-7 scan, absolutely simple candidates (field Q(sqrt 2)) ==" in out
    counts = [line for line in out.splitlines() if line.startswith("reference discrepancies:")]
    assert counts == ["reference discrepancies: 1", "reference discrepancies: 3"]
