"""Start-up guard: a group command never loads the newform half.

Each command runs in a fresh interpreter, which then lists the modules it
loaded.  Only module sets are checked, never timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hassecheck.cli import EX_OK, main
from hassecheck.matgrp import closure, matrix, standard_constructors

SRC = Path(__file__).resolve().parent.parent / "src"
NEWFORM_HALF = {f"hassecheck.{name}" for name in ("pipeline", "nfdata", "lmfdb", "dchar", "refdata")} | {"fractions"}

# run the CLI on sys.argv[1:], then print its exit status, stdout and loaded modules
PROBE = """
import contextlib, io, json, sys
from hassecheck.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "stdout": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def fresh_run(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.fixture(scope="module")
def group_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("groups")
    d6 = directory / "d6.json"
    d6.write_text(closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)]).to_json())
    cartan = directory / "nonsplit_cartan.json"
    cartan.write_text(standard_constructors("nonsplit_cartan", 7).to_json())
    return str(d6), str(cartan)


@pytest.mark.parametrize("command", ["check-group", "classify-pgl2", "verify-lemma31", "enumerate-hasse"])
def test_group_commands_never_load_the_newform_half(group_files, command):
    d6, cartan = group_files
    argv = {
        "check-group": ["check-group", "--file", d6],
        "classify-pgl2": ["classify-pgl2", "--file", d6],
        "verify-lemma31": ["verify-lemma31", "--g", d6, "--g2", cartan],
        "enumerate-hasse": ["enumerate-hasse", "--ell", "3"],
    }[command]
    run = fresh_run(argv)
    assert run["rc"] == EX_OK
    assert json.loads(run["stdout"])["config"]["command"] == command
    assert NEWFORM_HALF.isdisjoint(run["modules"])


def test_analyze_still_loads_the_newform_half_and_prints_its_report(capsys):
    argv = ["analyze", "--label", "189.2.p.a", "--ell", "7", "--source", "fixtures"]
    run = fresh_run(argv)
    # refdata holds the published tables, which only scan reads
    assert NEWFORM_HALF - {"hassecheck.refdata"} <= set(run["modules"])
    assert main(argv) == run["rc"] == EX_OK
    assert run["stdout"] == capsys.readouterr().out
    assert json.loads(run["stdout"])["verdict"]["verdict"] == "hasse"
