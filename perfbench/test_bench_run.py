"""Benchmark runner: error accounting, tail percentile, output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import catalogue  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Command, check_lemma31  # noqa: E402


def _lemma31(directory, g_name, g2_name):
    directory.mkdir()
    paths = []
    for key, name in (("g", g_name), ("g2", g2_name)):
        p, gens = catalogue.FACTORS[name]
        path = directory / f"{key}.json"
        path.write_text(json.dumps(catalogue.group_doc(p, gens)))
        paths.append(str(path))
    return Command(["verify-lemma31", "--g", paths[0], "--g2", paths[1]], check_lemma31)


def test_failed_checks_and_exits_count_as_errors(tmp_path):
    from hassecheck import cli

    good = _lemma31(tmp_path / "good", "D6_7", "nonsplit_cartan_7")
    # neither factor is Hasse: `predicted` is false, so the check fails
    bad = _lemma31(tmp_path / "bad", "nonsplit_cartan_7", "nonsplit_cartan_7")
    usage = Command(["verify-lemma31", "--g"], check_lemma31)
    phase = run.Phase().run_pass(cli, [good, bad, usage])
    assert (phase.attempted, phase.failed, phase.items) == (3, 2, 1)
    assert "predicted is False" in phase.problems[0]["problems"][0]
    assert phase.problems[1]["problems"][0].startswith("exit status 64")


def test_tail_has_ten_commands_beyond_it():
    phase = run.Phase()
    phase.durations = [float(i) for i in range(1, 51)]
    assert phase.tail() == (40.0, 80, 10)
    phase.durations = phase.durations[:20]
    assert phase.tail() == (10.0, 50, 10)
    phase.durations = phase.durations[:15]
    assert phase.tail() is None


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = {name: unit for name, (unit, g) in run.END_TO_END.items() if g}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == gated
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-b1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 2
    assert res.stdout == ""
