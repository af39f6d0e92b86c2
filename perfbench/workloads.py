"""The benchmark's workloads: passes of CLI commands, with their checks.

Every command's stdout is checked semantically, never byte for byte, so
that schema additions and the removal of `--jobs` do not break the checks:

* `scan-b1000`: each label's verdict and image cells (or skip reason), and
  the set of labels with reference discrepancies.  The 49.2.c.a image
  stays as the scan reports it (C2), not as the published table prints it.
* `blocksum`: `predicted`, `brute_force.is_hasse` and `contract_holds`.
* `lattice-l7`: ambient order, class count and the (order, label) list of
  Hasse classes.

The seed changes only `blocksum`; the scan's inputs are the committed
fixtures and the lattice's input is the prime.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import catalogue

# label -> (verdict, image cells per root) or ("skipped", reason)
EXPECTED_SCAN = {
    "20.2.e.a": ("skipped", "inert"),
    "49.2.c.a": ("not_hasse", ["C2", "C2"]),
    "56.2.e.a": ("skipped", "ramified"),
    "63.2.e.a": ("not_hasse", ["D4", "D4"]),
    "81.2.c.a": ("not_hasse", ["D12", "D12"]),
    "117.2.g.a": ("not_hasse", ["D12", "D12"]),
    "117.2.q.b": ("not_hasse", ["D12", "D12"]),
    "189.2.c.a": ("hasse", ["D6", "D6"]),
    "189.2.e.b": ("not_hasse", ["D12", "D12"]),
    "189.2.p.a": ("hasse", ["D6", "D6"]),
    "273.2.u.a": ("not_hasse", ["none", "none"]),
    "2883.2.c.a": ("not_hasse", ["none", "none"]),
    "7938.2.a.bj": ("not_hasse", ["none", "none"]),
    "7938.2.a.bk": ("hasse", ["D6", "none"]),
    "7938.2.a.bp": ("not_hasse", ["none", "none"]),
    "7938.2.a.bq": ("not_hasse", ["none", "none"]),
    "9099.2.a.e": ("not_hasse", ["none", "D12"]),
    "9099.2.a.g": ("not_hasse", ["none", "D12"]),
}
EXPECTED_DISCREPANCIES = {"49.2.c.a", "7938.2.a.bj", "7938.2.a.bp", "7938.2.a.bq"}

EXPECTED_LATTICE = {"ambient_order": 336, "subgroup_classes": 23, "hasse": [[6, "dihedral(6)"]]}


@dataclass
class Command:
    argv: list
    # stdout -> (problems, items completed); items count only without problems
    check: Callable[[str], tuple]


@dataclass
class Workload:
    name: str
    items: str  # what items_per_s counts
    make_passes: Callable  # (seed, workdir) -> passes, each a list of Commands


def check_scan(text: str):
    doc = json.loads(text)
    rows = {row["label"]: row for row in doc["rows"]}
    problems = []
    if set(rows) != set(EXPECTED_SCAN):
        problems.append(f"labels {sorted(set(rows) ^ set(EXPECTED_SCAN))} differ")
    for label, (verdict, cells) in EXPECTED_SCAN.items():
        row = rows.get(label, {})
        if verdict == "skipped":
            got = ("skipped", row.get("skipped"))
        else:
            got = (row.get("verdict", {}).get("verdict"), row.get("images"))
        if got != (verdict, cells):
            problems.append(f"{label}: expected {(verdict, cells)}, got {got}")
    disc = {d["label"] for d in doc.get("reference_discrepancies", [])}
    if disc != EXPECTED_DISCREPANCIES:
        problems.append(f"discrepancies {sorted(disc)}")
    return problems, sum(1 for row in doc["rows"] if "verdict" in row)


def check_lemma31(text: str):
    doc = json.loads(text)
    got = {
        "predicted": doc["predicted"],
        "brute_force.is_hasse": doc["brute_force"]["is_hasse"],
        "contract_holds": doc["contract_holds"],
    }
    problems = [f"{key} is {value}" for key, value in got.items() if value is not True]
    return problems, 1


def check_lattice(text: str):
    doc = json.loads(text)
    got = {
        "ambient_order": doc["ambient_order"],
        "subgroup_classes": doc["subgroup_classes"],
        "hasse": [[h["order"], h.get("dickson_label")] for h in doc["hasse_subgroups"]],
    }
    problems = [f"{k}: expected {v}, got {got[k]}" for k, v in EXPECTED_LATTICE.items() if got[k] != v]
    return problems, doc["subgroup_classes"]


def scan_passes(seed: int, workdir: Path):
    argv = ["scan", "--ell", "7", "--source", "fixtures", "--bound", "1000",
            "--format", "json", "--check-reference"]
    return [[Command(argv, check_scan)]]


BLOCKSUM_PASSES = 8  # distinct conjugations; a run cycles through them


def blocksum_passes(seed: int, workdir: Path):
    rng = random.Random(seed)
    passes = []
    for k in range(BLOCKSUM_PASSES):
        paths = catalogue.write_pairs(catalogue.generate(rng), workdir, f"pass{k}_")
        passes.append([Command(["verify-lemma31", "--g", g, "--g2", g2], check_lemma31) for g, g2 in paths])
    return passes


# Not listed in BENCHMARK.json: run to run, its cmd_p50_s spread (IQR over
# median) was 0.26-0.28 on a shared 2-core VM, above the largest bound the
# gate allows; see README.md.  It is run by name and by `--workload all`.
def lattice_passes(seed: int, workdir: Path):
    return [[Command(["enumerate-hasse", "--ell", "7"], check_lattice)]]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "scan-b1000",
            "forms with a verdict",
            scan_passes,
        ),
        Workload(
            "blocksum",
            "block pairs verified",
            blocksum_passes,
        ),
        Workload(
            "lattice-l7",
            "subgroup classes enumerated",
            lattice_passes,
        ),
    ]
}
