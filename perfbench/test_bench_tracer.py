"""Tracer self-test: each per-layer metric is nonzero on the workload meant to move it."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workload -> per-layer metrics that must be nonzero on it
INTENDED = {
    "scan-b1000": [
        "nfdata.reduce_coeff.calls",
        "nfdata.ReductionMap.apply.calls",
        "nfdata.apply_per_form",
        "nfdata.frob_charpoly.calls",
        "nfdata.frob_charpoly.self_s",
        "nfdata.NewformRecord.nebentypus_value.calls",
        "nfdata.NewformRecord.nebentypus_value.self_s",
        "nfdata.projective_frob_order.calls",
        "dchar.evaluate.calls",
        "dchar.evaluate.self_s",
        "dchar.RingEmbedding.root_power.calls",
        "dchar.RingEmbedding.root_power.self_s",
        "dchar.DirichletCharacter.exponent_at.calls",
        "dchar.fl_valued_characters.chars",
        "ffield.FieldElement.created",
        "ffield.mul_order.calls",
        "pipeline.hasse_verdict.s",
        "pipeline.detect_twist.s",
        "pipeline.exclude_reducible.s",
        "pipeline.dihedral_order.s",
        "pipeline.not_borel_witness.s",
        "pipeline.test_primes.calls",
        "pipeline.exclude_reducible.certified_ratio",
        "lmfdb.fetch_form.calls",
        "lmfdb.fetch_form.self_s",
        "cli.canonical_json.s",
        "refdata.reference_discrepancies.s",
    ],
    "blocksum": [
        "matgrp.mat_det.calls",
        "matgrp.has_eigenvalue.calls",
        "matgrp.has_eigenvalue.self_s",
        "matgrp.det_per_eigen_test",
        "matgrp.closure.s",
        "matgrp.closure.elements",
        "matgrp.projectivize.s",
        "matgrp.block_diagonal.s",
        "matgrp.fixed_points.calls",
        "hasse.is_hasse.calls",
        "hasse.is_hasse.s",
        "hasse.global_fixed_points.s",
        "hasse.lemma31_check.s",
    ],
    "lattice-l7": [
        "matgrp.mat_mul.calls",
        "matgrp.proj_canonical.calls",
        "matgrp.ProjGroup.mul.calls",
        "matgrp.closure.s",
        "matgrp.closure.elements",
        "matgrp.projectivize.s",
        "hasse.is_hasse.calls",
        "hasse.enumerate_subgroups.s",
        "hasse.enumerate_subgroups.classes",
        "hasse.classify_pgl2.calls",
        "hasse.classify_pgl2.s",
    ],
}

# the newform layers should not run on the group workloads, and back
ABSENT = {
    "scan-b1000": ["matgrp.mat_det.calls", "matgrp.mat_mul.calls", "hasse.is_hasse.calls"],
    "blocksum": ["nfdata.reduce_coeff.calls", "dchar.evaluate.calls", "pipeline.test_primes.calls"],
    "lattice-l7": ["nfdata.reduce_coeff.calls", "dchar.evaluate.calls", "pipeline.test_primes.calls"],
}


def _traced_pass(name, tmp_path, limit):
    cli, passes = run.setup(name, 1, tmp_path)
    tr = tracer.Tracer()
    with tracer.serial_scan(), tr:
        for i, cmd in enumerate(passes[0][:limit]):
            _, problems, _ = run.run_command(cli, cmd, tr, i)
            assert not problems
    return tr


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    # blocksum: the first two pairs already run every group layer it should
    limits = {"scan-b1000": 1, "blocksum": 2, "lattice-l7": 1}
    return {
        name: _traced_pass(name, tmp_path_factory.mktemp(name), limit)
        for name, limit in limits.items()
    }


@pytest.mark.parametrize("workload", list(INTENDED))
def test_intended_metrics_are_nonzero(traced, workload):
    metrics = tracer.per_layer_metrics(traced[workload], 1)
    zero = [m for m in INTENDED[workload] if not metrics[m]["value"] > 0]
    assert zero == []
    moved = [m for m in ABSENT[workload] if metrics[m]["value"] != 0]
    assert moved == []


def test_every_target_found_and_listed(traced):
    assert all(tr.missing == [] for tr in traced.values())
    listed = {m for names in INTENDED.values() for m in names}
    assert listed == set(tracer.per_layer_metrics(tracer.Tracer(), 1))


def test_spans_nest_under_their_command(traced):
    tr = traced["scan-b1000"]
    by_id = {s[0]: s for s in tr.spans}
    roots = [s for s in tr.spans if s[4] is None]
    assert [s[1] for s in roots] == ["command:scan"]
    for span_id, name, start, end, parent, command in tr.spans:
        assert start <= end and command == 0
        if parent is not None:
            outer = by_id[parent]
            assert outer[2] <= start and end <= outer[3], name
    for name, total in tr.total_s.items():
        assert 0 <= tr.self_s[name] <= total + 1e-9, name


def test_uninstall_restores_every_binding():
    from hassecheck import hasse, matgrp, nfdata, pipeline

    before = (hasse.mat_det, matgrp.mat_det, pipeline.reduce_coeff, nfdata.ReductionMap.apply, pipeline.scan)
    tr = tracer.Tracer()
    with tracer.serial_scan(), tr:
        assert hasse.mat_det is matgrp.mat_det is not before[0]
        assert pipeline.reduce_coeff is nfdata.reduce_coeff is not before[2]
    after = (hasse.mat_det, matgrp.mat_det, pipeline.reduce_coeff, nfdata.ReductionMap.apply, pipeline.scan)
    assert after == before


def test_benchmark_json_lists_the_tracer_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    produced = {k: v["unit"] for k, v in tracer.per_layer_metrics(tracer.Tracer(), 1).items()}
    assert listed == {k: u for k, u in produced.items() if k not in tracer.LATTICE_ONLY}
