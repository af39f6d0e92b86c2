"""Out-of-package tracer: wraps the public functions of each hassecheck module.

Three kinds of wrapper, chosen by how often the function runs:

* ``count``: hot leaves (``mat_det``, ``FieldElement.__init__``) only count
  calls, so the tracer does not swamp the work it measures.
* ``timed``: hot functions whose own cost matters (``has_eigenvalue``,
  ``evaluate``) also add up inclusive and self time, without keeping a
  record per call.
* ``span``: coarse functions (``is_hasse``, ``hasse_verdict``) also keep one
  span record per call: name, start, end, parent span and command id.

Self time is a frame's duration minus the time of the timed or span frames
inside it; time spent in count-only callees stays in the caller's self time.

A function is looked up by the module that defines it, and every
``hassecheck`` module namespace (and class) that binds the same object is
patched, because modules import names such as ``mat_det`` or
``reduce_coeff`` directly.  Targets a later version of the package no longer
has are skipped and listed in ``missing``; their metrics read 0.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

COUNT, TIMED, SPAN = "count", "timed", "span"


def _closure_size(group):
    return len(group.elements)


def _certificates(result):
    return len(result["certificates"])


# (defining module, qualified name, kind, result-size function or None)
TARGETS = [
    ("matgrp", "mat_det", COUNT, None),
    ("matgrp", "mat_mul", COUNT, None),
    ("matgrp", "proj_canonical", COUNT, None),
    ("matgrp", "ProjGroup.mul", COUNT, None),
    ("matgrp", "has_eigenvalue", TIMED, None),
    ("matgrp", "fixed_points", COUNT, None),
    ("matgrp", "closure", SPAN, _closure_size),
    ("matgrp", "projectivize", SPAN, None),
    ("matgrp", "block_diagonal", SPAN, None),
    ("hasse", "is_hasse", SPAN, None),
    ("hasse", "global_fixed_points", SPAN, None),
    ("hasse", "lemma31_check", SPAN, None),
    ("hasse", "enumerate_subgroups", SPAN, len),
    ("hasse", "classify_pgl2", SPAN, None),
    ("nfdata", "reduce_coeff", COUNT, None),
    ("nfdata", "ReductionMap.apply", COUNT, None),
    ("nfdata", "frob_charpoly", TIMED, None),
    ("nfdata", "NewformRecord.nebentypus_value", TIMED, None),
    ("nfdata", "projective_frob_order", COUNT, None),
    ("dchar", "evaluate", TIMED, None),
    ("dchar", "RingEmbedding.root_power", TIMED, None),
    ("dchar", "DirichletCharacter.exponent_at", COUNT, None),
    ("dchar", "fl_valued_characters", COUNT, len),
    ("ffield", "FieldElement.__init__", COUNT, None),
    ("ffield", "mul_order", COUNT, None),
    ("pipeline", "hasse_verdict", SPAN, None),
    ("pipeline", "detect_twist", SPAN, None),
    ("pipeline", "exclude_reducible", SPAN, _certificates),
    ("pipeline", "dihedral_order", SPAN, None),
    ("pipeline", "not_borel_witness", SPAN, None),
    ("pipeline", "test_primes", COUNT, None),
    ("lmfdb", "fetch_form", SPAN, None),
    ("cli", "canonical_json", SPAN, None),
    ("refdata", "reference_discrepancies", SPAN, None),
]


class Tracer:
    """Installs the wrappers, collects counts, times and spans in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sizes = defaultdict(int)
        self.spans = []  # [id, name, start, end, parent, command]
        self.missing = []
        self.command_id = None
        self._stack = []  # frames: [child seconds, enclosing span id]
        self._patches = []  # (namespace, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, kind, size):
        calls, sizes = self.calls, self.sizes
        if kind == COUNT:
            def counted(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if size is not None:
                    sizes[name] += size(out)
                return out

            return counted

        stack, spans = self._stack, self.spans
        total_s, self_s = self.total_s, self.self_s
        perf = time.perf_counter
        record = kind == SPAN

        def timed(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][1] if stack else None
            span_id = parent
            if record:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if record:
                    spans[span_id] = [span_id, name, t0, t1, parent, self.command_id]
            if size is not None:
                sizes[name] += size(out)
            return out

        return timed

    @contextlib.contextmanager
    def command(self, command_id, name):
        """Root span of one CLI command; the spans inside carry its id."""
        self.command_id = command_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, span_id])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = [span_id, f"command:{name}", t0, t1, None, command_id]
            self.command_id = None

    # -- installation -------------------------------------------------------

    def install(self):
        self.missing = []
        mods = {n: m for n, m in sys.modules.items() if n == "hassecheck" or n.startswith("hassecheck.")}
        for modname, qualname, kind, size in TARGETS:
            owner = mods.get(f"hassecheck.{modname}")
            cls_name, _, attr = qualname.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapper = self._wrap(f"{modname}.{qualname}", original, kind, size)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._patches.append((namespace, attr, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        keys = ("id", "name", "start", "end", "parent", "command")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@contextlib.contextmanager
def serial_scan():
    """Run `scan` with jobs=1 while inside the block.

    Pool workers are separate processes that wrappers cannot reach, so a
    traced scan runs its forms in this process; the untraced half of a traced
    run does the same, so the difference between the two is tracing alone.
    """
    pipeline = sys.modules.get("hassecheck.pipeline")
    scan = getattr(pipeline, "scan", None)
    if scan is None or "jobs" not in inspect.signature(scan).parameters:
        yield
        return

    def serial(*args, **kwargs):
        kwargs["jobs"] = 1
        return scan(*args, **kwargs)

    bound = [m for n, m in sys.modules.items() if n.startswith("hassecheck") and vars(m).get("scan") is scan]
    for mod in bound:
        mod.scan = serial
    try:
        yield
    finally:
        for mod in bound:
            mod.scan = scan


# Reached only through `enumerate-hasse`, so they read 0 on the workloads
# BENCHMARK.json lists; they are printed and reported on every traced run,
# and read by hand on lattice-l7.  enumerate_subgroups.classes is a fixed
# value (23 at l = 7) that the lattice check already pins.
LATTICE_ONLY = {
    "matgrp.ProjGroup.mul.calls",
    "hasse.enumerate_subgroups.s",
    "hasse.enumerate_subgroups.classes",
    "hasse.classify_pgl2.calls",
    "hasse.classify_pgl2.s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, passes: int) -> dict:
    """Every per-layer metric: counts and times per pass of the workload,
    ratios over the whole traced phase."""
    c, t, s, z = tr.calls, tr.total_s, tr.self_s, tr.sizes
    per_pass = {
        "matgrp.mat_det.calls": ("count", c["matgrp.mat_det"]),
        "matgrp.mat_mul.calls": ("count", c["matgrp.mat_mul"]),
        "matgrp.proj_canonical.calls": ("count", c["matgrp.proj_canonical"]),
        "matgrp.ProjGroup.mul.calls": ("count", c["matgrp.ProjGroup.mul"]),
        "matgrp.has_eigenvalue.calls": ("count", c["matgrp.has_eigenvalue"]),
        "matgrp.has_eigenvalue.self_s": ("s", s["matgrp.has_eigenvalue"]),
        "matgrp.closure.s": ("s", t["matgrp.closure"]),
        "matgrp.closure.elements": ("count", z["matgrp.closure"]),
        "matgrp.projectivize.s": ("s", t["matgrp.projectivize"]),
        "matgrp.block_diagonal.s": ("s", t["matgrp.block_diagonal"]),
        "matgrp.fixed_points.calls": ("count", c["matgrp.fixed_points"]),
        "hasse.is_hasse.calls": ("count", c["hasse.is_hasse"]),
        "hasse.is_hasse.s": ("s", t["hasse.is_hasse"]),
        "hasse.global_fixed_points.s": ("s", t["hasse.global_fixed_points"]),
        "hasse.lemma31_check.s": ("s", t["hasse.lemma31_check"]),
        "hasse.enumerate_subgroups.s": ("s", t["hasse.enumerate_subgroups"]),
        "hasse.enumerate_subgroups.classes": ("count", z["hasse.enumerate_subgroups"]),
        "hasse.classify_pgl2.calls": ("count", c["hasse.classify_pgl2"]),
        "hasse.classify_pgl2.s": ("s", t["hasse.classify_pgl2"]),
        "nfdata.reduce_coeff.calls": ("count", c["nfdata.reduce_coeff"]),
        "nfdata.ReductionMap.apply.calls": ("count", c["nfdata.ReductionMap.apply"]),
        "nfdata.frob_charpoly.calls": ("count", c["nfdata.frob_charpoly"]),
        "nfdata.frob_charpoly.self_s": ("s", s["nfdata.frob_charpoly"]),
        "nfdata.NewformRecord.nebentypus_value.calls": ("count", c["nfdata.NewformRecord.nebentypus_value"]),
        "nfdata.NewformRecord.nebentypus_value.self_s": ("s", s["nfdata.NewformRecord.nebentypus_value"]),
        "nfdata.projective_frob_order.calls": ("count", c["nfdata.projective_frob_order"]),
        "dchar.evaluate.calls": ("count", c["dchar.evaluate"]),
        "dchar.evaluate.self_s": ("s", s["dchar.evaluate"]),
        "dchar.RingEmbedding.root_power.calls": ("count", c["dchar.RingEmbedding.root_power"]),
        "dchar.RingEmbedding.root_power.self_s": ("s", s["dchar.RingEmbedding.root_power"]),
        "dchar.DirichletCharacter.exponent_at.calls": ("count", c["dchar.DirichletCharacter.exponent_at"]),
        "dchar.fl_valued_characters.chars": ("count", z["dchar.fl_valued_characters"]),
        "ffield.FieldElement.created": ("count", c["ffield.FieldElement.__init__"]),
        "ffield.mul_order.calls": ("count", c["ffield.mul_order"]),
        "pipeline.hasse_verdict.s": ("s", t["pipeline.hasse_verdict"]),
        "pipeline.detect_twist.s": ("s", t["pipeline.detect_twist"]),
        "pipeline.exclude_reducible.s": ("s", t["pipeline.exclude_reducible"]),
        "pipeline.dihedral_order.s": ("s", t["pipeline.dihedral_order"]),
        "pipeline.not_borel_witness.s": ("s", t["pipeline.not_borel_witness"]),
        "pipeline.test_primes.calls": ("count", c["pipeline.test_primes"]),
        "lmfdb.fetch_form.calls": ("count", c["lmfdb.fetch_form"]),
        "lmfdb.fetch_form.self_s": ("s", s["lmfdb.fetch_form"]),
        "cli.canonical_json.s": ("s", t["cli.canonical_json"]),
        "refdata.reference_discrepancies.s": ("s", t["refdata.reference_discrepancies"]),
    }
    out = {name: {"value": value / passes, "unit": unit} for name, (unit, value) in per_pass.items()}
    ratios = {
        "matgrp.det_per_eigen_test": _ratio(c["matgrp.mat_det"], c["matgrp.has_eigenvalue"]),
        "nfdata.apply_per_form": _ratio(c["nfdata.ReductionMap.apply"], c["pipeline.hasse_verdict"]),
        # fl_valued_characters is only called by exclude_reducible, which
        # sweeps every character it returns
        "pipeline.exclude_reducible.certified_ratio": _ratio(
            z["pipeline.exclude_reducible"], z["dchar.fl_valued_characters"]
        ),
    }
    out.update({name: {"value": value, "unit": "ratio"} for name, value in ratios.items()})
    return out
