"""Reachability guard: every src function and method is entered by some command.

One command of each kind runs in process in a fresh interpreter under
sys.setprofile, which records the code object of every Python call.  Each
function and method defined in the package (staticmethods, properties,
cached properties and lru_cache wrappers unwrapped to their code) must be
among them or on UNREACHED with a reason.  A listed definition that some
command does reach fails too, so the list cannot go stale.  Unlike the
dead-code guard, this compares code objects, not names: a method does not
count as used because another class has one of the same name.
"""

import importlib
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import hassecheck

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import catalogue  # noqa: E402

HTTP = "http and cache path: no command reaches upstream with the fixtures source"
CAP = "ClosureCapError path: raised only when a group outgrows DEFAULT_CAP"
ORACLE = "oracle or helper that tests or perfbench import"

UNREACHED = {
    "lmfdb.DataSource._get": HTTP,
    "lmfdb.PartialDataError.__init__": HTTP,
    "lmfdb._cache_path": HTTP,
    "lmfdb._default_transport": HTTP,
    "lmfdb._query_candidates": HTTP,
    "lmfdb._query_newform": HTTP,
    "lmfdb.translate_labels": HTTP,
    "lmfdb.translate_newform": HTTP,
    "nfdata.NewformRecord.to_dict": HTTP + " (the cache write)",
    "nfdata.NewformRecord.to_json": HTTP + " (the cache write)",
    "nfdata._coeff_json": HTTP + " (the cache write)",
    "matgrp.ClosureCapError.__init__": CAP,
    "ffield.FieldElement.__setattr__": ORACLE + ": the immutability guard, which only tests trip",
    "ffield.FieldElement._coerce": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.__add__": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.__sub__": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.__mul__": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.inverse": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.__truediv__": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.__eq__": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.FieldElement.__repr__": ORACLE + ": FieldElement arithmetic, the frob oracle's reference",
    "ffield.least_nonresidue": ORACLE + ": standard_constructors' nonsplit Cartan, built by tests only",
    "matgrp.fixed_points_scan": ORACLE + ": the brute-force fixed-point scan",
    "matgrp.Matrix.rows": ORACLE + ": tests scale matrices row by row",
    "matgrp.Matrix.__repr__": ORACLE + ": pytest's assertion messages",
    "matgrp.MatrixGroup.to_json": ORACLE + ": tests write group files",
    "matgrp.BlockClasses.__len__": ORACLE + ": tests count the block sum's classes",
    "nfdata.NewformRecord.char_embedding": ORACLE + ": eps(n) in the coefficient ring, the frob oracle's reference",
    "dchar.RingEmbedding.zero": ORACLE + ": evaluate's value at n sharing a factor with N, which tests ask for",
}

# run each argv list of sys.argv[1] (JSON) through the CLI, then print the
# (module stem, first line, name) of every package code object entered
PROBE = """
import contextlib, io, json, sys
from pathlib import Path
import hassecheck
from hassecheck.cli import main
package = str(Path(hassecheck.__file__).parent)
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

rcs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            rcs.append(main(argv))
        except SystemExit as exc:
            rcs.append(exc.code)
        finally:
            sys.setprofile(None)
codes = [(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
         for c in entered if str(Path(c.co_filename).parent) == package]
print(json.dumps({"rcs": rcs, "entered": sorted(codes)}))
"""


def commands(group_paths):
    argvs = [
        ["scan", "--ell", "7", "--bound", "1000", "--format", "json", "--check-reference"],
        ["scan", "--ell", "7", "--no-cm", "--level-max", "9099", "--check-reference"],
        ["analyze", "--label", "189.2.p.a", "--ell", "7"],
        ["analyze", "--label", "2883.2.c.a", "--ell", "7"],
        ["enumerate-hasse", "--ell", "5"],
        ["fetch", "--label", "49.2.c.a", "--source", "fixtures"],
        ["fetch", "--source", "fixtures", "--cm", "false"],
        ["congruence", "--f", "189.2.c.a", "--g", "189.2.e.b", "--ell", "7"],
    ]
    for g, g2 in group_paths:
        argvs += [["verify-lemma31", "--g", g, "--g2", g2], ["check-group", "--file", g], ["classify-pgl2", "--file", g2]]
    return argvs + [["scan", "--ell", "4"]]  # a usage error


def _function(obj):
    """The plain function behind a module or class attribute, or None."""
    if isinstance(obj, staticmethod):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, cached_property):
        obj = obj.func
    if callable(obj):
        obj = inspect.unwrap(obj)
    return obj if inspect.isfunction(obj) else None


def definitions():
    """(module stem, first line, name) -> "module.name" or "module.Class.name".

    An alias such as `__radd__ = __add__` shares its code object and keeps the
    first name.
    """
    out = {}
    for info in pkgutil.iter_modules(hassecheck.__path__):
        module = importlib.import_module(f"hassecheck.{info.name}")
        found = []
        for name, obj in vars(module).items():
            if inspect.isclass(obj):
                found += [(_function(value), f"{info.name}.{name}.{attr}") for attr, value in vars(obj).items()]
            else:
                found.append((_function(obj), f"{info.name}.{name}"))
        for f, qualified in found:
            # skips what the module imports and what dataclass generates
            if f is not None and f.__code__.co_filename == module.__file__:
                code = f.__code__
                out.setdefault((info.name, code.co_firstlineno, code.co_name), qualified)
    return out


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    pairs = catalogue.generate(random.Random(1))
    # D6 + nonsplit Cartan and D6 + D6 at l = 7, D10xZ + cyclic irreducible at l = 11
    paths = catalogue.write_pairs([pairs[0], pairs[12], pairs[22]], tmp_path_factory.mktemp("groups"), "")
    argvs = commands(paths)
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["rcs"] == [0] * (len(argvs) - 1) + [64]
    defined = definitions()
    reached = {defined[tuple(key)] for key in out["entered"] if tuple(key) in defined}
    return set(defined.values()), reached


def test_every_unreached_definition_is_listed(trace):
    defined, reached = trace
    assert sorted(defined - reached - set(UNREACHED)) == []


def test_no_listed_definition_is_reached_or_gone(trace):
    defined, reached = trace
    assert sorted(set(UNREACHED) & reached) == []
    assert sorted(set(UNREACHED) - defined) == []
