"""hassecheck benchmark: closed-loop CLI workloads, one caller, one thread.

    python3 perfbench/run.py --workload scan-b1000 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Each operation is one user command, issued in-process through
``hassecheck.cli.main(argv)`` with stdout captured and checked.  A run
measures whole passes over the workload's commands until ``--seconds`` have
passed.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes, and reports the
per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Reports and spans are written under ``.bench_out/``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10

# name -> (unit, gated); the gated ones are the end_to_end list of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", True),
    "cmd_p50_s": ("s", True),
    "cmd_tail_s": ("s", False),
    "items_per_s": ("1/s", True),
    "peak_rss_mb": ("MB", True),
    "error_rate": ("ratio", False),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate inputs, run one warm-up command, exit (set-up probe)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# set-up and one command


def setup(workload: str, seed: int, workdir: Path):
    """Import the CLI, generate the inputs, run one warm-up command."""
    sys.path.insert(0, str(SRC))
    from hassecheck import cli

    passes = WORKLOADS[workload].make_passes(seed, workdir)
    run_command(cli, passes[0][0])
    return cli, passes


def run_command(cli, cmd, tracer=None, command_id=None):
    """(seconds, problems, items) for one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.command(command_id, cmd.argv[0]) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:
        rc = exc.code
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, [f"exit status {rc}: {err.getvalue().strip()[-300:]}"], 0
    try:
        problems, items = cmd.check(out.getvalue())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems, items = [f"unreadable output: {type(exc).__name__}: {exc}"], 0
    return dt, problems, (0 if problems else items)


class Phase:
    """The commands of whole passes, with their times, items and failures."""

    def __init__(self):
        self.durations, self.problems = [], []
        self.items = self.passes = self.failed = 0

    def run_pass(self, cli, commands, tracer=None):
        for cmd in commands:
            dt, problems, items = run_command(cli, cmd, tracer, len(self.durations))
            self.durations.append(dt)
            self.items += items
            if problems:
                self.failed += 1
                self.problems.append({"argv": cmd.argv, "problems": problems[:5]})
        self.passes += 1
        return self

    @property
    def attempted(self):
        return len(self.durations)

    def p50(self):
        return statistics.median(self.durations)

    def tail(self):
        """(seconds, percentile, commands beyond) or None with too few commands.

        The highest whole percentile with at least TAIL_BEYOND commands above
        its nearest-rank value; omitted when that is below the median.
        """
        n = len(self.durations)
        if n <= TAIL_BEYOND:
            return None
        q = math.floor(100 * (n - TAIL_BEYOND) / n)
        if q < 50:
            return None
        rank = math.ceil(q * n / 100)
        return sorted(self.durations)[rank - 1], q, n - rank


# ---------------------------------------------------------------------------
# set-up probes, metadata


def setup_probe(args) -> float:
    """Set-up time of a fresh process, from spawn to the end of its set-up.

    The probe prints time.monotonic() when its warm-up command returns; that
    clock is system-wide, so the interval excludes process teardown and the
    parent's wake-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return float(res.stdout.split()[-1]) - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def metadata(args) -> dict:
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    revision = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = res.stdout.strip() or "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# the two kinds of run: each prints its metrics and returns
# (phases, metrics for the JSON line, report fields)


def end_to_end(args, cli, passes):
    """Whole passes for `--seconds` of pass time.  The set-up probes are
    spread over the run, between passes and untimed, so that they and the
    commands sample the same spells of machine load."""
    w = WORKLOADS[args.workload]
    phase, probes, spent = Phase(), [], 0.0
    while spent < args.seconds:
        while len(probes) < SETUP_PROBES * spent / args.seconds:
            probes.append(setup_probe(args))
        t0 = time.perf_counter()
        phase.run_pass(cli, passes[phase.passes % len(passes)])
        spent += time.perf_counter() - t0
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    values = {
        "setup_s": statistics.median(probes),
        "cmd_p50_s": phase.p50(),
        "cmd_tail_s": None,
        "items_per_s": phase.items / sum(phase.durations),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": phase.failed / phase.attempted,
    }
    n = phase.attempted
    notes = {
        "setup_s": f"median of {len(probes)} fresh-process set-ups",
        "cmd_p50_s": f"n={n} commands",
        "cmd_tail_s": f"omitted: {n} commands, fewer than {TAIL_BEYOND} beyond the median",
        "items_per_s": f"{w.items}; {phase.passes} whole passes",
        "peak_rss_mb": "max ru_maxrss of self and children",
        "error_rate": f"{phase.failed} of {n} commands failed or failed their check",
    }
    tail = phase.tail()
    if tail is not None:
        values["cmd_tail_s"], q, beyond = tail
        notes["cmd_tail_s"] = f"p{q}, {beyond} commands beyond it, n={n}"
    for name, (unit, _) in END_TO_END.items():
        shown = "-" if values[name] is None else f"{values[name]:.6g}"
        print(f"{name:<12} {shown:<12} {unit:<6} ({notes[name]})")
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, gated) in END_TO_END.items() if gated}
    report = {
        "end_to_end": {name: {"value": values[name], "unit": unit, "note": notes[name]}
                       for name, (unit, _) in END_TO_END.items()},
        "setup_probes_s": probes,
        "durations_s": phase.durations,
    }
    return [phase], metrics, report


def traced(args, cli, passes):
    import tracer as tracing

    # Untraced and traced passes alternate, over the same inputs and in
    # alternating order, so both sample the same spells of machine load.
    tr = tracing.Tracer()
    plain, phase, spent = Phase(), Phase(), 0.0
    with tracing.serial_scan():
        while spent < args.seconds:
            t0 = time.perf_counter()
            commands = passes[phase.passes % len(passes)]
            for traced_pass in (False, True) if phase.passes % 2 == 0 else (True, False):
                if traced_pass:
                    with tr:
                        phase.run_pass(cli, commands, tr)
                else:
                    plain.run_pass(cli, commands)
            spent += time.perf_counter() - t0
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tr.write_spans(spans)
    metrics = tracing.per_layer_metrics(tr, phase.passes)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:<14.6g} {m['unit']}")
    listed = {name: m for name, m in metrics.items() if name not in tracing.LATTICE_ONLY}
    overhead = phase.p50() - plain.p50()
    info = {
        "untraced_cmd_p50_s": plain.p50(),
        "traced_cmd_p50_s": phase.p50(),
        "overhead_s": overhead,
        "overhead_share": overhead / plain.p50(),
        "traced_passes": phase.passes,
        "spans": len(tr.spans),
        "spans_file": str(spans.relative_to(ROOT)),
        "missing_targets": tr.missing,
    }
    print(f"# tracing overhead: cmd_p50_s {plain.p50():.4f} s untraced, {phase.p50():.4f} s traced: "
          f"{overhead:+.4f} s ({100 * info['overhead_share']:+.1f}%); {len(tr.spans)} spans in {info['spans_file']}")
    if tr.missing:
        print(f"# not traced (absent from the package): {tr.missing}")
    return [plain, phase], listed, {"per_layer": metrics, "tracing": info}


@contextlib.contextmanager
def scratch_dir(prefix):
    """A fresh directory under .bench_out for generated inputs, removed after."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_one(args) -> int:
    w = WORKLOADS[args.workload]
    meta = metadata(args)
    print(f"# hassecheck benchmark: {w.name}; items are {w.items}")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    with scratch_dir("inputs-") as workdir:
        cli, passes = setup(args.workload, args.seed, workdir)
        if args.trace:
            phases, metrics, report = traced(args, cli, passes)
        else:
            phases, metrics, report = end_to_end(args, cli, passes)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [entry for p in phases for entry in p.problems]
    for entry in problems[:10]:
        print(f"# FAILED {' '.join(entry['argv'])}: {entry['problems']}")
    report = {"meta": meta, **report, "attempted": attempted, "failed": failed, "problems": problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            return res.returncode or 1
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        metrics.update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hassecheck" / "cli.py").is_file():
        sys.stderr.write(f"error: the hassecheck sources are not at {SRC}; run from a full checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        with scratch_dir("probe-") as workdir:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic())
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
