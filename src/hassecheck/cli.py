"""Command-line surface: group checks, subgroup enumeration, newform analysis.

Verdicts are data, not errors: exit status is 0 for any completed analysis,
2 for operational failures, 64 for usage errors.  Every report echoes the
configuration that produced it, and JSON output is canonical (sorted keys),
so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .ffield import is_prime
from .hasse import classify_pgl2, enumerate_subgroups, is_hasse, lemma31_check
from .matgrp import MatrixGroup, projectivize, standard_constructors

# The newform handlers import lmfdb, pipeline and refdata where they run, so
# the group commands never load the newform half.

EX_OK, EX_OPERATIONAL, EX_USAGE = 0, 2, 64

# Largest ambient group enumerate-hasse accepts: |PGL2(F_11)|.
LATTICE_BOUND = 1320


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EX_USAGE)


def _prime(text: str) -> int:
    """argparse type for --ell: a prime, or a usage error."""
    ell = int(text)
    if not is_prime(ell):
        raise argparse.ArgumentTypeError(f"{ell} is not prime")
    return ell


def _odd_prime(text: str) -> int:
    """argparse type for --ell on the newform commands, whose reductions need an odd prime."""
    ell = _prime(text)
    if ell == 2:
        raise argparse.ArgumentTypeError("the newform commands need an odd prime, not 2")
    return ell


def _bound(text: str) -> int:
    """argparse type for --bound on the newform commands: no prime lies below 2."""
    bound = int(text)
    if bound < 2:
        raise argparse.ArgumentTypeError(f"{bound} is below 2, so no prime would be tested")
    return bound


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str) + "\n"


def _source(args):
    from .lmfdb import DataSource

    return DataSource(mode=args.source, cache_dir=args.cache_dir)


def _config(args, **extra) -> dict:
    cfg = {
        "version": __version__,
        "command": args.command,
        "source": getattr(args, "source", None),
        "ell": getattr(args, "ell", None),
        "bound": getattr(args, "bound", None),
        # only the newform commands have a cache; the group reports echo none
        "cache_dir": str(args.cache_dir or os.environ.get("HASSE_CACHE_DIR", "")) if "cache_dir" in args else "",
    }
    cfg.update(extra)
    return cfg


@functools.cache  # built once per process; each parse_args returns a fresh namespace
def build_parser() -> _Parser:
    p = _Parser(prog="hassecheck", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("check-group", help="Hasse test for a generated matrix group")
    g.add_argument("--file", required=True, help="JSON {modulus, dim, generators}")

    c = sub.add_parser("classify-pgl2", help="structural classification of a dim-2 group")
    c.add_argument("--file", required=True)

    v = sub.add_parser("verify-lemma31", help="block-sum sufficiency check for a pair of dim-2 groups")
    v.add_argument("--g", required=True, help="first group file")
    v.add_argument("--g2", required=True, help="second group file")

    e = sub.add_parser("enumerate-hasse", help="all Hasse subgroups of PGL2(F_ell) up to conjugacy")
    e.add_argument("--ell", type=_prime, required=True)
    e.add_argument("--bound", type=int, default=LATTICE_BOUND)

    a = sub.add_parser("analyze", help="two-ideal mod-ell image analysis and verdict for one label")
    a.add_argument("--label", required=True)
    a.add_argument("--ell", type=_odd_prime, required=True)
    a.add_argument("--source", default="fixtures", choices=["fixtures", "http", "cache_only"])
    a.add_argument("--bound", type=_bound, default=None)
    a.add_argument("--cache-dir", default=None)

    s = sub.add_parser("scan", help="batch analysis over a label set")
    s.add_argument("--ell", type=_odd_prime, required=True)
    s.add_argument("--level-max", type=int, default=None)
    s.add_argument("--source", default="fixtures", choices=["fixtures", "http", "cache_only"])
    s.add_argument("--bound", type=_bound, default=None)
    s.add_argument("--labels", nargs="*", default=None)
    s.add_argument("--no-cm", action="store_true", help="restrict to non-CM forms")
    s.add_argument("--inner-twist-count", type=int, default=None)
    s.add_argument("--format", choices=["table", "json"], default="table")
    s.add_argument("--check-reference", action="store_true",
                   help="append structured discrepancies against the published tables")
    s.add_argument("--cache-dir", default=None)

    f = sub.add_parser("fetch", help="fetch one form into the cache, or list candidate labels")
    f.add_argument("--label", default=None)
    f.add_argument("--bound", type=_bound, default=None)
    f.add_argument("--source", default="http", choices=["fixtures", "http", "cache_only"])
    f.add_argument("--cm", choices=["true", "false"], default=None)
    f.add_argument("--inner-twist-count", type=int, default=None)
    f.add_argument("--level-range", nargs=2, type=int, default=None)
    f.add_argument("--cache-dir", default=None)

    q = sub.add_parser("congruence", help="finite mod-ell coefficient congruence check")
    q.add_argument("--f", required=True, dest="f_label")
    q.add_argument("--g", required=True, dest="g_label")
    q.add_argument("--ell", type=_odd_prime, required=True)
    q.add_argument("--root-f", type=int, default=None)
    q.add_argument("--root-g", type=int, default=None)
    q.add_argument("--bound", type=_bound, default=None)
    q.add_argument("--source", default="fixtures", choices=["fixtures", "http", "cache_only"])
    q.add_argument("--cache-dir", default=None)
    return p


def _load_group(path: str) -> MatrixGroup:
    with open(path) as fh:
        return MatrixGroup.from_json(fh.read())


def _cmd_check_group(args) -> int:
    group = _load_group(args.file)
    result = is_hasse(projectivize(group))
    print(canonical_json({"config": _config(args, file=args.file), "result": result.to_dict()}), end="")
    return EX_OK


def _cmd_classify(args) -> int:
    group = _load_group(args.file)
    cls = classify_pgl2(projectivize(group))
    print(canonical_json({"config": _config(args, file=args.file), "classification": cls.to_dict()}), end="")
    return EX_OK


def _cmd_lemma31(args) -> int:
    res = lemma31_check(_load_group(args.g), _load_group(args.g2))
    doc = {
        "config": _config(args, g=args.g, g2=args.g2),
        "predicted": res["predicted"],
        "brute_force": res["brute_force"].to_dict(),
        "contract_holds": res["contract_holds"],
    }
    print(canonical_json(doc), end="")
    return EX_OK


def _cmd_enumerate(args) -> int:
    ambient = projectivize(standard_constructors("gl2", args.ell))
    subs = enumerate_subgroups(ambient)
    hasse_subs = []
    for s in subs:
        res = is_hasse(s)
        if res.is_hasse:
            hasse_subs.append({
                "order": s.order(),
                "generators": [list(g) for g in s.generators],
                "dickson_label": classify_pgl2(s).dickson_label,
            })
    doc = {
        "config": _config(args),
        "ambient_order": ambient.order(),
        "subgroup_classes": len(subs),
        "hasse_subgroups": hasse_subs,
    }
    print(canonical_json(doc), end="")
    return EX_OK


def _cmd_analyze(args) -> int:
    from .lmfdb import fetch_form
    from .pipeline import hasse_verdict

    source = _source(args)
    record = fetch_form(source, args.label, bound=args.bound)
    verdict, reports = hasse_verdict(record, args.ell, bound=args.bound)
    doc = {
        "config": _config(args, label=args.label, resolved_bound=verdict.reasons["bound"]),
        "verdict": verdict.to_dict(),
        "reports": [r.to_dict() for r in reports],
    }
    print(canonical_json(doc), end="")
    return EX_OK


def _cmd_scan(args) -> int:
    from .pipeline import rows_to_table, scan
    from .refdata import reference_discrepancies

    source = _source(args)
    filters = None
    if args.no_cm or args.inner_twist_count is not None:
        filters = {"dimension": 2}
        if args.no_cm:
            filters["cm"] = False
        if args.inner_twist_count is not None:
            filters["inner_twist_count"] = args.inner_twist_count
    rows = scan(
        source,
        args.ell,
        level_max=args.level_max,
        filters=filters,
        bound=args.bound,
        labels=args.labels,
    )
    cfg = _config(args, level_max=args.level_max, filters=filters)
    if args.format == "json":
        doc = {"config": cfg, "rows": rows}
        if args.check_reference:
            doc["reference_discrepancies"] = reference_discrepancies(rows)
        print(canonical_json(doc), end="")
    else:
        print(f"# hassecheck scan  config={canonical_json(cfg)}", end="")
        print(rows_to_table(rows), end="")
        if args.check_reference:
            disc = reference_discrepancies(rows)
            print(f"# reference discrepancies: {len(disc)}")
            for d in disc:
                print(f"#   {canonical_json(d)}", end="")
    return EX_OK


def _cmd_fetch(args) -> int:
    from .lmfdb import fetch_form, query_candidates

    source = _source(args)
    if args.label:
        record = fetch_form(source, args.label, bound=args.bound)
        doc = {
            "config": _config(args, label=args.label),
            "label": record.label,
            "level": record.level,
            "ap_max_prime": record.ap_max_prime,
            "cached": True,
        }
        print(canonical_json(doc), end="")
        return EX_OK
    filters = {"dimension": 2}  # records are quadratic-field forms only
    if args.cm is not None:
        filters["cm"] = args.cm == "true"
    if args.inner_twist_count is not None:
        filters["inner_twist_count"] = args.inner_twist_count
    if args.level_range:
        filters["level_range"] = list(args.level_range)
    errors = []  # fixtures that failed to load, as {label, error}
    labels = query_candidates(source, filters, errors)
    doc = {"config": _config(args, filters=filters), "labels": labels, "errors": errors}
    print(canonical_json(doc), end="")
    return EX_OK


def _cmd_congruence(args) -> int:
    from .lmfdb import fetch_form
    from .pipeline import congruence_check

    source = _source(args)
    f = fetch_form(source, args.f_label)
    g = fetch_form(source, args.g_label)
    res = congruence_check(f, g, args.ell, root_f=args.root_f, root_g=args.root_g, bound=args.bound)
    doc = {"config": _config(args, f=args.f_label, g=args.g_label), "result": res}
    print(canonical_json(doc), end="")
    return EX_OK


_COMMANDS = {
    "check-group": _cmd_check_group,
    "classify-pgl2": _cmd_classify,
    "verify-lemma31": _cmd_lemma31,
    "enumerate-hasse": _cmd_enumerate,
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "fetch": _cmd_fetch,
    "congruence": _cmd_congruence,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate-hasse":
        order = args.ell * (args.ell * args.ell - 1)
        if args.bound < order:
            parser.error(f"--bound {args.bound} is below |PGL2(F_{args.ell})| = {order}")
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return EX_OK
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EX_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
