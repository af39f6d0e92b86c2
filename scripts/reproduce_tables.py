#!/usr/bin/env python3
"""Reproduce the two reference classification tables from committed fixtures.

Runs the level <= 189 scan and the absolutely-simple (Q(sqrt2)-field) scan
at mod 7, prints the per-ideal image columns and verdicts, and lists any
structured discrepancies against the published reference values.

Usage:  python3 scripts/reproduce_tables.py [--bound N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hassecheck.cli import _bound
from hassecheck.lmfdb import DataSource
from hassecheck.pipeline import rows_to_table, scan
from hassecheck.refdata import REFERENCE_IMAGES_SIMPLE, reference_discrepancies


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=_bound, default=1000, help="prime bound for the high-level scan")
    args = ap.parse_args()

    src = DataSource(mode="fixtures")

    print("== mod-7 scan, level <= 189 (CM forms, both ideals) ==")
    rows = scan(src, 7, level_max=189)
    print(rows_to_table(rows), end="")
    disc = reference_discrepancies(rows)
    print(f"reference discrepancies: {len(disc)}")
    for d in disc:
        print(f"  {d}")
    print()

    print("== mod-7 scan, absolutely simple candidates (field Q(sqrt 2)) ==")
    rows = scan(src, 7, labels=sorted(REFERENCE_IMAGES_SIMPLE), bound=args.bound)
    print(rows_to_table(rows), end="")
    disc = reference_discrepancies(rows)
    print(f"reference discrepancies: {len(disc)}")
    for d in disc:
        print(f"  {d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
