"""Published reference classifications that scan output is compared against.

These are the mod-7 projective image assignments from the reference tables
this tool reproduces (dihedral groups named by their order).  The comparison
helper reports structured discrepancies; observed data always wins and a
mismatch is surfaced, never patched over.
"""

from __future__ import annotations

# level <= 189 scan: label -> claimed image (both prime ideals agree there)
REFERENCE_IMAGES_LOW = {
    "49.2.c.a": "C3",
    "63.2.e.a": "D4",
    "81.2.c.a": "D12",
    "117.2.g.a": "D12",
    "117.2.q.b": "D12",
    "189.2.c.a": "D6",
    "189.2.e.b": "D12",
    "189.2.p.a": "D6",
}

REFERENCE_HASSE_LOW = {"189.2.c.a", "189.2.p.a"}

# absolutely-simple scan: label -> (claimed image, ideal generator display)
REFERENCE_IMAGES_SIMPLE = {
    "7938.2.a.bj": ("D6", "(1 - 2b)"),
    "7938.2.a.bk": ("D6", "(1 + 2b)"),
    "7938.2.a.bp": ("D6", "(1 - 2b)"),
    "7938.2.a.bq": ("D6", "(1 - 2b)"),
    "9099.2.a.e": ("D12", "(1 - 2b)"),
    "9099.2.a.g": ("D12", "(1 - 2b)"),
}


def reference_discrepancies(rows: list[dict]) -> list[dict]:
    """Structured mismatches between scan rows and the reference tables."""
    out = []
    for row in rows:
        label = row.get("label")
        if "error" in row and (label in REFERENCE_IMAGES_LOW or label in REFERENCE_IMAGES_SIMPLE):
            out.append({"label": label, "error": row["error"], "kind": "analysis_error"})
            continue
        reports = row.get("reports")
        if not reports:
            continue
        if label in REFERENCE_IMAGES_LOW:
            expected = REFERENCE_IMAGES_LOW[label]
            observed = sorted({rep["image"] for rep in reports})
            if observed != [expected]:
                out.append(
                    {
                        "label": label,
                        "expected_image": expected,
                        "observed_images": observed,
                        "kind": "image_mismatch",
                    }
                )
        elif label in REFERENCE_IMAGES_SIMPLE:
            expected, ideal = REFERENCE_IMAGES_SIMPLE[label]
            match = [rep for rep in reports if rep["ideal"] == ideal]
            observed = match[0]["image"] if match else None
            if observed != expected:
                out.append(
                    {
                        "label": label,
                        "expected_image": expected,
                        "expected_ideal": ideal,
                        "observed_image": observed,
                        "kind": "image_mismatch",
                    }
                )
    return out
