"""Seeded block-sum catalogue for the `blocksum` workload.

The base catalogue is the 23 pairs of the package's acceptance criterion 4
(l = 7 and l = 11): a Hasse factor H (a dihedral group of order 2n, n odd,
n | (l-1)/2, l = 3 mod 4) against a factor G with no global fixed point
(Cartan normalisers, nonsplit Cartans, SL2, GL2 and a cyclic group of
irreducible type).  Generators are written out literally, so the inputs do
not depend on the program's own constructors.

A seeded generator conjugates each factor by its own element of GL2(F_l).
Conjugation keeps the Hasse property, the absence of a global fixed point
and every group order, so the work is the same up to early exits: the
eigenvalue test stops at the first root it meets, which depends on how the
conjugate's canonical projective representative is scaled.  That moves a
single pair's determinant count by up to about a third, so the workload
draws a fresh conjugation for every pass and a run averages over them.
"""

from __future__ import annotations

import json
import random

# name -> (modulus, generators as row-major 2x2 tuples)
FACTORS = {
    "D6_7": (7, [(2, 0, 0, 1), (0, 1, 1, 0)]),
    "D6xZ_7": (7, [(2, 0, 0, 1), (0, 1, 1, 0), (3, 0, 0, 3)]),
    "nonsplit_cartan_7": (7, [(1, 3, 1, 1)]),
    "nonsplit_cartan_normalizer_7": (7, [(1, 3, 1, 1), (1, 0, 0, 6)]),
    "split_cartan_normalizer_7": (7, [(3, 0, 0, 1), (1, 0, 0, 3), (0, 1, 1, 0)]),
    "sl2_7": (7, [(1, 1, 0, 1), (1, 0, 1, 1)]),
    "gl2_7": (7, [(3, 0, 0, 1), (1, 0, 0, 3), (1, 1, 0, 1), (1, 0, 1, 1)]),
    "cyclic_irreducible_7": (7, [(0, 4, 1, 1)]),
    "D10_11": (11, [(4, 0, 0, 1), (0, 1, 1, 0)]),
    "D10xZ_11": (11, [(8, 0, 0, 2), (0, 1, 1, 0)]),
    "nonsplit_cartan_11": (11, [(1, 10, 5, 1)]),
    "nonsplit_cartan_normalizer_11": (11, [(1, 10, 5, 1), (1, 0, 0, 10)]),
    "split_cartan_normalizer_11": (11, [(2, 0, 0, 1), (1, 0, 0, 2), (0, 1, 1, 0)]),
    "sl2_11": (11, [(1, 1, 0, 1), (1, 0, 1, 1)]),
    "cyclic_irreducible_11": (11, [(0, 7, 1, 1)]),
}

_OTHERS_7 = [
    "nonsplit_cartan_7",
    "nonsplit_cartan_normalizer_7",
    "split_cartan_normalizer_7",
    "sl2_7",
    "gl2_7",
    "cyclic_irreducible_7",
]
_OTHERS_11 = [
    "nonsplit_cartan_11",
    "nonsplit_cartan_normalizer_11",
    "split_cartan_normalizer_11",
    "sl2_11",
    "cyclic_irreducible_11",
]

# (Hasse factor, factor without a global fixed point), in criterion-4 order
BASE_PAIRS = (
    [(h, g) for h in ("D6_7", "D6xZ_7") for g in _OTHERS_7]
    + [("D6_7", "D6_7")]
    + [(h, g) for h in ("D10_11", "D10xZ_11") for g in _OTHERS_11]
)


# 2x2 arithmetic of its own, so the inputs stay the same whatever a later
# version of the package does to its matrix kernel
def _mul(a, b, p):
    return (
        (a[0] * b[0] + a[1] * b[2]) % p,
        (a[0] * b[1] + a[1] * b[3]) % p,
        (a[2] * b[0] + a[3] * b[2]) % p,
        (a[2] * b[1] + a[3] * b[3]) % p,
    )


def _inv(a, p):
    d = pow((a[0] * a[3] - a[1] * a[2]) % p, -1, p)
    return (a[3] * d % p, -a[1] * d % p, -a[2] * d % p, a[0] * d % p)


def random_gl2(rng: random.Random, p: int) -> tuple:
    """A uniformly random element of GL2(F_p)."""
    while True:
        m = tuple(rng.randrange(p) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % p:
            return m


def conjugate(gens, c, p):
    ci = _inv(c, p)
    return [_mul(_mul(c, g, p), ci, p) for g in gens]


def group_doc(p: int, gens) -> dict:
    """The CLI's group-file format."""
    return {"modulus": p, "dim": 2, "generators": [list(g) for g in gens]}


def generate(rng: random.Random) -> list[dict]:
    """The 23 pairs, each factor conjugated by its own element drawn from rng.

    Returns dicts with the pair's names and the two group documents.
    """
    out = []
    for h_name, g_name in BASE_PAIRS:
        docs = []
        for name in (h_name, g_name):
            p, gens = FACTORS[name]
            docs.append(group_doc(p, conjugate(gens, random_gl2(rng, p), p)))
        out.append({"hasse": h_name, "other": g_name, "g": docs[0], "g2": docs[1]})
    return out


def write_pairs(pairs: list[dict], directory, prefix: str) -> list[tuple[str, str]]:
    """Write each pair's group files; returns (g path, g2 path) per pair."""
    paths = []
    for i, pair in enumerate(pairs):
        names = []
        for key in ("g", "g2"):
            path = directory / f"{prefix}pair{i:02d}_{key}.json"
            path.write_text(json.dumps(pair[key], sort_keys=True))
            names.append(str(path))
        paths.append(tuple(names))
    return paths
