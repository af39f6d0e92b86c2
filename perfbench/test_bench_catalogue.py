"""The seeded block-sum catalogue keeps criterion 4's preconditions for every seed."""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import catalogue  # noqa: E402
from hassecheck.hasse import is_hasse  # noqa: E402
from hassecheck.matgrp import (  # noqa: E402
    Matrix,
    MatrixGroup,
    fixed_points_scan,
    projectivize,
    standard_constructors,
)

SEEDS = [1, 2, 3, 97]


def _group(doc):
    return MatrixGroup.from_json(json.dumps(doc))


def _scan_fixed(elt, p):
    return fixed_points_scan(Matrix(tuple(elt), 2, p))


def _common_fixed_points(group):
    common = None
    for g in group.generators:
        pts = fixed_points_scan(g)
        common = pts if common is None else common & pts
    return common


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_pairs_meet_the_preconditions(seed):
    pairs = catalogue.generate(random.Random(seed))
    assert len(pairs) == 23
    for pair in pairs:
        h, g = _group(pair["g"]), _group(pair["g2"])
        p = h.modulus
        proj = projectivize(h)
        # oracle: every element of the Hasse factor fixes a point of P^1 ...
        assert all(_scan_fixed(elt, p) for elt in proj.elements), pair["hasse"]
        # ... and no point is fixed by the whole factor
        assert not _common_fixed_points(h), pair["hasse"]
        assert is_hasse(proj).is_hasse, pair["hasse"]
        assert not _common_fixed_points(g), pair["other"]


def test_conjugation_keeps_orders_and_moves_matrices():
    base = catalogue.generate(random.Random(1))
    for seed in SEEDS[1:]:
        pairs = catalogue.generate(random.Random(seed))
        for a, b in zip(base, pairs):
            for key in ("g", "g2"):
                assert _group(a[key]).order() == _group(b[key]).order()
        assert pairs != base
    assert catalogue.generate(random.Random(5)) == catalogue.generate(random.Random(5))


@pytest.mark.parametrize(
    "name, kind, p",
    [
        ("nonsplit_cartan_7", "nonsplit_cartan", 7),
        ("nonsplit_cartan_normalizer_7", "nonsplit_cartan_normalizer", 7),
        ("split_cartan_normalizer_7", "split_cartan_normalizer", 7),
        ("sl2_7", "sl2", 7),
        ("gl2_7", "gl2", 7),
        ("nonsplit_cartan_11", "nonsplit_cartan", 11),
        ("nonsplit_cartan_normalizer_11", "nonsplit_cartan_normalizer", 11),
        ("split_cartan_normalizer_11", "split_cartan_normalizer", 11),
        ("sl2_11", "sl2", 11),
    ],
)
def test_literal_factors_are_the_named_subgroups(name, kind, p):
    modulus, gens = catalogue.FACTORS[name]
    literal = _group(catalogue.group_doc(modulus, gens))
    assert literal.elements == standard_constructors(kind, p).elements
