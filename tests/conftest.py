"""Fixtures shared by more than one test module."""

import pytest

from hassecheck.matgrp import closure, matrix, standard_constructors


def block_sum_catalogue():
    """Block-sum catalogue of acceptance criterion 4: (hasse factor, no-global-fixed-point factor) pairs."""
    pairs = []
    h1 = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    h2 = closure(
        [matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7), matrix([[3, 0], [0, 3]], 7)]
    )
    others7 = [
        standard_constructors("nonsplit_cartan", 7),
        standard_constructors("nonsplit_cartan_normalizer", 7),
        standard_constructors("split_cartan_normalizer", 7),
        standard_constructors("sl2", 7),
        standard_constructors("gl2", 7),
        closure([matrix([[0, -3], [1, 1]], 7)]),
    ]
    for h in (h1, h2):
        for g in others7:
            pairs.append((h, g))
    pairs.append((h1, h1))
    h3 = closure([matrix([[4, 0], [0, 1]], 11), matrix([[0, 1], [1, 0]], 11)])
    h4 = closure([matrix([[8, 0], [0, 2]], 11), matrix([[0, 1], [1, 0]], 11)])
    others11 = [
        standard_constructors("nonsplit_cartan", 11),
        standard_constructors("nonsplit_cartan_normalizer", 11),
        standard_constructors("split_cartan_normalizer", 11),
        standard_constructors("sl2", 11),
        closure([matrix([[0, -4], [1, 1]], 11)]),
    ]
    for h in (h3, h4):
        for g in others11:
            pairs.append((h, g))
    return pairs


@pytest.fixture(scope="session")
def catalogue():
    return block_sum_catalogue()
