"""Hasse property, PGL2 classification, block-sum checker, subgroup lattice."""

import random

import pytest

from hassecheck.hasse import (
    classify_pgl2,
    enumerate_subgroups,
    global_fixed_points,
    is_hasse,
    lemma31_check,
)
from hassecheck.matgrp import (
    ProjGroup,
    closure,
    identity,
    mat_identity,
    matrix,
    proj_canonical,
    projectivize,
    standard_constructors,
)


def d6_group(p=7):
    return closure([matrix([[2, 0], [0, 1]], p), matrix([[0, 1], [1, 0]], p)])


def test_trivial_group_not_hasse():
    res = is_hasse(projectivize(closure([identity(2, 7)])))
    assert not res.is_hasse
    assert res.global_fixed_point is not None


def test_d6_is_hasse():
    assert is_hasse(projectivize(d6_group())).is_hasse


def test_full_pgl2_not_hasse_with_violator():
    group = projectivize(standard_constructors("gl2", 7))
    res = is_hasse(group)
    assert not res.is_hasse
    v = res.violating_element
    assert v is not None
    # the witness genuinely fixes nothing, and is the least element that does
    from hassecheck.matgrp import Matrix, fixed_points, fixed_points_scan

    assert fixed_points(Matrix(v, 2, 7)) == set()
    assert v == min(e for e in group.elements if not fixed_points_scan(Matrix(e, 2, 7)))


def test_classify_d6():
    cls = classify_pgl2(projectivize(d6_group()))
    assert cls.dickson_label == "dihedral(6)"
    assert cls.stabilized_pair == "split"
    s = cls.sutherland
    assert s.cond1_dihedral_odd_n and s.cond2_ell_3mod4
    assert s.cond3_split_cartan_normalizer and s.cond4_index2_fixes
    assert s.predicted_hasse


def test_classify_split_cartan_normalizer():
    cls = classify_pgl2(projectivize(standard_constructors("split_cartan_normalizer", 7)))
    assert cls.dickson_label == "dihedral(12)"
    assert not cls.sutherland.cond1_dihedral_odd_n  # n = 6 is even


def test_classify_trivial():
    cls = classify_pgl2(projectivize(closure([identity(2, 7)])))
    assert cls.dickson_label == "cyclic(1)"
    assert not cls.sutherland.cond1_dihedral_odd_n


def test_classify_nonsplit_pair():
    cls = classify_pgl2(projectivize(standard_constructors("nonsplit_cartan", 7)))
    assert cls.stabilized_pair == "nonsplit"


def test_conjugation_invariance():
    rng = random.Random(5)
    base = projectivize(d6_group())
    gl = sorted(projectivize(standard_constructors("gl2", 7)).elements)
    for _ in range(100):
        c = gl[rng.randrange(len(gl))]
        cinv = base.inv(c)
        conj = frozenset(base.mul(base.mul(c, h), cinv) for h in base.elements)
        gens = tuple(base.mul(base.mul(c, g), cinv) for g in base.generators)
        grp = ProjGroup(gens, 2, 7, conj)
        assert is_hasse(grp).is_hasse == is_hasse(base).is_hasse


def test_lemma31_examples():
    g = d6_group()
    g2 = closure([matrix([[0, -3], [1, 1]], 7)])  # companion of x^2 - x + 3
    out = lemma31_check(g, g2)
    assert out["predicted"] and out["brute_force"].is_hasse

    triv = closure([identity(2, 7)])
    out = lemma31_check(triv, triv)
    assert not out["predicted"] and not out["brute_force"].is_hasse
    assert out["brute_force"].global_fixed_point is not None

    borel = standard_constructors("borel", 7)
    out = lemma31_check(borel, borel)
    assert not out["predicted"] and not out["brute_force"].is_hasse

    # a Hasse factor does not help against a factor with a global fixed point
    out = lemma31_check(g, borel)
    assert not out["predicted"] and not out["brute_force"].is_hasse


def test_enumerate_pgl2_f2():
    ambient = projectivize(standard_constructors("gl2", 2))
    assert ambient.order() == 6
    subs = enumerate_subgroups(ambient)
    assert len(subs) == 4  # 1, C2, C3, S3
    assert sorted(s.order() for s in subs) == [1, 2, 3, 6]
    assert not any(is_hasse(s).is_hasse for s in subs)


def enumerate_subgroups_oracle(ambient: ProjGroup) -> list[ProjGroup]:
    """The lattice by exhaustive extension: close sub | {g} for every g not in sub.

    Every element of every class is a generator of the closure, and every g
    outside a class is tried; `enumerate_subgroups` must find the same
    classes, in the same order, built from the same generators.
    """
    n = ambient.order()
    elements = sorted(ambient.elements)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[ambient.mul(a, b)] for b in elements] for a in elements]
    ident = index[proj_canonical(tuple(mat_identity(ambient.dim)), ambient.modulus)]
    inv = [row.index(ident) for row in table]

    def close(gens):
        seen, frontier = {ident}, [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = table[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def conjugates(sub):
        return {frozenset(table[table[c][h]][inv[c]] for h in sub) for c in range(n)}

    trivial = frozenset({ident})
    seen = set(conjugates(trivial))
    gens_of = {trivial: ()}
    queue = [trivial]
    while queue:
        sub = queue.pop()
        for g in range(n):
            if g in sub:
                continue
            ext = close(sub | {g})
            if ext in seen:
                continue
            seen |= conjugates(ext)
            gens_of[ext] = gens_of[sub] + (g,)
            queue.append(ext)
    reps = sorted(gens_of, key=lambda s: (len(s), sorted(elements[i] for i in s)))
    return [
        ProjGroup(
            tuple(elements[i] for i in gens_of[s]),
            ambient.dim,
            ambient.modulus,
            frozenset(elements[i] for i in s),
        )
        for s in reps
    ]


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_enumerate_subgroups_matches_the_exhaustive_oracle(ell):
    ambient = projectivize(standard_constructors("gl2", ell))
    got = [(s.elements, s.generators) for s in enumerate_subgroups(ambient)]
    want = [(s.elements, s.generators) for s in enumerate_subgroups_oracle(ambient)]
    assert got == want


def test_enumerate_bound_enforced():
    ambient = projectivize(standard_constructors("gl2", 7))
    with pytest.raises(ValueError):
        enumerate_subgroups(ambient, bound=100)


def test_global_fixed_points_of_borel():
    borel = projectivize(standard_constructors("borel", 7))
    pts = global_fixed_points(borel)
    assert len(pts) == 1
