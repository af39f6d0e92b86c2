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
from hassecheck.ffield import least_nonresidue
from hassecheck.matgrp import (
    ProjGroup,
    all_proj_points,
    closure,
    identity,
    mat_identity,
    matrix,
    point_canonical,
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


def pair_stabilized_oracle(group: ProjGroup) -> str:
    """The point-pair scan, p odd: split pairs in P^1(F_p) first, then nonsplit.

    A nonsplit pair is {(x : 1), (conj x : 1)} for x = a + b*w in F_p[w] with
    w^2 = s the least non-residue and b != 0, held as the int pair (a, b); g
    sends x to (g0 x + g1) / (g2 x + g3).
    """
    p = group.modulus
    pts = all_proj_points(2, p)

    def image(g, coords):
        return point_canonical((g[0] * coords[0] + g[1] * coords[1], g[2] * coords[0] + g[3] * coords[1]), p)

    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if all({image(g, a.coords), image(g, b.coords)} == {a, b} for g in group.generators):
                return "split"
    s = least_nonresidue(p)

    def mul(x, y):
        return ((x[0] * y[0] + s * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def inv(x):
        n = pow(x[0] * x[0] - s * x[1] * x[1], -1, p)
        return (x[0] * n % p, -x[1] * n % p)

    def moebius(g, x):
        return mul(((g[0] * x[0] + g[1]) % p, g[0] * x[1] % p), inv(((g[2] * x[0] + g[3]) % p, g[2] * x[1] % p)))

    for a0 in range(p):
        for b0 in range(1, p):
            pair = {(a0, b0), (a0, p - b0)}
            if all({moebius(g, x) for x in pair} == pair for g in group.generators):
                return "nonsplit"
    return "none"


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_stabilized_pair_matches_the_point_pair_scan_on_the_lattice(ell):
    for sub in enumerate_subgroups(projectivize(standard_constructors("gl2", ell))):
        assert classify_pgl2(sub).stabilized_pair == pair_stabilized_oracle(sub), sub.generators


KINDS = [
    "split_cartan",
    "split_cartan_normalizer",
    "borel",
    "gl2",
    "nonsplit_cartan",
    "nonsplit_cartan_normalizer",
    "sl2",
]


@pytest.mark.parametrize("ell", [11, 13])
@pytest.mark.parametrize("kind", KINDS)
def test_stabilized_pair_matches_the_point_pair_scan_on_the_constructors(kind, ell):
    group = projectivize(standard_constructors(kind, ell))
    assert classify_pgl2(group).stabilized_pair == pair_stabilized_oracle(group)


def test_stabilized_pair_at_ell_2():
    # PGL2(F_2) preserves X^2 + XY + Y^2, whose roots are the two points of
    # P^1(F_4) outside P^1(F_2)
    assert classify_pgl2(projectivize(standard_constructors("gl2", 2))).stabilized_pair == "nonsplit"
    # the unipotent C2 swaps (0 : 1) and (1 : 1)
    c2 = projectivize(closure([matrix([[1, 1], [0, 1]], 2)]))
    assert c2.order() == 2
    assert classify_pgl2(c2).stabilized_pair == "split"


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
