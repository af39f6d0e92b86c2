"""Hasse property, PGL2 classification, block-sum checker, subgroup lattice."""

import functools
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from hassecheck.cli import canonical_json
from hassecheck.hasse import (
    HasseResult,
    classify_pgl2,
    element_order,
    enumerate_subgroups,
    global_fixed_points,
    is_hasse,
    lemma31_check,
    sutherland_dihedral,
)
from hassecheck.ffield import least_nonresidue, primitive_root
from hassecheck import hasse
from hassecheck.matgrp import (
    Matrix,
    ProjGroup,
    all_proj_points,
    block_diagonal,
    charpoly,
    closure,
    fixed_points,
    fixed_points_scan,
    has_eigenvalue,
    mat_identity,
    matrix,
    proj_canonical,
    projectivize,
    standard_constructors,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def d6_group(p=7):
    return closure([matrix([[2, 0], [0, 1]], p), matrix([[0, 1], [1, 0]], p)])


def test_trivial_group_not_hasse():
    res = is_hasse(projectivize(closure([matrix([[1, 0], [0, 1]], 7)])))
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
    assert fixed_points([v], 2, 7) == set()
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
    cls = classify_pgl2(projectivize(closure([matrix([[1, 0], [0, 1]], 7)])))
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
        return proj_canonical((g[0] * coords[0] + g[1] * coords[1], g[2] * coords[0] + g[3] * coords[1]), p)

    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            if all({image(g, a), image(g, b)} == {a, b} for g in group.generators):
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


@functools.cache
def pinned_groups() -> list[tuple[str, ProjGroup]]:
    """(name, group) for every lattice class at l <= 7 and every standard constructor at l <= 13."""
    out = []
    for ell in (2, 3, 5, 7):
        lattice = enumerate_subgroups(projectivize(standard_constructors("gl2", ell)))
        out += [(f"lattice-{ell}-{i}", sub) for i, sub in enumerate(lattice)]
    for ell in (2, 3, 5, 7, 11, 13):
        for kind in KINDS if ell > 2 else ["gl2", "sl2"]:
            out.append((f"{kind}-{ell}", projectivize(standard_constructors(kind, ell))))
    return out


def classification_rows() -> list[str]:
    """One canonical JSON line per pinned group: `to_dict()`, `dihedral_n` and `cyclic_n`.

    `tests/golden/classify_pgl2.jsonl` holds these lines as the element-
    multiplying classifier printed them, before orders were read from
    characteristic polynomials.
    """
    rows = []
    for name, group in pinned_groups():
        cls = classify_pgl2(group)
        row = {"group": name, "classification": cls.to_dict()}
        row.update(dihedral_n=cls.dihedral_n, cyclic_n=cls.cyclic_n)
        rows.append(canonical_json(row).rstrip("\n"))
    return rows


def test_classification_matches_golden():
    assert classification_rows() == (GOLDEN / "classify_pgl2.jsonl").read_text().splitlines()


def cyclic_subgroup_oracle(group: ProjGroup, g: tuple) -> frozenset:
    ident = proj_canonical(mat_identity(group.dim), group.modulus)
    out = {ident}
    x = g
    while x != ident:
        out.add(x)
        x = group.mul(x, g)
    return frozenset(out)


def dihedral_structure_oracle(group: ProjGroup, orders: dict):
    """Return n if the group is dihedral of order 2n (n >= 2), else None.

    Dihedral here means: a cyclic index-2 subgroup plus an involution that
    inverts it.  The Klein four-group counts as dihedral with n = 2.
    """
    size = group.order()
    if size % 2 or size < 4:
        return None
    n = size // 2
    ident = proj_canonical(mat_identity(group.dim), group.modulus)
    for g, og in orders.items():
        if og != n:
            continue
        cyc = cyclic_subgroup_oracle(group, g)
        for r in group.elements:
            if r in cyc or orders[r] != 2:
                continue
            # with r^2 = 1, r g r = g^-1 exactly when (r g)^2 = 1
            rg = group.mul(r, g)
            if group.mul(rg, rg) == ident:
                return n
    return None


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_element_order_matches_the_cyclic_subgroup_oracle(ell):
    group = projectivize(standard_constructors("gl2", ell))
    for g in group.elements:
        assert element_order(g, ell) == len(cyclic_subgroup_oracle(group, g)), g


def test_dihedral_n_matches_the_dihedral_structure_oracle():
    for name, group in pinned_groups():
        orders = {g: len(cyclic_subgroup_oracle(group, g)) for g in group.elements}
        assert classify_pgl2(group).dihedral_n == dihedral_structure_oracle(group, orders), name


def test_classify_pgl2_multiplies_no_elements(monkeypatch):
    calls = []
    mul = ProjGroup.mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(ProjGroup, "mul", counted)
    pgl2 = projectivize(standard_constructors("gl2", 7))
    pgl2.mul(pgl2.generators[0], pgl2.generators[0])  # the wrapper counts
    assert len(calls) == 1
    for group in (pgl2, projectivize(d6_group()), projectivize(standard_constructors("borel", 11))):
        classify_pgl2(group)
    assert len(calls) == 1


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
        adj = (c[3], -c[1], -c[2], c[0])  # det(c) * c^-1, the same projective class
        conj = frozenset(base.mul(base.mul(c, h), adj) for h in base.elements)
        gens = tuple(base.mul(base.mul(c, g), adj) for g in base.generators)
        grp = ProjGroup(gens, 2, 7, conj)
        assert is_hasse(grp).is_hasse == is_hasse(base).is_hasse


@pytest.mark.parametrize(
    "first, second, carrier",
    [
        # each factor: (hasse, free of global fixed points)
        ((False, False), (False, False), None),
        ((False, False), (False, True), None),
        ((False, False), (True, False), None),
        ((False, False), (True, True), None),
        ((False, True), (False, False), None),
        ((False, True), (False, True), None),
        ((False, True), (True, False), 1),
        ((False, True), (True, True), 1),
        ((True, False), (False, False), None),
        ((True, False), (False, True), 0),
        ((True, False), (True, False), None),
        ((True, False), (True, True), 0),
        ((True, True), (False, False), None),
        ((True, True), (False, True), 0),
        ((True, True), (True, False), 1),
        ((True, True), (True, True), 0),
    ],
)
def test_lemma31_carrier_truth_table(first, second, carrier):
    assert hasse.lemma31_carrier([first, second]) == carrier


def test_lemma31_examples():
    g = d6_group()
    g2 = closure([matrix([[0, -3], [1, 1]], 7)])  # companion of x^2 - x + 3
    out = lemma31_check(g, g2)
    assert out["predicted"] and out["brute_force"].is_hasse

    triv = closure([matrix([[1, 0], [0, 1]], 7)])
    out = lemma31_check(triv, triv)
    assert not out["predicted"] and not out["brute_force"].is_hasse
    assert out["brute_force"].global_fixed_point is not None

    borel = standard_constructors("borel", 7)
    out = lemma31_check(borel, borel)
    assert not out["predicted"] and not out["brute_force"].is_hasse

    # a Hasse factor does not help against a factor with a global fixed point
    out = lemma31_check(g, borel)
    assert not out["predicted"] and not out["brute_force"].is_hasse


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_lemma31_check_never_holds_the_block_sum():
    # the brute force consumes the classes as they are joined, so its peak
    # stays far below the set of all 12,096 classes of D6xZ_7 + GL2(F_7)
    d6z = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7), matrix([[3, 0], [0, 3]], 7)])
    gl2 = standard_constructors("gl2", 7)
    block = block_diagonal(d6z, gl2)
    held, classes = _traced_peak(lambda: frozenset(block.elements))
    assert len(classes) == block.order() == 36 * 2016 // 6
    peak, out = _traced_peak(lambda: lemma31_check(d6z, gl2))
    assert out["predicted"] and out["brute_force"].is_hasse
    assert peak < held / 4, (peak, held)


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


def test_global_fixed_points_of_borel():
    borel = projectivize(standard_constructors("borel", 7))
    pts = global_fixed_points(borel)
    assert len(pts) == 1


@pytest.mark.parametrize(
    "ell, expected",
    [(2, set()), (3, set()), (7, {3}), (11, {5}), (19, {3, 9}), (23, {11}), (43, {3, 7, 21})],
)
def test_sutherland_dihedral_is_odd_n_above_1_dividing_half_ell_minus_1(ell, expected):
    # (l - 1)/2 is 1, 3, 5, 9, 11 and 21 at the odd primes; l = 2 has none
    assert {n for n in range(1, ell + 2) if sutherland_dihedral(n, ell)} == expected


# ---------------------------------------------------------------------------
# the brute-force Hasse test on block groups


def non_hasse_block_pairs():
    """Factor pairs whose block group is not Hasse.

    The first five block groups have an element fixing no point, the last
    three a point fixed by the whole group.
    """
    triv = closure([matrix([[1, 0], [0, 1]], 7)])
    borel = standard_constructors("borel", 7)
    return [
        (standard_constructors("nonsplit_cartan", 7), standard_constructors("nonsplit_cartan", 7)),
        (closure([matrix([[0, -4], [1, 1]], 11)]), standard_constructors("sl2", 11)),
        (standard_constructors("nonsplit_cartan", 5), standard_constructors("nonsplit_cartan_normalizer", 5)),
        (standard_constructors("nonsplit_cartan", 3), standard_constructors("gl2", 3)),
        (standard_constructors("gl2", 2), standard_constructors("gl2", 2)),
        (triv, triv),
        (borel, borel),
        (d6_group(), borel),
    ]


def lemma31_rows(catalogue) -> list[str]:
    """One canonical JSON line per block-sum pair: the factors, `predicted` and the brute-force result.

    `tests/golden/lemma31_pairs.jsonl` holds these lines for the criterion-4
    catalogue followed by `non_hasse_block_pairs()`, as `lemma31_check`
    printed them when `is_hasse` searched for roots element by element.
    """
    rows = []
    for g1, g2 in [*catalogue, *non_hasse_block_pairs()]:
        out = lemma31_check(g1, g2)
        row = {
            "modulus": g1.modulus,
            "g": [list(g.entries) for g in g1.generators],
            "g2": [list(g.entries) for g in g2.generators],
            "predicted": out["predicted"],
            "brute_force": out["brute_force"].to_dict(),
        }
        rows.append(canonical_json(row).rstrip("\n"))
    return rows


def test_lemma31_check_matches_golden(catalogue):
    assert lemma31_rows(catalogue) == (GOLDEN / "lemma31_pairs.jsonl").read_text().splitlines()


def test_lemma31_check_decides_the_contract(catalogue):
    for g1, g2 in [catalogue[0], *non_hasse_block_pairs()]:
        out = lemma31_check(g1, g2)
        assert out["contract_holds"] is ((not out["predicted"]) or out["brute_force"].is_hasse)
        assert out["contract_holds"] is True


def test_lemma31_prediction_is_exact_on_the_golden_pairs():
    rows = [json.loads(line) for line in (GOLDEN / "lemma31_pairs.jsonl").read_text().splitlines()]
    assert [r["predicted"] for r in rows] == [r["brute_force"]["is_hasse"] for r in rows]
    assert (len(rows), sum(r["predicted"] for r in rows)) == (31, 23)


def lattice_lifts(ell: int) -> list:
    """GL2 lifts of the PGL2(F_ell) lattice classes, each closed without and with the scalars."""
    scalar = matrix([[primitive_root(ell), 0], [0, primitive_root(ell)]], ell)
    lifts = []
    for name, sub in pinned_groups():
        if name.startswith(f"lattice-{ell}-"):
            gens = [Matrix(m, 2, ell) for m in sub.generators] or [matrix([[1, 0], [0, 1]], ell)]
            lifts += [closure(gens), closure([*gens, scalar])]
    return lifts


@pytest.mark.parametrize("ell, pairs", [(3, 484), (5, 1392)])
def test_lemma31_prediction_is_exact_on_full_products_of_lattice_lifts(ell, pairs):
    # for the full product G1 + G2 the prediction is also necessary: the
    # block group is Hasse exactly when lemma31_check predicts it
    lifts = lattice_lifts(ell)
    checked = 0
    for g1 in lifts:
        for g2 in lifts:
            if g1.order() * g2.order() <= 20_000:
                out = lemma31_check(g1, g2)
                assert out["predicted"] == out["brute_force"].is_hasse, (g1.generators, g2.generators)
                checked += 1
    assert checked == pairs


def common_fixed_points_scan(ms, dim: int, p: int) -> set[tuple]:
    """The points fixed_points_scan finds for every matrix in ms; every point for none."""
    common = set(all_proj_points(dim, p))
    for m in ms:
        common &= fixed_points_scan(Matrix(m, dim, p))
    return common


def test_fixed_points_of_each_lattice_class_match_the_scan():
    classes = 0
    for name, group in pinned_groups():
        if name.startswith("lattice-"):
            classes += 1
            want = common_fixed_points_scan(group.generators, 2, group.modulus)
            assert fixed_points(group.generators, 2, group.modulus) == want, name
    # PGL2(F_l) is S3, S4 and S5 at l = 2, 3, 5; the trivial classes have no generators
    assert classes == 4 + 11 + 19 + 23


def test_fixed_points_of_the_golden_factors_and_blocks_match_the_scan(catalogue):
    nonempty = 0
    for g1, g2 in [*catalogue, *non_hasse_block_pairs()]:
        p = g1.modulus
        for group in (g1, g2):
            gens = [g.entries for g in group.generators]
            assert fixed_points(gens, 2, p) == common_fixed_points_scan(gens, 2, p), gens
        block = block_diagonal(g1, g2)
        want = common_fixed_points_scan(block.generators, 4, p)
        assert fixed_points(block.generators, 4, p) == want, block.generators
        nonempty += bool(want)
    assert nonempty == 3  # the last three non-Hasse pairs


def is_hasse_oracle(group: ProjGroup) -> HasseResult:
    """A root search on every element, then a point scan for the global fixed points."""
    dim, p = group.dim, group.modulus
    violator = min((elt for elt in group.elements if not has_eigenvalue(charpoly(elt, dim, p), p)), default=None)
    if violator is not None:
        return HasseResult(False, violating_element=violator)
    common = common_fixed_points_scan(group.generators, dim, p)
    if common:
        return HasseResult(False, global_fixed_point=min(common))
    return HasseResult(True)


def test_is_hasse_matches_the_element_by_element_oracle():
    for name, group in pinned_groups():
        assert is_hasse(group) == is_hasse_oracle(group), name
    for i, (g1, g2) in enumerate(non_hasse_block_pairs()):
        block = block_diagonal(g1, g2)
        res = is_hasse(block)
        assert res == is_hasse_oracle(block), i
        assert (res.violating_element is not None) == (i < 5), i
        assert (res.global_fixed_point is not None) == (i >= 5), i


def test_is_hasse_searches_roots_once_per_distinct_charpoly(monkeypatch, catalogue):
    computed, searched = [], []

    def counted_charpoly(m, dim, p):
        computed.append(m)
        return charpoly(m, dim, p)

    def counted_has_eigenvalue(coeffs, p):
        searched.append(coeffs)
        return has_eigenvalue(coeffs, p)

    monkeypatch.setattr(hasse, "charpoly", counted_charpoly)
    monkeypatch.setattr(hasse, "has_eigenvalue", counted_has_eigenvalue)
    for g1, g2 in [catalogue[0], catalogue[-1], *non_hasse_block_pairs()]:
        block = block_diagonal(g1, g2)
        computed.clear()
        searched.clear()
        is_hasse(block)
        assert sorted(computed) == sorted(block.elements)
        assert len(searched) == len(set(searched))
        assert set(searched) == {charpoly(m, 4, block.modulus) for m in block.elements}
        if block.order() > 1000:
            assert len(searched) < block.order() / 10
