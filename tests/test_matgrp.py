"""Matrix groups over F_l: closures, projectivisation, fixed points."""

import itertools
import math
import random

import pytest

from hassecheck.matgrp import (
    ClosureCapError,
    Matrix,
    MatrixGroup,
    SingularMatrixError,
    all_proj_points,
    block_diagonal,
    charpoly,
    closure,
    fixed_points,
    fixed_points_scan,
    has_eigenvalue,
    kernel_basis,
    mat_det,
    mat_mul,
    matrix,
    proj_canonical,
    projectivize,
    standard_constructors,
    subspace_points,
)
from hassecheck import matgrp


def shifted(m: tuple, dim: int, lam: int, p: int) -> tuple:
    """m - lam * I, reduced mod p."""
    out = list(m)
    for i in range(dim):
        out[i * dim + i] -= lam
    return tuple(x % p for x in out)


def has_eigenvalue_scan(m: tuple, dim: int, p: int) -> bool:
    """Oracle for has_eigenvalue: one determinant of m - lam*I per lam in F_p."""
    return any(mat_det(shifted(m, dim, lam, p), dim, p) == 0 for lam in range(p))


def test_closure_examples():
    assert closure([matrix([[0, -1], [1, 0]], 7)]).order() == 4
    assert closure([matrix([[1, 0], [0, 1]], 7)]).order() == 1
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    assert g.order() == 18


def test_closure_rejects_singular_generator():
    with pytest.raises(SingularMatrixError):
        closure([matrix([[1, 1], [1, 1]], 7)])


def test_closure_cap_is_a_hard_error(monkeypatch):
    gens = standard_constructors("gl2", 7).generators
    monkeypatch.setattr(matgrp, "DEFAULT_CAP", 100)  # read at call time
    with pytest.raises(ClosureCapError, match="cap of 100 elements"):
        closure(gens)
    assert closure([matrix([[0, -1], [1, 0]], 7)]).order() == 4  # under the cap


def test_closure_generator_order_independent():
    gens = [matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7), matrix([[1, 1], [0, 1]], 7)]
    a = closure(gens).elements
    b = closure(gens[::-1]).elements
    assert a == b


def test_projectivize_examples():
    scalars = closure([matrix([[3, 0], [0, 3]], 7)])
    assert projectivize(scalars).order() == 1
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    assert projectivize(g).order() == 6
    assert projectivize(standard_constructors("gl2", 7)).order() == 336


def test_projective_point_count():
    assert len(all_proj_points(2, 7)) == 8
    assert len(all_proj_points(4, 7)) == 400
    assert len(all_proj_points(4, 11)) == 1464


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_projective_points_are_the_sorted_canonical_classes(dim, p):
    pts = all_proj_points(dim, p)
    assert pts == sorted(pts)
    assert len(pts) == (p**dim - 1) // (p - 1)
    classes = {proj_canonical(v, p) for v in itertools.product(range(p), repeat=dim) if any(v)}
    assert pts == sorted(classes)


def test_fixed_points_examples():
    assert len(fixed_points([(1, 0, 0, 1)], 2, 7)) == 8
    companion = (0, 4, 1, 1)  # x^2 - x + 3, no root mod 7
    assert fixed_points([companion], 2, 7) == set()
    diag = (2, 0, 0, 1)
    assert sorted(fixed_points([diag], 2, 7)) == [(0, 1), (1, 0)]


def test_fixed_points_scan_agrees():
    rng = random.Random(7)
    for _ in range(40):
        while True:
            m = matrix([[rng.randrange(7) for _ in range(2)] for _ in range(2)], 7)
            if m.det() != 0:
                break
        assert fixed_points([m.entries], 2, 7) == fixed_points_scan(m)


def test_fixed_points_of_no_matrices_is_every_point():
    for dim, p in ((2, 2), (2, 7), (4, 3)):
        assert fixed_points([], dim, p) == set(all_proj_points(dim, p))


@pytest.mark.parametrize(
    "ms",
    [[(1, 1, 1, 1)], [(1, 0, 0, 1), (2, 4, 1, 2)], [(0, 4, 1, 1), (0, 0, 0, 0)]],
    ids=["alone", "second", "after-empty"],
)
def test_fixed_points_rejects_a_singular_matrix(ms):
    # also when the matrices before it leave no common fixed point
    with pytest.raises(SingularMatrixError):
        fixed_points(ms, 2, 7)


def null_space_scan(m: tuple, dim: int, p: int) -> set[tuple]:
    """Every vector v of F_p^dim with m.v = 0, for the len(m) // dim rows of m."""
    rows = [m[i : i + dim] for i in range(0, len(m), dim)]
    return {
        v for v in itertools.product(range(p), repeat=dim)
        if all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in rows)
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_basis_on_any_number_of_rows_matches_the_null_space(p):
    rng = random.Random(80 + p)
    for dim in (2, 4):
        for nrows in range(9):
            for _ in range(12):
                # rows drawn from the span of `rank` random rows, so that
                # tall systems keep a nonzero null space; entries outside
                # [0, p) too
                rank = rng.randrange(min(nrows, dim) + 1)
                base = [[rng.randrange(p) for _ in range(dim)] for _ in range(rank)]
                m = []
                for _ in range(nrows):
                    cs = [rng.randrange(p) for _ in base]
                    m += [sum(c * row[j] for c, row in zip(cs, base)) + p * rng.randrange(-2, 3) for j in range(dim)]
                basis = kernel_basis(tuple(m), dim, p)
                null = null_space_scan(tuple(m), dim, p)
                assert span_vectors(basis, dim, p) == null, (m, basis)
                assert len(null) == p ** len(basis), (m, basis)  # the basis is independent


def test_fixed_points_scalar_invariance():
    rng = random.Random(11)
    for _ in range(25):
        while True:
            m = matrix([[rng.randrange(7) for _ in range(2)] for _ in range(2)], 7)
            if m.det() != 0:
                break
        for lam in range(1, 7):
            scaled = matrix([[lam * e for e in row] for row in m.rows()], 7)
            assert fixed_points([m.entries], 2, 7) == fixed_points([scaled.entries], 2, 7)


def projective_block_order(g1, g2) -> int:
    """|G1||G2| / |{lam : lam*I in G1 and in G2}|, the order of G1 + G2 in PGL_4."""
    p = g1.modulus
    common = [lam for lam in range(1, p) if (lam, 0, 0, lam) in g1.elements & g2.elements]
    return g1.order() * g2.order() // len(common)


def test_block_diagonal_order_multiplicative():
    triv = closure([matrix([[1, 0], [0, 1]], 7)])
    assert block_diagonal(triv, triv).order() == 1
    g18 = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    cyc = closure([matrix([[0, -3], [1, 1]], 7)])
    c4 = closure([matrix([[0, -1], [1, 0]], 7)])
    gl2 = standard_constructors("gl2", 7)
    for g1, g2 in ((g18, cyc), (cyc, g18), (c4, c4), (g18, c4), (gl2, c4)):
        assert block_diagonal(g1, g2).order() == projective_block_order(g1, g2)
    assert block_diagonal(c4, c4).order() == 8  # -I + -I is the identity class


def test_block_diagonal_joins_each_class_once():
    # a + b and s*a + s*b are one class for every common scalar s*I (here
    # -I, and all six scalars for D6xZ_7), so the tuples a pass over the
    # streamed elements joins are exactly the classes: pairwise distinct and
    # as many as the order
    c4 = closure([matrix([[0, -1], [1, 0]], 7)])
    gl2 = standard_constructors("gl2", 7)
    d6z = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7), matrix([[3, 0], [0, 3]], 7)])
    for g1, g2 in ((c4, c4), (gl2, c4), (d6z, gl2)):
        block = block_diagonal(g1, g2)
        joined = list(block.elements)
        assert len(set(joined)) == len(joined) == block.order() == projective_block_order(g1, g2), (
            g1.order(), g2.order())
        assert list(block.elements) == joined  # a second pass joins the same classes again


def test_block_diagonal_cap_is_a_hard_error(monkeypatch):
    gl2 = standard_constructors("gl2", 11)
    with pytest.raises(ClosureCapError):
        block_diagonal(gl2, gl2)
    # the cap is read at call time and bounds |G1| * |G2|
    c4 = closure([matrix([[0, -1], [1, 0]], 7)])
    d6 = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    monkeypatch.setattr(matgrp, "DEFAULT_CAP", 4 * 18 - 1)
    with pytest.raises(ClosureCapError, match="cap of 71 elements"):
        block_diagonal(c4, d6)
    monkeypatch.setattr(matgrp, "DEFAULT_CAP", 4 * 18)
    assert block_diagonal(c4, d6).modulus == 7


def test_standard_constructors():
    assert standard_constructors("split_cartan_normalizer", 7).order() == 72
    assert standard_constructors("borel", 7).order() == 252
    assert standard_constructors("split_cartan", 7).order() == 36
    assert standard_constructors("nonsplit_cartan", 7).order() == 48
    assert standard_constructors("nonsplit_cartan_normalizer", 7).order() == 96
    assert standard_constructors("sl2", 7).order() == 336
    with pytest.raises(ValueError):
        standard_constructors("sporadic", 7)


@pytest.mark.parametrize(
    "p, gen",
    [(3, (1, 2, 1, 1)), (5, (1, 4, 2, 1)), (7, (1, 3, 1, 1)), (11, (1, 10, 5, 1)), (13, (1, 4, 2, 1))],
)
def test_nonsplit_cartan_generator_is_pinned(p, gen):
    # [[a, b*s], [b, a]] for the first a + b*w of order p^2 - 1, w^2 = s
    cartan = standard_constructors("nonsplit_cartan", p)
    assert [g.entries for g in cartan.generators] == [gen]
    assert cartan.order() == p * p - 1
    normalizer = standard_constructors("nonsplit_cartan_normalizer", p)
    assert [g.entries for g in normalizer.generators] == [gen, (1, 0, 0, p - 1)]
    assert normalizer.order() == 2 * (p * p - 1)


def test_json_round_trip():
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    g2 = MatrixGroup.from_json(g.to_json())
    assert g2.elements == g.elements
    assert g2.to_json() == g.to_json()


@pytest.mark.parametrize("field, value", [("modulus", 7.0), ("modulus", True), ("dim", 2.0), ("dim", "2")])
def test_matrix_rejects_a_non_int_modulus_or_dim(field, value):
    args = {"entries": (1, 0, 0, 1), "dim": 2, "modulus": 7, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer, not {value!r}"):
        Matrix(**args)


def test_fixed_point_existence_matches_charpoly_roots_on_gl2_f7():
    # cross-check on every element of the preimage of PGL2(F7)
    gl2 = standard_constructors("gl2", 7)
    assert gl2.order() == 2016
    for elt in gl2.elements:
        assert bool(fixed_points([elt], 2, 7)) == has_eigenvalue(charpoly(elt, 2, 7), 7) == has_eigenvalue_scan(elt, 2, 7)


def test_has_eigenvalue_matches_the_scan_on_a_dim4_block_group():
    ns = standard_constructors("nonsplit_cartan", 7)
    d6 = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    seen = set()
    for g1, g2 in ((ns, ns), (d6, ns)):
        group = block_diagonal(g1, g2)
        verdicts = [has_eigenvalue(charpoly(e, 4, 7), 7) for e in group.elements]
        assert verdicts == [has_eigenvalue_scan(e, 4, 7) for e in group.elements]
        seen.update(verdicts)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_has_eigenvalue_matches_the_scan_on_random_dim4_matrices(p):
    # p <= dim catches a formula that divides; singular matrices included
    rng = random.Random(p)
    singular = scanned = 0
    for _ in range(2000):
        m = tuple(rng.randrange(p) for _ in range(16))
        assert has_eigenvalue(charpoly(m, 4, p), p) == has_eigenvalue_scan(m, 4, p), m
        if mat_det(m, 4, p) == 0:
            singular += 1
        elif p <= 3 or scanned < 25:
            scanned += 1
            assert bool(fixed_points_scan(Matrix(m, 4, p))) == has_eigenvalue(charpoly(m, 4, p), p), m
    assert singular > 0


def assert_charpoly_matches_determinants(m: tuple, dim: int, p: int):
    # det(lam*I - m) = det(m - lam*I) in even dim; its values at dim + 1
    # points pin all dim coefficients
    coeffs = charpoly(m, dim, p)
    for lam in range(dim + 1):
        value = lam**dim + sum((-1) ** k * c * lam ** (dim - k) for k, c in enumerate(coeffs, 1))
        assert value % p == mat_det(shifted(m, dim, lam, p), dim, p), m


@pytest.mark.parametrize("dim", [2, 4])
def test_charpoly_matches_determinants(dim):
    # a large prime keeps the integer identity visible
    p = 10007
    rng = random.Random(dim)
    for _ in range(200):
        assert_charpoly_matches_determinants(tuple(rng.randrange(p) for _ in range(dim * dim)), dim, p)


OFF_BLOCK = (2, 3, 6, 7, 8, 9, 12, 13)  # the entries of a dim-4 matrix outside its two diagonal 2x2 blocks


def block_matrix(a: tuple, b: tuple) -> tuple:
    """The dim-4 block sum of two 2x2 matrices."""
    return (a[0], a[1], 0, 0, a[2], a[3], 0, 0, 0, 0, b[0], b[1], 0, 0, b[2], b[3])


@pytest.mark.parametrize("p", [2, 3])
def test_block_charpoly_matches_the_dense_formula_on_every_block_matrix(p):
    # swapping basis vectors 1 and 2 is a similarity, so it keeps the
    # polynomial, and it moves a01, a10, a23 and a32 off the blocks: the
    # conjugate of a non-diagonal block matrix takes the dense formula
    swap = (0, 2, 1, 3)
    dense = 0
    for entries in itertools.product(range(p), repeat=8):
        m = block_matrix(entries[:4], entries[4:])
        conj = tuple(m[swap[i] * 4 + swap[j]] for i in range(4) for j in range(4))
        if any(conj[i] for i in OFF_BLOCK):
            dense += 1
            assert charpoly(m, 4, p) == charpoly(conj, 4, p), m
        else:  # diagonal, and so is its conjugate: the coefficients are the elementary symmetric sums
            diag = m[::5]
            expected = tuple(
                sum(math.prod(c) for c in itertools.combinations(diag, k)) % p for k in range(1, 5)
            )
            assert charpoly(m, 4, p) == expected, m
    assert dense == p**8 - p**4


def test_block_and_near_block_charpolys_match_determinants():
    p = 10007
    rng = random.Random(31)
    for _ in range(200):
        m = block_matrix(*(tuple(rng.randrange(p) for _ in range(4)) for _ in range(2)))
        assert_charpoly_matches_determinants(m, 4, p)
        # one entry off the blocks leaves m block-triangular, whose polynomial
        # is still the blocks' product; one entry above and one below the
        # blocks is not, so a block test that skips such a pair fails here
        upper, lower = OFF_BLOCK[:4], OFF_BLOCK[4:]
        for nonzero in [(i,) for i in OFF_BLOCK] + list(itertools.product(upper, lower)):
            near = list(m)
            for i in nonzero:
                near[i] = rng.randrange(1, p)
            assert_charpoly_matches_determinants(tuple(near), 4, p)


def test_proj_canonical_first_nonzero_entry_is_one():
    p = 7
    for m in [(0, 3, 2, 5), (1, 4, 0, 6), (0, 0, 0, 1), (8, -1, 14, 3), (1, 9, 0, 0)]:
        c = proj_canonical(m, p)
        assert next(e for e in c if e) == 1 and all(0 <= e < p for e in c)
        assert any(all((k * x - y) % p == 0 for x, y in zip(m, c)) for k in range(1, p))
    canonical = (1, 4, 0, 6)
    assert proj_canonical(canonical, p) is canonical
    with pytest.raises(SingularMatrixError):
        proj_canonical((0, 7, 0, 0), p)


def mat_mul_oracle(a: tuple, b: tuple, dim: int, p: int) -> tuple:
    """Triple-loop product: entry (i, j) is the sum over k of a[i][k] * b[k][j], mod p."""
    out = []
    for i in range(dim):
        for j in range(dim):
            total = 0
            for k in range(dim):
                total += a[i * dim + k] * b[k * dim + j]
            out.append(total % p)
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_mat_mul_matches_the_triple_loop(p):
    rng = random.Random(p)
    for dim, count in ((2, 2000), (4, 200)):
        for _ in range(count):
            # entries outside [0, p) too: negative and several multiples of p
            a = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(dim * dim))
            b = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(dim * dim))
            assert mat_mul(a, b, dim, p) == mat_mul_oracle(a, b, dim, p), (a, b)


def span_vectors(basis: list[tuple], dim: int, p: int) -> set[tuple]:
    """Every vector of the span of `basis`, zero included."""
    vecs = {(0,) * dim}
    for v in basis:
        vecs = {tuple((x + c * y) % p for x, y in zip(w, v)) for w in vecs for c in range(p)}
    return vecs


def subspace_points_oracle(basis: list[tuple], dim: int, p: int) -> set[tuple]:
    """The projectivised span from all p^k coefficient vectors."""
    pts = set()
    k = len(basis)
    if k == 0:
        return pts

    def combos(i, acc):
        if i == k:
            if any(acc):
                pts.add(proj_canonical(tuple(acc), p))
            return
        for c in range(p):
            combos(i + 1, [(x + c * y) % p for x, y in zip(acc, basis[i])])

    combos(0, [0] * dim)
    return pts


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subspace_points_matches_all_coefficient_vectors(p, monkeypatch):
    canonicalised = []

    def counted(m, q):
        canonicalised.append(m)
        return proj_canonical(m, q)

    monkeypatch.setattr(matgrp, "proj_canonical", counted)
    rng = random.Random(50 + p)
    independent = 0
    for k in range(5):
        for trial in range(12):
            if trial < 3:  # unit vectors of a coordinate subspace, scaled
                basis = [tuple(rng.randrange(1, p) if j == i else 0 for j in range(4)) for i in range(k)]
            else:
                basis = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(k)]
            canonicalised.clear()
            got = subspace_points(basis, 4, p)
            assert got == subspace_points_oracle(basis, 4, p), basis
            if len(span_vectors(basis, 4, p)) == p**k:  # the basis is independent
                independent += 1
                # one coefficient vector per point: those whose first nonzero entry is 1
                assert len(got) == len(canonicalised) == (p**k - 1) // (p - 1), basis
    assert independent >= 30
