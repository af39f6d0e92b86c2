"""Matrix groups over F_l: closures, projectivisation, fixed points."""

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
    identity,
    mat_det,
    matrix,
    proj_canonical,
    projectivize,
    standard_constructors,
)


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
    assert closure([identity(2, 7)]).order() == 1
    g = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    assert g.order() == 18


def test_closure_rejects_singular_generator():
    with pytest.raises(SingularMatrixError):
        closure([matrix([[1, 1], [1, 1]], 7)])


def test_closure_cap_is_a_hard_error():
    gens = standard_constructors("gl2", 7).generators
    with pytest.raises(ClosureCapError):
        closure(gens, cap=100)


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


def test_fixed_points_examples():
    assert len(fixed_points(identity(2, 7))) == 8
    companion = matrix([[0, -3], [1, 1]], 7)  # x^2 - x + 3, no root mod 7
    assert fixed_points(companion) == set()
    diag = matrix([[2, 0], [0, 1]], 7)
    assert sorted(p.coords for p in fixed_points(diag)) == [(0, 1), (1, 0)]


def test_fixed_points_scan_agrees():
    rng = random.Random(7)
    for _ in range(40):
        while True:
            m = matrix([[rng.randrange(7) for _ in range(2)] for _ in range(2)], 7)
            if m.det() != 0:
                break
        assert fixed_points(m) == fixed_points_scan(m)


def test_fixed_points_scalar_invariance():
    rng = random.Random(11)
    for _ in range(25):
        while True:
            m = matrix([[rng.randrange(7) for _ in range(2)] for _ in range(2)], 7)
            if m.det() != 0:
                break
        for lam in range(1, 7):
            scaled = matrix([[lam * e for e in row] for row in m.rows()], 7)
            assert fixed_points(m) == fixed_points(scaled)


def test_block_diagonal_order_multiplicative():
    triv = closure([identity(2, 7)])
    assert block_diagonal(triv, triv).order() == 1
    g18 = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    cyc = closure([matrix([[0, -3], [1, 1]], 7)])
    assert block_diagonal(g18, cyc).order() == 18 * cyc.order()
    c4 = closure([matrix([[0, -1], [1, 0]], 7)])
    assert block_diagonal(c4, c4).order() == 16


def test_standard_constructors():
    assert standard_constructors("split_cartan_normalizer", 7).order() == 72
    assert standard_constructors("borel", 7).order() == 252
    assert standard_constructors("split_cartan", 7).order() == 36
    assert standard_constructors("nonsplit_cartan", 7).order() == 48
    assert standard_constructors("nonsplit_cartan_normalizer", 7).order() == 96
    assert standard_constructors("sl2", 7).order() == 336
    c4 = closure([matrix([[0, -1], [1, 0]], 7)])
    assert standard_constructors("wreath_s2", 7, inner=c4).order() == 32
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


def test_fixed_point_existence_matches_charpoly_roots_on_gl2_f7():
    # cross-check on every element of the preimage of PGL2(F7)
    gl2 = standard_constructors("gl2", 7)
    assert gl2.order() == 2016
    for elt in gl2.elements:
        m = Matrix(elt, 2, 7)
        assert bool(fixed_points(m)) == has_eigenvalue(elt, 2, 7) == has_eigenvalue_scan(elt, 2, 7)


def test_has_eigenvalue_matches_the_scan_on_a_dim4_block_group():
    ns = standard_constructors("nonsplit_cartan", 7)
    d6 = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    seen = set()
    for g1, g2 in ((ns, ns), (d6, ns)):
        group = projectivize(block_diagonal(g1, g2))
        verdicts = [has_eigenvalue(e, 4, 7) for e in group.elements]
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
        assert has_eigenvalue(m, 4, p) == has_eigenvalue_scan(m, 4, p), m
        if mat_det(m, 4, p) == 0:
            singular += 1
        elif p <= 3 or scanned < 25:
            scanned += 1
            assert bool(fixed_points_scan(Matrix(m, 4, p))) == has_eigenvalue(m, 4, p), m
    assert singular > 0


@pytest.mark.parametrize("dim", [2, 4])
def test_charpoly_matches_determinants(dim):
    # det(lam*I - m) = det(m - lam*I) in even dim; its values at dim points
    # pin all dim coefficients, and a large prime keeps the integer identity
    # visible
    p = 10007
    rng = random.Random(dim)
    for _ in range(200):
        m = tuple(rng.randrange(p) for _ in range(dim * dim))
        coeffs = charpoly(m, dim, p)
        for lam in range(dim + 1):
            value = lam**dim + sum((-1) ** k * c * lam ** (dim - k) for k, c in enumerate(coeffs, 1))
            assert value % p == mat_det(shifted(m, dim, lam, p), dim, p)


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
