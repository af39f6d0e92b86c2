"""Quadratic coefficient arithmetic, reduction maps, Frobenius data."""

import random
from fractions import Fraction

import pytest

from hassecheck.ffield import FieldElement
from hassecheck.lmfdb import DataSource, fetch_form
from hassecheck.matgrp import closure, matrix, projectivize
from hassecheck.nfdata import (
    BadDenominatorError,
    FrobData,
    NewformRecord,
    QuadElement,
    RamifiedPrimeError,
    frob_charpoly,
    projective_frob_order,
    split_primes,
    sturm_bound,
)

SQRT2 = (-2, 0, 1)  # x^2 - 2
ZETA6 = (1, -1, 1)  # x^2 - x + 1


def q2(c0, c1):
    return QuadElement.make(c0, c1, -2, 0)


def qz(c0, c1):
    return QuadElement.make(c0, c1, 1, -1)


def test_split_primes_examples():
    maps = split_primes(SQRT2, 7)
    assert (maps[0].root, maps[1].root) == (3, 4)
    maps = split_primes(ZETA6, 7)
    assert (maps[0].root, maps[1].root) == (3, 5)
    assert split_primes(SQRT2, 5) is None
    with pytest.raises(RamifiedPrimeError):
        split_primes(ZETA6, 3)


def test_ideal_display():
    maps = split_primes(SQRT2, 7)
    assert maps[0].ideal_display() == "(1 + 2b)"
    assert maps[1].ideal_display() == "(1 - 2b)"


def test_reduce_examples():
    r3, r4 = split_primes(SQRT2, 7)
    assert r3.apply(q2(0, 3)).value == 2  # 3*sqrt2 at the (1+2b) ideal
    r5 = split_primes(ZETA6, 7)[1]
    assert r5.apply(qz(-1, 3)).value == 0
    assert r3.apply(q2(0, 0)).value == 0


def test_reduce_rejects_bad_denominator():
    r3 = split_primes(SQRT2, 7)[0]
    x = QuadElement(Fraction(1, 7), Fraction(0), -2, 0)
    with pytest.raises(BadDenominatorError):
        r3.apply(x)


def test_reduce_is_ring_homomorphism():
    rng = random.Random(1)
    r3 = split_primes(SQRT2, 7)[0]
    for _ in range(1000):
        x = q2(rng.randrange(-50, 50), rng.randrange(-50, 50))
        y = q2(rng.randrange(-50, 50), rng.randrange(-50, 50))
        assert r3.apply(x + y) == r3.apply(x) + r3.apply(y)
        assert r3.apply(x * y) == r3.apply(x) * r3.apply(y)


def test_conjugation_swaps_the_two_maps():
    rng = random.Random(2)
    r3, r4 = split_primes(SQRT2, 7)
    for _ in range(200):
        x = q2(rng.randrange(-50, 50), rng.randrange(-50, 50))
        assert r3.apply(x.conjugate()) == r4.apply(x)
        assert r4.apply(x.conjugate()) == r3.apply(x)


def test_sturm_bound_examples():
    assert sturm_bound(189, 2) == 48
    assert sturm_bound(1, 2) == 0
    assert sturm_bound(49, 2) == 9


def test_frob_charpoly_on_fixture():
    rec = fetch_form(DataSource(mode="fixtures"), "7938.2.a.bk")
    r3 = split_primes(SQRT2, 7)[0]
    fd = frob_charpoly(rec, 11, r3)
    assert (fd.trace, fd.det) == (2, 4)
    with pytest.raises(ValueError):
        frob_charpoly(rec, 7, r3)  # p divides l*N
    with pytest.raises(ValueError):
        frob_charpoly(rec, 2, r3)


def test_frob_missing_coefficient():
    rec = fetch_form(DataSource(mode="fixtures"), "7938.2.a.bk")
    r3 = split_primes(SQRT2, 7)[0]
    from hassecheck.nfdata import DataCoverageError

    with pytest.raises(DataCoverageError):
        rec.coefficient(1013)


def test_projective_frob_orders():
    f7 = lambda v: FieldElement(v, 7)  # noqa: E731
    assert projective_frob_order(FrobData(11, f7(2), f7(4))) == 3
    assert projective_frob_order(FrobData(11, f7(0), f7(3))) == 2
    scalar = FrobData(11, f7(4), f7(4))
    assert scalar.repeated and projective_frob_order(scalar) == 1
    assert projective_frob_order(FrobData(11, f7(1), f7(4))) == 4  # nonsplit ratio


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_projective_frob_order_is_the_companion_matrix_order(ell):
    for t in range(ell):
        for d in range(1, ell):
            fd = FrobData(2, FieldElement(t, ell), FieldElement(d, ell))
            if fd.repeated:
                continue
            companion = closure([matrix([[t, -d], [1, 0]], ell)])
            assert projective_frob_order(fd) == projectivize(companion).order(), (t, d)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_split_primes_finds_the_roots_in_ascending_order(ell):
    for m0 in range(ell):
        for m1 in range(ell):
            disc = (m1 * m1 - 4 * m0) % ell
            # x = (-m1 + r) / 2 for each square root r of the discriminant
            inv2 = pow(2, -1, ell)
            roots = sorted((-m1 + r) * inv2 % ell for r in range(ell) if r * r % ell == disc)
            if disc == 0:
                with pytest.raises(RamifiedPrimeError):
                    split_primes((m0, m1, 1), ell)
                continue
            maps = split_primes((m0, m1, 1), ell)
            if not roots:
                assert maps is None
            else:
                assert [m.root for m in maps] == roots


def test_projective_order_depends_only_on_t2_over_d():
    f7 = lambda v: FieldElement(v, 7)  # noqa: E731
    for t in range(7):
        for d in range(1, 7):
            base = projective_frob_order(FrobData(2, f7(t), f7(d)))
            for lam in range(1, 7):
                scaled = projective_frob_order(FrobData(2, f7(lam * t), f7(lam * lam * d)))
                assert scaled == base


def test_trivial_nebentypus_det_is_p():
    rec = fetch_form(DataSource(mode="fixtures"), "9099.2.a.e")
    r = split_primes(SQRT2, 7)[0]
    for p in (2, 5, 11, 13, 19):
        fd = frob_charpoly(rec, p, r)
        assert fd.det.value == p % 7


def test_record_json_round_trip_byte_stable():
    rec = fetch_form(DataSource(mode="fixtures"), "189.2.p.a")
    text = rec.to_json()
    rec2 = NewformRecord.from_json(text)
    assert rec2.to_json() == text
    assert rec2.ap == rec.ap
    assert rec2.char == rec.char
