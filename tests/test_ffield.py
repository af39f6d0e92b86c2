"""Field arithmetic: contract values plus randomized properties."""

from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hassecheck.ffield import (
    FieldElement,
    ZeroInputError,
    factorize,
    is_prime,
    least_nonresidue,
    legendre,
    mul_order,
    primitive_root,
)


def test_mul_order_examples():
    assert mul_order(FieldElement(3, 7)) == 6
    assert mul_order(FieldElement(1, 7)) == 1
    assert mul_order(FieldElement(4, 7)) == 3


def test_mul_order_zero_rejected():
    with pytest.raises(ZeroInputError):
        mul_order(FieldElement(0, 7))


def test_legendre_examples():
    assert legendre(3, 7) == -1
    assert legendre(4, 7) == 1
    assert legendre(0, 11) == 0
    # any int representative: 10 = 3 and -3 = 4 mod 7
    assert legendre(10, 7) == -1
    assert legendre(-3, 7) == 1


def test_modulus_2_restrictions():
    FieldElement(1, 2)  # admitted for the PGL2(F_2) check
    with pytest.raises(ValueError):
        legendre(1, 2)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 15)


def test_least_nonresidue_canonical():
    assert least_nonresidue(7) == 3
    assert least_nonresidue(11) == 2


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_roundtrip(n):
    out = 1
    for p, k in factorize(n).items():
        assert is_prime(p)
        out *= p**k
    assert out == n


PRIMES = [3, 7, 11, 13, 19, 23]


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**6))
def test_mul_order_divides_group_order(p, raw):
    x = FieldElement(raw, p)
    if not x:
        return
    k = mul_order(x)
    assert (p - 1) % k == 0
    assert x**k == 1
    # no smaller positive power is 1
    for j in range(1, k):
        assert x**j != 1


@given(st.sampled_from(PRIMES), st.integers(min_value=-(10**6), max_value=10**6))
def test_sqrt_and_legendre_agree(p, raw):
    squares = {r * r % p for r in range(p)}
    if raw % p == 0:
        assert legendre(raw, p) == 0
    else:
        assert legendre(raw, p) == (1 if raw % p in squares else -1)


# -- primitive roots against the two routines they replace ------------------


def primitive_root_by_order_count(p, k):
    """The former dchar routine: least g whose powers run through all of (Z/p^k)^x, p odd."""
    pk = p**k
    target = pk - pk // p
    for g in range(2, pk):
        if gcd(g, p) != 1:
            continue
        order = 1
        x = g % pk
        while x != 1:
            x = x * g % pk
            order += 1
            if order > target:
                break
        if order == target:
            return g
    raise ValueError(f"no primitive root mod {p}^{k}")


def primitive_root_by_mul_order(p):
    """The former ffield routine: least g in F_p^x of multiplicative order p - 1."""
    if p == 2:
        return 1
    for g in range(2, p):
        if mul_order(FieldElement(g, p)) == p - 1:
            return g
    raise ValueError("no primitive root found")


ODD_PRIME_POWERS = [(p, k) for p in range(3, 10**4) if is_prime(p) for k in range(1, 9) if p**k < 10**4]


def test_primitive_root_matches_both_former_routines_below_10_4():
    assert len(ODD_PRIME_POWERS) == 1267  # 1228 odd primes and 39 higher powers
    for p, k in ODD_PRIME_POWERS:
        g = primitive_root(p**k)
        assert g == primitive_root_by_order_count(p, k), (p, k)
        if k == 1:
            assert g == primitive_root_by_mul_order(p), p


def test_primitive_root_of_2_and_rejected_moduli():
    assert primitive_root(2) == primitive_root_by_mul_order(2) == 1
    assert primitive_root(9) == 2 and primitive_root(49) == 3 and primitive_root(125) == 2
    for q in (1, 4, 8, 12, 15, 45):
        with pytest.raises(ValueError):
            primitive_root(q)
