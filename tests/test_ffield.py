"""Field arithmetic: contract values plus randomized properties."""

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
)


def test_mul_order_examples():
    assert mul_order(FieldElement(3, 7)) == 6
    assert mul_order(FieldElement(1, 7)) == 1
    assert mul_order(FieldElement(4, 7)) == 3


def test_mul_order_zero_rejected():
    with pytest.raises(ZeroInputError):
        mul_order(FieldElement(0, 7))


def test_legendre_examples():
    assert legendre(FieldElement(3, 7)) == -1
    assert legendre(FieldElement(4, 7)) == 1
    assert legendre(FieldElement(0, 11)) == 0


def test_modulus_2_restrictions():
    FieldElement(1, 2)  # admitted for the PGL2(F_2) check
    with pytest.raises(ValueError):
        legendre(FieldElement(1, 2))


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


@given(st.sampled_from(PRIMES), st.integers(min_value=0, max_value=10**6))
def test_sqrt_and_legendre_agree(p, raw):
    x = FieldElement(raw, p)
    squares = {r * r % p for r in range(p)}
    if x.value == 0:
        assert legendre(x) == 0
    else:
        assert legendre(x) == (1 if x.value in squares else -1)
