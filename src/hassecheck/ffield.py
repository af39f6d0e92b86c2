"""Exact arithmetic in F_l.

Everything here is plain integer arithmetic on word-sized moduli; there are
no probabilistic shortcuts.  Elements are immutable, so they are safe to
share across threads.  Facts that live over F_{l^2} (Frobenius eigenvalue
ratios, Galois-conjugate point pairs) are computed with 2x2 matrices and
binary quadratic forms over F_l instead.
"""

from __future__ import annotations

from functools import lru_cache


class ZeroInputError(ValueError):
    """Raised when an operation requires a nonzero element."""


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (moduli are word-sized)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; returns {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _check_modulus(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class FieldElement:
    """A residue in F_l, l prime (l = 2 is admitted for the PGL2(F_2) check)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        _check_modulus(modulus)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", value % modulus)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value - o.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroInputError("0 is not invertible")
        return FieldElement(pow(self.value, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return FieldElement(pow(self.value, k, self.modulus), self.modulus)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        return (
            isinstance(other, FieldElement)
            and self.modulus == other.modulus
            and self.value == other.value
        )

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"({self.value} mod {self.modulus})"


def legendre(x: int, p: int) -> int:
    """Euler's criterion for x mod the odd prime p, normalised to {-1, 0, +1}."""
    if p == 2:
        raise ValueError("legendre symbol undefined for modulus 2")
    e = pow(x, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    """Least positive quadratic non-residue mod p (p odd prime)."""
    _check_modulus(p)
    for s in range(2, p):
        if legendre(s, p) == -1:
            return s
    raise ValueError(f"no non-residue mod {p}")  # only p = 2 has none


def mul_order(x: FieldElement) -> int:
    """Least k >= 1 with x^k = 1 in F_l^x; k divides l - 1."""
    if not x:
        raise ZeroInputError("multiplicative order of zero")
    order = x.modulus - 1
    for q in factorize(order):
        while order % q == 0 and (x ** (order // q)).value == 1:
            order //= q
    return order


def primitive_root(q: int) -> int:
    """Least primitive root mod q, for q = 2 or a power of an odd prime.

    That is the least g coprime to q with g^(phi(q)/r) != 1 mod q for every
    prime r dividing phi(q); it generates F_l^x and (Z/p^k)^x alike.
    """
    fac = factorize(q)
    if len(fac) != 1 or (2 in fac and q != 2):
        raise ValueError(f"{q} is neither 2 nor a power of an odd prime")
    (p,) = fac
    phi = q - q // p
    rs = factorize(phi)
    return next(g for g in range(1, q) if g % p and all(pow(g, phi // r, q) != 1 for r in rs))
