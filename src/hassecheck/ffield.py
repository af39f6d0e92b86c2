"""Exact arithmetic in F_l and its quadratic extension F_{l^2}.

Everything here is plain integer arithmetic on word-sized moduli; there are
no probabilistic shortcuts.  Elements are immutable, so they are safe to
share across threads and to use as dict keys.

The extension field is realised as F_l[w] with w^2 = s for the *least*
positive quadratic non-residue s mod l, so that serialised elements are
reproducible across runs.
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

    def __neg__(self):
        return FieldElement(-self.value, self.modulus)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        return -(self - other)

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

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"({self.value} mod {self.modulus})"


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    """Least positive quadratic non-residue mod p (p odd prime)."""
    _check_modulus(p)
    if p == 2:
        raise ValueError("no non-residue mod 2")
    for s in range(2, p):
        if pow(s, (p - 1) // 2, p) == p - 1:
            return s
    raise AssertionError("unreachable for prime p")


class ExtElement:
    """Element a + b*w of F_{l^2}, w^2 = least positive non-residue mod l."""

    __slots__ = ("a", "b", "modulus", "s")

    def __init__(self, a: int, b: int, modulus: int):
        _check_modulus(modulus)
        if modulus == 2:
            raise ValueError("quadratic extension not supported for l = 2")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "s", least_nonresidue(modulus))
        object.__setattr__(self, "a", a % modulus)
        object.__setattr__(self, "b", b % modulus)

    def __setattr__(self, *a):
        raise AttributeError("ExtElement is immutable")

    def __add__(self, other: "ExtElement"):
        return ExtElement(self.a + other.a, self.b + other.b, self.modulus)

    def __sub__(self, other: "ExtElement"):
        return ExtElement(self.a - other.a, self.b - other.b, self.modulus)

    def __mul__(self, other: "ExtElement"):
        p, s = self.modulus, self.s
        a = (self.a * other.a + s * self.b * other.b) % p
        b = (self.a * other.b + self.b * other.a) % p
        return ExtElement(a, b, p)

    def norm(self) -> FieldElement:
        # N(a + bw) = a^2 - s b^2
        return FieldElement(self.a * self.a - self.s * self.b * self.b, self.modulus)

    def conjugate(self) -> "ExtElement":
        return ExtElement(self.a, -self.b, self.modulus)

    def inverse(self) -> "ExtElement":
        n = self.norm()
        if n.value == 0:
            raise ZeroInputError("0 is not invertible")
        ninv = n.inverse().value
        return ExtElement(self.a * ninv, -self.b * ninv, self.modulus)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ExtElement(1, 0, self.modulus)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ExtElement)
            and self.modulus == other.modulus
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.a, self.b, self.modulus))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def __repr__(self):
        return f"({self.a} + {self.b}w mod {self.modulus})"


def legendre(x: FieldElement) -> int:
    """Euler-criterion value of x, normalised to {-1, 0, +1}."""
    p = x.modulus
    if p == 2:
        raise ValueError("legendre symbol undefined for modulus 2")
    if x.value == 0:
        return 0
    e = pow(x.value, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def sqrt_mod(x: FieldElement):
    """Square roots of x in F_l for odd l.

    Returns (0,) when x = 0, the pair (r, l - r) with r < l - r when x is a
    residue, and None otherwise.  Tonelli-Shanks with the canonical
    non-residue, so the output is deterministic.
    """
    p = x.modulus
    if p == 2:
        raise ValueError("square roots not supported for modulus 2")
    n = x.value
    if n == 0:
        return (FieldElement(0, p),)
    if legendre(x) == -1:
        return None
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    else:
        # factor p - 1 = q * 2^e with q odd
        q, e = p - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = least_nonresidue(p)
        c = pow(z, q, p)
        r = pow(n, (q + 1) // 2, p)
        t = pow(n, q, p)
        m = e
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            t = t * b % p * b % p
            c = b * b % p
            m = i
    r = min(r, p - r)
    return (FieldElement(r, p), FieldElement(p - r, p))


def mul_order(x) -> int:
    """Least k >= 1 with x^k = 1, for FieldElement or ExtElement input."""
    if not x:
        raise ZeroInputError("multiplicative order of zero")
    p = x.modulus
    if isinstance(x, FieldElement):
        group = p - 1
        is_one = lambda y: y.value == 1  # noqa: E731
    else:
        group = p * p - 1
        is_one = lambda y: y.is_one()  # noqa: E731
    order = group
    for q in factorize(group):
        while order % q == 0 and is_one(x ** (order // q)):
            order //= q
    return order


def primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        if mul_order(FieldElement(g, p)) == p - 1:
            return g
    raise ValueError("no primitive root found")
