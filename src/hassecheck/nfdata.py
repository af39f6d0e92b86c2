"""Newform records over quadratic coefficient fields and their mod-l shadows.

A record stores exact Fourier coefficients a_p in the order Z[g] of a
quadratic field, each the pair (c0, c1) of its coordinates over the basis
{1, g}, with the field x^2 + m1 x + m0 held once; the nebentypus with an
explicit image of its root of unity inside the coefficient ring; and the
largest prime covered.  Reduction maps send g to a root of its minimal
polynomial mod l; only the split, unramified case is supported.  Frobenius
at a good prime p mod such an ideal is the plain pair (t, d) of residues in
[0, l): the trace a_p and the determinant p*eps(p).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import floor, isqrt
from numbers import Rational

from .dchar import DirichletCharacter, RingEmbedding, evaluate, twist_modulus
from .ffield import factorize, is_prime
from .matgrp import pgl2_order, roots

LABEL_RE = re.compile(r"^([1-9]\d*)\.(\d+)\.([a-z]+)\.([a-z]+)$")  # level.weight.orbit.form


class RamifiedPrimeError(ValueError):
    """l divides the field discriminant: no split reduction pair exists."""


class DataCoverageError(RuntimeError):
    def __init__(self, label, needed, have):
        super().__init__(
            f"{label}: coefficients cover primes up to {have}, but {needed} is required"
        )


class BadDenominatorError(ValueError):
    pass


def exact_rational(c) -> Rational:
    """A coefficient (int, "n/d" string, decimal or Fraction) as an exact rational.

    Read from its text, so the decimal 0.1 is 1/10 and not the binary double
    nearest to it.  Never truncated: a denominator must reach the reduction
    map, which rejects the ideals it divides.  An integral value comes back
    as an int ("4/2" and 3.0 as 2 and 3), anything else as a Fraction.  A
    bool is not a coefficient.
    """
    if type(c) is int:
        return c
    value = Fraction(str(c))
    return value.numerator if value.denominator == 1 else value


def ring_mul(x, y, m0: int, m1: int):
    """The product of the pairs x, y in Z[g], with g^2 = -m1*g - m0."""
    a, b = x
    c, d = y
    return (a * c - m0 * b * d, a * d + b * c - m1 * b * d)


@dataclass(frozen=True)
class ReductionMap:
    ell: int
    root: int
    m0: int
    m1: int

    def apply(self, x) -> int:
        """The residue of the pair x = (c0, c1), read as c0 + c1*g, in [0, ell)."""
        ell = self.ell
        c0, c1 = x
        if type(c0) is int and type(c1) is int:
            return (c0 + c1 * self.root) % ell
        num0, den0 = c0.numerator, c0.denominator
        num1, den1 = c1.numerator, c1.denominator
        if den0 % ell == 0 or den1 % ell == 0:
            raise BadDenominatorError(f"denominator divisible by {ell}")
        return (num0 * pow(den0, -1, ell) + num1 * pow(den1, -1, ell) * self.root) % ell

    def ideal_display(self) -> str:
        """A small generator a + b*g of the kernel ideal, for report readability.

        Only attempted for real quadratic fields; the root itself stays the
        authoritative identifier.
        """
        disc = self.m1 * self.m1 - 4 * self.m0
        if disc <= 0:
            return f"root {self.root}"
        for height in range(1, 40):
            for a in range(-height, height + 1):
                for b in range(-height, height + 1):
                    if max(abs(a), abs(b)) != height or b == 0:
                        continue
                    norm = a * a - self.m1 * a * b + self.m0 * b * b
                    if abs(norm) == self.ell and (a + b * self.root) % self.ell == 0:
                        if a < 0 or (a == 0 and b < 0):
                            a, b = -a, -b  # prefer the unit multiple with a >= 0
                        return _format_gen(a, b)
        return f"root {self.root}"


def _format_gen(a: int, b: int) -> str:
    coeff = "" if abs(b) == 1 else str(abs(b))
    if a == 0:
        return f"({'-' if b < 0 else ''}{coeff}b)"
    return f"({a} {'+' if b > 0 else '-'} {coeff}b)"


def split_primes(field_poly, ell: int):
    """Both reduction maps when x^2 + m1 x + m0 splits mod ell.

    Returns None in the inert case (no root); raises RamifiedPrimeError on a
    double root.  Maps come in canonical order, smaller root first.
    """
    if not is_prime(ell):
        raise ValueError(f"modulus {ell} is not prime")
    m0, m1 = int(field_poly[0]), int(field_poly[1])
    rs = list(roots((-m1, m0), ell))
    if len(rs) == 1:
        raise RamifiedPrimeError(f"{ell} ramifies in the coefficient field")
    if not rs:
        return None
    return tuple(ReductionMap(ell, r, m0, m1) for r in rs)


def sturm_bound(level: int, weight: int) -> int:
    """floor(k*mu/12) with mu the index N * prod (1 + 1/p)."""
    if level < 1 or weight < 2:
        raise ValueError("need level >= 1 and weight >= 2")
    mu = Fraction(level)
    for p in factorize(level):
        mu *= Fraction(p + 1, p)
    return floor(Fraction(weight) * mu / 12)


@lru_cache(maxsize=16)
def primes_upto(n: int) -> tuple[int, ...]:
    """The primes p <= n as one cached tuple per n, sieved over a bytearray."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(compress(range(n + 1), sieve))


def default_bound(level: int) -> int:
    q = twist_modulus(level)
    return max(200, sturm_bound(level * q * q, 2))


def repeated_eigenvalue(t: int, d: int, ell: int) -> bool:
    """x^2 - t x + d has a double root mod ell.

    Trace data then cannot separate a scalar from a unipotent times a scalar.
    """
    return (t * t - 4 * d) % ell == 0


def projective_frob_order(t: int, d: int, ell: int) -> int:
    """Order in PGL2(F_l) of a Frobenius with trace t and det d: the order of its eigenvalue ratio.

    A repeated eigenvalue counts as order 1: trace data cannot tell a scalar
    from a unipotent times a scalar (see `repeated_eigenvalue`).
    """
    if d == 0:
        raise ValueError("determinant must be nonzero")
    if repeated_eigenvalue(t, d, ell):
        return 1
    return pgl2_order(t, d, ell)


@dataclass(frozen=True)
class NewformRecord:
    label: str
    level: int
    weight: int
    char: DirichletCharacter
    field_poly: tuple  # (m0, m1, 1): x^2 + m1 x + m0
    ap: dict  # prime -> (c0, c1), the coefficient c0 + c1*g
    cm: bool
    cm_disc: int | None
    inner_twist_count: int
    ap_max_prime: int
    zeta_in_field: tuple | None = None  # coefficient-ring image of zeta_m
    provenance: str = ""

    @property
    def m0(self) -> int:
        return self.field_poly[0]

    @property
    def m1(self) -> int:
        return self.field_poly[1]

    def coefficient(self, p: int):
        try:
            return self.ap[p]
        except KeyError:
            raise DataCoverageError(self.label, p, self.ap_max_prime) from None

    @property
    def zeta(self) -> tuple:
        """The coefficient-ring image of the character's root of unity zeta_m, as a pair.

        The stored zeta_in_field when present; else +-1, which is the only
        choice for m <= 2 (from_dict rejects a larger m with no stored root).
        """
        if self.zeta_in_field is not None:
            return self.zeta_in_field
        return (-1 if self.char.zeta_order == 2 else 1, 0)

    def _zeta_powers(self, count: int) -> list[tuple]:
        """zeta^0, ..., zeta^(count - 1) in the coefficient ring."""
        zeta, powers = self.zeta, [(1, 0)]
        for _ in range(count - 1):
            powers.append(ring_mul(powers[-1], zeta, self.m0, self.m1))
        return powers

    def char_embedding(self) -> RingEmbedding:
        return RingEmbedding(self._zeta_powers(max(self.char.zeta_order, 1)), (0, 0))

    def nebentypus_value(self, n: int, embed: RingEmbedding | None = None):
        """eps(n) in the coefficient ring, or through `embed` when one is given."""
        return evaluate(self.char, n, self.char_embedding() if embed is None else embed)

    def to_dict(self) -> dict:
        out = {
            "label": self.label,
            "level": self.level,
            "weight": self.weight,
            "char": self.char.to_dict(),
            "field_poly": [self.m0, self.m1, 1],
            "ap": [
                {"p": p, "coeffs": [_coeff_json(c0), _coeff_json(c1)]}
                for p, (c0, c1) in sorted(self.ap.items())
            ],
            "cm": self.cm,
            "cm_disc": self.cm_disc,
            "inner_twist_count": self.inner_twist_count,
            "ap_max_prime": self.ap_max_prime,
            "zeta_in_field": None if self.zeta_in_field is None else [_coeff_json(c) for c in self.zeta_in_field],
        }
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "NewformRecord":
        label = data["label"]

        def typed(value, kind, name):
            # exactly a JSON int or bool: 2.9 is no weight, and "false" no bool
            if type(value) is not kind:
                raise ValueError(f"{label}: {name} must be a JSON {kind.__name__}, not {value!r}")
            return value

        m0, m1, lead = (typed(c, int, "field_poly") for c in data["field_poly"])
        if lead != 1:
            raise ValueError("field_poly must be monic")
        ap = {}
        for item in data["ap"]:
            p, coeffs = typed(item["p"], int, "p"), item["coeffs"]
            if p in ap:
                raise ValueError(f"{label}: a second a_p for p = {p}")
            if type(coeffs) is not list or len(coeffs) != 2:
                raise ValueError(f"{label}: a_p for p = {p} must be a list of two coordinates, not {coeffs!r}")
            c0, c1 = coeffs
            ap[p] = (c0 if type(c0) is int else exact_rational(c0), c1 if type(c1) is int else exact_rational(c1))
        char = data["char"]
        for name in ("modulus", "zeta_order"):
            typed(char[name], int, name)
        for image in char["generator_images"]:
            typed(image["generator"], int, "generator")
            typed(image["exponent"], int, "exponent")
        cm_disc = data.get("cm_disc")
        if cm_disc is not None:
            typed(cm_disc, int, "cm_disc")
        zeta = data.get("zeta_in_field")  # null or absent, else two coordinates as for a_p
        if zeta is not None:
            if type(zeta) is not list or len(zeta) != 2:
                raise ValueError(f"{label}: zeta_in_field must be a list of two coordinates, not {zeta!r}")
            zeta = exact_rational(zeta[0]), exact_rational(zeta[1])
        record = NewformRecord(
            label=label,
            level=typed(data["level"], int, "level"),
            weight=typed(data["weight"], int, "weight"),
            char=DirichletCharacter.from_dict(char),
            field_poly=(m0, m1, 1),
            ap=ap,
            cm=typed(data["cm"], bool, "cm"),
            cm_disc=cm_disc,
            inner_twist_count=typed(data["inner_twist_count"], int, "inner_twist_count"),
            ap_max_prime=typed(data["ap_max_prime"], int, "ap_max_prime"),
            zeta_in_field=zeta,
            provenance=data.get("provenance", ""),
        )
        record._validate()
        return record

    def _validate(self) -> None:
        """Reject a record whose fields contradict each other."""
        label, level, weight = self.label, self.level, self.weight
        if weight != 2:  # the det p*eps(p) and the Sturm bounds are weight-2 rules
            raise ValueError(f"{label}: weight {weight} is not 2")
        m = LABEL_RE.match(label)
        if m is None:
            raise ValueError(f"{label}: malformed newform label")
        if m[1] != str(level):
            raise ValueError(f"{label}: label does not name level {level}")
        if m[2] != str(weight):
            raise ValueError(f"{label}: label does not name weight {weight}")
        if self.char.modulus != level:
            raise ValueError(f"{label}: character modulus {self.char.modulus} is not the level {level}")
        for p in primes_upto(self.ap_max_prime):
            if p not in self.ap:
                raise ValueError(f"{label}: no a_p for p = {p} <= ap_max_prime {self.ap_max_prime}")
        m = self.char.zeta_order
        if self.zeta_in_field is None and m > 2:
            raise ValueError(f"{label}: character needs zeta_in_field")
        if self.zeta_in_field is not None:
            powers = self._zeta_powers(m + 1)
            if powers[m] != powers[0] or any(powers[m // r] == powers[0] for r in factorize(m)):
                raise ValueError(f"{label}: zeta_in_field is not a primitive {m}-th root of unity")

    @staticmethod
    def from_json(text: str | bytes) -> "NewformRecord":
        return NewformRecord.from_dict(json.loads(text))


def _coeff_json(c: Rational):
    """An int when integral, else the exact "n/d" string that from_dict parses back."""
    return c.numerator if c.denominator == 1 else str(c)


def reduce_coeff(record: NewformRecord, p: int, rmap: ReductionMap) -> int:
    return rmap.apply(record.coefficient(p))


def reduce_char_embedding(record: NewformRecord, rmap: ReductionMap) -> RingEmbedding:
    """The record's character embedding followed by rmap, valued in [0, l).

    Reduction is a ring map, so reducing zeta once gives eps(n) mod the
    ideal for every n without building a coefficient-ring value.  This is
    the one check that rmap reduces the record's own field: every
    frob_table runs it once per ideal, before any a_p is reduced.
    """
    if (rmap.m0, rmap.m1) != (record.m0, record.m1):
        raise ValueError(f"{record.label}: reduction map of another field")
    zeta, ell = rmap.apply(record.zeta), rmap.ell
    return RingEmbedding([pow(zeta, k, ell) for k in range(max(record.char.zeta_order, 1))], 0)


def frob_charpoly(record: NewformRecord, p: int, rmap: ReductionMap, embed: RingEmbedding) -> tuple[int, int]:
    """(trace, det): a_p and p*eps(p) mod the ideal of rmap, as residues in [0, l).

    embed is reduce_char_embedding(record, rmap).
    """
    ell = rmap.ell
    if p == ell or record.level % p == 0:
        raise ValueError(f"p = {p} divides l*N; no Frobenius data")
    t = reduce_coeff(record, p, rmap)
    d = p * record.nebentypus_value(p, embed) % ell
    if d == 0:
        raise ValueError("vanishing determinant")
    return t, d
