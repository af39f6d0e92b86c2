"""Newform records over quadratic coefficient fields and their mod-l shadows.

A record stores exact Fourier coefficients a_p in the order Z[g] of a
quadratic field (coordinates over the basis {1, g}), the nebentypus with an
explicit image of its root of unity inside the coefficient ring, and the
largest prime covered.  Reduction maps send g to a root of its minimal
polynomial mod l; only the split, unramified case is supported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .dchar import DirichletCharacter, RingEmbedding, evaluate, twist_modulus
from .ffield import FieldElement, factorize, is_prime, legendre


class RamifiedPrimeError(ValueError):
    """l divides the field discriminant: no split reduction pair exists."""


class DataCoverageError(RuntimeError):
    def __init__(self, label, needed, have):
        super().__init__(
            f"{label}: coefficients cover primes up to {have}, but {needed} is required"
        )
        self.needed = needed
        self.have = have


class BadDenominatorError(ValueError):
    pass


@dataclass(frozen=True)
class QuadElement:
    """c0 + c1*g with g a root of x^2 + m1*x + m0 (monic integer quadratic)."""

    c0: Fraction
    c1: Fraction
    m0: int
    m1: int

    @staticmethod
    def make(c0, c1, m0, m1) -> "QuadElement":
        return QuadElement(Fraction(c0), Fraction(c1), m0, m1)

    def _same(self, other):
        if (self.m0, self.m1) != (other.m0, other.m1):
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._same(other)
        return QuadElement(self.c0 + other.c0, self.c1 + other.c1, self.m0, self.m1)

    def __sub__(self, other):
        self._same(other)
        return QuadElement(self.c0 - other.c0, self.c1 - other.c1, self.m0, self.m1)

    def __neg__(self):
        return QuadElement(-self.c0, -self.c1, self.m0, self.m1)

    def __mul__(self, other):
        if isinstance(other, int):
            other = QuadElement(Fraction(other), Fraction(0), self.m0, self.m1)
        self._same(other)
        # g^2 = -m1 g - m0
        a, b, c, d = self.c0, self.c1, other.c0, other.c1
        return QuadElement(a * c - self.m0 * b * d, a * d + b * c - self.m1 * b * d, self.m0, self.m1)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElement":
        # g + g' = -m1
        return QuadElement(self.c0 - self.m1 * self.c1, -self.c1, self.m0, self.m1)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __repr__(self):
        return f"({self.c0} + {self.c1}*g)"


@dataclass(frozen=True)
class ReductionMap:
    ell: int
    root: int
    m0: int
    m1: int

    def apply(self, x: QuadElement) -> FieldElement:
        if (x.m0, x.m1) != (self.m0, self.m1):
            raise ValueError("element does not belong to this field")
        ell = self.ell
        num0, den0 = x.c0.numerator, x.c0.denominator
        num1, den1 = x.c1.numerator, x.c1.denominator
        if den0 % ell == 0 or den1 % ell == 0:
            raise BadDenominatorError(f"denominator divisible by {ell}")
        v = (num0 * pow(den0, -1, ell) + num1 * pow(den1, -1, ell) * self.root) % ell
        return FieldElement(v, ell)

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

    Returns None in the inert case; raises RamifiedPrimeError on a double
    root.  Maps come in canonical order, smaller root first.
    """
    m0, m1 = int(field_poly[0]), int(field_poly[1])
    disc = FieldElement(m1 * m1 - 4 * m0, ell)
    if disc.value == 0:
        raise RamifiedPrimeError(f"{ell} ramifies in the coefficient field")
    if legendre(disc) == -1:
        return None
    rs = [x for x in range(ell) if (x * x + m1 * x + m0) % ell == 0]
    return (
        ReductionMap(ell, rs[0], m0, m1),
        ReductionMap(ell, rs[1], m0, m1),
    )


def sturm_bound(level: int, weight: int) -> int:
    """floor(k*mu/12) with mu the index N * prod (1 + 1/p)."""
    if level < 1 or weight < 2:
        raise ValueError("need level >= 1 and weight >= 2")
    mu = Fraction(level)
    for p in factorize(level):
        mu *= Fraction(p + 1, p)
    return floor(Fraction(weight) * mu / 12)


def default_bound(level: int) -> int:
    q = twist_modulus(level)
    return max(200, sturm_bound(level * q * q, 2))


@dataclass(frozen=True)
class FrobData:
    p: int
    trace: FieldElement
    det: FieldElement

    @property
    def repeated(self) -> bool:
        """Trace data cannot separate scalar from unipotent-times-scalar."""
        ell = self.trace.modulus
        return (self.trace.value**2 - 4 * self.det.value) % ell == 0


def projective_frob_order(fd: FrobData) -> int:
    """Order in PGL2(F_l) of the companion matrix C = [[t, -d], [1, 0]].

    That is the order of the eigenvalue ratio of the Frobenius matrix.
    C^k = U_k C - d U_{k-1} I for the Lucas sequence U_0 = 0, U_1 = 1,
    U_{k+1} = t U_k - d U_{k-1}, so the order is the least k >= 1 with
    U_k = 0; it is at most l + 1.  A repeated eigenvalue counts as order 1
    (the `repeated` flag records the ambiguity).
    """
    ell = fd.trace.modulus
    t, d = fd.trace.value, fd.det.value
    if d == 0:
        raise ValueError("determinant must be nonzero")
    if fd.repeated:
        return 1
    u_prev, u, k = 0, 1, 1
    while u:
        u_prev, u, k = u, (t * u - d * u_prev) % ell, k + 1
    return k


@dataclass(frozen=True)
class NewformRecord:
    label: str
    level: int
    weight: int
    char: DirichletCharacter
    field_poly: tuple  # (m0, m1, 1): x^2 + m1 x + m0
    ap: dict  # prime -> QuadElement
    cm: bool
    cm_disc: int | None
    inner_twist_count: int
    ap_max_prime: int
    zeta_in_field: tuple | None = None  # coefficient-ring image of zeta_m
    provenance: str = ""

    @property
    def m0(self) -> int:
        return int(self.field_poly[0])

    @property
    def m1(self) -> int:
        return int(self.field_poly[1])

    def quad(self, c0, c1) -> QuadElement:
        return QuadElement.make(c0, c1, self.m0, self.m1)

    def coefficient(self, p: int) -> QuadElement:
        if p not in self.ap:
            raise DataCoverageError(self.label, p, self.ap_max_prime)
        return self.ap[p]

    def char_embedding(self) -> RingEmbedding:
        m = self.char.zeta_order
        one = self.quad(1, 0)
        zero = self.quad(0, 0)
        if m <= 2:
            return RingEmbedding(max(m, 1), self.quad(-1, 0) if m == 2 else one, one, zero)
        if self.zeta_in_field is None:
            raise ValueError(f"{self.label}: character needs zeta_in_field")
        zeta = self.quad(*self.zeta_in_field)
        return RingEmbedding(m, zeta, one, zero)

    def nebentypus_value(self, n: int) -> QuadElement:
        return evaluate(self.char, n, self.char_embedding())

    def to_dict(self) -> dict:
        out = {
            "label": self.label,
            "level": self.level,
            "weight": self.weight,
            "char": self.char.to_dict(),
            "field_poly": [self.m0, self.m1, 1],
            "ap": [
                {"p": p, "coeffs": [int(v.c0), int(v.c1)]}
                for p, v in sorted(self.ap.items())
            ],
            "cm": self.cm,
            "inner_twist_count": self.inner_twist_count,
            "ap_max_prime": self.ap_max_prime,
        }
        if self.cm_disc is not None:
            out["cm_disc"] = self.cm_disc
        if self.zeta_in_field is not None:
            out["zeta_in_field"] = list(self.zeta_in_field)
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "NewformRecord":
        m0, m1, lead = data["field_poly"]
        if lead != 1:
            raise ValueError("field_poly must be monic")
        ap = {
            int(item["p"]): QuadElement.make(item["coeffs"][0], item["coeffs"][1], m0, m1)
            for item in data["ap"]
        }
        zeta = data.get("zeta_in_field")
        record = NewformRecord(
            label=data["label"],
            level=int(data["level"]),
            weight=int(data["weight"]),
            char=DirichletCharacter.from_dict(data["char"]),
            field_poly=(int(m0), int(m1), 1),
            ap=ap,
            cm=bool(data["cm"]),
            cm_disc=data.get("cm_disc"),
            inner_twist_count=int(data["inner_twist_count"]),
            ap_max_prime=int(data["ap_max_prime"]),
            zeta_in_field=tuple(zeta) if zeta else None,
            provenance=data.get("provenance", ""),
        )
        record._validate()
        return record

    def _validate(self) -> None:
        """Reject a record whose fields contradict each other."""
        label, level = self.label, self.level
        if label.split(".")[0] != str(level):
            raise ValueError(f"{label}: label does not name level {level}")
        if self.char.modulus != level:
            raise ValueError(f"{label}: character modulus {self.char.modulus} is not the level {level}")
        for p in range(2, self.ap_max_prime + 1):
            if p not in self.ap and is_prime(p):
                raise ValueError(f"{label}: no a_p for p = {p} <= ap_max_prime {self.ap_max_prime}")
        if self.zeta_in_field is not None:
            m = self.char.zeta_order
            zeta, powers = self.quad(*self.zeta_in_field), [self.quad(1, 0)]
            for _ in range(m):
                powers.append(powers[-1] * zeta)
            if powers[m] != powers[0] or any(powers[m // r] == powers[0] for r in factorize(m)):
                raise ValueError(f"{label}: zeta_in_field is not a primitive {m}-th root of unity")

    @staticmethod
    def from_json(text: str) -> "NewformRecord":
        return NewformRecord.from_dict(json.loads(text))


def reduce_coeff(record: NewformRecord, p: int, rmap: ReductionMap) -> FieldElement:
    return rmap.apply(record.coefficient(p))


def frob_charpoly(record: NewformRecord, p: int, rmap: ReductionMap) -> FrobData:
    ell = rmap.ell
    if p == ell or record.level % p == 0:
        raise ValueError(f"p = {p} divides l*N; no Frobenius data")
    t = reduce_coeff(record, p, rmap)
    eps = rmap.apply(record.nebentypus_value(p))
    d = FieldElement(p, ell) * eps
    if d.value == 0:
        raise ValueError("vanishing determinant")
    return FrobData(p, t, d)
