"""Dirichlet characters mod N with values as abstract root-of-unity exponents.

A character is stored by its images on a fixed generating set of (Z/NZ)^x,
as exponents of an abstract primitive m-th root of unity.  Evaluation into a
concrete ring (F_l^x, or a quadratic coefficient ring) goes through an
explicit embedding object, so the same character can be reduced through the
same prime-ideal map as the Fourier coefficients it accompanies.

Generators follow the usual CRT convention: for each odd prime power p^k
dividing N, the smallest primitive root mod p^k lifted to be 1 at the other
factors; for 4 the class of -1; for 2^k (k >= 3) the classes of -1 and 5.
A generator at q is 1 mod N/q, so its exponent in a unit a depends on a mod q
only: discrete logs are read from one table of the phi(q) units mod q per
generator, never from a table of all phi(N) units mod N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd

from .ffield import factorize, primitive_root


class EmbeddingError(ValueError):
    pass


def _crt_lift(residue: int, q: int, modulus: int) -> int:
    """Integer x mod `modulus` with x = residue mod q and x = 1 mod modulus/q."""
    rest = modulus // q
    if rest == 1:
        return residue % modulus
    inv = pow(rest, -1, q)
    x = (1 + rest * ((residue - 1) * inv % q)) % modulus
    return x


def _local_generators(n: int):
    """(q, ((g mod q, order), ...)) for each prime power q || n, ascending.

    The generators of (Z/q)^x under the module's convention; q = 2 has none.
    """
    for p, k in sorted(factorize(n).items()):
        q = p**k
        if p != 2:
            yield q, ((primitive_root(q), q - q // p),)
        elif k == 1:
            yield q, ()
        elif k == 2:
            yield q, ((3, 2),)
        else:
            yield q, ((q - 1, 2), (5, q // 4))


@dataclass(frozen=True)
class UnitGroupBasis:
    modulus: int
    generators: tuple
    orders: tuple

    @staticmethod
    @lru_cache(maxsize=None)
    def for_modulus(n: int) -> "UnitGroupBasis":
        if n < 1:
            raise ValueError("modulus must be positive")
        lifted = [(_crt_lift(g, q, n), o) for q, gens in _local_generators(n) for g, o in gens]
        return UnitGroupBasis(n, tuple(g for g, _ in lifted), tuple(o for _, o in lifted))

    @cached_property
    def dlog_tables(self) -> tuple:
        """(q, table) per generator, in order, built once per basis.

        q is the generator's prime power and table maps each unit residue
        a mod q to the generator's exponent in a.  When 2 || N a last table
        {1: 0} mod 2 stands for (Z/2)^x, which has no generator, so that an
        even a misses a table as every other non-unit does.
        """
        tables = []
        for q, gens in _local_generators(self.modulus):
            logs = {1 % q: ()}
            for g, og in gens:
                powers = [pow(g, e, q) for e in range(og)]
                logs = {acc * x % q: exps + (e,) for acc, exps in logs.items() for e, x in enumerate(powers)}
            tables += [(q, {a: exps[i] for a, exps in logs.items()}) for i in range(len(gens))]
        if self.modulus % 4 == 2:
            tables.append((2, {1: 0}))
        return tuple(tables)


# ---------------------------------------------------------------------------
# embeddings of the abstract root of unity


class RingEmbedding:
    """zeta_m -> a designated element of a ring: a coefficient ring, or F_l.

    The caller passes the m powers zeta^0, ..., zeta^(m-1), so root_power is
    a lookup.
    """

    def __init__(self, powers, zero):
        self.m = len(powers)
        self._zero = zero
        self._powers = powers

    def zero(self):
        return self._zero

    def root_power(self, k: int):
        return self._powers[k % self.m]


@dataclass(frozen=True)
class DirichletCharacter:
    basis: UnitGroupBasis
    zeta_order: int
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.basis.generators):
            raise ValueError("one exponent per generator required")
        for e, o in zip(self.exponents, self.basis.orders):
            if (e * o) % self.zeta_order:
                raise ValueError("exponent incompatible with generator order")

    @property
    def modulus(self) -> int:
        return self.basis.modulus

    @cached_property
    def _dlog_reads(self) -> tuple:
        """(q, table, e) per table of the basis, with e chi's exponent at the
        table's generator (0 at the table for 2 || N, which has none)."""
        return tuple((q, table, e) for (q, table), e in zip(self.basis.dlog_tables, self.exponents + (0,)))

    def exponent_at(self, a: int):
        """Exponent k with chi(a) = zeta^k, or None when gcd(a, N) > 1."""
        k = 0
        for q, table, e in self._dlog_reads:
            x = table.get(a % q)
            if x is None:
                return None
            k += e * x
        return k % self.zeta_order

    def order(self) -> int:
        m = self.zeta_order
        g = m
        for e in self.exponents:
            g = gcd(g, e)
        return m // g if m else 1

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def conductor(self) -> int:
        """The least d | N with chi trivial on the units = 1 mod d, i.e. on range(1, N, d)."""
        n = self.modulus
        return next(
            d for d in range(1, n + 1)
            if n % d == 0 and all(self.exponent_at(a) in (0, None) for a in range(1, n, d))
        )

    def sign_value(self, a: int) -> int:
        """chi(a) in {-1, 0, +1}; only valid for characters of order <= 2."""
        if self.order() > 2:
            raise ValueError("sign_value needs a quadratic or trivial character")
        k = self.exponent_at(a)
        if k is None:
            return 0
        return 1 if k == 0 else -1

    @cached_property
    def minus_residues(self) -> frozenset:
        """The residues a mod N with chi(a) = -1, read through sign_value.

        chi(n) = -1 exactly when n % N is in the set, so a sweep over many n
        pays for one table of N entries, built on the first read; raises as
        sign_value does for a character of order > 2, on every read.
        """
        return frozenset(a for a in range(self.modulus) if self.sign_value(a) == -1)

    def to_dict(self):
        return {
            "modulus": self.modulus,
            "zeta_order": self.zeta_order,
            "generator_images": [
                {"generator": g, "exponent": e}
                for g, e in zip(self.basis.generators, self.exponents)
            ],
        }

    @staticmethod
    def from_dict(data) -> "DirichletCharacter":
        basis = UnitGroupBasis.for_modulus(data["modulus"])
        images = {gi["generator"]: gi["exponent"] for gi in data["generator_images"]}
        if set(images) != set(basis.generators):
            raise ValueError(
                "generator set does not match the canonical basis "
                f"for modulus {data['modulus']}"
            )
        exps = tuple(images[g] for g in basis.generators)
        return DirichletCharacter(basis, data["zeta_order"], exps)


def evaluate(chi: DirichletCharacter, a: int, embed):
    """chi(a) under the given embedding; the embedding's zero when gcd(a,N)>1."""
    if embed.m % chi.zeta_order:
        raise EmbeddingError(
            f"embedding of order {embed.m} cannot host a character of zeta order {chi.zeta_order}"
        )
    k = chi.exponent_at(a)
    if k is None:
        return embed.zero()
    return embed.root_power(k * (embed.m // chi.zeta_order))


def twist_modulus(n: int) -> int:
    """Product of the primes whose square divides n."""
    if n < 1:
        raise ValueError("modulus must be positive")
    q = 1
    for p, k in factorize(n).items():
        if k >= 2:
            q *= p
    return q


@lru_cache(maxsize=None)
def _characters(n: int, m: int) -> tuple[DirichletCharacter, ...]:
    """All characters mod n of order dividing m, in exponent-vector order.

    The image of a generator of order o is a power of zeta_m whose exponent
    is a multiple of m / gcd(o, m).  Enumerated once per (n, m).
    """
    basis = UnitGroupBasis.for_modulus(n)
    steps = [range(0, m, m // gcd(o, m)) for o in basis.orders]
    return tuple(DirichletCharacter(basis, m, exps) for exps in product(*steps))


@lru_cache(maxsize=None)
def quadratic_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All characters mod q of order dividing 2, trivial one first, as one cached tuple per q.

    Sorted by (conductor, exponent vector) so iteration order is canonical.
    """
    return tuple(sorted(_characters(q, 2), key=lambda c: (c.conductor(), c.exponents)))


def kernel_field_disc(chi: DirichletCharacter) -> int:
    """Discriminant of the quadratic field cut out by a quadratic character.

    Computed from conductor and parity: |disc| = conductor, sign = chi(-1).
    The trivial character yields 1.
    """
    order = chi.order()
    if order > 2:
        raise ValueError("kernel field only defined for quadratic characters")
    if order == 1:
        return 1
    f = chi.conductor()
    return f if chi.sign_value(-1) == 1 else -f


def fl_valued_characters(n: int, ell: int) -> tuple[DirichletCharacter, ...]:
    """All characters mod n of order dividing ell - 1: the cached tuple of _characters(n, ell - 1)."""
    return _characters(n, ell - 1)
