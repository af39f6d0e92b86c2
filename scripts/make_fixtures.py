#!/usr/bin/env python3
"""Build the committed newform fixture corpus, exactly and reproducibly.

Forms with CM by an imaginary quadratic field of class number one are
computed from their Hecke characters: a_p is a finite sum of character
values times prime-ideal generators, evaluated in exact quadratic-integer
arithmetic, and every coefficient displayed in the reference q-expansions
is asserted to match before anything is written.

The six high-level real-quadratic forms cannot be recomputed from scratch
in this environment (no network; eigenform computation at level ~8000 is
out of scope), so their fixtures are synthesised: the designated prime
ideal carries a mod-7 trace function that is dihedral by construction (a
ray class character of the appropriate imaginary quadratic field), the
other ideal carries generic trace data seeded from elliptic-curve point
counts, and every reference-displayed coefficient is pinned verbatim -
including displayed values inconsistent with the reference image column
(two of them even exceed the |a_p| <= 2 sqrt(p) bound).  The pipeline is
expected to surface that tension, never reconcile it.  Provenance fields
record which path produced each fixture.

Every fixture is written by NewformRecord.to_json, the package's one record
writer, once it passes the checks a load applies; validate() then requires the
l = 7 scans to match tests/golden/scan_ell7_*.json byte for byte, and no
negative control to read hasse.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hassecheck.dchar import UnitGroupBasis
from hassecheck.ffield import factorize, legendre
from hassecheck.nfdata import LABEL_RE, NewformRecord, primes_upto

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "src" / "hassecheck" / "fixtures"
GOLDEN_DIR = ROOT / "tests" / "golden"
AP_MAX = 1009
PRIMES = primes_upto(AP_MAX)


# ---------------------------------------------------------------------------
# exact arithmetic in Z[g], g^2 = t*g - n  (imaginary quadratic, h = 1)


@dataclass(frozen=True)
class Ring:
    name: str
    t: int
    n: int
    disc: int
    unit_count: int  # 2, 4 or 6

    def mul(self, a, b):
        (x1, y1), (x2, y2) = a, b
        return (x1 * x2 - self.n * y1 * y2, x1 * y2 + x2 * y1 + self.t * y1 * y2)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def conj(self, a):
        return (a[0] + self.t * a[1], -a[1])

    def norm(self, a):
        x, y = a
        return x * x + self.t * x * y + self.n * y * y

    def pow(self, a, k):
        out = (1, 0)
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def roots_of_unity(self):
        """List of unit pairs; index = exponent of the canonical generator."""
        return {2: [(1, 0), (-1, 0)], 4: I_POWERS, 6: ZETA6_POWERS}[self.unit_count]

    @property
    def value_order(self) -> int:
        """mu_m used for character values attached to this ring."""
        return {2: 6, 4: 4, 6: 6}[self.unit_count]

    def unit_value_exponent(self, u) -> int:
        """Exponent of u as a root of unity inside mu_{value_order}."""
        if self.unit_count == 2:
            return {(1, 0): 0, (-1, 0): 3}[u]  # -1 = zeta6^3
        table = self.roots_of_unity()
        return table.index(u)


EISENSTEIN = Ring("Z[zeta6]", t=1, n=1, disc=-3, unit_count=6)
KLEINIAN = Ring("Z[(1+sqrt-7)/2]", t=1, n=2, disc=-7, unit_count=2)
GAUSSIAN = Ring("Z[i]", t=0, n=1, disc=-4, unit_count=4)

ZETA6_POWERS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
I_POWERS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def value_pair(ring: Ring, e: int):
    """zeta^e as a pair in the ring carrying the values (zeta6 or i powers)."""
    if ring.value_order == 4:
        return I_POWERS[e % 4]
    return ZETA6_POWERS[e % 6]


def split_prime(ring: Ring, p: int):
    bound = int(math.isqrt(4 * p)) + 2
    if ring.disc % p == 0:
        for y in range(-bound, bound + 1):
            for x in range(-bound, bound + 1):
                if ring.norm((x, y)) == p:
                    return "ramified", (x, y)
        raise AssertionError(f"no generator of norm {p} in {ring.name}")
    for y in range(1, bound):
        for x in range(-bound, bound + 1):
            if ring.norm((x, y)) == p:
                return "split", (x, y)
    return "inert", None


def local_components(ring: Ring, p: int, k: int):
    """The ideals of norm p^k, each as a list of prime components (pi, e)."""
    kind, gen = split_prime(ring, p)
    if kind == "inert":
        return [] if k % 2 else [[((p, 0), k // 2)]]
    if kind == "ramified":
        return [[(gen, k)]]
    return [[(pi, e) for pi, e in ((gen, a), (ring.conj(gen), k - a)) if e] for a in range(k + 1)]


def conductor_component_sets(ring: Ring, norm: int):
    """All ways to write an ideal of the given norm as prime components.

    The first prime's choice is the outermost loop.
    """
    choices = [local_components(ring, p, k) for p, k in factorize(norm).items()]
    return [[c for local in chosen for c in local] for chosen in product(*choices)]


@lru_cache(maxsize=None)
def ideals_of_norm(ring: Ring, m: int):
    """All ideals of norm m as generators (class number one)."""
    out = []
    for components in conductor_component_sets(ring, m):
        gen = (1, 0)
        for pi, e in components:
            gen = ring.mul(gen, ring.pow(pi, e))
        out.append(gen)
    return out


# ---------------------------------------------------------------------------
# residue rings O/(F) and brute-force character enumeration


class ResidueRing:
    """O/(F) via the 2D lattice spanned by F and F*g; canonical reps."""

    def __init__(self, ring: Ring, modgen):
        self.ring = ring
        self.modgen = modgen
        v1 = modgen
        v2 = ring.mul(modgen, (0, 1))
        g = math.gcd(abs(v1[1]), abs(v2[1]))
        if g == 0:
            raise ValueError("degenerate modulus")
        # integer combination with y-component g
        a, b = v1[1], v2[1]
        old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        if old_r < 0:
            old_s, old_t, old_r = -old_s, -old_t, -old_r
        self.wy = (old_s * v1[0] + old_t * v2[0], old_r)
        self.d2 = old_r
        self.d1 = abs(ring.norm(modgen)) // self.d2

    def reduce(self, a):
        x, y = a
        k = y // self.d2  # floor division, also for negative y
        x, y = x - k * self.wy[0], y - k * self.wy[1]
        return (x % self.d1, y)

    def is_unit(self, a) -> bool:
        return math.gcd(self.ring.norm(a), self.ring.norm(self.modgen)) == 1

    def units(self):
        out = []
        for y in range(self.d2):
            for x in range(self.d1):
                if self.reduce((x, y)) == (x, y) and self.is_unit((x, y)):
                    out.append((x, y))
        return out

    def mul(self, a, b):
        return self.reduce(self.ring.mul(a, b))


def all_characters(elems, mul, one, m: int):
    """Every hom G -> mu_m of a small abelian group, as {element: exponent}."""
    gens = []
    generated = {one}
    for e in sorted(elems):
        if e not in generated:
            gens.append(e)
            frontier = [one]
            generated = {one}
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gens:
                        y = mul(x, g)
                        if y not in generated:
                            generated.add(y)
                            nxt.append(y)
                frontier = nxt
    chars = []

    def assign(i, images):
        if i == len(gens):
            table = {one: 0}
            frontier = [one]
            while frontier:
                nxt = []
                for x in frontier:
                    for g, img in zip(gens, images):
                        y = mul(x, g)
                        e = (table[x] + img) % m
                        if y in table:
                            if table[y] != e:
                                return
                        else:
                            table[y] = e
                            nxt.append(y)
                frontier = nxt
            chars.append(table)
            return
        for img in range(m):
            assign(i + 1, images + [img])

    assign(0, [])
    return chars


# ---------------------------------------------------------------------------
# Hecke characters (infinity type z) and theta coefficients


class HeckeChar:
    """Conductor components (pi, k) with one character table each; values mu_m."""

    def __init__(self, ring: Ring, components, tables):
        self.ring = ring
        self.m = ring.value_order
        self.components = components  # list of (prime_gen, exponent)
        self.rings = [ResidueRing(ring, ring.pow(pi, k)) for pi, k in components]
        self.tables = tables
        self.conductor_norm = 1
        for pi, k in components:
            self.conductor_norm *= abs(ring.norm(pi)) ** k

    def exponent(self, alpha) -> int | None:
        total = 0
        for rr, table in zip(self.rings, self.tables):
            r = rr.reduce(alpha)
            if r not in table:
                return None
            total += table[r]
        return total % self.m

    def is_valid_unit_condition(self) -> bool:
        for u in self.ring.roots_of_unity():
            e = self.exponent(u)
            if e is None:
                return False
            if (e + self.ring.unit_value_exponent(u)) % self.m:
                return False
        return True

    def conductor_is_exact(self) -> bool:
        """Each component's character is nontrivial on 1 + pi^(k-1) (all units when k = 1)."""
        for (pi, k), table in zip(self.components, self.tables):
            lower = ResidueRing(self.ring, self.ring.pow(pi, k - 1))
            zero = lower.reduce((0, 0))
            if not any(v and lower.reduce((u[0] - 1, u[1])) == zero for u, v in table.items()):
                return False
        return True


def theta_ap_samering(ring: Ring, hecke: HeckeChar, n: int):
    """a_n when the coefficient ring is the CM ring itself."""
    total = (0, 0)
    for gen in ideals_of_norm(ring, n):
        e = hecke.exponent(gen)
        if e is None:
            continue
        total = ring.add(total, ring.mul(value_pair(ring, e), gen))
    return total


def theta_ap_biquad(ring: Ring, hecke: HeckeChar, n: int):
    """a_n in Z[zeta6] for the Kleinian ring with mu_6 values.

    Computed in Z[zeta6] tensor O_K (four integer coordinates over
    zeta6^j * g^k); the g-component must cancel, which is asserted.
    """
    c = [[0, 0], [0, 0]]  # c[j][k] * zeta6^j * g^k
    for gen in ideals_of_norm(ring, n):
        e = hecke.exponent(gen)
        if e is None:
            continue
        z0, z1 = ZETA6_POWERS[e % 6]
        g0, g1 = gen
        c[0][0] += z0 * g0
        c[0][1] += z0 * g1
        c[1][0] += z1 * g0
        c[1][1] += z1 * g1
    # the sum is conjugation-invariant in the CM ring, so the g-part vanishes
    assert c[0][1] == 0 and c[1][1] == 0, f"coefficient leaves Z[zeta6]: {c}"
    return (c[0][0], c[1][0])


def theta_coefficient(ring: Ring, hecke: HeckeChar, n: int, biquad: bool):
    return theta_ap_biquad(ring, hecke, n) if biquad else theta_ap_samering(ring, hecke, n)


# ---------------------------------------------------------------------------
# kronecker symbol for fundamental discriminants


def kronecker(d: int, n: int) -> int:
    n = abs(n)
    if math.gcd(abs(d), n) != 1:
        return 0
    result = 1
    for p, k in factorize(n).items():
        if k % 2 == 0:
            continue
        if p == 2:
            s = 1 if d % 8 == 1 else -1
        else:
            s = legendre(d, p)
        result *= s
    return result


# ---------------------------------------------------------------------------
# nebentypus serialisation over the canonical unit-group basis


def nebentypus_dict(ring: Ring, hecke: HeckeChar, level: int):
    """eps_f = chi_K * (eps restricted to Z) as a character dict + field image."""
    m = ring.value_order
    basis = UnitGroupBasis.for_modulus(level)

    def eps_f_exponent(nval: int) -> int:
        e = hecke.exponent((nval, 0))
        assert e is not None, f"{nval} not coprime to conductor"
        sign = kronecker(ring.disc, nval)
        assert sign != 0
        if sign == -1:
            e = (e + m // 2) % m
        return e

    exps = [eps_f_exponent(g) for g in basis.generators]
    order = math.lcm(*(m // math.gcd(e, m) for e in exps))  # lcm of value orders
    rescaled = [e * order // m for e in exps]
    char = {
        "modulus": level,
        "zeta_order": order,
        "generator_images": [
            {"generator": g, "exponent": e} for g, e in zip(basis.generators, rescaled)
        ],
    }
    return char, order


def zeta_in_field_pair(ring: Ring, order: int):
    """Coefficient-ring image of zeta_order (None when values are rational)."""
    if order <= 2:
        return None
    m = ring.value_order
    assert m % order == 0
    return value_pair(ring, m // order)


# ---------------------------------------------------------------------------
# orbit letters for Dirichlet characters (label derivation and validation)


def mobius(n: int) -> int:
    out = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        out = -out
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def trace_of_root(m: int, e: int) -> int:
    """Trace from Q(zeta_m) to Q of zeta_m^e."""
    d = m // math.gcd(e, m)
    return mobius(d) * (euler_phi(m) // euler_phi(d))


def orbit_letter(rec: dict) -> str:
    """LMFDB-style orbit letter of a built record's nebentypus."""
    char = rec["char"]
    n, zo = char["modulus"], char["zeta_order"]
    basis = UnitGroupBasis.for_modulus(n)
    orders = basis.orders

    def basis_exponent(e: int, og: int) -> int:
        # chi(g) = zeta_zo^e = zeta_og^(e * og / zo)
        assert e * og % zo == 0
        return e * og // zo % og

    images = char["generator_images"]
    exps = tuple(basis_exponent(gi["exponent"], og) for gi, og in zip(images, orders))
    orbits = {}
    for ev in product(*map(range, orders)):
        o = math.lcm(*(og // math.gcd(e, og) for e, og in zip(ev, orders)))
        units = [k for k in range(1, o + 1) if math.gcd(k, o) == 1]
        orbit = frozenset(tuple(k * e % og for e, og in zip(ev, orders)) for k in units)
        orbits[orbit] = o

    def trace_vector(orbit, o):
        steps = [e * o // og for e, og in zip(min(orbit), orders)]  # chi(g_i) = zeta_o^step_i
        return tuple(
            trace_of_root(o, sum(s * t[j % q] for s, (q, t) in zip(steps, basis.dlog_tables)))
            if math.gcd(j, n) == 1 else 0
            for j in range(1, n + 1)
        )

    keyed = sorted(((o, trace_vector(ob, o)), ob) for ob, o in orbits.items())
    for idx, (_, orbit) in enumerate(keyed):
        if exps in orbit:
            return cremona_letter(idx)
    raise AssertionError("character not found among orbits")


def cremona_letter(idx0: int) -> str:
    digits = []
    n = idx0
    while True:
        digits.append(n % 26)
        n //= 26
        if n == 0:
            break
    return "".join(chr(97 + d) for d in reversed(digits))


# ---------------------------------------------------------------------------
# CM fixture construction


def enumerate_hecke_chars(ring: Ring, components):
    """All valid Hecke characters for the given conductor components."""
    per_component = []
    for pi, k in components:
        rr = ResidueRing(ring, ring.pow(pi, k))
        one = rr.reduce((1, 0))
        per_component.append(all_characters(rr.units(), rr.mul, one, ring.value_order))
    chars = (HeckeChar(ring, components, list(tables)) for tables in product(*per_component))
    return [hc for hc in chars if hc.is_valid_unit_condition() and hc.conductor_is_exact()]


def cm_record(
    label: str, ring: Ring, hecke: HeckeChar, biquad: bool, coeff_poly: tuple, note: str
) -> dict:
    level = abs(ring.disc) * hecke.conductor_norm
    char, order = nebentypus_dict(ring, hecke, level)
    # coefficient ring of a biquad (Kleinian mu6) form is Z[zeta6]
    value_ring = EISENSTEIN if biquad else ring
    zeta = zeta_in_field_pair(value_ring, order)
    return {
        "label": label,
        "level": level,
        "weight": 2,
        "char": char,
        "field_poly": [coeff_poly[0], coeff_poly[1], 1],
        "ap": [{"p": p, "coeffs": list(theta_coefficient(ring, hecke, p, biquad))} for p in PRIMES],
        "cm": True,
        "cm_disc": ring.disc,
        "inner_twist_count": 2,
        "ap_max_prime": AP_MAX,
        "zeta_in_field": list(zeta) if zeta else None,
        "provenance": f"computed exactly from the CM Hecke character; {note}",
    }


# reference q-expansion prefixes: n -> (c0, c1) over {1, zeta6}; all shown terms
LOW_LEVEL_PREFIXES = {
    "49.2.c.a": {2: (0, -1), 3: (0, 0), 4: (1, -1), 5: (0, 0), 6: (0, 0), 7: (0, 0), 8: (-3, 0), 9: (0, 3)},
    "63.2.e.a": {2: (0, 0), 3: (0, 0), 4: (0, 2), 5: (0, 0), 6: (0, 0), 7: (1, -3), 8: (0, 0), 9: (0, 0)},
    "81.2.c.a": {2: (0, 0), 3: (0, 0), 4: (0, 2), 5: (0, 0), 6: (0, 0), 7: (1, -1), 8: (0, 0), 9: (0, 0)},
    "117.2.g.a": {2: (0, 0), 3: (0, 0), 4: (0, 2), 5: (0, 0), 6: (0, 0), 7: (0, 1), 8: (0, 0), 9: (0, 0)},
    "117.2.q.b": {2: (0, 0), 3: (0, 0), 4: (0, -2), 5: (0, 0), 6: (0, 0), 7: (6, -3), 8: (0, 0), 9: (0, 0)},
    "189.2.c.a": {2: (0, 0), 3: (0, 0), 4: (2, 0), 5: (0, 0), 6: (0, 0), 7: (-1, 3), 8: (0, 0), 9: (0, 0)},
    "189.2.e.b": {2: (0, 0), 3: (0, 0), 4: (2, -2), 5: (0, 0), 6: (0, 0), 7: (1, -3), 8: (0, 0), 9: (0, 0)},
    "189.2.p.a": {2: (0, 0), 3: (0, 0), 4: (-2, 2), 5: (0, 0), 6: (0, 0), 7: (-1, 3), 8: (0, 0), 9: (0, 0)},
}

LOW_LEVEL_CONDUCTORS = {
    49: (KLEINIAN, 7, True),  # (ring, conductor norm, biquad)
    63: (EISENSTEIN, 21, False),
    81: (EISENSTEIN, 27, False),
    117: (EISENSTEIN, 39, False),
    189: (EISENSTEIN, 63, False),
}


def build_low_level_forms():
    """Match each reference prefix against the enumerated Hecke characters."""
    records = {}
    for label, prefix in LOW_LEVEL_PREFIXES.items():
        level, _, orbit, _ = LABEL_RE.match(label).groups()
        ring, cond_norm, biquad = LOW_LEVEL_CONDUCTORS[int(level)]
        matches = [
            hc
            for components in conductor_component_sets(ring, cond_norm)
            for hc in enumerate_hecke_chars(ring, components)
            if all(theta_coefficient(ring, hc, n, biquad) == want for n, want in prefix.items())
        ]
        assert len(matches) == 1, f"{label}: expected a unique match, got {len(matches)}"
        note = "all displayed reference coefficients verified"
        rec = cm_record(label, ring, matches[0], biquad, (1, -1), note)  # x^2 - x + 1 (zeta6)
        letter = orbit_letter(rec)
        assert letter == orbit, f"{label}: orbit letter {letter}"
        records[label] = rec
        print(f"  {label}: matched, nebentypus order {rec['char']['zeta_order']}, letter {letter}")
    return records


# ---------------------------------------------------------------------------
# negative controls (CM constructions with various non-positive outcomes)

CONTROLS = (
    # (ring, conductor primes as (p, exponent, conjugate ideal?), field poly x^2 + c1 x + c0
    #  as (c0, c1), level, character values +-1 only, provenance note)
    (GAUSSIAN, ((5, 1, False),), (1, 0), 20, False, "7 inert in Q(i)"),
    # pi2^3 on one side only so coefficients leave Q; +-1 values keep them in Z[(1+sqrt-7)/2]
    (KLEINIAN, ((2, 3, False),), (2, -1), 56, True, "7 ramifies in Q(sqrt-7)"),
    (EISENSTEIN, ((7, 1, False), (13, 1, False)), (1, -1), 273, False,
     "squarefree level, twist modulus 1"),
    # twist candidates exist (modulus 31) but the true self-twist has conductor 3
    (EISENSTEIN, ((31, 1, False), (31, 1, True)), (1, -1), 2883, False,
     "self-twist conductor outside the modulus-31 candidates"),
)


def build_controls():
    """The first valid character per row with an irrational a_p among the first 25 primes."""
    records = {}
    for ring, primes, coeff_poly, level, signs_only, note in CONTROLS:
        components = []
        for p, k, conjugate in primes:
            gen = split_prime(ring, p)[1]
            components.append((ring.conj(gen) if conjugate else gen, k))
        chars = enumerate_hecke_chars(ring, components)
        assert level != 20 or len(chars) == 1, f"level-20 control: {len(chars)} characters"
        for hc in chars:
            if signs_only and any(v not in (0, 3) for t in hc.tables for v in t.values()):
                continue  # a value other than zeta6^0 = 1 or zeta6^3 = -1
            if any(theta_ap_samering(ring, hc, p)[1] for p in PRIMES[:25]):
                break
        else:
            raise AssertionError(f"no valid level-{level} character")
        rec = cm_record("", ring, hc, False, coeff_poly, f"negative control: {note}")
        assert rec["level"] == level, rec["level"]
        rec["label"] = f"{level}.2.{orbit_letter(rec)}.a"
        records[rec["label"]] = rec
    return records


# ---------------------------------------------------------------------------
# synthesised high-level fixtures (real quadratic field Q(sqrt 2))


def elliptic_traces(a: int, b: int) -> dict:
    """a_p of y^2 = x^3 + a x + b for p <= AP_MAX (generic mod-7 seed data)."""
    out = {}
    for p in PRIMES:
        if p == 2 or (4 * a**3 + 27 * b**2) % p == 0:
            out[p] = 0
            continue
        squares = set()
        for x in range(p):
            squares.add(x * x % p)
        total = 0
        for x in range(p):
            v = (x * x * x + a * x + b) % p
            if v == 0:
                continue
            total += 1 if v in squares else -1
        out[p] = -total
    return out


def theta_mod7(rr: ResidueRing, w: int, power: int, table):
    """theta((alpha)) = (alpha mod the prime above 7)^power * 3^T(alpha mod rr) in F_7.

    w is the image of the ring generator g modulo the prime above 7, and T
    the character table of (O/rr)^x with mu_6 exponents.
    """

    def theta(alpha):
        r7 = (alpha[0] + w * alpha[1]) % 7
        assert r7 != 0
        return pow(r7, power, 7) * pow(3, table[rr.reduce(alpha)], 7) % 7

    return theta


def ratio_orders(ring: Ring, theta, skip) -> set:
    """Orders of theta(pi-bar) / theta(pi) in F_7^x at split p among the first 60 primes.

    The primes in skip are left out.
    """
    orders = set()
    for p in PRIMES[:60]:
        if p in skip:
            continue
        kind, gen = split_prime(ring, p)
        if kind == "split":
            ratio = theta(ring.conj(gen)) * pow(theta(gen), -1, 7) % 7
            orders.add(next(o for o in range(1, 7) if pow(ratio, o, 7) == 1))
    return orders


def split_trace(ring: Ring, theta, p: int) -> int:
    """theta(pi) + theta(pi-bar) mod 7 at split p; 0 at inert and ramified p."""
    kind, gen = split_prime(ring, p)
    return (theta(gen) + theta(ring.conj(gen))) % 7 if kind == "split" else 0


def kleinian_theta(want_t11: int):
    """Dihedral-by-construction mod-7 theta for conductor 9*sqrt(-7).

    theta((alpha)) = (alpha mod sqrt-7)^4 * T(alpha mod 9) with T a mu_6
    character of (O/9)^x trivial on rational residues, ratio order 3, and
    the trace want_t11 at 11.
    """
    rr9 = ResidueRing(KLEINIAN, (9, 0))
    rational = [rr9.reduce((n, 0)) for n in range(1, 9) if n % 3]
    for table in all_characters(rr9.units(), rr9.mul, rr9.reduce((1, 0)), 6):
        if any(table[r] for r in rational) or not any(table.values()):
            continue
        theta = theta_mod7(rr9, 4, 4, table)  # w = (1 + sqrt-7)/2 = 4 mod sqrt-7
        if math.lcm(*ratio_orders(KLEINIAN, theta, {2, 3, 7})) != 3:
            continue
        if split_trace(KLEINIAN, theta, 11) == want_t11:
            return theta
    raise AssertionError("no dihedral character with the pinned trace at 11")


def eisenstein_theta():
    """Dihedral-by-construction mod-7 theta for conductor p3^2 * pi7.

    theta((alpha)) = (alpha mod pi7) * T(alpha mod 3) with T the faithful
    character of (O/3)^x forced by the unit condition; ratio order 6.
    """
    ring = EISENSTEIN
    rr3 = ResidueRing(ring, (3, 0))
    units3 = rr3.units()
    # p3 = (-1 + 2 zeta6); u = 1 mod p3 iff norm(u - 1) divisible by 3
    one_mod_p3 = [u for u in units3 if ring.norm((u[0] - 1, u[1])) % 3 == 0]
    for table in all_characters(units3, rr3.mul, rr3.reduce((1, 0)), 6):
        theta = theta_mod7(rr3, 3, 1, table)  # zeta6 = 3 mod pi7 = (1 + 2 zeta6)
        if any(theta(u) != 1 for u in ring.roots_of_unity()):
            continue
        if not any(table[u] for u in one_mod_p3):
            continue  # conductor exactness at p3^2: nontrivial on 1 + p3
        if math.lcm(*ratio_orders(ring, theta, {3, 7, 337})) == 6:
            return theta
    raise AssertionError("no valid order-6 character at (3)")


def weil_lift(t3: int, t4: int, p: int):
    """Smallest a_p = (x, y) in Z[sqrt2] with x + 3y = t3, x + 4y = t4 mod 7.

    Minimises the larger embedding |x| + sqrt(2)|y| subject to the usual
    bound 2 sqrt(p); returns None when no admissible lift exists.
    """
    y0 = (t4 - t3) % 7
    x0 = (t3 - 3 * y0) % 7
    best = None
    limit = 2 * math.sqrt(p)
    span = int(limit // 7) + 2
    for ky in range(-span, span + 1):
        y = y0 + 7 * ky
        for kx in range(-span, span + 1):
            x = x0 + 7 * kx
            h = abs(x) + math.sqrt(2) * abs(y)
            if h <= limit + 1e-9:
                key = (h, abs(x), abs(y), x, y)
                if best is None or key < best[0]:
                    best = (key, (x, y))
    return None if best is None else best[1]


SIMPLE_FORMS = {
    # label: (level, dihedral root, pinned {p: (c0,c1)}, curve seed, bad {p: (c0,c1)})
    "7938.2.a.bj": (7938, 4, {5: (0, 0), 11: (0, -9)}, (2, 3), {2: (-1, 0), 3: (0, 0), 7: (0, 0)}),
    "7938.2.a.bk": (7938, 3, {5: (0, 0), 11: (0, 3)}, (1, 1), {2: (-1, 0), 3: (0, 0), 7: (0, 0)}),
    "7938.2.a.bp": (7938, 4, {5: (0, 0), 11: (0, 9)}, (1, 4), {2: (1, 0), 3: (0, 0), 7: (0, 0)}),
    "7938.2.a.bq": (7938, 4, {5: (0, 0), 11: (0, 9)}, (3, 5), {2: (1, 0), 3: (0, 0), 7: (0, 0)}),
    "9099.2.a.e": (9099, 4, {2: (0, 0), 5: (-3, -1), 7: (-2, 2), 11: (0, 0)}, (2, 1), {3: (0, 0), 337: (-1, 0)}),
    "9099.2.a.g": (9099, 4, {2: (0, 0), 5: (3, 1), 7: (-2, 2), 11: (0, 0)}, (5, 3), {3: (0, 0), 337: (1, 0)}),
}


def build_simple_forms():
    records = {}
    thetas = {
        7938: (KLEINIAN, kleinian_theta(want_t11=2)),  # matches a_11 = 3*sqrt2 at root 3
        9099: (EISENSTEIN, eisenstein_theta()),
    }
    for label, (level, droot, pinned, curve, bad) in SIMPLE_FORMS.items():
        groot = 7 - droot  # the other root of x^2 - 2 mod 7 (3 <-> 4)
        seeds = elliptic_traces(*curve)
        ap = {**pinned, **bad}
        for p in PRIMES:
            if p in ap:
                continue
            td = split_trace(*thetas[level], p)
            for shift in range(7):
                pair = {droot: td, groot: (seeds[p] + shift) % 7}
                lift = weil_lift(pair[3], pair[4], p)
                if lift is not None:
                    break
            assert lift is not None, f"{label}: no admissible lift at {p}"
            ap[p] = lift
        records[label] = {
            "label": label,
            "level": level,
            "weight": 2,
            "char": {"modulus": level, "zeta_order": 1,
                     "generator_images": [
                         {"generator": g, "exponent": 0}
                         for g in UnitGroupBasis.for_modulus(level).generators
                     ]},
            "field_poly": [-2, 0, 1],
            "ap": [{"p": p, "coeffs": [c[0], c[1]]} for p, c in sorted(ap.items())],
            "cm": False,
            "inner_twist_count": 1,
            "ap_max_prime": AP_MAX,
            "provenance": (
                "synthesised: reference-displayed coefficients pinned verbatim; "
                "designated ideal carries a dihedral-by-construction mod-7 trace "
                "function, the other ideal generic seed data"
            ),
        }
        print(f"  {label}: synthesised (dihedral root {droot})")
    return records


# ---------------------------------------------------------------------------


def build_fixtures() -> dict:
    """Every fixture as label -> NewformRecord.to_json text, each record load-checked by from_dict."""
    print("low-level CM forms:")
    records = build_low_level_forms()
    print("negative controls:")
    records.update(build_controls())
    print("high-level synthesised forms:")
    records.update(build_simple_forms())
    return {label: NewformRecord.from_dict(rec).to_json() for label, rec in sorted(records.items())}


def main():
    texts = build_fixtures()
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for label, text in texts.items():
        (FIXTURE_DIR / f"{label}.json").write_text(text)
    print(f"wrote {len(texts)} fixtures to {FIXTURE_DIR}")

    validate()


def validate():
    """Scan the written fixtures with the real pipeline and check them against the golden scans."""
    from hassecheck.lmfdb import DataSource, fetch_form
    from hassecheck.pipeline import hasse_verdict, scan

    src = DataSource(mode="fixtures")
    for name, bound in (("scan_ell7_default", None), ("scan_ell7_b1000", 1000)):
        # serialised as tests/test_pipeline.py does: parsed JSON would read true as 1
        text = json.dumps(scan(src, 7, bound=bound), indent=1, sort_keys=True) + "\n"
        assert text == (GOLDEN_DIR / f"{name}.json").read_text(), f"scan differs from tests/golden/{name}.json"
        print(f"validation: the scan matches tests/golden/{name}.json")

    print("validation: negative controls at bound 500:")
    control_levels = {row[3] for row in CONTROLS}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        rec = fetch_form(src, path.stem)
        if rec.level in control_levels:
            verdict, _ = hasse_verdict(rec, 7, bound=500)
            print(f"  {rec.label}: {verdict.verdict} ({ {k: v for k, v in verdict.reasons.items() if v} })")
            assert verdict.verdict != "hasse", rec.label

    print("all validations passed")


if __name__ == "__main__":
    main()
