"""Dirichlet characters: evaluation, conductors, twist machinery."""

import json
from itertools import product
from math import gcd, isqrt, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hassecheck import dchar
from hassecheck.dchar import (
    DirichletCharacter,
    EmbeddingError,
    RingEmbedding,
    UnitGroupBasis,
    evaluate,
    fl_valued_characters,
    kernel_field_disc,
    quadratic_characters,
    twist_modulus,
)
from hassecheck.ffield import factorize
from hassecheck.lmfdb import DataSource, fetch_form
from hassecheck.nfdata import primes_upto, ring_mul

# zeta_6 -> 3, a generator of F_7^x: the powers 3^k mod 7
F7 = RingEmbedding([pow(3, k, 7) for k in range(6)], 0)


def test_twist_modulus():
    assert twist_modulus(189) == 3
    assert twist_modulus(7938) == 21
    assert twist_modulus(30) == 1
    assert twist_modulus(1) == 1
    assert twist_modulus(9099) == 3


def test_quadratic_characters_mod_21():
    chars = quadratic_characters(21)
    assert len(chars) == 4
    assert [c.conductor() for c in chars] == [1, 3, 7, 21]


def test_quadratic_characters_match_a_brute_force_enumeration():
    for q in range(1, 201):
        basis = UnitGroupBasis.for_modulus(q)
        logs = old_dlog_table(basis)
        brute = []
        for exps in product(range(2), repeat=len(basis.generators)):
            # a +-1 function of the discrete logs is a character exactly when
            # chi(a * g) = chi(a) * chi(g) for every unit a and generator g
            def sign(a):
                return (-1) ** sum(e * x for e, x in zip(exps, logs[a % q]))

            if all(sign(a * g) == sign(a) * sign(g) for a in logs for g in basis.generators):
                brute.append(DirichletCharacter(basis, 2, exps))
        brute.sort(key=lambda c: (c.conductor(), c.exponents))
        assert quadratic_characters(q) == tuple(brute), q


def test_quadratic_characters_trivial_modulus():
    chars = quadratic_characters(1)
    assert len(chars) == 1 and chars[0].is_trivial()


def test_quadratic_character_mod_3():
    chars = quadratic_characters(3)
    assert kernel_field_disc(chars[1]) == -3
    assert chars[1].sign_value(11) == -1


def test_quadratic_counts_match_even_cyclic_factors():
    for q in (3, 7, 21, 8, 15, 16, 24, 35):
        basis = UnitGroupBasis.for_modulus(q)
        even = sum(1 for o in basis.orders if o % 2 == 0)
        assert len(quadratic_characters(q)) == 2**even


def test_minus_residues_agree_with_sign_value():
    # twist moduli are the squarefree q; every prime factor of q <= 210 is
    # among the primes p <= 1000, so p | q is covered too
    primes = [p for p in range(2, 1001) if all(p % d for d in range(2, isqrt(p) + 1))]
    count = 0
    for q in range(1, 211):
        if twist_modulus(q * q) != q:
            continue
        for alpha in quadratic_characters(q):
            minus = alpha.minus_residues
            for p in primes:
                assert (p % q in minus) == (alpha.sign_value(p) == -1), (q, alpha.exponents, p)
            count += 1
    assert count == 384  # over the 129 squarefree q <= 210


def test_minus_residues_reject_a_character_of_order_above_2():
    for chi in fl_valued_characters(63, 7):
        if chi.order() > 2:
            with pytest.raises(ValueError):
                chi.minus_residues
        else:
            assert (chi.order() == 1) == (chi.minus_residues == frozenset())


def test_minus_residues_are_built_once_per_character():
    for alpha in quadratic_characters(21):
        assert alpha.minus_residues is alpha.minus_residues
    chi = next(c for c in fl_valued_characters(63, 7) if c.order() > 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            chi.minus_residues


def test_fl_valued_counts():
    assert len(fl_valued_characters(49, 7)) == 6
    assert len(fl_valued_characters(1, 7)) == 1
    assert len(fl_valued_characters(189, 7)) == 36


def uncached_characters(n, m):
    """Characters mod n of order dividing m: each exponent e of a generator of order o has e*o = 0 mod m."""
    basis = UnitGroupBasis.for_modulus(n)
    steps = [[e for e in range(m) if e * o % m == 0] for o in basis.orders]
    return tuple(DirichletCharacter(basis, m, exps) for exps in product(*steps))


def test_character_lists_match_uncached_enumerations_below_400():
    for n in range(1, 401):
        quadratic = tuple(sorted(uncached_characters(n, 2), key=lambda c: (c.conductor(), c.exponents)))
        assert quadratic_characters(n) == quadratic, n
        for ell in (3, 7, 11, 13):  # orders dividing 2, 6, 10 and 12
            assert fl_valued_characters(n, ell) == uncached_characters(n, ell - 1), (n, ell)


def test_character_lists_are_one_cached_tuple_per_argument():
    # immutable, so handing out the cached value lets no caller change it
    for build in (lambda: quadratic_characters(21), lambda: fl_valued_characters(189, 7)):
        first = build()
        assert type(first) is tuple and len(first) in (4, 36)
        assert build() is first


def old_conductor(chi):
    """The former loop: a flagged scan of (Z/N)^x for every divisor of N."""
    n = chi.modulus
    divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
    for d in divisors:
        ok = True
        for a in range(1, n):
            if gcd(a, n) == 1 and a % d == 1 % d:
                if chi.exponent_at(a) != 0:
                    ok = False
                    break
        if ok:
            return d
    return n


def old_dlog_table(basis):
    """The former recursion over the generators' exponents."""
    n = basis.modulus
    table = {}

    def rec(i, acc, exps):
        if i == len(basis.generators):
            table[acc] = tuple(exps)
            return
        g, og = basis.generators[i], basis.orders[i]
        x = 1
        for e in range(og):
            rec(i + 1, acc * x % n, exps + [e])
            x = x * g % n

    rec(0, 1 % n, [])
    return table


def test_conductor_matches_the_former_loop_below_400():
    count = 0
    for n in range(1, 400):
        for chi in quadratic_characters(n) + fl_valued_characters(n, 7):  # orders dividing 2 and 6
            assert chi.conductor() == old_conductor(chi), (n, chi.zeta_order, chi.exponents)
            count += 1
    assert count == 5996


def table_vector(basis, a):
    """The generators' exponents in a read from basis.dlog_tables, or None when a table misses."""
    xs = [table.get(a % q) for q, table in basis.dlog_tables]
    return None if None in xs else tuple(xs[: len(basis.generators)])


def probe_characters(basis):
    """One character per generator whose exponent is that generator's log, and one summing them."""
    orders = basis.orders
    m = lcm(*orders)
    chars = [DirichletCharacter(basis, o, tuple(int(i == j) for j in range(len(orders)))) for i, o in enumerate(orders)]
    return chars + [DirichletCharacter(basis, m, tuple(m // o for o in orders))]


def assert_exponents_match_the_former_recursion(chars, residues):
    logs = old_dlog_table(chars[0].basis)
    n = chars[0].modulus
    for chi in chars:
        for a in residues:
            dl = logs.get(a % n)
            want = None if dl is None else sum(e * x for e, x in zip(chi.exponents, dl)) % chi.zeta_order
            assert chi.exponent_at(a) == want, (n, chi.exponents, a)


FIXTURE_LEVELS = sorted({int(path.name.split(".")[0]) for path in (Path(dchar.__file__).parent / "fixtures").glob("*.json")})


def test_dlog_table_matches_the_former_recursion_below_1200():
    for n in range(1, 1200):
        cached = UnitGroupBasis.for_modulus(n)
        basis = UnitGroupBasis(n, cached.generators, cached.orders)  # its tables are not kept
        logs = old_dlog_table(basis)
        for a in range(-3, n + 3):
            assert table_vector(basis, a) == logs.get(a % n), (n, a)


def test_exponent_at_matches_the_former_recursion_below_1200_and_at_the_fixture_levels():
    assert FIXTURE_LEVELS == [20, 49, 56, 63, 81, 117, 189, 273, 2883, 7938, 9099]
    for n in sorted(set(range(1, 1200)) | set(FIXTURE_LEVELS)):
        basis = UnitGroupBasis.for_modulus(n)
        chars = probe_characters(basis)
        if n in FIXTURE_LEVELS:
            chars += fl_valued_characters(n, 7)
        assert_exponents_match_the_former_recursion(chars, range(-3, n + 3))


def test_even_residues_are_non_units_at_every_even_modulus():
    # 2 || N carries no generator, so the table mod 2 alone rejects an even a
    for n in (1, 2, 4, 8, 16, *range(6, 1200, 4)):
        evens = range(-2 * n, 2 * n + 1, 2)
        chars = probe_characters(UnitGroupBasis.for_modulus(n))
        for chi in chars:
            assert all((chi.exponent_at(a) is None) == (n > 1) for a in evens), (n, chi.exponents)
        assert_exponents_match_the_former_recursion(chars, evens)


def test_brumer_kramer_levels_match_the_former_recursion_at_the_primes_below_1000():
    # 2^8 5^2 7^2 and 2^8 3^5 7^2: the former table lists 107,520 and 870,912 units
    for n in (313_600, 3_048_192):
        basis = UnitGroupBasis.for_modulus(n)
        assert_exponents_match_the_former_recursion(
            probe_characters(basis) + list(fl_valued_characters(n, 7)), primes_upto(1000)
        )


def test_tables_hold_phi_q_residues_per_generator():
    # phi(q) for each q || N, twice at 2^k for k >= 3 (generators -1 and 5),
    # once at 2 || N (the table that rejects even residues)
    for n in (*range(1, 1200), *FIXTURE_LEVELS, 313_600, 3_048_192):
        tables = UnitGroupBasis.for_modulus(n).dlog_tables
        want = sum((q - q // p) * (2 if p == 2 and k >= 3 else 1) for p, k in factorize(n).items() for q in [p**k])
        assert sum(len(table) for _, table in tables) == want, n
    assert [len(table) for _, table in UnitGroupBasis.for_modulus(9099).dlog_tables] == [18, 336]


def test_trivial_character_evaluates_to_one():
    basis = UnitGroupBasis.for_modulus(21)
    chi = DirichletCharacter(basis, 1, (0,) * len(basis.generators))
    assert evaluate(chi, 2, F7) == 1
    assert evaluate(chi, 7, F7) == 0  # gcd > 1


def test_canonical_basis_for_189():
    basis = UnitGroupBasis.for_modulus(189)
    assert basis.generators == (29, 136)
    assert basis.orders == (18, 6)
    assert prod(basis.orders) == 108


def test_reference_nebentypus_of_189_2_p_a():
    # stored character: 29 -> -1 = zeta6^3 and 136 -> zeta6, the embedding
    # consistent with the stored coefficients (2 = 29 * 136^2 mod 189 and
    # a_4 = a_2^2 - 2 eps(2) force eps(2) = zeta6^5 = eps(29) * eps(136)^2);
    # the conjugate embedding displays zeta6^5 at 136 instead
    rec = fetch_form(DataSource(mode="fixtures"), "189.2.p.a")
    chi = rec.char
    assert chi.zeta_order == 6
    images = {gi["generator"]: gi["exponent"] for gi in chi.to_dict()["generator_images"]}
    assert images == {29: 3, 136: 1}
    assert chi.conductor() == 21
    assert (29 * 136 * 136 - 2) % 189 == 0
    a2_squared = ring_mul(rec.ap[2], rec.ap[2], rec.m0, rec.m1)
    eps2 = rec.nebentypus_value(2)
    a4_from_hecke = (a2_squared[0] - 2 * eps2[0], a2_squared[1] - 2 * eps2[1])
    # a_4 is not stored (prime-indexed table); recompute the printed value
    assert a4_from_hecke == (-2, 2)


def test_evaluate_rejects_an_embedding_of_too_small_order():
    chi = fl_valued_characters(189, 7)[7]
    assert chi.zeta_order == 6
    # zeta_2 -> -1 in F_7: an embedding of order 2, not a multiple of 6
    with pytest.raises(EmbeddingError):
        evaluate(chi, 2, RingEmbedding([1, 6], 0))


def test_multiplicativity():
    chi = fl_valued_characters(189, 7)[7]
    for a in range(1, 60):
        for b in range(1, 30):
            va, vb = evaluate(chi, a, F7), evaluate(chi, b, F7)
            vab = evaluate(chi, a * b, F7)
            assert va * vb % 7 == vab


@given(st.sampled_from([8, 21, 40, 49, 63, 189]), st.integers(0, 10**6), st.integers(0, 10**6))
def test_multiplicativity_random(n, a, b):
    chi = quadratic_characters(n)[-1]
    assert chi.sign_value(a) * chi.sign_value(b) == chi.sign_value(a * b)


def test_induction_preserves_values():
    # conductor-3 character induced to modulus 189 agrees at coprime arguments
    chi3 = quadratic_characters(3)[1]
    chi189 = next(
        c for c in quadratic_characters(189) if c.conductor() == 3
    )
    for a in range(1, 189):
        if a % 3 and a % 7:
            assert chi3.sign_value(a) == chi189.sign_value(a)


def test_serialization_round_trip():
    chi = fl_valued_characters(189, 7)[11]
    data = json.loads(json.dumps(chi.to_dict()))
    chi2 = DirichletCharacter.from_dict(data)
    assert chi2 == chi
