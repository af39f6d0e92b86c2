"""Quadratic coefficient arithmetic, reduction maps, Frobenius data, record loading."""

import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from hassecheck.ffield import legendre
from hassecheck.lmfdb import DataSource, fetch_form, list_fixture_labels
from hassecheck.matgrp import closure, matrix, projectivize
from hassecheck.nfdata import (
    BadDenominatorError,
    NewformRecord,
    RamifiedPrimeError,
    exact_rational,
    frob_charpoly,
    primes_upto,
    projective_frob_order,
    reduce_char_embedding,
    repeated_eigenvalue,
    ring_mul,
    split_primes,
    sturm_bound,
)
from hassecheck.pipeline import frob_table, scan

SQRT2 = (-2, 0, 1)  # x^2 - 2
ZETA6 = (1, -1, 1)  # x^2 - x + 1


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def conjugate(x, m1):
    """The Galois conjugate of the pair x in a field x^2 + m1 x + m0: g + g' = -m1."""
    return (x[0] - m1 * x[1], -x[1])


def test_split_primes_examples():
    maps = split_primes(SQRT2, 7)
    assert (maps[0].root, maps[1].root) == (3, 4)
    maps = split_primes(ZETA6, 7)
    assert (maps[0].root, maps[1].root) == (3, 5)
    assert split_primes(SQRT2, 5) is None
    with pytest.raises(RamifiedPrimeError):
        split_primes(ZETA6, 3)


@pytest.mark.parametrize("ell", [9, 15, 49])
def test_split_primes_rejects_a_composite_modulus(ell):
    # x^2 - 2 has roots mod 49 and a square discriminant mod 9: only the check stops them
    with pytest.raises(ValueError, match="not prime"):
        split_primes(SQRT2, ell)


def test_ideal_display():
    maps = split_primes(SQRT2, 7)
    assert maps[0].ideal_display() == "(1 + 2b)"
    assert maps[1].ideal_display() == "(1 - 2b)"


def test_reduce_examples():
    r3, r4 = split_primes(SQRT2, 7)
    assert r3.apply((0, 3)) == 2  # 3*sqrt2 at the (1+2b) ideal
    r5 = split_primes(ZETA6, 7)[1]
    assert r5.apply((-1, 3)) == 0
    assert r3.apply((0, 0)) == 0


def test_reduce_rejects_bad_denominator():
    r3 = split_primes(SQRT2, 7)[0]
    with pytest.raises(BadDenominatorError):
        r3.apply((Fraction(1, 7), Fraction(0)))


@pytest.mark.parametrize("c, value", [
    (5, 5), (-3, -3), (0, 0), ("4/2", 2), (3.0, 3), ("-6", -6), (Fraction(6, 3), 2),
    ("1/7", Fraction(1, 7)), ("0.1", Fraction(1, 10)), (0.1, Fraction(1, 10)), (Fraction(-3, 2), Fraction(-3, 2)),
])
def test_exact_rational_is_an_int_exactly_when_integral(c, value):
    got = exact_rational(c)
    assert got == value
    assert type(got) is (int if got.denominator == 1 else Fraction)


def test_exact_rational_returns_an_int_coefficient_itself():
    big = 10**30 + 1
    assert exact_rational(big) is big


@pytest.mark.parametrize("c", [True, False, "x", "1/0"])
def test_exact_rational_rejects_what_is_not_a_rational(c):
    with pytest.raises((ValueError, ZeroDivisionError)):
        exact_rational(c)


def fraction_reduction(x, ell: int, root: int):
    """x mod the ideal (ell, g - root), through Fractions; None when ell divides a denominator."""
    c0, c1 = Fraction(x[0]), Fraction(x[1])
    if c0.denominator % ell == 0 or c1.denominator % ell == 0:
        return None
    return (c0.numerator * pow(c0.denominator, -1, ell) + c1.numerator * pow(c1.denominator, -1, ell) * root) % ell


@pytest.mark.parametrize("field, ell", [(SQRT2, 7), (ZETA6, 7), (ZETA6, 13), (SQRT2, 17)])
def test_reduce_agrees_with_a_fraction_reference(field, ell):
    rng = random.Random(ell * 100 + field[0])
    maps = split_primes(field, ell)

    def coordinate():
        num = rng.randrange(-60, 61)
        kind = rng.randrange(3)
        if kind == 0:
            return num  # an int
        if kind == 1:
            return Fraction(num * 3, 3)  # an integral Fraction
        return Fraction(num, rng.choice([2, 3, 5, ell, 2 * ell, ell * ell]))

    raised = 0
    for _ in range(1500):
        x = (coordinate(), coordinate())
        for rmap in maps:
            want = fraction_reduction(x, ell, rmap.root)
            if want is None:
                raised += 1
                with pytest.raises(BadDenominatorError):
                    rmap.apply(x)
            else:
                got = rmap.apply(x)
                assert type(got) is int and got == want, (x, rmap.root)
    assert raised > 0


def test_reduce_is_ring_homomorphism():
    rng = random.Random(1)
    r3 = split_primes(SQRT2, 7)[0]
    for _ in range(1000):
        x = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        y = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        assert r3.apply(add(x, y)) == (r3.apply(x) + r3.apply(y)) % 7
        assert r3.apply(ring_mul(x, y, -2, 0)) == r3.apply(x) * r3.apply(y) % 7


def test_conjugation_swaps_the_two_maps():
    rng = random.Random(2)
    r3, r4 = split_primes(SQRT2, 7)
    for _ in range(200):
        x = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        assert r3.apply(conjugate(x, 0)) == r4.apply(x)
        assert r4.apply(conjugate(x, 0)) == r3.apply(x)


def test_sturm_bound_examples():
    assert sturm_bound(189, 2) == 48
    assert sturm_bound(1, 2) == 0
    assert sturm_bound(49, 2) == 9


def test_primes_upto_matches_trial_division_and_returns_the_cached_tuple():
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, isqrt(p) + 1))]
    for n in range(-2, 2001):
        assert primes_upto(n) == tuple(p for p in primes if p <= n), n
    first = primes_upto(1000)
    assert type(first) is tuple and len(first) == 168
    assert primes_upto(1000) is first


def test_frob_charpoly_on_fixture():
    rec = fetch_form(DataSource(mode="fixtures"), "7938.2.a.bk")
    r3 = split_primes(SQRT2, 7)[0]
    embed = reduce_char_embedding(rec, r3)
    assert frob_charpoly(rec, 11, r3, embed) == (2, 4)
    with pytest.raises(ValueError):
        frob_charpoly(rec, 7, r3, embed)  # p divides l*N
    with pytest.raises(ValueError):
        frob_charpoly(rec, 2, r3, embed)


def test_frob_missing_coefficient():
    rec = fetch_form(DataSource(mode="fixtures"), "7938.2.a.bk")
    r3 = split_primes(SQRT2, 7)[0]
    from hassecheck.nfdata import DataCoverageError

    with pytest.raises(DataCoverageError):
        rec.coefficient(1013)


def test_projective_frob_orders():
    assert projective_frob_order(2, 4, 7) == 3
    assert projective_frob_order(0, 3, 7) == 2
    assert repeated_eigenvalue(4, 4, 7) and projective_frob_order(4, 4, 7) == 1  # scalar
    assert projective_frob_order(1, 4, 7) == 4  # nonsplit ratio


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_projective_frob_order_is_the_companion_matrix_order(ell):
    for t in range(ell):
        for d in range(1, ell):
            roots = {x for x in range(ell) if (x * x - t * x + d) % ell == 0}
            # ell is odd, so a lone root is a double root
            assert repeated_eigenvalue(t, d, ell) == (len(roots) == 1), (t, d)
            if len(roots) == 1:
                continue
            companion = closure([matrix([[t, -d], [1, 0]], ell)])
            assert projective_frob_order(t, d, ell) == projectivize(companion).order(), (t, d)


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_split_primes_finds_the_roots_in_ascending_order(ell):
    for m0 in range(ell):
        for m1 in range(ell):
            disc = (m1 * m1 - 4 * m0) % ell
            # x = (-m1 + r) / 2 for each square root r of the discriminant
            inv2 = pow(2, -1, ell)
            roots = sorted((-m1 + r) * inv2 % ell for r in range(ell) if r * r % ell == disc)
            symbol = legendre(disc, ell)  # the classification by the discriminant
            if symbol == 0:
                with pytest.raises(RamifiedPrimeError):
                    split_primes((m0, m1, 1), ell)
                continue
            maps = split_primes((m0, m1, 1), ell)
            if symbol == -1:
                assert maps is None and not roots
            else:
                assert [m.root for m in maps] == roots and len(roots) == 2


def test_split_primes_at_2():
    with pytest.raises(RamifiedPrimeError):
        split_primes((1, 0, 1), 2)  # x^2 + 1 = (x + 1)^2
    assert split_primes((1, 1, 1), 2) is None
    assert [m.root for m in split_primes((0, 1, 1), 2)] == [0, 1]


def test_projective_order_depends_only_on_t2_over_d():
    for t in range(7):
        for d in range(1, 7):
            base = projective_frob_order(t, d, 7)
            for lam in range(1, 7):
                scaled = projective_frob_order(lam * t % 7, lam * lam * d % 7, 7)
                assert scaled == base


def test_trivial_nebentypus_det_is_p():
    rec = fetch_form(DataSource(mode="fixtures"), "9099.2.a.e")
    r = split_primes(SQRT2, 7)[0]
    for p in (2, 5, 11, 13, 19):
        t, d = frob_charpoly(rec, p, r, reduce_char_embedding(rec, r))
        assert d == p % 7


def test_reduced_nebentypus_matches_the_ring_oracle():
    """eps(p) through zeta reduced once per ideal equals the exact ring value, reduced.

    Every fixture that splits at 7, both ideals, every prime p <= ap_max_prime
    (eps(p) = 0 when p | N); at the good primes frob_charpoly's det is p times it.
    """
    src = DataSource(mode="fixtures")
    orders, unsplit = set(), []
    for label in list_fixture_labels(src):
        rec = fetch_form(src, label)
        try:
            maps = split_primes(rec.field_poly, 7)
        except RamifiedPrimeError:
            maps = None
        if maps is None:
            unsplit.append(label)
            continue
        orders.add(rec.char.zeta_order)
        for rmap in maps:
            embed = reduce_char_embedding(rec, rmap)
            for p in sorted(rec.ap):
                oracle = rmap.apply(rec.nebentypus_value(p))
                assert rec.nebentypus_value(p, embed) == oracle, (label, rmap.root, p)
                if p != 7 and rec.level % p:
                    assert frob_charpoly(rec, p, rmap, embed)[1] == p * oracle % 7
    assert unsplit == ["20.2.e.a", "56.2.e.a"]  # inert and ramified at 7
    assert orders == {1, 2, 3, 6}


def test_record_json_round_trip_byte_stable():
    rec = fetch_form(DataSource(mode="fixtures"), "189.2.p.a")
    text = rec.to_json()
    rec2 = NewformRecord.from_json(text)
    assert rec2.to_json() == text
    assert rec2.ap == rec.ap
    assert rec2.char == rec.char


def test_record_reads_a_decimal_coefficient_as_written():
    """0.1 in a record is 1/10, not the binary double nearest to it."""
    rec = fetch_form(DataSource(mode="fixtures"), "7938.2.a.bk")
    data = rec.to_dict()
    next(a for a in data["ap"] if a["p"] == 11)["coeffs"] = [0.1, 0]
    back = NewformRecord.from_dict(data)
    assert back.coefficient(11) == (Fraction(1, 10), 0)
    r3 = split_primes(SQRT2, 7)[0]  # the (1 + 2b) ideal
    assert r3.apply(back.coefficient(11)) == 5  # 1/10 = 1/3 = 5 mod 7
    assert {"p": 11, "coeffs": ["1/10", 0]} in back.to_dict()["ap"]


def test_record_json_round_trip_keeps_non_integral_coefficients():
    """a_2 = 1/7 survives a save and reload (as to the http cache), so its
    reduction mod 7 still fails instead of reading a_2 = 0."""
    rec = fetch_form(DataSource(mode="fixtures"), "117.2.g.a")
    data = rec.to_dict()
    next(a for a in data["ap"] if a["p"] == 2)["coeffs"] = ["1/7", "-3/2"]
    bad = NewformRecord.from_dict(data)
    assert bad.coefficient(2) == (Fraction(1, 7), Fraction(-3, 2))
    text = bad.to_json()
    back = NewformRecord.from_json(text)
    assert back.ap == bad.ap
    assert back.to_json() == text
    assert {"p": 2, "coeffs": ["1/7", "-3/2"]} in json.loads(text)["ap"]
    rmap = split_primes(rec.field_poly, 7)[0]
    with pytest.raises(BadDenominatorError):
        rmap.apply(back.coefficient(2))
    # integral coefficients stay JSON ints, so fixture and cache bytes keep their form
    assert all(type(c) is int for item in rec.to_dict()["ap"] for c in item["coeffs"])


@pytest.mark.parametrize("field, change", [
    ("field_poly", lambda d: d.update(field_poly=[1.5, -1, 1])),  # int() would read x^2 - x + 1
    ("field_poly", lambda d: d.update(field_poly=[1, -1, 1.0])),
    ("level", lambda d: d.update(level=189.7)),
    ("weight", lambda d: d.update(weight=2.9)),
    ("p", lambda d: d["ap"][0].update(p=2.6)),  # the a_p at p = 2
    ("ap_max_prime", lambda d: d.update(ap_max_prime=1009.5)),
    ("inner_twist_count", lambda d: d.update(inner_twist_count=1.5)),
    ("cm", lambda d: d.update(cm="false")),  # bool("false") is True
    ("cm_disc", lambda d: d.update(cm_disc="-3")),
    ("modulus", lambda d: d["char"].update(modulus=189.0)),
    ("zeta_order", lambda d: d["char"].update(zeta_order=6.0)),
    ("generator", lambda d: d["char"]["generator_images"][0].update(generator=29.0)),  # 29.0 == 29 as a dict key
    ("exponent", lambda d: d["char"]["generator_images"][1].update(exponent=True)),
], ids=[
    "field_poly", "field_poly-lead", "level", "weight", "p", "ap_max_prime", "inner_twist_count", "cm",
    "cm_disc", "modulus", "zeta_order", "generator", "exponent",
])
def test_record_rejects_a_field_of_the_wrong_json_type(field, change):
    data = fetch_form(DataSource(mode="fixtures"), "189.2.p.a").to_dict()
    change(data)
    with pytest.raises(ValueError, match=f"189.2.p.a: {field} must be a JSON"):
        NewformRecord.from_dict(data)


def _a7(data):
    return next(a for a in data["ap"] if a["p"] == 7)


@pytest.mark.parametrize("change, message", [
    (lambda d: d["ap"].append({"p": 7, "coeffs": [99, 0]}), "a second a_p for p = 7"),  # replaced a_7
    (lambda d: _a7(d).update(coeffs=[1, 2, 5]), r"a_p for p = 7 must be a list of two coordinates, not \[1, 2, 5\]"),
    (lambda d: _a7(d).update(coeffs=[1]), r"a_p for p = 7 must be a list of two coordinates, not \[1\]"),
], ids=["repeated-p", "three-coordinates", "one-coordinate"])
def test_record_rejects_a_malformed_ap_list(change, message):
    data = fetch_form(DataSource(mode="fixtures"), "63.2.e.a").to_dict()
    assert _a7(data)["coeffs"] == [1, -3]
    change(data)
    with pytest.raises(ValueError, match=f"63.2.e.a: {message}"):
        NewformRecord.from_dict(data)


@pytest.mark.parametrize("zeta, message", [
    ([], r"zeta_in_field must be a list of two coordinates, not \[\]"),
    ([1, 1, 0], r"zeta_in_field must be a list of two coordinates, not \[1, 1, 0\]"),
    (None, "character needs zeta_in_field"),  # only +-1 goes unstored, and zeta has order 3
], ids=["empty", "three-coordinates", "missing"])
def test_record_rejects_a_malformed_zeta_on_load(zeta, message):
    data = fetch_form(DataSource(mode="fixtures"), "63.2.e.a").to_dict()
    assert (data["char"]["zeta_order"], data["zeta_in_field"]) == (3, [-1, 1])
    data["zeta_in_field"] = zeta
    with pytest.raises(ValueError, match=f"63.2.e.a: {message}"):
        NewformRecord.from_dict(data)


def test_zeta_is_parsed_once_on_load():
    data = fetch_form(DataSource(mode="fixtures"), "63.2.e.a").to_dict()
    data["zeta_in_field"] = ["-2/2", "1"]
    rec = NewformRecord.from_dict(data)
    assert rec.zeta_in_field == rec.zeta == (-1, 1) and all(type(c) is int for c in rec.zeta)
    assert rec.to_dict()["zeta_in_field"] == [-1, 1]


def test_scan_turns_a_record_of_the_wrong_json_type_into_an_error_row(tmp_path):
    for label in ("189.2.p.a", "189.2.c.a"):
        data = fetch_form(DataSource(mode="fixtures"), label).to_dict()
        if label == "189.2.p.a":
            data["cm"] = "false"
        (tmp_path / f"{label}.json").write_text(json.dumps(data))
    rows = scan(DataSource(mode="fixtures", fixtures=tmp_path), 7)
    assert [r["label"] for r in rows] == ["189.2.c.a", "189.2.p.a"]
    assert "error" not in rows[0]
    assert rows[1] == {"label": "189.2.p.a", "error": "ValueError: 189.2.p.a: cm must be a JSON bool, not 'false'"}


def test_a_reduction_map_of_another_field_is_rejected_once_per_ideal():
    """apply trusts its pair; reduce_char_embedding, which every frob_table calls, checks the field."""
    rec = fetch_form(DataSource(mode="fixtures"), "189.2.p.a")  # x^2 - x + 1
    other = split_primes(SQRT2, 7)[0]  # x^2 - 2 also splits at 7
    with pytest.raises(ValueError, match="reduction map of another field"):
        reduce_char_embedding(rec, other)
    with pytest.raises(ValueError, match="reduction map of another field"):
        frob_table(rec, other, 100)
    for own in split_primes(rec.field_poly, 7):
        assert len(frob_table(rec, own, 100)) == len([p for p in primes_upto(100) if 189 * 7 % p])
