"""The int-valued newform sweep against the FieldElement computation it replaces.

Every fixture that splits at 7, 11, 13 and 19, both prime ideals, at bound
1000 and at the default bound: the Frobenius table is checked against exact
ring values reduced by the ideal's map, and each pipeline stage against a
local copy of its FieldElement version (evaluate, sign_value, legendre).  At
11, 13 and 19 the reducibility sweep runs characters of order dividing 10, 12
and 18, so it reads zeta^-k for more exponents k.  The int-valued `legendre`
is checked against the FieldElement Euler criterion it replaced.
"""

from math import lcm

import pytest

from hassecheck import dchar
from hassecheck.dchar import RingEmbedding, evaluate, kernel_field_disc, twist_modulus
from hassecheck.ffield import FieldElement, is_prime, legendre, mul_order, primitive_root
from hassecheck.lmfdb import DataSource, fetch_form, list_fixture_labels
from hassecheck.nfdata import DataCoverageError, RamifiedPrimeError, default_bound, split_primes
from hassecheck.pipeline import (
    STABILIZATION_MARGIN,
    detect_twist,
    dihedral_order,
    exclude_reducible,
    frob_table,
    not_borel_witness,
    test_primes as good_primes,
)

ELL = 7
SRC = DataSource(mode="fixtures")


def _maps(label, ell=ELL):
    try:
        return split_primes(fetch_form(SRC, label).field_poly, ell)
    except RamifiedPrimeError:
        return None


SPLIT_AT = {ell: [label for label in list_fixture_labels(SRC) if _maps(label, ell) is not None] for ell in (ELL, 11, 13, 19)}
SPLIT = SPLIT_AT[ELL]


def test_every_fixture_but_the_inert_and_ramified_one_splits():
    assert sorted(set(list_fixture_labels(SRC)) - set(SPLIT)) == ["20.2.e.a", "56.2.e.a"]
    assert len(SPLIT) == 16


# -- the FieldElement versions ----------------------------------------------


def fe_legendre(x):
    """Euler-criterion value of the FieldElement x, normalised to {-1, 0, +1}."""
    p = x.modulus
    if p == 2:
        raise ValueError("legendre symbol undefined for modulus 2")
    if x.value == 0:
        return 0
    e = pow(x.value, (p - 1) // 2, p)
    return 1 if e == 1 else -1


@pytest.mark.parametrize("p", [p for p in range(3, 32) if is_prime(p)])
def test_legendre_matches_the_field_element_version(p):
    for x in range(-p, 2 * p):  # every residue, by more than one representative
        assert legendre(x, p) == fe_legendre(FieldElement(x, p)), (x, p)


def ring_table(record, rmap, bound):
    """p -> (a_p, p * eps(p)) as FieldElements, eps(p) the exact ring value reduced."""
    ell = rmap.ell

    def reduce(x):
        return FieldElement(rmap.apply(x), ell)

    return {
        p: (reduce(record.coefficient(p)), FieldElement(p, ell) * reduce(record.nebentypus_value(p)))
        for p in good_primes(record.level, ell, bound)
    }


def fe_detect_twist(frob, level):
    for alpha in dchar.quadratic_characters(twist_modulus(level)):
        if alpha.is_trivial():
            continue
        if all(t.value == 0 for p, (t, d) in frob.items() if alpha.sign_value(p) == -1):
            return alpha, kernel_field_disc(alpha)
    return None


def fe_exclude_reducible(frob, level, ell):
    # zeta_(l-1) -> the least primitive root, as FieldElement powers
    g = FieldElement(primitive_root(ell), ell)
    embed = RingEmbedding([g**k for k in range(ell - 1)], FieldElement(0, ell))
    certificates = {}
    survivor = None
    for chi in dchar.fl_valued_characters(level, ell):
        violation = next(
            (p for p, (t, d) in frob.items() if t != evaluate(chi, p, embed) + d / evaluate(chi, p, embed)),
            None,
        )
        if violation is not None:
            certificates[chi.exponents] = violation
        elif survivor is None:
            survivor = chi
    if survivor is None:
        return {"reducible": False, "character": None, "certificates": certificates}
    ratio_order = 1
    for p, (t, d) in frob.items():
        chi_p = evaluate(survivor, p, embed)
        ratio_order = lcm(ratio_order, mul_order(d / (chi_p * chi_p)))
    return {"reducible": True, "character": survivor, "cyclic_order": ratio_order, "certificates": certificates}


def fe_projective_order(t, d):
    """Least k with Lucas U_k(t, d) = 0 over FieldElements."""
    u_prev, u, k = FieldElement(0, t.modulus), FieldElement(1, t.modulus), 1
    while u:
        u_prev, u, k = u, t * u - d * u_prev, k + 1
    return k


def fe_dihedral_order(frob, alpha, ell, bound):
    n, last_change, used, skipped = 1, None, 0, []
    for p, (t, d) in frob.items():
        if alpha.sign_value(p) == -1:
            continue
        if fe_legendre(t * t - 4 * d) == 0:
            skipped.append(p)
            continue
        used += 1
        n2 = lcm(n, fe_projective_order(t, d))
        if n2 != n:
            n, last_change = n2, p
    return {
        "n": n,
        "split_primes_used": used,
        "skipped_repeated": skipped,
        "stabilized_at": last_change,
        "insufficient": used == 0 or (last_change is not None and last_change > bound - STABILIZATION_MARGIN),
        "divides_ell_minus_1": (ell - 1) % n == 0,
        "divides_ell_plus_1": (ell + 1) % n == 0,
    }


def fe_not_borel_witness(frob):
    return next((p for p, (t, d) in frob.items() if fe_legendre(t * t - 4 * d) == -1), None)


# -- the comparison -----------------------------------------------------------


def compare_sweeps(label, bound, ell):
    record = fetch_form(SRC, label)
    if bound is None:
        bound = default_bound(record.level)
    for rmap in _maps(label, ell):
        if record.ap_max_prime < bound:
            with pytest.raises(DataCoverageError):
                frob_table(record, rmap, bound)
            continue
        frob = frob_table(record, rmap, bound)
        oracle = ring_table(record, rmap, bound)
        assert list(frob) == list(oracle)
        for p, (t, d) in oracle.items():
            assert frob[p] == (t.value, d.value), (label, rmap.root, p)

        twist = detect_twist(frob, record.level)
        assert twist == fe_detect_twist(oracle, record.level)
        assert exclude_reducible(frob, record.level, ell) == fe_exclude_reducible(oracle, record.level, ell)
        # every quadratic alpha the twist search could return, not only the survivor
        for alpha in dchar.quadratic_characters(twist_modulus(record.level)):
            assert dihedral_order(frob, alpha, ell, bound) == fe_dihedral_order(oracle, alpha, ell, bound)
        assert not_borel_witness(frob, ell) == fe_not_borel_witness(oracle)


@pytest.mark.parametrize("bound", [1000, None], ids=["b1000", "default"])
@pytest.mark.parametrize("label", SPLIT)
def test_int_sweep_matches_the_field_element_sweep(label, bound):
    compare_sweeps(label, bound, ELL)


def test_eleven_fixtures_split_at_13():
    assert len(SPLIT_AT[13]) == 11


@pytest.mark.parametrize("bound", [1000, None], ids=["b1000", "default"])
@pytest.mark.parametrize("label", SPLIT_AT[13])
def test_int_sweep_matches_the_field_element_sweep_at_13(label, bound):
    compare_sweeps(label, bound, 13)


@pytest.mark.parametrize("ell, count", [(11, 1), (19, 10)])
def test_fixtures_split_at_11_and_19(ell, count):
    assert len(SPLIT_AT[ell]) == count


@pytest.mark.parametrize("bound", [1000, None], ids=["b1000", "default"])
@pytest.mark.parametrize("ell, label", [(ell, label) for ell in (11, 19) for label in SPLIT_AT[ell]])
def test_int_sweep_matches_the_field_element_sweep_at_11_and_19(ell, label, bound):
    compare_sweeps(label, bound, ell)
