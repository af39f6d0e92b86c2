"""Image analysis pipeline: twist detection, reducibility, orders, verdicts."""

import json
import shutil
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from hassecheck import nfdata, pipeline
from hassecheck.dchar import DirichletCharacter, UnitGroupBasis
from hassecheck.lmfdb import DataSource, fetch_form, fixture_dir
from hassecheck.nfdata import DataCoverageError, NewformRecord, split_primes
from hassecheck.pipeline import (
    analyze_ideal,
    congruence_check,
    default_bound,
    detect_twist,
    dihedral_order,
    exclude_reducible,
    frob_table,
    hasse_verdict,
    not_borel_witness,
    scan,
    verdict_from_tables,
)
from hassecheck.refdata import reference_discrepancies

SRC = DataSource(mode="fixtures")
GOLDEN = Path(__file__).resolve().parent / "golden"
SQRT2 = (-2, 0, 1)
ZETA6 = (1, -1, 1)


def rmaps(rec, ell=7):
    return split_primes((rec.m0, rec.m1, 1), ell)


def analyze(rec, rmap, bound):
    """analyze_ideal on the record's Frobenius table at the ideal of rmap."""
    return analyze_ideal(frob_table(rec, rmap, bound), rec.level, rmap.ell, bound, rmap.root, rmap.ideal_display())


def conjugate(x, m1):
    """The Galois conjugate of the pair x in a field x^2 + m1 x + m0: g + g' = -m1."""
    return (x[0] - m1 * x[1], -x[1])


@pytest.mark.parametrize("level, ell", [(1, 2), (49, 7), (189, 7), (7938, 13), (2310, 13), (9099, 11)])
def test_test_primes_match_trial_division(level, ell):
    excl = ell * level
    trial = [p for p in range(2, 2001) if all(p % d for d in range(2, isqrt(p) + 1)) and excl % p != 0]
    for bound in range(2001):
        assert pipeline.test_primes(level, ell, bound) == [p for p in trial if p <= bound], bound


def test_detect_twist_189p():
    rec = fetch_form(SRC, "189.2.p.a")
    for rmap in rmaps(rec):
        found = detect_twist(frob_table(rec, rmap, 48), rec.level)
        assert found is not None
        alpha, disc = found
        assert disc == -3  # the character cutting out Q(sqrt-3)
        assert alpha.conductor() == 3


def test_detect_twist_squarefree_level_has_no_candidates():
    rec = fetch_form(SRC, "273.2.u.a")
    for rmap in rmaps(rec):
        assert detect_twist(frob_table(rec, rmap, 200), rec.level) is None


def test_detect_twist_candidates_all_fail():
    rec = fetch_form(SRC, "2883.2.c.a")
    for rmap in rmaps(rec):
        assert detect_twist(frob_table(rec, rmap, 400), rec.level) is None


def test_detect_twist_coverage_error():
    rec = fetch_form(SRC, "189.2.p.a")
    with pytest.raises(DataCoverageError):
        frob_table(rec, rmaps(rec)[0], 5000)


def test_detect_twist_finds_conductor_7_for_bk():
    rec = fetch_form(SRC, "7938.2.a.bk")
    r3, r4 = rmaps(rec)
    alpha, disc = detect_twist(frob_table(rec, r3, 1000), rec.level)
    assert disc == -7
    assert detect_twist(frob_table(rec, r4, 1000), rec.level) is None


def _engineered_reducible():
    """a_p = chi(p) + p/chi(p) mod 7 lifted to Z[sqrt2]: reducible on purpose."""
    from hassecheck.ffield import is_prime

    chi_vals = {}  # chi = the quadratic character mod 7 lifted
    ap = {}
    for p in [q for q in range(2, 230) if is_prime(q)]:
        if p == 7 or p == 11:
            ap[p] = (0, 0)
            continue
        c = pow(p, 3, 7)  # order-2 character mod 7 as +-1 in F_7
        val = (c + p * pow(c, -1, 7)) % 7
        # embed diagonally: x + 0*sqrt2 with x = val at both roots
        x = val if val <= 3 else val - 7
        ap[p] = (x, 0)
    return NewformRecord(
        label="77.2.a.x",
        level=77,
        weight=2,
        char=DirichletCharacter(UnitGroupBasis.for_modulus(77), 1, (0, 0)),
        field_poly=(-2, 0, 1),
        ap=ap,
        cm=False,
        cm_disc=None,
        inner_twist_count=1,
        ap_max_prime=229,
        provenance="engineered reducible test record",
    )


def test_exclude_reducible_accepts_engineered_congruence():
    rec = _engineered_reducible()
    rmap = split_primes(SQRT2, 7)[0]
    out = exclude_reducible(frob_table(rec, rmap, 200), rec.level, 7)
    assert out["reducible"]
    assert out["cyclic_order"] >= 1


def test_exclude_reducible_certifies_bk():
    rec = fetch_form(SRC, "7938.2.a.bk")
    for rmap in rmaps(rec):
        out = exclude_reducible(frob_table(rec, rmap, 1000), rec.level, 7)
        assert not out["reducible"]
        assert len(out["certificates"]) == 36  # one violating prime per character


def test_reducible_status_for_49():
    rec = fetch_form(SRC, "49.2.c.a")
    for rmap in rmaps(rec):
        out = exclude_reducible(frob_table(rec, rmap, 457), rec.level, 7)
        assert out["reducible"]
        assert out["cyclic_order"] == 2


def test_dihedral_order_bk():
    rec = fetch_form(SRC, "7938.2.a.bk")
    frob = frob_table(rec, rmaps(rec)[0], 1000)
    alpha, _ = detect_twist(frob, rec.level)
    audit = dihedral_order(frob, alpha, 7, 1000)
    assert audit["n"] == 3
    assert not audit["insufficient"]
    assert audit["divides_ell_minus_1"]


def test_dihedral_order_examples_189():
    rec = fetch_form(SRC, "189.2.p.a")
    for rmap in rmaps(rec):
        frob = frob_table(rec, rmap, 432)
        alpha, _ = detect_twist(frob, rec.level)
        audit = dihedral_order(frob, alpha, 7, 432)
        assert audit["n"] == 3


def test_analyze_ideal_reduces_the_character_embedding_once(monkeypatch):
    """zeta is reduced once per ideal and eps(p) read in F_l: no coefficient-ring powers."""
    rec = fetch_form(SRC, "189.2.p.a")
    embeddings, products = [], []
    char_embedding, ring_mul = NewformRecord.char_embedding, nfdata.ring_mul

    def counted_embedding(self):
        embeddings.append(self.label)
        return char_embedding(self)

    def counted_mul(x, y, m0, m1):
        products.append(y)
        return ring_mul(x, y, m0, m1)

    monkeypatch.setattr(NewformRecord, "char_embedding", counted_embedding)
    monkeypatch.setattr(nfdata, "ring_mul", counted_mul)
    for rmap in rmaps(rec):
        embeddings.clear()
        products.clear()
        report = analyze(rec, rmap, 1000)
        assert report.status == "dihedral"
        assert embeddings == []
        assert products == []


def test_not_borel_witness():
    rec = fetch_form(SRC, "7938.2.a.bk")
    r4 = rmaps(rec)[1]
    w = not_borel_witness(frob_table(rec, r4, 1000), 7)
    assert w is not None
    # witness really has irreducible characteristic polynomial
    from hassecheck.ffield import legendre
    from hassecheck.nfdata import frob_charpoly, reduce_char_embedding

    t, d = frob_charpoly(rec, w, r4, reduce_char_embedding(rec, r4))
    assert legendre(t * t - 4 * d, 7) == -1
    # a Hasse-type dihedral image fixes a point elementwise: no witness exists
    rec2 = fetch_form(SRC, "189.2.p.a")
    for rmap in rmaps(rec2):
        assert not_borel_witness(frob_table(rec2, rmap, 432), 7) is None


def curve_ap(a, b, p):
    """a_p = p + 1 - #E(F_p) of y^2 = x^3 + a x + b at an odd prime p of good reduction."""
    symbol = [-1] * p
    symbol[0] = 0
    for y in range(1, (p + 1) // 2):
        symbol[y * y % p] = 1
    return -sum(symbol[(x * x * x + a * x + b) % p] for x in range(p))


def curve_table(a, b, level, bound):
    """{p: (a_p, p) mod 7} of y^2 = x^3 + a x + b at the good primes p <= bound."""
    return {p: (curve_ap(a, b, p) % 7, p % 7) for p in pipeline.test_primes(level, 7, bound)}


def test_sutherland_curve_from_a_table_with_no_record():
    """Sutherland (JTNB 2012): over Q, a local-global failure for 7-isogenies
    happens only at j = 2268945/128, where the projective mod-7 image is D6.
    The stages read it from point counts alone, with no newform record."""
    a, b = -1715, -25970
    assert Fraction(1728 * 4 * a**3, 4 * a**3 + 27 * b**2) == Fraction(2268945, 128)
    level = 2**8 * 5**2 * 7**2  # the Brumer-Kramer conductor bound at the bad primes 2, 5 and 7
    frob = curve_table(a, b, level, 1000)
    assert len(frob) == 165 and all((4 * a**3 + 27 * b**2) % p for p in frob)
    alpha, disc = detect_twist(frob, level)
    assert disc == -7
    red = exclude_reducible(frob, level, 7)
    assert red["reducible"] is False and red["character"] is None
    assert not_borel_witness(frob, 7) is None
    audit = dihedral_order(frob, alpha, 7, 1000)
    assert (audit["n"], audit["stabilized_at"], audit["insufficient"]) == (3, 11, False)
    assert audit["divides_ell_minus_1"]  # D6 in the split Cartan's normaliser


@pytest.mark.parametrize("a2, b2, verdict, witness, second_image", [
    (1, 1, "hasse", 13, "none"),
    (-2, 1, "hasse", 17, "none"),
    # CM by Q(sqrt-7): E2 has a rational 7-isogeny, so E1 x E2 has one too
    (-35, -98, "not_hasse", None, "C2"),
])
def test_lemma31_on_a_product_with_sutherlands_curve(a2, b2, verdict, witness, second_image):
    """E1 x E2 with E1 Sutherland's D6 curve, from two tables and no record: by Lemma 3.1
    the product fails the local-global principle at 7 when E2 fixes no line mod 7."""
    level = 2**8 * 5**2 * 7**2 * 31**2  # Brumer-Kramer bounds at the bad primes of all three E2
    e1 = curve_table(-1715, -25970, level, 1000)
    e2 = curve_table(a2, b2, level, 1000)
    assert all((4 * a2**3 + 27 * b2**2) % p for p in e2)
    v, (r1, r2) = verdict_from_tables("E1 x E2", level, 7, 1000, [(0, "E1", e1), (1, "E2", e2)])
    assert (r1.status, r1.image_cell, r1.not_borel_witness) == ("dihedral", "D6", None)
    assert v.verdict == verdict and v.reasons["dihedral_ideal"] == "E1" and v.reasons["n"] == 3
    assert r2.image_cell == second_image
    if witness is not None:
        assert (v.reasons["not_borel_witness"], v.reasons["not_borel_mechanism"]) == (witness, "witness_prime")
    else:
        assert r2.status == "possibly_reducible" and not v.reasons["other_ideal_not_borel"]


def test_a_table_built_by_hand_gives_the_record_verdict():
    """7938.2.a.bk has trivial character and field Q(b), b^2 = 2, with b = 3 and 4 mod 7:
    plain ints from the fixture file fill both tables, and the verdict matches the record path."""
    data = json.loads((fixture_dir() / "7938.2.a.bk.json").read_text())
    assert data["field_poly"] == [-2, 0, 1] and data["char"]["zeta_order"] == 1
    coeffs = {row["p"]: row["coeffs"] for row in data["ap"]}
    primes = pipeline.test_primes(7938, 7, 1000)
    rec = fetch_form(SRC, "7938.2.a.bk")
    tables = []
    for rmap, ideal in zip(rmaps(rec), ("(1 + 2b)", "(1 - 2b)")):
        table = {p: ((coeffs[p][0] + coeffs[p][1] * rmap.root) % 7, p % 7) for p in primes}
        assert table == frob_table(rec, rmap, 1000)
        tables.append((rmap.root, ideal, table))
    assert [root for root, _, _ in tables] == [3, 4]
    v, reports = verdict_from_tables("7938.2.a.bk", 7938, 7, 1000, tables)
    v_rec, reports_rec = hasse_verdict(rec, 7, bound=1000)
    assert v.verdict == "hasse"
    assert v.to_dict() == v_rec.to_dict()
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in reports_rec]


def test_hasse_verdict_examples():
    assert hasse_verdict(fetch_form(SRC, "189.2.p.a"), 7)[0].verdict == "hasse"
    v, _ = hasse_verdict(fetch_form(SRC, "63.2.e.a"), 7)
    assert v.verdict == "not_hasse"
    assert v.reasons["n"] == 2 and not v.reasons["n_odd"]
    v, _ = hasse_verdict(fetch_form(SRC, "49.2.c.a"), 7)
    assert v.verdict == "not_hasse"
    assert v.reasons["dihedral_ideal"] is None
    v, _ = hasse_verdict(fetch_form(SRC, "7938.2.a.bk"), 7, bound=1000)
    assert v.verdict == "hasse"
    assert v.reasons["not_borel_mechanism"] == "witness_prime"


def test_verdict_undetermined_paths():
    v, reports = hasse_verdict(fetch_form(SRC, "20.2.e.a"), 7, bound=500)
    assert v.verdict == "undetermined" and v.reasons.get("inert")
    assert reports == []
    v, _ = hasse_verdict(fetch_form(SRC, "56.2.e.a"), 7, bound=500)
    assert v.verdict == "undetermined" and v.reasons.get("ramified")
    # data coverage beyond the fixture bound
    v, _ = hasse_verdict(fetch_form(SRC, "7938.2.a.bk"), 7)  # default bound is huge
    assert v.verdict == "undetermined" and "data_coverage" in v.reasons


def _evidence_loop_reasons(reports, ell, bound):
    """Oracle for hasse_verdict on two analysed ideals: the evidence loop that
    hasse_verdict ran before Lemma 3.1's rule moved to hasse.lemma31_carrier."""
    reasons = {
        "ell_ge_7": ell >= 7,
        "ell_3_mod_4": ell % 4 == 3,
        "split_in_coefficient_field": True,
        "dihedral_ideal": None,
        "n": None,
        "n_odd": False,
        "n_gt_1": False,
        "n_divides_half_ell_minus_1": False,
        "other_ideal_not_borel": False,
        "bound": bound,
    }
    evidence = not_borel = None
    for rep, other in zip(reports, reports[::-1]):
        if rep.status != "dihedral":
            continue
        n_ok = rep.n > 1 and rep.n % 2 == 1 and ((ell - 1) // 2) % rep.n == 0
        if n_ok and (other.not_borel_witness is not None or other.irreducible):
            evidence, not_borel = rep, other
            break
        if evidence is None:
            evidence = rep
    if evidence is not None:
        n = evidence.n
        reasons.update({
            "dihedral_ideal": evidence.ideal,
            "n": n,
            "n_odd": n % 2 == 1,
            "n_gt_1": n > 1,
            "n_divides_half_ell_minus_1": ((ell - 1) // 2) % n == 0,
        })
    if not_borel is not None:
        reasons.update({
            "other_ideal_not_borel": True,
            "not_borel_witness": not_borel.not_borel_witness,
            "not_borel_mechanism": "witness_prime"
            if not_borel.not_borel_witness is not None
            else "irreducibility_sweep",
        })
        if reasons["ell_ge_7"] and reasons["ell_3_mod_4"]:
            return "hasse", reasons
    if any(rep.status == "insufficient_data" for rep in reports):
        return "undetermined", reasons
    return "not_hasse", reasons


def _synthetic_reports(ideal):
    """Every status, with every order n for the dihedral one, under each
    not-Borel certificate: none, a witness prime, the irreducibility sweep."""
    out = []
    for status in ("dihedral", "possibly_reducible", "not_dihedral", "insufficient_data"):
        for n in (1, 2, 3, 5, 6, 7, 9, 11, 21) if status == "dihedral" else (3,):
            for witness, irreducible in ((None, False), (None, True), (29, False)):
                out.append(pipeline.ImageReport(
                    0, ideal, status, n=n, not_borel_witness=witness, irreducible=irreducible,
                ))
    return out


@pytest.mark.parametrize("ell", [5, 7, 11, 13, 17, 19, 23, 37, 41, 43])
def test_hasse_verdict_matches_the_evidence_loop_on_synthetic_reports(monkeypatch, ell):
    # ell = 1 and 3 mod 4 both appear: only the latter can give "hasse"
    pair = []
    monkeypatch.setattr(pipeline, "analyze_ideal", lambda frob, level, ell, bound, root, ideal: pair[root])
    verdicts = set()
    for first in _synthetic_reports("P1"):
        for second in _synthetic_reports("P2"):
            pair[:] = [first, second]
            v, reports = verdict_from_tables("0.2.a.a", 1, ell, 100, [(0, "P1", {}), (1, "P2", {})])
            verdict, reasons = _evidence_loop_reasons(pair, ell, 100)
            assert v.to_dict() == {"label": "0.2.a.a", "ell": ell, "verdict": verdict, "reasons": reasons}
            assert reports == pair
            verdicts.add(verdict)
    assert verdicts == ({"hasse", "not_hasse", "undetermined"} if ell % 4 == 3 else {"not_hasse", "undetermined"})


@pytest.mark.parametrize("label, last_change, settled", [("117.2.q.b", 37, "not_hasse"), ("189.2.p.a", 13, "hasse")])
def test_order_changing_within_the_margin_of_the_bound_is_undetermined(label, last_change, settled):
    # the dihedral order last changes at `last_change`; it counts as settled
    # only once the bound lies STABILIZATION_MARGIN or more beyond that prime
    record = fetch_form(SRC, label)
    edge = last_change + pipeline.STABILIZATION_MARGIN
    v, reports = hasse_verdict(record, 7, bound=edge - 1)
    assert v.verdict == "undetermined" and v.reasons["dihedral_ideal"] is None
    for rep in reports:
        assert (rep.status, rep.image_cell) == ("insufficient_data", "?")
        assert rep.flags["order_audit"]["stabilized_at"] == last_change
    row = pipeline._scan_one(record, 7, edge - 1)
    assert row["images"] == ["?", "?"]
    assert pipeline.rows_to_table([row]).splitlines()[2].endswith(": ?")
    v, reports = hasse_verdict(record, 7, bound=edge)
    assert v.verdict == settled
    assert [rep.status for rep in reports] == ["dihedral", "dihedral"]


def test_root_relabeling_commutes_with_conjugation():
    rec = fetch_form(SRC, "189.2.p.a")
    conj_ap = {p: conjugate(v, rec.m1) for p, v in rec.ap.items()}
    rec_conj = NewformRecord(
        label=rec.label, level=rec.level, weight=rec.weight, char=rec.char,
        field_poly=rec.field_poly, ap=conj_ap, cm=rec.cm, cm_disc=rec.cm_disc,
        inner_twist_count=rec.inner_twist_count, ap_max_prime=rec.ap_max_prime,
        zeta_in_field=conjugate(rec.zeta, rec.m1),
    )
    m1, m2 = rmaps(rec)
    a = analyze(rec, m1, 432)
    b = analyze(rec_conj, m2, 432)
    assert (a.status, a.n) == (b.status, b.n)


def test_prop_iso_image_consistency_for_imaginary_fields():
    # both prime-ideal reports agree for every imaginary-quadratic-field form
    for label in ("49.2.c.a", "63.2.e.a", "81.2.c.a", "117.2.g.a",
                  "117.2.q.b", "189.2.c.a", "189.2.e.b", "189.2.p.a"):
        rec = fetch_form(SRC, label)
        _, reports = hasse_verdict(rec, 7)
        assert len(reports) == 2
        assert reports[0].status == reports[1].status
        assert reports[0].n == reports[1].n


def test_verdict_monotone_under_bound_growth():
    rec = fetch_form(SRC, "189.2.p.a")
    verdicts = []
    for bound in (250, 330, 432, 600, 800):
        v, reports = hasse_verdict(rec, 7, bound=bound)
        verdicts.append(v.verdict)
    assert all(v == "hasse" for v in verdicts)


def test_congruence_check():
    f = fetch_form(SRC, "189.2.p.a")
    g = fetch_form(SRC, "189.2.c.a")
    assert congruence_check(f, f, 7) == {
        "congruent": True, "first_violation": None, "bound": 48, "primes_tested": 13,
        "finite_verification": True,
    }
    assert congruence_check(f, g, 7) == {
        "congruent": False, "first_violation": 19, "bound": 48, "primes_tested": 6,
        "finite_verification": True,
    }
    # the two 9099 rows share their dihedral-ideal reduction
    e = fetch_form(SRC, "9099.2.a.e")
    gg = fetch_form(SRC, "9099.2.a.g")
    assert congruence_check(e, gg, 7, root_f=4, root_g=4, bound=500) == {
        "congruent": True, "first_violation": None, "bound": 500, "primes_tested": 92,
        "finite_verification": True,
    }
    assert congruence_check(e, gg, 7, root_f=3, root_g=3, bound=500) == {
        "congruent": False, "first_violation": 5, "bound": 500, "primes_tested": 2,
        "finite_verification": True,
    }


def test_congruence_cm_partner_scan_recorded():
    # no committed CM fixture is congruent to the absolutely simple form:
    # the scan runs and records an outcome for every candidate
    f = fetch_form(SRC, "7938.2.a.bk")
    outcomes = {}
    for label in ("49.2.c.a", "63.2.e.a", "81.2.c.a", "189.2.p.a"):
        g = fetch_form(SRC, label)
        for rf in (3, 4):
            out = congruence_check(f, g, 7, root_f=rf, root_g=None, bound=300)
            outcomes[(label, rf)] = out["congruent"]
    assert len(outcomes) == 8
    assert not all(outcomes.values())


def test_congruence_rejects_non_split():
    f = fetch_form(SRC, "189.2.p.a")
    g = fetch_form(SRC, "20.2.e.a")  # 7 inert in Q(i)
    with pytest.raises(ValueError):
        congruence_check(f, g, 7)


def test_scan_rows_sorted_and_deterministic():
    rows1 = scan(SRC, 7, level_max=189)
    rows2 = scan(SRC, 7, level_max=189)
    assert rows1 == rows2
    labels = [r["label"] for r in rows1]
    assert labels == sorted(labels, key=lambda s: (int(s.split(".")[0]), s))


def test_scan_filters_non_cm():
    rows = scan(SRC, 7, filters={"dimension": 2, "cm": False, "inner_twist_count": 1}, bound=1000)
    assert [r["label"] for r in rows] == [
        "7938.2.a.bj", "7938.2.a.bk", "7938.2.a.bp", "7938.2.a.bq",
        "9099.2.a.e", "9099.2.a.g",
    ]


def test_filtered_scan_turns_a_corrupted_record_into_an_error_row(tmp_path):
    for path in fixture_dir().glob("*.json"):
        shutil.copy(path, tmp_path)
    path = tmp_path / "63.2.e.a.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), level=64)))
    filters = {"dimension": 2, "cm": False}
    rows = scan(DataSource(mode="fixtures", fixtures=tmp_path), 7, filters=filters, bound=1000)
    clean = scan(SRC, 7, filters=filters, bound=1000)
    assert [r for r in rows if r["label"] != "63.2.e.a"] == clean
    assert {"label": "63.2.e.a", "error": "ValueError: 63.2.e.a: label does not name level 64"} in rows
    assert len(rows) == len(clean) + 1


def test_two_scans_give_equal_rows():
    # the second scan reads the per-modulus dlog tables the first one built
    UnitGroupBasis.for_modulus.cache_clear()
    cold = scan(SRC, 7, bound=1000)
    warm = scan(SRC, 7, bound=1000)
    assert cold == warm


def test_scan_decides_whether_ell_splits_once_per_form(monkeypatch):
    calls = []

    def counted(field_poly, ell):
        calls.append(field_poly)
        return split_primes(field_poly, ell)

    monkeypatch.setattr(pipeline, "split_primes", counted)
    rows = scan(SRC, 7, bound=500)
    assert len(calls) == len(rows) == 18
    assert {r["label"]: r["skipped"] for r in rows if "skipped" in r} == {
        "20.2.e.a": "inert",
        "56.2.e.a": "ramified",
    }


def test_scan_rows_follow_lmfdb_letter_order():
    # orbit and form letters count in base 26, so z comes before ba; a malformed label goes last
    ordered = ["9.2.a.z", "9.2.a.ba", "9.2.b.a", "10.2.a.a", "not-a-label"]
    assert sorted(reversed(ordered), key=pipeline._label_sort_key) == ordered
    rows = scan(SRC, 7, labels=["not-a-label", "10.2.a.a", "9.2.a.ba", "9.2.b.a", "9.2.a.z"])
    assert [r["label"] for r in rows] == ordered
    assert all("error" in r for r in rows)  # none of them is a fixture


def test_scan_turns_analysis_failures_into_error_rows(tmp_path):
    for path in fixture_dir().glob("*.json"):
        shutil.copy(path, tmp_path)

    def corrupt(label, change):
        path = tmp_path / f"{label}.json"
        data = json.loads(path.read_text())
        change(data)
        path.write_text(json.dumps(data))

    corrupt("189.2.p.a", lambda d: d.pop("zeta_in_field"))
    # a_2 = 1/7 has no reduction mod 7
    corrupt("117.2.g.a", lambda d: next(a for a in d["ap"] if a["p"] == 2).update(coeffs=["1/7", 0]))
    # records that contradict themselves are rejected on load
    corrupt("63.2.e.a", lambda d: d.update(level=64))
    corrupt("81.2.c.a", lambda d: d["char"].update(modulus=9))  # 2 generates mod 9 and mod 81
    corrupt("49.2.c.a", lambda d: d.update(ap=[a for a in d["ap"] if a["p"] != 11]))
    corrupt("117.2.q.b", lambda d: d.update(zeta_in_field=[-1, 1]))  # a cube root, not a sixth
    corrupt("189.2.c.a", lambda d: d.update(weight=4))  # only weight 2 is supported
    corrupt("189.2.e.b", lambda d: d.update(label="189.4.e.b"))

    clean = scan(SRC, 7, level_max=189)
    rows = scan(DataSource(mode="fixtures", fixtures=tmp_path), 7, level_max=189)
    errors = {r["label"]: r for r in rows if "error" in r}
    assert errors == {
        "117.2.g.a": {"label": "117.2.g.a", "error": "BadDenominatorError: denominator divisible by 7"},
        "189.2.p.a": {"label": "189.2.p.a", "error": "ValueError: 189.2.p.a: character needs zeta_in_field"},
        "63.2.e.a": {"label": "63.2.e.a", "error": "ValueError: 63.2.e.a: label does not name level 64"},
        "81.2.c.a": {
            "label": "81.2.c.a",
            "error": "ValueError: 81.2.c.a: character modulus 9 is not the level 81",
        },
        "49.2.c.a": {
            "label": "49.2.c.a",
            "error": "ValueError: 49.2.c.a: no a_p for p = 11 <= ap_max_prime 1009",
        },
        "117.2.q.b": {
            "label": "117.2.q.b",
            "error": "ValueError: 117.2.q.b: zeta_in_field is not a primitive 6-th root of unity",
        },
        "189.2.c.a": {"label": "189.2.c.a", "error": "ValueError: 189.2.c.a: weight 4 is not 2"},
        "189.2.e.b": {
            "label": "189.2.e.b",
            "error": "ValueError: 189.4.e.b: label does not name weight 2",
        },
    }
    assert [r for r in rows if "error" not in r] == [r for r in clean if r["label"] not in errors]
    kinds = {d["label"]: d["kind"] for d in reference_discrepancies(rows)}
    assert all(kinds[label] == "analysis_error" for label in errors)


@pytest.mark.parametrize("name, bound", [("scan_ell7_default", None), ("scan_ell7_b1000", 1000)])
def test_scan_rows_match_golden(name, bound):
    # every stage output of every fixture row: verdicts, flags, order audits,
    # certificate counts and witnesses, byte for byte: parsed JSON would read
    # true as 1 and 1.0 as 1
    golden = (GOLDEN / f"{name}.json").read_text()
    assert json.dumps(scan(SRC, 7, bound=bound), indent=1, sort_keys=True) + "\n" == golden


def test_default_bound_rule():
    assert default_bound(189) == 432
    assert default_bound(49) == 457
    assert default_bound(25) == 200
    assert default_bound(1) == 200
