"""Acceptance suite: one test per numbered criterion, network-free.

Each criterion prints a PASS/FAIL line (run with -s to see them inline).

Criterion 5a's contract: the scan reproduces the published low-level image
column on every cell that the form's own coefficients allow, and a cell they
rule out is reported by `reference_discrepancies`, never patched over.  One
cell is ruled out: the published C3 for 49.2.c.a.  There 3 does not divide
7*49 and a_3 = 0 exactly, so Frob_3 has trace 0 and determinant 3*chi(3),
nonzero mod either ideal over 7.  Its eigenvalues are +-sqrt(-det): distinct,
with ratio -1, an element of projective order 2 that no group of order 3
contains.  The data force C2 instead (the test derives it from the a_p), and
the scan reports C2.  The hasse-flag half of criterion 5 is split out so its
pass/fail state stays visible.
"""

import os
import time

import pytest

from hassecheck.dchar import quadratic_characters, twist_modulus
from hassecheck.hasse import (
    classify_pgl2,
    enumerate_subgroups,
    global_fixed_points,
    is_hasse,
    lemma31_check,
)
from hassecheck.lmfdb import DataSource, fetch_form
from hassecheck.matgrp import (
    Matrix,
    MatrixGroup,
    block_diagonal,
    closure,
    fixed_points,
    fixed_points_scan,
    matrix,
    projectivize,
    standard_constructors,
)
from hassecheck.nfdata import ring_mul, split_primes, sturm_bound
from hassecheck.pipeline import scan
from hassecheck.refdata import (
    REFERENCE_HASSE_LOW,
    REFERENCE_IMAGES_LOW,
    REFERENCE_IMAGES_SIMPLE,
    reference_discrepancies,
)

SRC = DataSource(mode="fixtures")


def note(criterion, ok, detail=""):
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pgl2_f7_lattice():
    ambient = projectivize(standard_constructors("gl2", 7))
    return enumerate_subgroups(ambient)


@pytest.fixture(scope="module")
def low_level_rows():
    return scan(SRC, 7, level_max=189)


def test_criterion_1_pgl2_f2_exhaustion():
    t0 = time.monotonic()
    ambient = projectivize(standard_constructors("gl2", 2))
    subs = enumerate_subgroups(ambient)
    hasse = [s for s in subs if is_hasse(s).is_hasse]
    dt = time.monotonic() - t0
    note(1, len(subs) == 4 and hasse == [] and dt < 1.0,
         f"(classes={len(subs)}, hasse={len(hasse)}, {dt:.2f}s)")


def test_criterion_2_d6_positive_control():
    t0 = time.monotonic()
    group = closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)])
    proj = projectivize(group)
    brute = is_hasse(proj)
    cls = classify_pgl2(proj)
    s = cls.sutherland
    ok = (
        brute.is_hasse
        and cls.dickson_label == "dihedral(6)"
        and s.cond1_dihedral_odd_n
        and s.cond2_ell_3mod4
        and s.cond3_split_cartan_normalizer
        and s.cond4_index2_fixes
    )
    dt = time.monotonic() - t0
    note(2, ok and dt < 1.0, f"({cls.dickson_label}, {dt:.2f}s)")


def test_criterion_3_criterion_oracle_equivalence(pgl2_f7_lattice):
    t0 = time.monotonic()
    mismatches = []
    psl_excluded = []
    for sub in pgl2_f7_lattice:
        cls = classify_pgl2(sub)
        brute = is_hasse(sub).is_hasse
        if cls.projective_det_surjective:
            if cls.sutherland.predicted_hasse != brute:
                mismatches.append((sub.order(), cls.dickson_label))
        elif cls.sutherland.predicted_hasse and not brute:
            psl_excluded.append((sub.order(), cls.dickson_label))
    dt = time.monotonic() - t0
    ok = not mismatches and len(psl_excluded) >= 1 and dt < 300
    note(3, ok, f"(classes={len(pgl2_f7_lattice)}, psl-excluded={psl_excluded}, {dt:.1f}s)")


# (order, dickson_label, stabilized_pair, rotation_subgroup_fixed_point,
#  projective_det_surjective) for each class of the F_7 lattice, in
# enumerate_subgroups order
PGL2_F7_CLASSIFICATION = [
    (1, "cyclic(1)", "split", False, False),
    (2, "cyclic(2)", "split", False, True),
    (2, "cyclic(2)", "split", False, False),
    (3, "cyclic(3)", "split", False, False),
    (4, "dihedral(4)", "split", True, True),
    (4, "dihedral(4)", "nonsplit", False, False),
    (4, "cyclic(4)", "nonsplit", False, False),
    (6, "cyclic(6)", "split", False, True),
    (6, "dihedral(6)", "split", True, True),
    (6, "dihedral(6)", "split", True, False),
    (7, "cyclic(7)", "none", False, False),
    (8, "cyclic(8)", "nonsplit", False, True),
    (8, "dihedral(8)", "nonsplit", False, True),
    (8, "dihedral(8)", "nonsplit", False, False),
    (12, "dihedral(12)", "split", True, True),
    (12, "A4", "none", False, False),
    (14, "dihedral(14)", "none", True, True),
    (16, "dihedral(16)", "nonsplit", False, True),
    (21, "borel_contained", "none", False, False),
    (24, "S4", "none", False, False),
    (42, "borel_contained", "none", False, True),
    (168, "psl2", "none", False, False),
    (336, "pgl2", "none", False, True),
]


def test_classify_pgl2_on_the_f7_lattice(pgl2_f7_lattice):
    observed = []
    for sub in pgl2_f7_lattice:
        c = classify_pgl2(sub)
        observed.append((c.order, c.dickson_label, c.stabilized_pair,
                         c.rotation_subgroup_fixed_point, c.projective_det_surjective))
    assert observed == PGL2_F7_CLASSIFICATION


def test_lattice_generators_generate_each_class(pgl2_f7_lattice):
    for sub in pgl2_f7_lattice:
        if sub.order() == 1:
            assert sub.generators == ()
            continue
        lifts = [Matrix(g, 2, 7) for g in sub.generators]
        assert projectivize(closure(lifts)).elements == sub.elements


def test_criterion_4_block_sum_sufficiency(catalogue):
    t0 = time.monotonic()
    assert len(catalogue) >= 20
    checked = 0
    for h, g in catalogue:
        # catalogue preconditions: one factor brute-force Hasse, the other
        # without a global fixed point
        assert is_hasse(projectivize(h)).is_hasse
        assert not global_fixed_points(projectivize(g))
        out = lemma31_check(h, g)
        assert out["predicted"], (h.order(), g.order())
        assert out["brute_force"].is_hasse, (h.order(), g.order())
        checked += 1
    dt = time.monotonic() - t0
    note(4, checked >= 20 and dt < 120, f"(pairs={checked}, {dt:.1f}s)")


def block_group_oracle(g1, g2):
    """G1 + G2 the old way: every 16-tuple a + b as a dim-4 matrix group, then projectivised."""
    p = g1.modulus
    ident = (1, 0, 0, 1)

    def block(a, b):
        return (a[0], a[1], 0, 0, a[2], a[3], 0, 0, 0, 0, b[0], b[1], 0, 0, b[2], b[3])

    gens = [Matrix(block(g.entries, ident), 4, p) for g in g1.generators]
    gens += [Matrix(block(ident, g.entries), 4, p) for g in g2.generators]
    elements = frozenset(block(a, b) for a in g1.elements for b in g2.elements)
    return projectivize(MatrixGroup(tuple(gens), 4, p, elements))


def test_block_diagonal_matches_the_matrix_group_oracle(catalogue):
    triv = closure([matrix([[1, 0], [0, 1]], 7)])
    c4 = closure([matrix([[0, -1], [1, 0]], 7)])
    pairs = [(triv, triv), (c4, c4)]
    pairs += [pair for h, g in catalogue for pair in ((h, g), (g, h))]
    for g1, g2 in pairs:
        built, oracle = block_diagonal(g1, g2), block_group_oracle(g1, g2)
        streamed = list(built.elements)
        assert len(streamed) == len(set(streamed)) == built.order(), (g1.order(), g2.order())
        assert set(streamed) == oracle.elements, (g1.order(), g2.order())
        assert built.generators == oracle.generators, (g1.order(), g2.order())
        assert (built.dim, built.modulus) == (4, g1.modulus)


def _analyzed(rows):
    return {r["label"]: r for r in rows if "reports" in r}


def _good_primes(record):
    return [p for p in sorted(record.ap) if (7 * record.level) % p]


def _odd_cyclic_cells_ruled_out():
    """Published cells C<n>, n odd, whose form has a good prime with a_p = 0.

    Such a Frob_p has trace 0 and determinant p*chi(p) != 0 mod every ideal
    over 7, so its eigenvalues +-sqrt(-det) have ratio -1: an element of
    projective order 2, which no cyclic group of odd order contains.
    """
    out = set()
    for label, cell in REFERENCE_IMAGES_LOW.items():
        if cell.startswith("C") and int(cell[1:]) % 2:
            record = fetch_form(SRC, label)
            if any(record.ap[p] == (0, 0) for p in _good_primes(record)):
                out.add(label)
    return out


def _ratio_character_cells(record):
    """Projective image cell per ideal over 7, derived from a_p and chi alone.

    At each ideal, every good p must have a_p*(a_p^2 - 4*p*chi(p)) = 0 mod
    lambda: either the trace vanishes (eigenvalue ratio -1) or the
    discriminant does (ratio 1), never both since the determinant is nonzero.
    The ratio must equal the Legendre symbol (p/7), so the semisimplification
    is reducible and its projective image is cyclic of that character's
    order.  A prime that breaks the pattern is returned in place of a cell.
    """
    cells = []
    for rmap in split_primes(record.field_poly, 7):
        ratios = set()
        for p in _good_primes(record):
            a = record.ap[p]
            square, eps = ring_mul(a, a, record.m0, record.m1), record.nebentypus_value(p)
            disc = (square[0] - 4 * p * eps[0], square[1] - 4 * p * eps[1])
            trace_zero = rmap.apply(a) == 0
            disc_zero = rmap.apply(disc) == 0
            legendre_p = 1 if pow(p, 3, 7) == 1 else -1
            if (trace_zero, disc_zero) != (legendre_p == -1, legendre_p == 1):
                cells.append(f"pattern broken at p={p}, root {rmap.root}")
                break
            ratios.add(legendre_p)
        else:
            cells.append(f"C{len(ratios)}")
    return cells


def test_criterion_5a_low_level_image_column(low_level_rows):
    rows = _analyzed(low_level_rows)
    observed = {}
    for label in REFERENCE_IMAGES_LOW:
        images = sorted(set(rows[label]["images"]))
        observed[label] = images[0] if len(images) == 1 else str(images)
    ruled_out = _odd_cyclic_cells_ruled_out()
    diffs = {
        k: (v, observed[k])
        for k, v in REFERENCE_IMAGES_LOW.items()
        if k not in ruled_out and observed[k] != v
    }
    derived = _ratio_character_cells(fetch_form(SRC, "49.2.c.a"))
    disc = reference_discrepancies(low_level_rows)
    expected_disc = [
        {
            "label": "49.2.c.a",
            "expected_image": "C3",
            "observed_images": ["C2"],
            "kind": "image_mismatch",
        }
    ]
    ok = (
        ruled_out == {"49.2.c.a"}
        and not diffs
        and derived == ["C2", "C2"]
        and observed["49.2.c.a"] == "C2"
        and disc == expected_disc
    )
    note("5a", ok, f"(ruled_out={sorted(ruled_out)}, diffs={diffs}, "
                   f"49.2.c.a derived={derived} observed={observed['49.2.c.a']}, "
                   f"discrepancies={disc})")


def test_criterion_5b_low_level_hasse_flags(low_level_rows):
    t0 = time.monotonic()
    rows = _analyzed(low_level_rows)
    flagged = {label for label, row in rows.items() if row["verdict"]["verdict"] == "hasse"}
    dt = time.monotonic() - t0
    note("5b", flagged == REFERENCE_HASSE_LOW, f"(flagged={sorted(flagged)}, {dt:.1f}s)")


def test_criterion_6_two_ideal_consistency(low_level_rows):
    rows = _analyzed(low_level_rows)
    ok = True
    for label in REFERENCE_IMAGES_LOW:
        reports = rows[label]["reports"]
        if len(reports) != 2:
            ok = False
            break
        a, b = reports
        if (a["status"], a["n"]) != (b["status"], b["n"]):
            ok = False
            break
    note(6, ok)


def test_criterion_7_simple_rows():
    consistent = {
        "7938.2.a.bk": ("D6", "(1 + 2b)"),
        "9099.2.a.e": ("D12", "(1 - 2b)"),
        "9099.2.a.g": ("D12", "(1 - 2b)"),
    }
    rows = scan(SRC, 7, labels=list(REFERENCE_IMAGES_SIMPLE), bound=1000)
    by_label = _analyzed(rows)
    ok = True
    details = []
    for label, (image, ideal) in consistent.items():
        reports = {r["ideal"]: r for r in by_label[label]["reports"]}
        rep = reports.get(ideal)
        if rep is None or rep["image"] != image or rep["status"] != "dihedral":
            ok = False
            details.append(f"{label}: dihedral side wrong")
        other = next(r for r in by_label[label]["reports"] if r["ideal"] != ideal)
        if not (other["not_borel_witness"] is not None or other["irreducible"]):
            ok = False
            details.append(f"{label}: other ideal not certified")
    if by_label["7938.2.a.bk"]["verdict"]["verdict"] != "hasse":
        ok = False
        details.append("bk verdict")
    # the three rows with displayed coefficients inconsistent with the table:
    # output recorded, mismatch surfaced as a structured discrepancy report
    disc = reference_discrepancies(rows)
    disc_labels = {d["label"] for d in disc}
    expected_disc = {"7938.2.a.bj", "7938.2.a.bp", "7938.2.a.bq"}
    if disc_labels != expected_disc:
        ok = False
        details.append(f"discrepancies={sorted(disc_labels)}")
    for label in expected_disc:
        reports = by_label[label]["reports"]
        flagged = any(r["flags"].get("order_evidence_inconsistent") for r in reports)
        if not flagged or by_label[label]["verdict"]["verdict"] == "hasse":
            ok = False
            details.append(f"{label}: tension not surfaced")
    note(7, ok, f"({'; '.join(details) if details else 'discrepancies surfaced for bj/bp/bq'})")


def test_criterion_8_sturm_and_twist_arithmetic():
    ok = (
        sturm_bound(189, 2) == 48
        and twist_modulus(189) == 3
        and twist_modulus(7938) == 21
        and len(quadratic_characters(21)) == 4
    )
    note(8, ok)


def test_criterion_9_property_suites(catalogue):
    import random

    # reduce is a ring homomorphism: 1000 random elements of Z[sqrt2]
    rng = random.Random(0)
    r3 = split_primes((-2, 0, 1), 7)[0]
    for _ in range(1000):
        x = (rng.randrange(-99, 99), rng.randrange(-99, 99))
        y = (rng.randrange(-99, 99), rng.randrange(-99, 99))
        assert r3.apply((x[0] + y[0], x[1] + y[1])) == (r3.apply(x) + r3.apply(y)) % 7
        assert r3.apply(ring_mul(x, y, -2, 0)) == r3.apply(x) * r3.apply(y) % 7

    # conjugation invariance of is_hasse: 100 random conjugators
    from hassecheck.matgrp import ProjGroup

    base = projectivize(closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)]))
    ambient = sorted(projectivize(standard_constructors("gl2", 7)).elements)
    expected = is_hasse(base).is_hasse
    for _ in range(100):
        c = ambient[rng.randrange(len(ambient))]
        adj = (c[3], -c[1], -c[2], c[0])  # det(c) * c^-1, the same projective class
        conj = frozenset(base.mul(base.mul(c, h), adj) for h in base.elements)
        gens = tuple(base.mul(base.mul(c, g), adj) for g in base.generators)
        assert is_hasse(ProjGroup(gens, 2, 7, conj)).is_hasse == expected

    # scalar invariance of fixed points
    for _ in range(50):
        while True:
            m = matrix([[rng.randrange(7) for _ in range(2)] for _ in range(2)], 7)
            if m.det() != 0:
                break
        base_pts = fixed_points([m.entries], 2, 7)
        for lam in range(2, 7):
            scaled = matrix([[lam * e for e in row] for row in m.rows()], 7)
            assert fixed_points([scaled.entries], 2, 7) == base_pts

    # eigenvalue method vs point scan on every element of the l=7 catalogue
    seen = set()
    for h, g in catalogue:
        for grp in (h, g):
            if grp.modulus != 7 or grp.elements in seen:
                continue
            seen.add(grp.elements)
            for elt in projectivize(grp).elements:
                assert fixed_points([elt], 2, 7) == fixed_points_scan(Matrix(elt, 2, 7))
    # and on one dim-4 block group
    block = block_diagonal(
        closure([matrix([[2, 0], [0, 1]], 7), matrix([[0, 1], [1, 0]], 7)]),
        closure([matrix([[0, -3], [1, 1]], 7)]),
    )
    for elt in block.elements:
        assert fixed_points([elt], 4, 7) == fixed_points_scan(Matrix(elt, 4, 7))
    note(9, True)


def test_criterion_10_offline_stand_in():
    # the full corpus analysis runs network-free from committed fixtures
    rows = scan(SRC, 7, bound=500)
    assert len(rows) >= 18
    note(10, True, "(committed-fixture scan; live smoke test is opt-in)")


@pytest.mark.skipif(
    os.environ.get("HASSE_LIVE_TEST") != "1",
    reason="live smoke test only with HASSE_LIVE_TEST=1",
)
def test_criterion_10_live_smoke(tmp_path):
    live = DataSource(mode="http", cache_dir=tmp_path)
    fetched = fetch_form(live, "189.2.p.a", bound=200)
    fixture = fetch_form(SRC, "189.2.p.a")
    for p in (2, 5, 11, 13, 199):
        assert fetched.ap[p] == fixture.ap[p]
