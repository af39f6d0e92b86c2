"""Mod-l image analysis for newforms with quadratic coefficient fields.

Per prime ideal above l, Frobenius is one table {p: (t, d)} of the trace
a_p and the determinant p*eps(p) as residues mod l at every good prime up to
the bound, and every stage reads only that table.  The analysis runs:
quadratic-twist detection (dihedral evidence), a reducibility sweep over all
F_l-valued characters of modulus dividing the level (a finite certificate
either way), dihedral-order determination from eigenvalue-ratio orders, and
an irreducible-Frobenius witness.  The final verdict combines both ideals.
It has two layers: hasse_verdict reads a record (its bound, whether l splits,
data coverage) and builds one table per ideal with frob_table, and
verdict_from_tables runs analyze_ideal on each table and Lemma 3.1's rule,
knowing no record, so point counts or any other exact source can feed it.
Everything is trace-level evidence at an explicit prime bound; nothing here
claims a proof of the actual image, and the reports say so via flags rather
than silently upgrading confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import dchar
from .dchar import DirichletCharacter, kernel_field_disc, twist_modulus
from .ffield import FieldElement, legendre, mul_order, primitive_root
from .hasse import lemma31_carrier, sutherland_dihedral
from .lmfdb import DataSource, fetch_form, list_fixture_labels, matches, query_candidates
from .nfdata import (
    DataCoverageError,
    NewformRecord,
    RamifiedPrimeError,
    ReductionMap,
    default_bound,
    frob_charpoly,
    primes_upto,
    projective_frob_order,
    reduce_char_embedding,
    reduce_coeff,
    repeated_eigenvalue,
    split_primes,
    sturm_bound,
)

STABILIZATION_MARGIN = 50


def test_primes(level: int, ell: int, bound: int) -> list[int]:
    """All primes p <= bound with p not dividing ell * level."""
    excl = ell * level
    return [p for p in primes_upto(bound) if excl % p != 0]


def frob_table(record: NewformRecord, rmap: ReductionMap, bound: int) -> dict[int, tuple[int, int]]:
    """Frobenius mod the ideal of rmap at every good prime p <= bound, as {p: (t, d)}.

    t is a_p and d is p*eps(p), both residues in [0, l) reduced once here,
    eps(p) through zeta reduced once for the ideal.  Every stage below reads
    only such a table, so any exact source of (t, d) mod l can fill one.
    """
    if record.ap_max_prime < bound:
        raise DataCoverageError(record.label, bound, record.ap_max_prime)
    embed = reduce_char_embedding(record, rmap)
    return {p: frob_charpoly(record, p, rmap, embed) for p in test_primes(record.level, rmap.ell, bound)}


def detect_twist(frob: dict[int, tuple[int, int]], level: int):
    """First nontrivial quadratic self-twist candidate surviving every test.

    A character alpha mod q survives when reduce(a_p) = 0 at every tested
    prime with alpha(p) = -1, read as p % q in alpha's residue table.
    Returns (alpha, kernel_disc) or None.
    """
    q = twist_modulus(level)
    for alpha in dchar.quadratic_characters(q):
        if alpha.is_trivial():
            continue
        minus = alpha.minus_residues()
        if all(t == 0 for p, (t, d) in frob.items() if p % q in minus):
            return alpha, kernel_field_disc(alpha)
    return None


def exclude_reducible(frob: dict[int, tuple[int, int]], level: int, ell: int) -> dict:
    """Sweep all F_l-valued characters mod N against the reducibility congruence.

    A reducible representation would satisfy a_p = chi(p) + p*eps(p)/chi(p)
    for all good p; each failed character gets a violation certificate (its
    least violating prime), and a surviving character means the data cannot
    exclude reducibility.  With chi(p) = zeta^k for the generator
    zeta = primitive_root(l) of F_l^x and k = chi.exponent_at(p), the test
    reads t = zeta^k + d * zeta^-k mod l, with zeta^-k = up[-k] since
    zeta^(l-1) = 1.
    """
    zeta = primitive_root(ell)
    up = [pow(zeta, k, ell) for k in range(ell - 1)]
    certificates = {}
    survivor = None
    for chi in dchar.fl_valued_characters(level, ell):
        violation = None
        for p, (t, d) in frob.items():
            k = chi.exponent_at(p)
            if t != (up[k] + d * up[-k]) % ell:
                violation = p
                break
        if violation is None:
            if survivor is None:
                survivor = chi
        else:
            certificates[chi.exponents] = violation
    if survivor is None:
        return {"reducible": False, "character": None, "certificates": certificates}
    # order of the ratio character chi'/chi = omega*eps/chi^2 on the table:
    # one mul_order per distinct ratio residue (at most l - 1 of them)
    ratios = set()
    for p, (t, d) in frob.items():
        k = survivor.exponent_at(p)
        ratios.add(d * up[-k] * up[-k] % ell)
    ratio_order = lcm(*(mul_order(FieldElement(r, ell)) for r in ratios))
    return {
        "reducible": True,
        "character": survivor,
        "cyclic_order": ratio_order,
        "certificates": certificates,
    }


def dihedral_order(frob: dict[int, tuple[int, int]], alpha: DirichletCharacter, ell: int, bound: int) -> dict:
    """lcm of eigenvalue-ratio orders over alpha-split primes, with audit data.

    Repeated-eigenvalue primes are skipped (flagged); the stabilization
    prefix records the last prime at which the running lcm changed, and the
    result degrades to insufficient data when that happens too close to the
    bound or when no usable split prime exists.
    """
    q = alpha.modulus
    minus = alpha.minus_residues()
    n = 1
    last_change = None
    used = 0
    skipped_repeated = []
    for p, (t, d) in frob.items():
        if p % q in minus:
            continue
        if repeated_eigenvalue(t, d, ell):
            skipped_repeated.append(p)
            continue
        used += 1
        n2 = lcm(n, projective_frob_order(t, d, ell))
        if n2 != n:
            n = n2
            last_change = p
    insufficient = used == 0 or (last_change is not None and last_change > bound - STABILIZATION_MARGIN)
    return {
        "n": n,
        "split_primes_used": used,
        "skipped_repeated": skipped_repeated,
        "stabilized_at": last_change,
        "insufficient": insufficient,
        "divides_ell_minus_1": (ell - 1) % n == 0,
        "divides_ell_plus_1": (ell + 1) % n == 0,
    }


def not_borel_witness(frob: dict[int, tuple[int, int]], ell: int):
    """Least good prime whose Frobenius characteristic polynomial is irreducible mod ell.

    That is a non-square discriminant t^2 - 4d, by Euler's criterion.
    """
    for p, (t, d) in frob.items():
        if legendre(t * t - 4 * d, ell) == -1:
            return p
    return None


@dataclass
class ImageReport:
    root: int
    ideal: str
    status: str  # dihedral | possibly_reducible | not_dihedral | insufficient_data
    n: int | None = None
    alpha: DirichletCharacter | None = None
    alpha_kernel_disc: int | None = None
    reducible_character: DirichletCharacter | None = None
    not_borel_witness: int | None = None
    irreducible: bool = False  # the full character sweep excluded reducibility
    flags: dict = field(default_factory=dict)

    @property
    def not_borel_certified(self) -> bool:
        """No global fixed point, at trace level.

        A reducible dim-2 representation is exactly a Borel-contained one, so
        the sweep certificate alone suffices; a single prime with irreducible
        Frobenius polynomial is the cheap sufficient witness when it exists
        (it cannot exist when this ideal's image is itself a group in which
        every element fixes a point).
        """
        return self.not_borel_witness is not None or self.irreducible

    @property
    def image_cell(self) -> str:
        """Rendered image column entry, dihedral order convention D_{2n}."""
        if self.status == "dihedral":
            return f"D{2 * self.n}"
        if self.status == "possibly_reducible":
            return f"C{self.n}"
        if self.status == "insufficient_data":
            return "?"
        return "none"

    def to_dict(self):
        return {
            "root": self.root,
            "ideal": self.ideal,
            "status": self.status,
            "n": self.n,
            "image": self.image_cell,
            "alpha": self.alpha.to_dict() if self.alpha else None,
            "alpha_kernel_disc": self.alpha_kernel_disc,
            "reducible_character": self.reducible_character.to_dict()
            if self.reducible_character
            else None,
            "not_borel_witness": self.not_borel_witness,
            "irreducible": self.irreducible,
            "flags": self.flags,
        }


@dataclass
class HasseVerdict:
    label: str
    ell: int
    verdict: str  # hasse | not_hasse | undetermined
    reasons: dict

    def to_dict(self):
        return {
            "label": self.label,
            "ell": self.ell,
            "verdict": self.verdict,
            "reasons": self.reasons,
        }


def analyze_ideal(
    frob: dict[int, tuple[int, int]], level: int, ell: int, bound: int, root: int, ideal: str
) -> ImageReport:
    """The mod-l image at one ideal, read from its Frobenius table alone."""
    report = ImageReport(root, ideal, "not_dihedral")
    twist = detect_twist(frob, level)
    red = exclude_reducible(frob, level, ell)
    report.not_borel_witness = not_borel_witness(frob, ell)
    if red["reducible"]:
        report.status = "possibly_reducible"
        report.reducible_character = red["character"]
        report.n = red["cyclic_order"]
        if twist:
            report.alpha, report.alpha_kernel_disc = twist
        return report
    report.irreducible = True
    report.flags["irreducibility_certificate_size"] = len(red["certificates"])
    if twist is None:
        report.status = "not_dihedral"
        report.flags["no_surviving_twist"] = True
        return report
    alpha, disc = twist
    report.alpha, report.alpha_kernel_disc = alpha, disc
    audit = dihedral_order(frob, alpha, ell, bound)
    report.flags["order_audit"] = {k: audit[k] for k in ("split_primes_used", "skipped_repeated", "stabilized_at")}
    if audit["insufficient"]:
        report.status = "insufficient_data"
        report.n = audit["n"]
        return report
    if not (audit["divides_ell_minus_1"] or audit["divides_ell_plus_1"]):
        # order evidence incompatible with any dihedral group mod ell
        report.status = "not_dihedral"
        report.n = audit["n"]
        report.flags["order_evidence_inconsistent"] = True
        report.flags["twist_vanishing_held"] = True
        return report
    report.status = "dihedral"
    report.n = audit["n"]
    report.flags["split_type"] = audit["divides_ell_minus_1"]
    return report


def _reasons(ell: int, bound: int) -> dict:
    return {
        "ell_ge_7": ell >= 7,
        "ell_3_mod_4": ell % 4 == 3,
        "split_in_coefficient_field": False,
        "dihedral_ideal": None,
        "n": None,
        "n_odd": False,
        "n_gt_1": False,
        "n_divides_half_ell_minus_1": False,
        "other_ideal_not_borel": False,
        "bound": bound,
    }


def hasse_verdict(record: NewformRecord, ell: int, bound: int | None = None):
    """Full two-ideal analysis of a record and the combined verdict.

    Returns (HasseVerdict, [ImageReport...]).  Failure modes (inert or
    ramified l, missing data) become reasons on an undetermined verdict,
    never exceptions; otherwise the record's two Frobenius tables go to
    verdict_from_tables.
    """
    if bound is None:
        bound = default_bound(record.level)
    why = None
    try:
        maps = split_primes((record.m0, record.m1, 1), ell)
        if maps is None:
            why = {"inert": True}
        else:
            tables = [(rmap.root, rmap.ideal_display(), frob_table(record, rmap, bound)) for rmap in maps]
    except RamifiedPrimeError:
        why = {"ramified": True}
    except DataCoverageError as exc:
        # coverage belongs to the record: both ideals fail or neither does
        why = {"split_in_coefficient_field": True, "data_coverage": str(exc)}
    if why is not None:
        return HasseVerdict(record.label, ell, "undetermined", _reasons(ell, bound) | why), []
    return verdict_from_tables(record.label, record.level, ell, bound, tables)


def verdict_from_tables(label: str, level: int, ell: int, bound: int, tables: list) -> tuple:
    """Lemma 3.1's verdict from the Frobenius tables of the two ideals above l.

    tables holds two (root, ideal display, {p: (t, d)}), one per ideal; any
    exact source of (a_p, p*eps(p)) mod l can fill them.  Returns
    (HasseVerdict, [ImageReport, ImageReport]).
    """
    reports = [analyze_ideal(frob, level, ell, bound, root, ideal) for root, ideal, frob in tables]
    reasons = _reasons(ell, bound) | {"split_in_coefficient_field": True}
    # Lemma 3.1's carrier: a dihedral ideal meeting Sutherland's condition whose other
    # ideal is certified not Borel; the evidence is the carrier, else the first dihedral one
    facts = [(r.status == "dihedral" and sutherland_dihedral(r.n, ell), r.not_borel_certified) for r in reports]
    carrier = lemma31_carrier(facts)
    dihedral = [r for r in reports if r.status == "dihedral"]
    evidence = reports[carrier] if carrier is not None else (dihedral[0] if dihedral else None)
    if evidence is not None:
        n = evidence.n
        reasons.update(
            dihedral_ideal=evidence.ideal,
            n=n,
            n_odd=n % 2 == 1,
            n_gt_1=n > 1,
            n_divides_half_ell_minus_1=((ell - 1) // 2) % n == 0,
        )
    if carrier is not None:
        witness = reports[1 - carrier].not_borel_witness
        reasons.update(
            other_ideal_not_borel=True,
            not_borel_witness=witness,
            not_borel_mechanism="witness_prime" if witness is not None else "irreducibility_sweep",
        )
        # Sutherland's n > 1 odd with n | (l - 1)/2 already forces l >= 7
        if reasons["ell_3_mod_4"]:
            return HasseVerdict(label, ell, "hasse", reasons), reports

    if any(rep.status == "insufficient_data" for rep in reports):
        return HasseVerdict(label, ell, "undetermined", reasons), reports
    return HasseVerdict(label, ell, "not_hasse", reasons), reports


def congruence_check(
    f: NewformRecord,
    g: NewformRecord,
    ell: int,
    root_f: int | None = None,
    root_g: int | None = None,
    bound: int | None = None,
) -> dict:
    """Finite coefficient-congruence verification between two records mod l.

    Compares reductions at all good primes up to the Sturm bound of the lcm
    level (an explicit, documented heuristic for the cross-level case); this
    is a verification aid, not a proof of congruence.
    """
    maps_f = split_primes(f.field_poly, ell)
    maps_g = split_primes(g.field_poly, ell)
    if maps_f is None or maps_g is None:
        raise ValueError(f"{ell} must split in both coefficient fields")
    rf = next((m for m in maps_f if root_f is None or m.root == root_f), None)
    rg = next((m for m in maps_g if root_g is None or m.root == root_g), None)
    if rf is None or rg is None:
        raise ValueError("requested root is not a root of the field polynomial")
    if bound is None:
        bound = sturm_bound(lcm(f.level, g.level), 2)
    bound = min(bound, f.ap_max_prime, g.ap_max_prime)
    primes = test_primes(f.level * g.level, ell, bound)
    first = next((p for p in primes if reduce_coeff(f, p, rf) != reduce_coeff(g, p, rg)), None)
    return {
        "congruent": first is None,
        "first_violation": first,
        "bound": bound,
        "primes_tested": len(primes) if first is None else primes.index(first) + 1,
        "finite_verification": True,
    }


# ---------------------------------------------------------------------------
# scan driver


def _scan_one(record: NewformRecord, ell: int, bound: int | None) -> dict:
    try:
        verdict, reports = hasse_verdict(record, ell, bound)
    except Exception as exc:  # noqa: BLE001 - per-row capture is the contract
        return {"label": record.label, "error": f"{type(exc).__name__}: {exc}"}
    for why in ("inert", "ramified"):
        if why in verdict.reasons:
            return {"label": record.label, "level": record.level, "skipped": why}
    return {
        "label": record.label,
        "level": record.level,
        "verdict": verdict.to_dict(),
        "reports": [r.to_dict() for r in reports],
        "images": [r.image_cell for r in reports],
    }


def scan(
    source: DataSource,
    ell: int,
    level_max: int | None = None,
    filters: dict | None = None,
    bound: int | None = None,
    labels: list[str] | None = None,
) -> list[dict]:
    """Analyze a set of forms; deterministic label-sorted output rows.

    Forms are restricted to those whose coefficient field splits at ell
    (matching the scan this tool reproduces); non-split forms and per-form
    failures become rows with a skip/error marker rather than aborting.
    Every loaded record must pass the filters and level_max, explicit labels
    included, and a record that fails to load is an error row.  Without
    explicit labels, fixtures mode lists every fixture; the other modes ask
    query_candidates for the labels when there are filters.
    """
    if labels is None and filters and source.mode != "fixtures":
        labels = query_candidates(source, filters)
    elif labels is None:
        labels = list_fixture_labels(source)
    rows: list[dict] = []
    for label in labels:
        try:
            record = fetch_form(source, label)
        except Exception as exc:  # noqa: BLE001 - per-row capture is the contract
            rows.append({"label": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        if level_max is not None and record.level > level_max:
            continue
        if filters and not matches(record, filters):
            continue
        rows.append(_scan_one(record, ell, bound))
    rows.sort(key=lambda r: _label_sort_key(r["label"]))
    return rows


def _label_sort_key(label: str):
    """Level, weight, then the orbit and form letters as LMFDB counts them:
    base 26, so a shorter code comes first (z before ba).  Malformed labels
    sort last, by their text."""
    parts = label.split(".")
    try:
        return (int(parts[0]), int(parts[1]), (len(parts[2]), parts[2]), (len(parts[3]), parts[3]))
    except (ValueError, IndexError):
        return (1 << 60, 0, (0, label), (0, ""))


def rows_to_table(rows: list[dict]) -> str:
    out = []
    header = f"{'label':<16} {'level':>6} {'verdict':<12} images (per root)"
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        if "error" in row:
            out.append(f"{row['label']:<16} {'-':>6} ERROR        {row['error']}")
            continue
        if "skipped" in row:
            out.append(f"{row['label']:<16} {row['level']:>6} skipped      ({row['skipped']})")
            continue
        images = ", ".join(
            f"r={rep['root']} {rep['ideal']}: {rep['image']}" for rep in row["reports"]
        ) or row["verdict"]["reasons"].get("data_coverage", "")
        out.append(f"{row['label']:<16} {row['level']:>6} {row['verdict']['verdict']:<12} {images}")
    return "\n".join(out) + "\n"
