"""The Hasse property test, PGL2 classification, and the block-sum checker.

A projective group is Hasse when every element fixes a point of the ambient
projective space but no point is fixed by the whole group.  For dim-2
groups we also compute a full structural classification (cyclic/dihedral/
A4/S4/..., stabilised point-pairs, projective determinant) and evaluate the
four classical criterion conditions for elliptic-type images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matgrp import (
    MatrixGroup,
    ProjGroup,
    ProjPoint,
    all_proj_points,
    block_diagonal,
    fixed_points,
    has_eigenvalue,
    mat_det,
    mat_identity,
    Matrix,
    point_canonical,
    proj_canonical,
    projectivize,
)

# Largest ambient group enumerate_subgroups accepts: |PGL2(F_11)|.
LATTICE_BOUND = 1320


@dataclass(frozen=True)
class HasseResult:
    is_hasse: bool
    violating_element: tuple | None = None
    global_fixed_point: ProjPoint | None = None

    def to_dict(self):
        return {
            "is_hasse": self.is_hasse,
            "violating_element": list(self.violating_element) if self.violating_element else None,
            "global_fixed_point": list(self.global_fixed_point.coords) if self.global_fixed_point else None,
        }


def _element_fixed_points(elt: tuple, dim: int, p: int) -> set[ProjPoint]:
    return fixed_points(Matrix(elt, dim, p))


def global_fixed_points(group: ProjGroup) -> set[ProjPoint]:
    """Points fixed by every generator (equivalently, by the whole group)."""
    common: set[ProjPoint] | None = None
    for g in group.generators:
        pts = _element_fixed_points(g, group.dim, group.modulus)
        common = pts if common is None else common & pts
        if not common:
            return set()
    if common is None:  # no generators: trivial group fixes everything
        return set(all_proj_points(group.dim, group.modulus))
    return common


def is_hasse(group: ProjGroup) -> HasseResult:
    """Both defining conditions, with deterministic witnesses.

    The violating element (fixing no point) and the global fixed point are
    reported as the lexicographically least candidates so output is stable.
    """
    dim, p = group.dim, group.modulus
    violator = min((elt for elt in group.elements if not has_eigenvalue(elt, dim, p)), default=None)
    if violator is not None:
        return HasseResult(False, violating_element=violator)
    common = global_fixed_points(group)
    if common:
        return HasseResult(False, global_fixed_point=min(common))
    return HasseResult(True)


# ---------------------------------------------------------------------------
# dim-2 classification


@dataclass(frozen=True)
class SutherlandConditions:
    cond1_dihedral_odd_n: bool
    cond2_ell_3mod4: bool
    cond3_split_cartan_normalizer: bool
    cond4_index2_fixes: bool

    @property
    def predicted_hasse(self) -> bool:
        # conditions (3) and (4) follow from (1) and (2); only those two decide
        return self.cond1_dihedral_odd_n and self.cond2_ell_3mod4

    def to_dict(self):
        return {
            "cond1_dihedral_odd_n": self.cond1_dihedral_odd_n,
            "cond2_ell_3mod4": self.cond2_ell_3mod4,
            "cond3_split_cartan_normalizer": self.cond3_split_cartan_normalizer,
            "cond4_index2_fixes": self.cond4_index2_fixes,
            "predicted_hasse": self.predicted_hasse,
        }


@dataclass(frozen=True)
class Pgl2Classification:
    order: int
    dickson_label: str
    stabilized_pair: str  # "split", "nonsplit" or "none"
    rotation_subgroup_fixed_point: bool
    projective_det_surjective: bool
    sutherland: SutherlandConditions
    dihedral_n: int | None = None
    cyclic_n: int | None = None

    def to_dict(self):
        return {
            "order": self.order,
            "dickson_label": self.dickson_label,
            "stabilized_pair": self.stabilized_pair,
            "rotation_subgroup_fixed_point": self.rotation_subgroup_fixed_point,
            "projective_det_surjective": self.projective_det_surjective,
            "sutherland": self.sutherland.to_dict(),
        }


def _cyclic_subgroup(group: ProjGroup, g: tuple) -> frozenset:
    ident = proj_canonical(mat_identity(group.dim), group.modulus)
    out = {ident}
    x = g
    while x != ident:
        out.add(x)
        x = group.mul(x, g)
    return frozenset(out)


def _dihedral_structure(group: ProjGroup, orders: dict):
    """Return n if the group is dihedral of order 2n (n >= 2), else None.

    Dihedral here means: a cyclic index-2 subgroup plus an involution that
    inverts it.  The Klein four-group counts as dihedral with n = 2.
    """
    size = group.order()
    if size % 2 or size < 4:
        return None
    n = size // 2
    for g, og in orders.items():
        if og != n:
            continue
        cyc = _cyclic_subgroup(group, g)
        ginv = group.inv(g)
        for r in group.elements:
            if r in cyc or orders[r] != 2:
                continue
            if group.mul(group.mul(r, g), r) == ginv:
                return n
    return None


def _pair_stabilized(group: ProjGroup) -> str:
    """Does the group stabilise an unordered pair of points of P^1?

    Split pairs live in P^1(F_p); nonsplit pairs are Frobenius-conjugate
    pairs of points of P^1(F_{p^2}) outside P^1(F_p).  Either kind is the
    zero set of a binary quadratic form Q = aX^2 + bXY + cY^2 over F_p with
    two distinct roots, and the roots fix Q up to a scalar.  As
    (Q o g)(v) = Q(g v), Q o g is the form whose roots are g^-1 of the
    pair, so g stabilises the pair exactly when Q o g is a multiple of Q,
    and the group does when each generator does.  The forms up to scalar
    are the points (a : b : c) of P^2(F_p): one with two zeros on P^1(F_p)
    gives a split pair, one with none is irreducible and gives a nonsplit
    pair, and one with a single zero is a square and gives no pair.  A
    split pair beats a nonsplit one.
    """
    p = group.modulus
    found = "none"
    for form in all_proj_points(3, p):
        a, b, c = form.coords
        zeros = (a == 0) + sum((a * x * x + b * x + c) % p == 0 for x in range(p))
        if zeros == 1:
            continue
        for g0, g1, g2, g3 in group.generators:
            image = (
                a * g0 * g0 + b * g0 * g2 + c * g2 * g2,
                2 * a * g0 * g1 + b * (g0 * g3 + g1 * g2) + 2 * c * g2 * g3,
                a * g1 * g1 + b * g1 * g3 + c * g3 * g3,
            )
            if point_canonical(image, p) != form:
                break
        else:
            if zeros == 2:
                return "split"
            found = "nonsplit"
    return found


def _proj_det_values(group: ProjGroup) -> set[int]:
    """Determinants of canonical lifts modulo squares, as {+1, -1} values."""
    p = group.modulus
    vals = set()
    for elt in group.elements:
        d = mat_det(elt, 2, p)
        vals.add(1 if pow(d, (p - 1) // 2, p) == 1 else -1)
    return vals


def classify_pgl2(group: ProjGroup) -> Pgl2Classification:
    if group.dim != 2:
        raise ValueError("classify_pgl2 expects a dim-2 projective group")
    p = group.modulus
    size = group.order()
    orders = {elt: len(_cyclic_subgroup(group, elt)) for elt in group.elements}
    order_multiset = tuple(sorted(orders.values()))
    det_values = _proj_det_values(group)

    dihedral_n = None
    cyclic_n = size if size in orders.values() else None

    label = None
    if cyclic_n is not None:
        label = f"cyclic({cyclic_n})"
    else:
        dihedral_n = _dihedral_structure(group, orders)
        if dihedral_n is not None:
            label = f"dihedral({2 * dihedral_n})"
    if label is None:
        full = p * (p * p - 1)
        if size == full:
            label = "pgl2"
        elif size == full // 2 and det_values == {1}:
            label = "psl2"
        elif size == 12 and set(orders.values()) <= {1, 2, 3}:
            label = "A4"
        elif size == 24 and order_multiset == tuple(sorted([1] + [2] * 9 + [3] * 8 + [4] * 6)):
            label = "S4"
        elif size == 60 and set(orders.values()) <= {1, 2, 3, 5}:
            label = "A5"
        elif global_fixed_points(group):
            label = "borel_contained"
        else:
            label = "other"

    pair = _pair_stabilized(group)
    det_surjective = det_values == {1, -1}

    # Does an index-2 cyclic (rotation) subgroup fix a point?  A cyclic group
    # fixes exactly what its generator fixes; for n > 2 every element of order
    # n generates the one rotation subgroup, and for the Klein group (n = 2)
    # each of the three C2s is a candidate.
    rotation_fixes = dihedral_n is not None and any(
        _element_fixed_points(g, 2, p) for g, o in orders.items() if o == dihedral_n
    )

    cond1 = (
        dihedral_n is not None
        and dihedral_n > 1
        and dihedral_n % 2 == 1
        and ((p - 1) // 2) % dihedral_n == 0
    )
    sut = SutherlandConditions(
        cond1_dihedral_odd_n=cond1,
        cond2_ell_3mod4=(p % 4 == 3),
        cond3_split_cartan_normalizer=(pair == "split"),
        cond4_index2_fixes=rotation_fixes,
    )
    return Pgl2Classification(
        order=size,
        dickson_label=label,
        stabilized_pair=pair,
        rotation_subgroup_fixed_point=rotation_fixes,
        projective_det_surjective=det_surjective,
        sutherland=sut,
        dihedral_n=dihedral_n,
        cyclic_n=cyclic_n,
    )


# ---------------------------------------------------------------------------
# block-sum sufficiency


def lemma31_check(g1: MatrixGroup, g2: MatrixGroup):
    """Sufficiency test for the block-sum construction.

    predicted: one factor is Hasse and the other has no global fixed point.
    brute_force: the full Hasse test on the projectivised dim-4 block group.
    The contract is one-directional: predicted implies brute_force Hasse.
    """
    if g1.modulus != g2.modulus:
        raise ValueError("factors must share the modulus")
    h1, h2 = projectivize(g1), projectivize(g2)
    r1, r2 = is_hasse(h1), is_hasse(h2)
    # a group with a global fixed point has no violator, so is_hasse reached
    # its fixed-point test and reports the point it found
    borel1 = r1.global_fixed_point is not None
    borel2 = r2.global_fixed_point is not None
    predicted = (r1.is_hasse and not borel2) or (r2.is_hasse and not borel1)
    brute = is_hasse(projectivize(block_diagonal(g1, g2)))
    return {"predicted": predicted, "brute_force": brute}


# ---------------------------------------------------------------------------
# subgroup enumeration


def enumerate_subgroups(ambient: ProjGroup, bound: int = LATTICE_BOUND) -> list[ProjGroup]:
    """All subgroups of `ambient` up to conjugacy.

    Iterative extension: every subgroup arises from a smaller one by
    adjoining a single element, so a breadth-first sweep over conjugacy-class
    representatives is exhaustive.  Deduplication stores the full conjugation
    orbit of each subgroup found, which keeps the conjugacy tests O(1).
    Internally everything runs on an indexed multiplication table.  Each
    representative's generators are the ones it was built from: its parent's
    generators plus the adjoined element (none for the trivial group).  Each
    extension is closed from those generators, and only once per right coset
    sub*g: every element of the coset gives the same extension.
    """
    n = ambient.order()
    if n > bound:
        raise ValueError(f"ambient order {n} exceeds bound {bound}")
    elements = sorted(ambient.elements)
    index = {e: i for i, e in enumerate(elements)}
    table = [[0] * n for _ in range(n)]
    for i, a in enumerate(elements):
        row = table[i]
        for j, b in enumerate(elements):
            row[j] = index[ambient.mul(a, b)]
    ident = index[proj_canonical(tuple(mat_identity(ambient.dim)), ambient.modulus)]
    inv = [0] * n
    for i in range(n):
        inv[i] = table[i].index(ident)

    def close(gens: tuple) -> frozenset:
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                row = table[x]
                for g in gens:
                    y = row[g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def conjugates(sub: frozenset) -> set[frozenset]:
        out = set()
        for c in range(n):
            ci = inv[c]
            crow = table[c]
            out.add(frozenset(table[crow[h]][ci] for h in sub))
        return out

    trivial = frozenset({ident})
    seen: set[frozenset] = set(conjugates(trivial))
    gens_of: dict[frozenset, tuple] = {trivial: ()}  # representative -> generators
    queue = [trivial]
    while queue:
        sub = queue.pop()
        tried = set(sub)
        for g in range(n):
            if g in tried:
                continue
            ext = close(gens_of[sub] + (g,))
            tried.update(table[s][g] for s in sub)  # <sub, s*g> = <sub, g>
            if ext in seen:
                continue
            seen |= conjugates(ext)
            gens_of[ext] = gens_of[sub] + (g,)
            queue.append(ext)
    reps = sorted(gens_of, key=lambda s: (len(s), sorted(elements[i] for i in s)))
    return [
        ProjGroup(
            tuple(elements[i] for i in gens_of[s]),
            ambient.dim,
            ambient.modulus,
            frozenset(elements[i] for i in s),
        )
        for s in reps
    ]
