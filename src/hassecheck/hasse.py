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
    all_proj_points,
    block_diagonal,
    charpoly,
    fixed_points,
    has_eigenvalue,
    mat_det,
    mat_identity,
    pgl2_order,
    proj_canonical,
    projectivize,
)


@dataclass(frozen=True)
class HasseResult:
    is_hasse: bool
    violating_element: tuple | None = None
    global_fixed_point: tuple | None = None

    def to_dict(self):
        return {
            "is_hasse": self.is_hasse,
            "violating_element": list(self.violating_element) if self.violating_element else None,
            "global_fixed_point": list(self.global_fixed_point) if self.global_fixed_point else None,
        }


def global_fixed_points(group: ProjGroup) -> set[tuple]:
    """Points fixed by every generator (equivalently, by the whole group); all points for no generators."""
    return fixed_points(group.generators, group.dim, group.modulus)


def is_hasse(group: ProjGroup) -> HasseResult:
    """Both defining conditions, with deterministic witnesses.

    The violating element (fixing no point) and the global fixed point are
    reported as the lexicographically least candidates so output is stable.
    Every element's characteristic polynomial is computed; an element fixes
    a point exactly when that polynomial has a root in F_p, so the roots are
    searched once per distinct polynomial.  The elements are walked once, so
    a block sum's classes are tested as they are joined; the least violator
    does not depend on the order of the walk.
    """
    dim, p = group.dim, group.modulus
    rootful = {}  # charpoly -> has a root in F_p
    violator = None
    for elt in group.elements:
        coeffs = charpoly(elt, dim, p)
        fixes = rootful.get(coeffs)
        if fixes is None:
            fixes = rootful[coeffs] = has_eigenvalue(coeffs, p)
        if not fixes and (violator is None or elt < violator):
            violator = elt
    if violator is not None:
        return HasseResult(False, violating_element=violator)
    common = global_fixed_points(group)
    if common:
        return HasseResult(False, global_fixed_point=min(common))
    return HasseResult(True)


# ---------------------------------------------------------------------------
# dim-2 classification


def sutherland_dihedral(n: int, ell: int) -> bool:
    """Sutherland's condition on a dihedral image D_2n mod l: n > 1 odd, n | (l - 1)/2.

    (l - 1)/2 is an integer only for odd l, so l = 2 never qualifies.
    """
    return ell % 2 == 1 and n > 1 and n % 2 == 1 and ((ell - 1) // 2) % n == 0


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


def element_order(elt: tuple, p: int) -> int:
    """Order of an element of PGL2(F_p): 1 for a scalar, else read from its charpoly."""
    a, b, c, d = elt
    if b == c == 0 and a == d:
        return 1
    return pgl2_order(*charpoly(elt, 2, p), p)


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
        a, b, c = form
        zeros = (a == 0) + sum((a * x * x + b * x + c) % p == 0 for x in range(p))
        if zeros == 1:
            continue
        for g0, g1, g2, g3 in group.generators:
            image = (
                a * g0 * g0 + b * g0 * g2 + c * g2 * g2,
                2 * a * g0 * g1 + b * (g0 * g3 + g1 * g2) + 2 * c * g2 * g3,
                a * g1 * g1 + b * g1 * g3 + c * g3 * g3,
            )
            if proj_canonical(image, p) != form:
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
        # Euler's criterion inline, not ffield.legendre: at p = 2 every
        # determinant is 1 and must read +1, where legendre raises.
        vals.add(1 if pow(d, (p - 1) // 2, p) == 1 else -1)
    return vals


def classify_pgl2(group: ProjGroup) -> Pgl2Classification:
    if group.dim != 2:
        raise ValueError("classify_pgl2 expects a dim-2 projective group")
    p = group.modulus
    size = group.order()
    orders = {elt: element_order(elt, p) for elt in group.elements}
    order_multiset = tuple(sorted(orders.values()))
    det_values = _proj_det_values(group)

    dihedral_n = None
    cyclic_n = size if size in orders.values() else None

    full = p * (p * p - 1)
    if cyclic_n is not None:
        label = f"cyclic({cyclic_n})"
    elif size % 2 == 0 and size >= 4 and size // 2 in orders.values():
        # By Dickson, a non-cyclic subgroup of PGL2(F_p) of order 2n >= 4 with
        # an element of order n is dihedral (the Klein group is n = 2): no
        # other group with a cyclic subgroup of index 2 embeds in PGL2(F_p).
        dihedral_n = size // 2
        label = f"dihedral({size})"
    elif size == full:
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
    # F_2^x modulo squares is trivial, so at l = 2 the map is onto its one value
    det_surjective = det_values == ({1} if p == 2 else {1, -1})

    # Does an index-2 cyclic (rotation) subgroup fix a point?  A cyclic group
    # fixes exactly what its generator fixes; for n > 2 every element of order
    # n generates the one rotation subgroup, and for the Klein group (n = 2)
    # each of the three C2s is a candidate.
    rotation_fixes = dihedral_n is not None and any(
        fixed_points([g], 2, p) for g, o in orders.items() if o == dihedral_n
    )

    sut = SutherlandConditions(
        cond1_dihedral_odd_n=dihedral_n is not None and sutherland_dihedral(dihedral_n, p),
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


def lemma31_carrier(facts) -> int | None:
    """Lemma 3.1 on two factors, each a pair (hasse, free of global fixed points).

    The sum is Hasse when one factor is Hasse and the other fixes no point.
    Returns the index of the first such Hasse factor, the carrier, or None.
    """
    return next((i for i, (hasse, _) in enumerate(facts) if hasse and facts[1 - i][1]), None)


def lemma31_check(g1: MatrixGroup, g2: MatrixGroup):
    """Sufficiency test for the block-sum construction.

    predicted: one factor is Hasse and the other has no global fixed point.
    brute_force: the full Hasse test on the projective image of G1 + G2.
    contract_holds: predicted implies brute_force Hasse.  On the full
    product built here the converse holds too, so predicted equals
    brute_force.is_hasse: a lift a + b has an eigenvalue exactly when a or b
    has one, and a line fixed by G1 + G2 projects to a line fixed by G1 or
    G2.  The one-way contract is what a subdirect image H < G1 x G2 can
    still rely on.
    The block group is built first, so its checks on the factors (dim 2,
    one modulus, the size cap) run before any Hasse test.  Its classes are
    streamed into the brute force as they are joined: the memory it takes
    is the G2 halves scaled once per leading alpha, not G1 + G2.
    """
    block = block_diagonal(g1, g2)
    factors = [is_hasse(projectivize(g)) for g in (g1, g2)]
    # a group with a global fixed point has no violator, so is_hasse reached
    # its fixed-point test and reports the point it found
    predicted = lemma31_carrier([(r.is_hasse, r.global_fixed_point is None) for r in factors]) is not None
    brute = is_hasse(block)
    return {"predicted": predicted, "brute_force": brute, "contract_holds": not predicted or brute.is_hasse}


# ---------------------------------------------------------------------------
# subgroup enumeration


def enumerate_subgroups(ambient: ProjGroup) -> list[ProjGroup]:
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
