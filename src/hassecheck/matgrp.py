"""Small dense matrices over F_l, generated-subgroup closure, projectivisation.

Matrices are flat row-major tuples of ints in [0, l), and projective
points are coordinate tuples; the kernels take the dimension (2 or 4) and
the modulus as arguments.  `Matrix` carries both for input read from group
files, and validates it.  Group closures are
plain breadth-first products, capped hard: the groups of interest here are
tiny and hitting the cap signals misuse, not a need for a bigger budget.
A projective group holds one canonical representative per scalar class.
The block sum G1 + G2 of two dim-2 groups is streamed straight into PGL_4
by `block_diagonal`, from the factors' elements, without a dim-4 matrix
group and with each scalar class joined once per pass: its classes are
never held together, only the G2 halves scaled once per leading alpha.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, product

from .ffield import is_prime, least_nonresidue, primitive_root

DEFAULT_CAP = 2**20


class ClosureCapError(RuntimeError):
    def __init__(self, cap):
        super().__init__(f"group closure exceeded the cap of {cap} elements")
        self.cap = cap


class SingularMatrixError(ValueError):
    pass


# ---------------------------------------------------------------------------
# raw tuple matrix helpers


def mat_mul(a: tuple, b: tuple, dim: int, p: int) -> tuple:
    if dim == 2:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return ((a0 * b0 + a1 * b2) % p, (a0 * b1 + a1 * b3) % p,
                (a2 * b0 + a3 * b2) % p, (a2 * b1 + a3 * b3) % p)
    return tuple(
        sum(a[i * dim + k] * b[k * dim + j] for k in range(dim)) % p
        for i in range(dim)
        for j in range(dim)
    )


def mat_identity(dim: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(dim) for j in range(dim))


def mat_det(m: tuple, dim: int, p: int) -> int:
    """Determinant by fraction-free Gaussian elimination mod p."""
    a = [list(m[i * dim : (i + 1) * dim]) for i in range(dim)]
    det = 1
    for col in range(dim):
        piv = next((r for r in range(col, dim) if a[r][col] % p != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, dim):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def proj_canonical(m: tuple, p: int) -> tuple:
    """Canonical representative of the scalar class of a matrix or a point: first nonzero entry 1."""
    for e in m:
        if e % p:
            if e == 1 and min(m) >= 0 and max(m) < p:
                return m  # already canonical
            inv = pow(e, -1, p)
            return tuple([x * inv % p for x in m])
    raise SingularMatrixError("zero matrix has no projective class")


def kernel_basis(m: tuple, dim: int, p: int) -> list[tuple]:
    """Basis of the null space over F_p of the len(m) // dim rows of m, any number of them."""
    nrows = len(m) // dim
    a = [list(m[i * dim : (i + 1) * dim]) for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(dim):
        piv = next((r for r in range(row, nrows) if a[r][col] % p != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [x * inv % p for x in a[row]]
        for r in range(nrows):
            if r != row and a[r][col] % p:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * dim
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-a[r][fc]) % p
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# projective points: coordinate tuples in `proj_canonical` form


def all_proj_points(dim: int, p: int) -> list[tuple]:
    """All points of P^{dim-1}(F_p) in canonical form, sorted (product order is sorted)."""
    return [v for v in product(range(p), repeat=dim) if next(filter(None, v), 0) == 1]


def subspace_points(basis: list[tuple], dim: int, p: int) -> set[tuple]:
    """Projectivised points of the span of `basis`.

    Proportional coefficient vectors give the same point, so only the
    canonical ones, `all_proj_points(len(basis), p)`, are combined: one per
    point when the basis is independent.  A zero combination arises only
    from a dependent basis and is skipped.
    """
    pts = set()
    for coeffs in all_proj_points(len(basis), p):
        v = [sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(dim)]
        if any(v):
            pts.add(proj_canonical(tuple(v), p))
    return pts


# ---------------------------------------------------------------------------
# matrices and groups


@dataclass(frozen=True, order=True)
class Matrix:
    entries: tuple
    dim: int
    modulus: int

    def __post_init__(self):
        for name in ("dim", "modulus"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.dim not in (2, 4):
            raise ValueError("dim must be 2 or 4")
        if len(self.entries) != self.dim * self.dim:
            raise ValueError("entry count does not match dim")
        for e in self.entries:
            if type(e) is not int:
                raise ValueError(f"matrix entries must be integers, not {e!r}")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        object.__setattr__(self, "entries", tuple(e % self.modulus for e in self.entries))

    def det(self) -> int:
        return mat_det(self.entries, self.dim, self.modulus)

    def rows(self):
        d = self.dim
        return [list(self.entries[i * d : (i + 1) * d]) for i in range(d)]

    def __repr__(self):
        return f"Matrix({self.rows()}, mod {self.modulus})"


def matrix(rows, p: int) -> Matrix:
    flat = tuple(e for row in rows for e in row)
    dim = len(rows)
    return Matrix(flat, dim, p)


@dataclass(frozen=True)
class MatrixGroup:
    generators: tuple
    dim: int
    modulus: int
    elements: frozenset

    def order(self) -> int:
        return len(self.elements)

    def to_json(self) -> str:
        return json.dumps(
            {
                "modulus": self.modulus,
                "dim": self.dim,
                "generators": [list(g.entries) for g in self.generators],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "MatrixGroup":
        data = json.loads(text)
        p, dim = data["modulus"], data["dim"]
        gens = [Matrix(tuple(g), dim, p) for g in data["generators"]]
        return closure(gens)


def closure(generators) -> MatrixGroup:
    """Breadth-first closure of the generated subgroup, hard-capped at DEFAULT_CAP."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    dim, p = gens[0].dim, gens[0].modulus
    for g in gens:
        if (g.dim, g.modulus) != (dim, p):
            raise ValueError("generators must share dim and modulus")
        if g.det() == 0:
            raise SingularMatrixError("generator is not invertible")
    gen_tuples = [g.entries for g in gens]
    seen = {mat_identity(dim)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gen_tuples:
                prod = mat_mul(m, g, dim, p)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > DEFAULT_CAP:
                        raise ClosureCapError(DEFAULT_CAP)
        frontier = nxt
    return MatrixGroup(tuple(gens), dim, p, frozenset(seen))


@dataclass(frozen=True)
class ProjGroup:
    """Scalar classes of a MatrixGroup, each as its canonical representative.

    `elements` is a frozenset, or for a block sum the re-iterable, sized
    `BlockClasses` stream.
    """

    generators: tuple  # canonical tuples
    dim: int
    modulus: int
    elements: frozenset | BlockClasses  # canonical tuples

    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return proj_canonical(mat_mul(a, b, self.dim, self.modulus), self.modulus)


def projectivize(group: MatrixGroup) -> ProjGroup:
    p = group.modulus
    elems = frozenset(proj_canonical(m, p) for m in group.elements)
    gens = tuple(dict.fromkeys(proj_canonical(g.entries, p) for g in group.generators))
    return ProjGroup(gens, group.dim, p, elems)


# ---------------------------------------------------------------------------
# fixed points


def charpoly(m: tuple, dim: int, p: int) -> tuple:
    """Coefficients (c_1, ..., c_dim) of det(x*I - m) = sum_k (-1)^k c_k x^(dim-k), mod p.

    c_k is the sum of the k x k principal minors: the trace first, the
    determinant last.  The formulas use ring operations only, so they hold
    for every p, 2 and 3 included.

    A dim-4 matrix whose eight entries off the two diagonal 2x2 blocks are
    all 0 (a block sum A + B) has det(x*I - m) = det(x*I - A) det(x*I - B),
    so its coefficients are those of the product of the blocks'
    polynomials x^2 - tA x + dA and x^2 - tB x + dB: (tA + tB,
    dA + dB + tA tB, tA dB + tB dA, dA dB).  That is an identity of
    polynomials over the integers, exact mod every p; any other matrix
    takes the general formula.
    """
    if dim == 2:
        a, b, c, d = m
        return ((a + d) % p, (a * d - b * c) % p)
    a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = m
    if not (a02 or a03 or a12 or a13 or a20 or a21 or a30 or a31):
        ta, da, tb, db = a00 + a11, a00 * a11 - a01 * a10, a22 + a33, a22 * a33 - a23 * a32
        return ((ta + tb) % p, (da + db + ta * tb) % p, (ta * db + tb * da) % p, da * db % p)
    # 2x2 minors of rows (0, 1) and of rows (2, 3), by column pair
    t01 = a00 * a11 - a01 * a10
    t02 = a00 * a12 - a02 * a10
    t03 = a00 * a13 - a03 * a10
    t12 = a01 * a12 - a02 * a11
    t13 = a01 * a13 - a03 * a11
    t23 = a02 * a13 - a03 * a12
    b01 = a20 * a31 - a21 * a30
    b02 = a20 * a32 - a22 * a30
    b03 = a20 * a33 - a23 * a30
    b12 = a21 * a32 - a22 * a31
    b13 = a21 * a33 - a23 * a31
    b23 = a22 * a33 - a23 * a32
    c1 = a00 + a11 + a22 + a33
    c2 = (t01 + b23 + a00 * a22 - a02 * a20 + a00 * a33 - a03 * a30
          + a11 * a22 - a12 * a21 + a11 * a33 - a13 * a31)
    c3 = (a11 * b23 - a12 * b13 + a13 * b12  # rows and columns {1, 2, 3}
          + a00 * b23 - a02 * b03 + a03 * b02  # {0, 2, 3}
          + a30 * t13 - a31 * t03 + a33 * t01  # {0, 1, 3}
          + a20 * t12 - a21 * t02 + a22 * t01)  # {0, 1, 2}
    c4 = t01 * b23 - t02 * b13 + t03 * b12 + t12 * b03 - t13 * b02 + t23 * b01
    return (c1 % p, c2 % p, c3 % p, c4 % p)


def pgl2_order(t: int, d: int, p: int) -> int:
    """Order in PGL2(F_p) of a non-scalar matrix with trace t and determinant d != 0.

    Such a matrix is conjugate to its companion matrix C = [[t, -d], [1, 0]].
    C^k = U_k C - d U_{k-1} I for the Lucas sequence U_0 = 0, U_1 = 1,
    U_{k+1} = t U_k - d U_{k-1}, and C is not scalar, so the order is the
    least k >= 1 with U_k = 0; it is at most p + 1.  For a repeated
    eigenvalue lam, U_k = k lam^(k-1), so the order is p: a unipotent times
    a scalar.
    """
    u_prev, u, k = 0, 1, 1
    while u:
        u_prev, u, k = u, (t * u - d * u_prev) % p, k + 1
    return k


def roots(coeffs: tuple, p: int):
    """Roots in F_p, ascending, of x^n - c_1 x^(n-1) + c_2 x^(n-2) - ... for coeffs (c_1, ..., c_n)."""
    signed = [-c if k % 2 else c for k, c in enumerate(coeffs, 1)]
    for lam in range(p):
        v = 1
        for c in signed:  # Horner's rule
            v = v * lam + c
        if v % p == 0:
            yield lam


def has_eigenvalue(coeffs: tuple, p: int) -> bool:
    """True iff the characteristic polynomial with coefficients `coeffs` (see charpoly) has a root in F_p."""
    return next(roots(coeffs, p), None) is not None


def fixed_points(ms, dim: int, p: int) -> set[tuple]:
    """The projective points x with m.x proportional to x for every m in ms; all points when ms is empty.

    m fixes x exactly when x lies in the eigenspace ker(m - lam*I) of a root
    lam of m's characteristic polynomial.  So the common fixed points are the
    union, over one root per matrix, of the intersections of those
    eigenspaces: each is the null space of the stacked rows of the m - lam*I.
    A choice of roots whose null space is zero is dropped before the next
    matrix is stacked, and points are listed only for the choices left at
    the end.  Eigenspaces of distinct roots of one matrix meet only in 0, so
    no point is listed twice.  With no matrices the one system left is
    empty, and its null space is the whole space.
    """
    shifts = []  # per matrix, m - lam*I for each root lam
    for m in ms:
        coeffs = charpoly(m, dim, p)
        if coeffs[-1] == 0:
            raise SingularMatrixError("fixed points only defined for invertible matrices")
        shifts.append([  # the diagonal entries are every (dim + 1)-th
            tuple((x - lam) % p if i % (dim + 1) == 0 else x for i, x in enumerate(m))
            for lam in roots(coeffs, p)
        ])
    systems = [()]
    for rows in shifts:
        systems = [s + r for s in systems for r in rows if kernel_basis(s + r, dim, p)]
    pts: set[tuple] = set()
    for s in systems:
        pts |= subspace_points(kernel_basis(s, dim, p), dim, p)
    return pts


def fixed_points_scan(m: Matrix) -> set[tuple]:
    """Oracle for fixed_points on one matrix: scan every projective point."""
    dim, p = m.dim, m.modulus
    pts = set()
    for pt in all_proj_points(dim, p):
        img = tuple(
            sum(m.entries[i * dim + j] * pt[j] for j in range(dim)) % p
            for i in range(dim)
        )
        if any(img):
            if proj_canonical(img, p) == pt:
                pts.add(pt)
    return pts


# ---------------------------------------------------------------------------
# constructors


def _top(a: tuple) -> tuple:
    """The first two rows of the block sum of a 2x2 matrix a with the zero matrix."""
    return (a[0], a[1], 0, 0, a[2], a[3], 0, 0)


def _bottom(b) -> tuple:
    """The last two rows of the block sum of the zero matrix with a 2x2 matrix b."""
    return (0, 0, b[0], b[1], 0, 0, b[2], b[3])


class BlockClasses:
    """The scalar classes of G1 + G2 in PGL_4, joined afresh on every pass.

    For a in G1 with first nonzero entry alpha, alpha^-1 a + alpha^-1 b is
    the canonical representative of the class of a + b: its first nonzero
    entry is the 1 in the a block.  So each element is the top half of
    alpha^-1 a joined to the bottom half of alpha^-1 b, with the b halves
    scaled once per alpha.

    a + b and s*a + s*b are one class for s in S = {s : s*I in G1 and G2},
    and S acts freely on G1 x G2 with the classes as orbits.  The scalings
    s*a of one a have distinct alphas s*alpha, so taking the a whose alpha
    is the least of its coset alpha*S builds each class once: a pass makes
    |G1||G2|/|S| joins, the length.  Only the factors' elements are held,
    and a pass holds the G2 halves scaled once per leading alpha, never
    G1 + G2.
    """

    def __init__(self, g1: MatrixGroup, g2: MatrixGroup):
        p = g1.modulus
        common = [s for s in range(1, p) if (s, 0, 0, s) in g1.elements and (s, 0, 0, s) in g2.elements]
        # the least alpha of each coset alpha*S
        self._leading = {min(s * alpha % p for s in common) for alpha in range(1, p)}
        self._g1, self._g2, self._p = g1.elements, g2.elements, p
        self._order = g1.order() * g2.order() // len(common)

    def __len__(self):
        return self._order

    def __iter__(self):
        p, leading, g2 = self._p, self._leading, self._g2
        bottoms = {}  # alpha -> bottom halves of alpha^-1 G2

        def classes():
            for a in self._g1:
                alpha = a[0] or a[1]  # a is invertible, so its first row is not zero
                if alpha not in leading:
                    continue
                inv = pow(alpha, -1, p)
                if alpha not in bottoms:
                    bottoms[alpha] = [_bottom([x * inv % p for x in b]) for b in g2]
                yield map(_top([x * inv % p for x in a]).__add__, bottoms[alpha])

        return chain.from_iterable(classes())


def block_diagonal(g1: MatrixGroup, g2: MatrixGroup) -> ProjGroup:
    """Projective image in PGL_4 of the direct sum of two dim-2 groups, streamed.

    The checks on the factors run here, and only the generators g + I and
    I + g are canonicalised; the classes are joined on each pass over
    `elements`, a `BlockClasses`, and are never held together.
    """
    if g1.modulus != g2.modulus:
        raise ValueError("groups must share the modulus")
    if g1.dim != 2 or g2.dim != 2:
        raise ValueError("block_diagonal expects dim-2 groups")
    if g1.order() * g2.order() > DEFAULT_CAP:
        raise ClosureCapError(DEFAULT_CAP)
    p = g1.modulus
    ident = mat_identity(2)
    gens = [proj_canonical(_top(g.entries) + _bottom(ident), p) for g in g1.generators]
    gens += [proj_canonical(_top(ident) + _bottom(g.entries), p) for g in g2.generators]
    return ProjGroup(tuple(dict.fromkeys(gens)), 4, p, BlockClasses(g1, g2))


def standard_constructors(kind: str, p: int) -> MatrixGroup:
    """Generator sets for named subgroups of GL_2(F_p)."""
    if p == 2 and kind not in ("gl2", "sl2"):
        raise ValueError(f"constructor {kind} needs an odd prime")
    if kind in ("split_cartan", "split_cartan_normalizer", "borel", "gl2"):
        g = primitive_root(p)
        gens = [matrix([[g, 0], [0, 1]], p), matrix([[1, 0], [0, g]], p)]
        if kind == "split_cartan_normalizer":
            gens.append(matrix([[0, 1], [1, 0]], p))
        elif kind == "borel":
            gens.append(matrix([[1, 1], [0, 1]], p))
        elif kind == "gl2":
            gens += [matrix([[1, 1], [0, 1]], p), matrix([[1, 0], [1, 1]], p)]
        return closure(gens)
    if kind in ("nonsplit_cartan", "nonsplit_cartan_normalizer"):
        s = least_nonresidue(p)
        # multiplication by a generator of F_{p^2}^x = F_p[w]^x, w^2 = s,
        # on the basis {1, w}: the first a + b*w of order p^2 - 1
        cartan = next(
            c
            for a in range(p)
            for b in range(1, p)
            if (c := closure([matrix([[a, b * s % p], [b, a]], p)])).order() == p * p - 1
        )
        if kind == "nonsplit_cartan":
            return cartan
        return closure([*cartan.generators, matrix([[1, 0], [0, p - 1]], p)])
    if kind == "sl2":
        gens = [matrix([[1, 1], [0, 1]], p), matrix([[1, 0], [1, 1]], p)]
        return closure(gens)
    raise ValueError(f"unknown constructor kind: {kind}")
