"""Small dense matrices over F_l, generated-subgroup closure, projectivisation.

Matrices are stored as flat row-major tuples of ints in [0, l); the
dimension (2 or 4) and modulus travel with each object.  Group closures are
plain breadth-first products, capped hard: the groups of interest here are
tiny and hitting the cap signals misuse, not a need for a bigger budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def mat_inv(m: tuple, dim: int, p: int) -> tuple:
    a = [list(m[i * dim : (i + 1) * dim]) + [1 if j == i else 0 for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if a[r][col] % p != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is not invertible")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(dim):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return tuple(a[i][dim + j] for i in range(dim) for j in range(dim))


def proj_canonical(m: tuple, p: int) -> tuple:
    """Canonical representative of the scalar class: first nonzero entry 1."""
    for e in m:
        if e % p:
            if e == 1 and min(m) >= 0 and max(m) < p:
                return m  # already canonical
            inv = pow(e, -1, p)
            return tuple([x * inv % p for x in m])
    raise SingularMatrixError("zero matrix has no projective class")


def kernel_basis(m: tuple, dim: int, p: int) -> list[tuple]:
    """Basis of the null space of m over F_p."""
    a = [list(m[i * dim : (i + 1) * dim]) for i in range(dim)]
    pivots = []
    row = 0
    for col in range(dim):
        piv = next((r for r in range(row, dim) if a[r][col] % p != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [x * inv % p for x in a[row]]
        for r in range(dim):
            if r != row and a[r][col]:
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
# projective points


@dataclass(frozen=True, order=True)
class ProjPoint:
    coords: tuple
    modulus: int

    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def point_canonical(coords: tuple, p: int) -> ProjPoint:
    for c in coords:
        if c % p:
            inv = pow(c, -1, p)
            return ProjPoint(tuple(x * inv % p for x in coords), p)
    raise ValueError("zero vector is not a projective point")


def all_proj_points(dim: int, p: int) -> list[ProjPoint]:
    """All points of P^{dim-1}(F_p) in canonical form, sorted."""
    pts = []

    def rec(prefix, started):
        if len(prefix) == dim:
            if started:
                pts.append(ProjPoint(tuple(prefix), p))
            return
        if not started:
            rec(prefix + [0], False)
            rec(prefix + [1], True)
        else:
            for c in range(p):
                rec(prefix + [c], True)

    rec([], False)
    return sorted(pts)


def subspace_points(basis: list[tuple], dim: int, p: int) -> set[ProjPoint]:
    """Projectivised points of the span of `basis`."""
    pts = set()
    k = len(basis)
    if k == 0:
        return pts

    def combos(i, acc):
        if i == k:
            if any(acc):
                pts.add(point_canonical(tuple(acc), p))
            return
        for c in range(p):
            combos(i + 1, [(x + c * y) % p for x, y in zip(acc, basis[i])])

    combos(0, [0] * dim)
    return pts


# ---------------------------------------------------------------------------
# matrices and groups


@dataclass(frozen=True, order=True)
class Matrix:
    entries: tuple
    dim: int
    modulus: int

    def __post_init__(self):
        if self.dim not in (2, 4):
            raise ValueError("dim must be 2 or 4")
        if len(self.entries) != self.dim * self.dim:
            raise ValueError("entry count does not match dim")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        object.__setattr__(self, "entries", tuple(e % self.modulus for e in self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        return Matrix(mat_mul(self.entries, other.entries, self.dim, self.modulus), self.dim, self.modulus)

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


def identity(dim: int, p: int) -> Matrix:
    return Matrix(mat_identity(dim), dim, p)


@dataclass(frozen=True)
class MatrixGroup:
    generators: tuple
    dim: int
    modulus: int
    elements: frozenset

    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, m: Matrix):
        return m.entries in self.elements

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


def closure(generators, cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Breadth-first closure of the generated subgroup, hard-capped."""
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
                    if len(seen) > cap:
                        raise ClosureCapError(cap)
        frontier = nxt
    return MatrixGroup(tuple(gens), dim, p, frozenset(seen))


@dataclass(frozen=True)
class ProjGroup:
    """Scalar classes of a MatrixGroup, each as its canonical representative."""

    generators: tuple  # canonical tuples
    dim: int
    modulus: int
    elements: frozenset  # canonical tuples

    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return proj_canonical(mat_mul(a, b, self.dim, self.modulus), self.modulus)

    def inv(self, a: tuple) -> tuple:
        return proj_canonical(mat_inv(a, self.dim, self.modulus), self.modulus)


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
    """
    if dim == 2:
        a, b, c, d = m
        return ((a + d) % p, (a * d - b * c) % p)
    a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = m
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


def _roots(coeffs: tuple, p: int):
    """Roots in F_p, ascending, of x^n - c_1 x^(n-1) + c_2 x^(n-2) - ... for coeffs (c_1, ..., c_n)."""
    signed = [-c if k % 2 else c for k, c in enumerate(coeffs, 1)]
    for lam in range(p):
        v = 1
        for c in signed:  # Horner's rule
            v = v * lam + c
        if v % p == 0:
            yield lam


def has_eigenvalue(m: tuple, dim: int, p: int) -> bool:
    """True iff the characteristic polynomial of m has a root in F_p."""
    return next(_roots(charpoly(m, dim, p), p), None) is not None


def fixed_points(m: Matrix) -> set[ProjPoint]:
    """All projective points x with m.x proportional to x.

    Each root of the characteristic polynomial is an eigenvalue; its
    eigenspace is projectivised.
    """
    dim, p = m.dim, m.modulus
    coeffs = charpoly(m.entries, dim, p)
    if coeffs[-1] == 0:
        raise SingularMatrixError("fixed points only defined for invertible matrices")
    pts: set[ProjPoint] = set()
    for lam in _roots(coeffs, p):
        shifted = list(m.entries)
        for i in range(dim):
            shifted[i * dim + i] = (shifted[i * dim + i] - lam) % p
        pts |= subspace_points(kernel_basis(tuple(shifted), dim, p), dim, p)
    return pts


def fixed_points_scan(m: Matrix) -> set[ProjPoint]:
    """Oracle version of fixed_points: scan every projective point."""
    dim, p = m.dim, m.modulus
    pts = set()
    for pt in all_proj_points(dim, p):
        img = tuple(
            sum(m.entries[i * dim + j] * pt.coords[j] for j in range(dim)) % p
            for i in range(dim)
        )
        if any(img):
            if point_canonical(img, p) == pt:
                pts.add(pt)
    return pts


# ---------------------------------------------------------------------------
# constructors


def block_diag_mat(a: Matrix, b: Matrix) -> Matrix:
    p = a.modulus
    rows = [[0] * 4 for _ in range(4)]
    ra, rb = a.rows(), b.rows()
    for i in range(2):
        for j in range(2):
            rows[i][j] = ra[i][j]
            rows[2 + i][2 + j] = rb[i][j]
    return matrix(rows, p)


def block_diagonal(g1: MatrixGroup, g2: MatrixGroup) -> MatrixGroup:
    """Direct sum of two dim-2 groups inside GL_4."""
    if g1.modulus != g2.modulus:
        raise ValueError("groups must share the modulus")
    if g1.dim != 2 or g2.dim != 2:
        raise ValueError("block_diagonal expects dim-2 groups")
    p = g1.modulus
    ident = identity(2, p)
    gens = [block_diag_mat(g, ident) for g in g1.generators]
    gens += [block_diag_mat(ident, g) for g in g2.generators]
    if g1.order() * g2.order() > DEFAULT_CAP:
        raise ClosureCapError(DEFAULT_CAP)
    elements = frozenset(
        (a[0], a[1], 0, 0, a[2], a[3], 0, 0, 0, 0, b[0], b[1], 0, 0, b[2], b[3])
        for a in g1.elements
        for b in g2.elements
    )
    return MatrixGroup(tuple(gens), 4, p, elements)


def standard_constructors(kind: str, p: int, inner: MatrixGroup | None = None) -> MatrixGroup:
    """Generator sets for named subgroups of GL_2(F_p) (or the dim-4 wreath)."""
    if kind == "wreath_s2":
        if inner is None or inner.dim != 2:
            raise ValueError("wreath_s2 requires a dim-2 inner group")
        blocks = block_diagonal(inner, inner)
        swap = matrix(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], inner.modulus
        )
        return closure(list(blocks.generators) + [swap])
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
