"""Lie algebras over Q: exterior algebra, homology boundary, Lie kernels,
Schouten brackets, extended adjoint action, Betti numbers.

A multivector in Lambda^k(g) is a dict mapping strictly increasing index
tuples (0-based, length k) to Fraction coefficients.  The canonical ordered
basis of Lambda^k(g) is the list of increasing k-tuples in lexicographic
order, and all matrices below are written in that basis (columns = domain).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import Mat, frac, nullspace, rank

ZERO = Fraction(0)


class StructureError(ValueError):
    """A Lie-algebra or module axiom fails exactly (not a tolerance issue)."""


class LieAlgebra:
    """Finite-dimensional Lie algebra given by rational structure constants.

    `brackets` maps pairs (i, j) with i < j to the coefficient vector of
    [e_i, e_j] in the basis e_0..e_{dim-1}; missing pairs are zero brackets.
    """

    def __init__(self, dim: int, brackets=None, name: str = ""):
        self.dim = dim
        self.name = name
        table = {}
        for (i, j), vec in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i},{j}) out of range")
            vec = tuple(frac(x) for x in vec)
            if len(vec) != dim:
                raise ValueError(f"bracket ({i},{j}) has wrong length")
            if any(vec):
                table[(i, j)] = vec
        self.table = table

    def bracket_basis(self, i: int, j: int):
        """Coefficient vector of [e_i, e_j] for any i, j."""
        if i == j:
            return (ZERO,) * self.dim
        if i < j:
            return self.table.get((i, j), (ZERO,) * self.dim)
        vec = self.table.get((j, i))
        return (ZERO,) * self.dim if vec is None else tuple(-x for x in vec)

    def bracket(self, x, y):
        """Bilinear extension of the bracket to coefficient vectors."""
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                vec = self.bracket_basis(i, j)
                ab = a * b
                for m, c in enumerate(vec):
                    if c:
                        out[m] += ab * c
        return out

    def __repr__(self):
        return f"LieAlgebra({self.name or self.dim})"


def validate_jacobi(g: LieAlgebra) -> None:
    """Raise StructureError on the first basis triple violating Jacobi."""
    for i, j, k in combinations(range(g.dim), 3):
        ei = unit_vector(i, g.dim)
        ej = unit_vector(j, g.dim)
        ek = unit_vector(k, g.dim)
        total = [ZERO] * g.dim
        for a, b, c in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
            term = g.bracket(g.bracket(a, b), c)
            total = [u + v for u, v in zip(total, term)]
        if any(total):
            raise StructureError(
                f"Jacobi identity fails on basis triple (e{i}, e{j}, e{k})")


def unit_vector(i: int, n: int):
    v = [ZERO] * n
    v[i] = Fraction(1)
    return v


# ---------------------------------------------------------------------------
# exterior algebra over the algebra's underlying vector space
# ---------------------------------------------------------------------------

def exterior_basis(dim: int, k: int):
    """Increasing k-tuples in lexicographic order; [] for an empty space."""
    if k < 0 or k > dim:
        return []
    return list(combinations(range(dim), k))


def sort_with_sign(indices):
    """Sort indices, returning (sign, tuple); sign 0 if an index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, None
    return sign, tuple(idx)


def mv_add(a: dict, b: dict, coeff=1) -> dict:
    out = dict(a)
    c = frac(coeff)
    for t, x in b.items():
        out[t] = out.get(t, ZERO) + c * x
    return {t: x for t, x in out.items() if x}


def mv_term(target: dict, indices, coeff) -> None:
    """Accumulate coeff * e_{indices} (unsorted, may repeat) into target."""
    if not coeff:
        return
    sign, t = sort_with_sign(indices)
    if sign == 0:
        return
    val = target.get(t, ZERO) + sign * coeff
    if val:
        target[t] = val
    else:
        target.pop(t, None)


def mv_coords(a: dict, basis) -> list:
    """Coordinates over `basis`; ValueError for a term outside it."""
    pos = {t: i for i, t in enumerate(basis)}
    out = [ZERO] * len(basis)
    for t, x in a.items():
        if t not in pos:
            raise ValueError(f"multivector term {t} is not in the basis")
        out[pos[t]] = x
    return out


def mv_from_coords(coords, basis) -> dict:
    return {t: frac(x) for t, x in zip(basis, coords) if x}


def format_term(coeff: str, body: str) -> str:
    """One rendered term, coefficient times basis element: 'x1', '-x1',
    '3/2*x1', '(x1 + 1)*dx(2)'; an empty body leaves the bare coefficient."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    if " + " in coeff or " - " in coeff:
        return f"({coeff})*{body}"
    return f"{coeff}*{body}"


def format_sum(terms) -> str:
    """Join rendered terms into 'a + b - c' (a term's leading '-' becomes the
    separator); '0' when there are none."""
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += (" - " + term[1:]) if term.startswith("-") else (" + " + term)
    return out


def format_multivector(a: dict) -> str:
    """Deterministic rendering like 'e1^e2 - 2*e3^e4'; '0' when zero."""
    return format_sum([format_term(str(a[t]), "^".join(f"e{i + 1}" for i in t))
                       for t in sorted(a)])


# ---------------------------------------------------------------------------
# boundary, Lie kernel, Schouten bracket, adjoint action
# ---------------------------------------------------------------------------

def boundary_of_tuple(g: LieAlgebra, t: tuple) -> dict:
    """Boundary of a basis k-vector:
    sum over positions a<b of (-1)^(a+b) (1-indexed) [e_{t_a}, e_{t_b}]
    wedged with the remaining factors."""
    out: dict = {}
    k = len(t)
    for a in range(k):
        for b in range(a + 1, k):
            sign = (-1) ** ((a + 1) + (b + 1))
            vec = g.bracket_basis(t[a], t[b])
            rest = t[:a] + t[a + 1:b] + t[b + 1:]
            for m, c in enumerate(vec):
                if c:
                    mv_term(out, (m,) + rest, sign * c)
    return out


def mv_boundary(g: LieAlgebra, a: dict) -> dict:
    out: dict = {}
    for t, x in a.items():
        out = mv_add(out, boundary_of_tuple(g, t), x)
    return out


def boundary_matrix(g: LieAlgebra, k: int) -> Mat:
    """Matrix of the boundary Lambda^k -> Lambda^{k-1} in the canonical bases."""
    dom = exterior_basis(g.dim, k)
    cod = exterior_basis(g.dim, k - 1)
    m = Mat.zeros(len(cod), len(dom))
    pos = {t: i for i, t in enumerate(cod)}
    for j, t in enumerate(dom):
        for u, x in boundary_of_tuple(g, t).items():
            m.add(pos[u], j, x)
    return m


def lie_kernel_basis(g: LieAlgebra, k: int):
    """Canonical basis of the degree-k Lie kernel (kernel of the boundary),
    as coordinate vectors over exterior_basis(g.dim, k)."""
    return nullspace(boundary_matrix(g, k))


def schouten(g: LieAlgebra, a: dict, b: dict) -> dict:
    """Schouten bracket of multivectors, bilinear extension of
    [x_1^..^x_k, y_1^..^y_l] = sum_{i,j} (-1)^(i+j) [x_i,y_j] ^ (rest)."""
    out: dict = {}
    for ta, xa in a.items():
        for tb, xb in b.items():
            xab = xa * xb
            for i in range(len(ta)):
                for j in range(len(tb)):
                    sign = (-1) ** ((i + 1) + (j + 1))
                    vec = g.bracket_basis(ta[i], tb[j])
                    rest = ta[:i] + ta[i + 1:] + tb[:j] + tb[j + 1:]
                    for m, c in enumerate(vec):
                        if c:
                            mv_term(out, (m,) + rest, sign * xab * c)
    return out


def ad_matrix(g: LieAlgebra, xi, k: int) -> Mat:
    """Matrix of ad_xi on Lambda^k in the canonical basis: the Schouten
    bracket with xi as a 1-vector, which extends ad_xi as a derivation."""
    basis = exterior_basis(g.dim, k)
    m = Mat.zeros(len(basis), len(basis))
    pos = {t: i for i, t in enumerate(basis)}
    x1 = mv_from_coords(xi, exterior_basis(g.dim, 1))
    for j, t in enumerate(basis):
        for u, x in schouten(g, x1, {t: Fraction(1)}).items():
            m.add(pos[u], j, x)
    return m


def ce_betti(g: LieAlgebra):
    """Betti numbers of the algebra with trivial coefficients, degrees 0..dim.

    The cochain differential is the transpose of the boundary, so ranks of the
    boundary matrices determine both homology and cohomology dimensions.
    """
    ranks = [rank(boundary_matrix(g, k)) for k in range(g.dim + 2)]
    betti = []
    for k in range(g.dim + 1):
        dim_k = len(exterior_basis(g.dim, k))
        betti.append(dim_k - ranks[k] - ranks[k + 1])
    return tuple(betti)


# ---------------------------------------------------------------------------
# catalog algebras
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, name=f"abelian{n}")


def heisenberg3() -> LieAlgebra:
    """[e0, e1] = e2, e2 central."""
    return LieAlgebra(3, {(0, 1): unit_vector(2, 3)}, name="heisenberg3")


def su2() -> LieAlgebra:
    """[e0,e1] = e2, [e1,e2] = e0, [e2,e0] = e1."""
    return LieAlgebra(3, {
        (0, 1): unit_vector(2, 3),
        (1, 2): unit_vector(0, 3),
        (0, 2): [ZERO, Fraction(-1), ZERO],
    }, name="su2")


def so3() -> LieAlgebra:
    g = su2()
    g.name = "so3"
    return g


def _commutator(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def so4() -> LieAlgebra:
    """Antisymmetric 4x4 matrices; basis E_{ij} = e_i e_j^T - e_j e_i^T for
    i < j in lexicographic order, brackets = matrix commutators."""
    pairs = list(combinations(range(4), 2))
    mats = []
    for (i, j) in pairs:
        m = [[0] * 4 for _ in range(4)]
        m[i][j] = 1
        m[j][i] = -1
        mats.append(m)
    brackets = {}
    for a in range(6):
        for b in range(a + 1, 6):
            comm = _commutator(mats[a], mats[b])
            vec = [ZERO] * 6
            for idx, (i, j) in enumerate(pairs):
                vec[idx] = frac(comm[i][j])
            # check the commutator is accounted for exactly
            rebuilt = [[sum(int(vec[idx]) * mats[idx][r][c] for idx in range(6))
                        for c in range(4)] for r in range(4)]
            if rebuilt != comm:
                raise StructureError("so(4) commutator escaped the basis span")
            if any(vec):
                brackets[(a, b)] = vec
    return LieAlgebra(6, brackets, name="so4")


def u2() -> LieAlgebra:
    """R + su(2): e0 central, e1..e3 the su(2) triple."""
    return LieAlgebra(4, {
        (1, 2): unit_vector(3, 4),
        (2, 3): unit_vector(1, 4),
        (1, 3): [ZERO, ZERO, Fraction(-1), ZERO],
    }, name="u2")


ALGEBRA_CATALOG = {
    "abelian3": lambda: abelian(3),
    "heisenberg3": heisenberg3,
    "su2": su2,
    "so3": so3,
    "so4": so4,
    "u2": u2,
}


def catalog_algebra(name: str) -> LieAlgebra:
    try:
        factory = ALGEBRA_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog algebra {name!r}; "
                       f"available: {sorted(ALGEBRA_CATALOG)}") from None
    g = factory()
    validate_jacobi(g)
    return g
