"""Lie algebras over Q: exterior algebra, homology boundary, Lie kernels,
Betti numbers.

A multivector in Lambda^k(g) is a dict mapping strictly increasing index
tuples (0-based, length k) to Fraction coefficients.  The canonical ordered
basis of Lambda^k(g) is the list of increasing k-tuples in lexicographic
order, and all matrices below are written in that basis (columns = domain).

The structure constants are kept as their nonzero terms only:
`LieAlgebra.table` maps each pair i < j with a nonzero bracket to the
(m, c) terms of [e_i, e_j] = sum c e_m, m ascending, and
`bracket_basis(i, j)` reads them for any i, j (negated for i > j, empty for
a zero bracket).  No module outside this one reads `table`.

The bracket enters the exterior algebra in one place, the boundary of a
basis k-vector (`boundary_of_tuple`, which places the new factor of a
bracket by bisection), and the sign of any other wedge product in one,
`sort_with_sign`.  `wedge_matrix(dim, i, k)` is the matrix of e_i ^ .
on Lambda^k.  `validate_jacobi` checks the Jacobi identity as
boundary_2 boundary_3 = 0, which is equivalent to it.  The adjoint action
extended to Lambda g as a derivation (the Schouten bracket with a 1-vector)
needs no formula of its own: ad_xi = -(boundary e_xi + e_xi boundary), with
e_xi = xi ^ . (Koszul's identity), so on the Lie kernel it is
-boundary e_xi (`gmodule.lie_kernel_module`).  So is the centre
(`LieAlgebra.center`): x is central iff boundary(e_j ^ x) = -[e_j, x] is
zero for every j, and `gmodule` reduces module cohomology to the part where
the centre acts nilpotently (Fitting's lemma and Cartan's formula; see
there).  `ce_betti` counts Betti numbers degree by degree, as the oracle for
the trivial module's cohomology.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import cached_property, reduce
from itertools import combinations

from .linalg import Mat, frac, mat_mul, mat_vstack, nullspace, rank


class StructureError(ValueError):
    """A Lie-algebra or module axiom fails exactly (not a tolerance issue)."""


class LieAlgebra:
    """Finite-dimensional Lie algebra given by rational structure constants.

    `brackets` maps pairs (i, j) with i < j to the terms {m: c} of
    [e_i, e_j] = sum c e_m; missing pairs and zero coefficients are zero
    brackets.  `table` keeps each nonzero bracket as a tuple of its nonzero
    (m, c) terms, m ascending; `bracket_basis` reads it.
    """

    def __init__(self, dim: int, brackets=None, name: str = ""):
        self.dim = dim
        self.name = name
        table = {}
        for (i, j), terms in (brackets or {}).items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i},{j}) out of range")
            if not isinstance(terms, Mapping):
                raise ValueError(f"bracket ({i},{j}) is not a mapping of terms")
            if any(not 0 <= m < dim for m in terms):
                raise ValueError(f"bracket ({i},{j}) has a term index outside 0..{dim - 1}")
            coeffs = {m: frac(x) for m, x in terms.items()}
            pairs = tuple((m, coeffs[m]) for m in sorted(coeffs) if coeffs[m])
            if pairs:
                table[(i, j)] = pairs
        self.table = table

    def bracket_basis(self, i: int, j: int):
        """Nonzero terms (m, c) of [e_i, e_j] = sum c e_m, m ascending, for
        any i, j; () for a zero bracket."""
        if i < j:
            return self.table.get((i, j), ())
        return tuple((m, -c) for m, c in self.table.get((j, i), ()))

    @cached_property
    def center(self):
        """Canonical basis of the centre as sparse columns, computed once: the
        nullspace of the maps x -> boundary(e_j ^ x) = -[e_j, x] stacked over j."""
        b = boundary_matrix(self, 2)
        return nullspace(reduce(mat_vstack, (mat_mul(b, wedge_matrix(self.dim, j, 1))
                                             for j in range(self.dim)), Mat.zeros(0, self.dim)))

    def __repr__(self):
        return f"LieAlgebra({self.name or self.dim})"


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
# boundary, wedge, Lie kernel
# ---------------------------------------------------------------------------

def boundary_of_tuple(g: LieAlgebra, t: tuple) -> dict:
    """Boundary of a basis k-vector:
    sum over positions a<b of (-1)^(a+b) (1-indexed) [e_{t_a}, e_{t_b}]
    wedged with the remaining factors.  A bracket's e_m goes into the
    increasing tuple `rest` at its bisection point j, past j factors:
    e_m ^ rest is (-1)^j times the sorted tuple, and 0 if m is in rest."""
    out: dict = {}
    k = len(t)
    for a in range(k):
        for b in range(a + 1, k):
            rest = t[:a] + t[a + 1:b] + t[b + 1:]
            for m, c in g.bracket_basis(t[a], t[b]):
                if m not in rest:
                    j = bisect_left(rest, m)
                    key = rest[:j] + (m,) + rest[j:]
                    if (a + b + j) % 2:
                        c = -c
                    old = out.pop(key, None)
                    if old is not None:
                        c += old
                    if c:
                        out[key] = c
    return out


def boundary_matrix(g: LieAlgebra, k: int) -> Mat:
    """Matrix of the boundary Lambda^k -> Lambda^{k-1} in the canonical bases."""
    pos = {t: i for i, t in enumerate(exterior_basis(g.dim, k - 1))}
    return Mat.from_sparse_columns([{pos[u]: x for u, x in boundary_of_tuple(g, t).items()}
                                    for t in exterior_basis(g.dim, k)], len(pos))


def wedge_matrix(dim: int, i: int, k: int) -> Mat:
    """Matrix of e_i ^ . : Lambda^k -> Lambda^{k+1} in the canonical bases;
    the column of a tuple that holds i is zero."""
    pos = {t: r for r, t in enumerate(exterior_basis(dim, k + 1))}
    cols = []
    for t in exterior_basis(dim, k):
        sign, s = sort_with_sign((i,) + t)
        cols.append({pos[s]: sign} if sign else {})
    return Mat.from_sparse_columns(cols, len(pos))


def validate_jacobi(g: LieAlgebra) -> None:
    """Raise StructureError on the first basis triple violating Jacobi.  The
    boundary of the boundary of e_i^e_j^e_k is the Jacobiator of the triple,
    so the failing triples are the nonzero columns of boundary_2 boundary_3."""
    jacobiators = mat_mul(boundary_matrix(g, 2), boundary_matrix(g, 3))
    cols = [j for _, j, _ in jacobiators.nonzeros()]
    if cols:
        i, j, k = exterior_basis(g.dim, 3)[min(cols)]
        raise StructureError(f"Jacobi identity fails on basis triple "
                             f"(e{i + 1}, e{j + 1}, e{k + 1})")


def lie_kernel_basis(g: LieAlgebra, k: int):
    """Canonical basis of the degree-k Lie kernel (kernel of the boundary),
    as sparse {row: Fraction} columns over exterior_basis(g.dim, k)."""
    return nullspace(boundary_matrix(g, k))


def ce_betti(g: LieAlgebra):
    """Betti numbers of the algebra with trivial coefficients, degrees 0..dim,
    from every boundary ranked on its own: the oracle for the trivial
    module's cohomology (`gmodule`), which mirrors ranks where it can."""
    ranks = [rank(boundary_matrix(g, k)) for k in range(g.dim + 2)]
    return tuple(len(exterior_basis(g.dim, k)) - ranks[k] - ranks[k + 1]
                 for k in range(g.dim + 1))


# ---------------------------------------------------------------------------
# catalog algebras
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {}, name=f"abelian{n}")


# name -> (dim, brackets), brackets in the form `LieAlgebra` takes.  so(4) is
# the antisymmetric 4x4 matrices in the basis E_ij = e_i e_j^T - e_j e_i^T,
# i < j in lexicographic order (E01, E02, E03, E12, E13, E23), bracketed by
# the matrix commutator; u(2) is R + su(2), e0 central.
ALGEBRA_CATALOG = {
    "abelian3": (3, {}),
    "heisenberg3": (3, {(0, 1): {2: 1}}),
    "su2": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
    "so3": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),
    "so4": (6, {(0, 1): {3: -1}, (0, 2): {4: -1}, (0, 3): {1: 1}, (0, 4): {2: 1},
                (1, 2): {5: -1}, (1, 3): {0: -1}, (1, 5): {2: 1}, (2, 4): {0: -1},
                (2, 5): {1: -1}, (3, 4): {5: -1}, (3, 5): {4: 1}, (4, 5): {3: -1}}),
    "u2": (4, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}),
}


def catalog_algebra(name: str) -> LieAlgebra:
    """The catalog algebra `name`, its written table checked for Jacobi."""
    try:
        dim, brackets = ALGEBRA_CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown catalog algebra {name!r}; "
                       f"available: {sorted(ALGEBRA_CATALOG)}") from None
    g = LieAlgebra(dim, brackets, name=name)
    validate_jacobi(g)
    return g
