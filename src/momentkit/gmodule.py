"""Lie algebra modules and cohomology with coefficients.

A GModule packages exact matrices rho(e_i) satisfying
rho([x,y]) = rho(x) rho(y) - rho(y) rho(x); construction validates this
identity exactly.  Its dimension is the size of the matrices, or the `dim`
argument over a 0-dimensional algebra, which has none.  Cochains C^k(g, M)
are stored as coordinate vectors over the basis {(T, u)}: T an increasing
k-tuple over the algebra basis (ordered lexicographically, major index) and
u a module basis index (minor index).

The differential d^k: C^k(g, M) -> C^{k+1}(g, M) of the Chevalley-Eilenberg
complex with coefficients in M is its action terms plus
boundary_matrix(g, k+1)^T (x) 1_M (`ce_module_differential`), so the
algebra's boundary is written once, in `lie_core.boundary_of_tuple`, and
trivial coefficients give d^k = boundary^T.  H^0(g, M) = ker d^0.  A GModule
keeps the rank of each d^k once computed, not the matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, kron, mat_add, mat_mul, mat_scale, mat_vec, nullspace, \
    rank, solve, solve_many
from .lie_core import LieAlgebra, StructureError, ad_matrix, boundary_matrix, \
    exterior_basis, lie_kernel_basis, unit_vector

ZERO = Fraction(0)


class GModule:
    """Finite-dimensional module over a Lie algebra, given by action matrices."""

    def __init__(self, algebra: LieAlgebra, rho, name: str = "", validate: bool = True,
                 dim: int | None = None):
        if len(rho) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        self.algebra = algebra
        self.rho = list(rho)
        self.dim = rho[0].nrows if rho else (dim or 0)
        if dim is not None and dim != self.dim:
            raise ValueError(f"dim {dim} disagrees with {self.dim}x{self.dim} action matrices")
        self.name = name
        self._ranks = {}
        for m in self.rho:
            if m.shape != (self.dim, self.dim):
                raise ValueError("action matrices must be square of equal size")
        if validate:
            self.validate()

    def validate(self) -> None:
        g = self.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = Mat.zeros(self.dim, self.dim)
                for m, c in enumerate(g.bracket_basis(i, j)):
                    if c:
                        lhs = mat_add(lhs, mat_scale(self.rho[m], c))
                comm = mat_add(mat_mul(self.rho[i], self.rho[j]),
                               mat_scale(mat_mul(self.rho[j], self.rho[i]), -1))
                if lhs != comm:
                    raise StructureError(
                        f"module action is not a representation on pair (e{i}, e{j})"
                        + (f" of {self.name}" if self.name else ""))

    def act(self, xi, v):
        """Action of the algebra element with coefficient vector xi on v."""
        out = [ZERO] * self.dim
        for i, c in enumerate(xi):
            if c:
                for r, x in enumerate(mat_vec(self.rho[i], v)):
                    if x:
                        out[r] += c * x
        return out

    def differential_rank(self, k: int) -> int:
        """Rank of ce_module_differential(self, k), computed once."""
        if k not in self._ranks:
            self._ranks[k] = rank(ce_module_differential(self, k))
        return self._ranks[k]

    def __repr__(self):
        return f"GModule({self.name or ''} dim={self.dim} over {self.algebra.name})"


def trivial_module(g: LieAlgebra, n: int = 1) -> GModule:
    return GModule(g, [Mat.zeros(n, n) for _ in range(g.dim)], name="trivial", dim=n)


def dual_module(m: GModule) -> GModule:
    rho = [mat_scale(r.transpose(), -1) for r in m.rho]
    return GModule(m.algebra, rho, name=f"dual({m.name})", validate=False, dim=m.dim)


def tensor_module(a: GModule, b: GModule) -> GModule:
    """Tensor product module: rho(x) = rho_a(x) (x) 1 + 1 (x) rho_b(x)."""
    if a.algebra is not b.algebra:
        raise ValueError("tensor factors must share the algebra")
    ia, ib = Mat.identity(a.dim), Mat.identity(b.dim)
    rho = [mat_add(kron(ra, ib), kron(ia, rb)) for ra, rb in zip(a.rho, b.rho)]
    return GModule(a.algebra, rho, name=f"{a.name}(x){b.name}", validate=False,
                   dim=a.dim * b.dim)


def lie_kernel_module(g: LieAlgebra, k: int, basis=None) -> GModule:
    """The degree-k Lie kernel with the extended adjoint action, in the
    canonical kernel basis (`lie_kernel_basis(g, k)`, computed here unless
    passed in).  The adjoint action preserves the kernel; this construction
    verifies that fact exactly while restricting."""
    kb = lie_kernel_basis(g, k) if basis is None else basis
    kmat = Mat.from_columns(kb, len(exterior_basis(g.dim, k)))
    rho = []
    for i in range(g.dim):
        a = ad_matrix(g, unit_vector(i, g.dim), k)
        image = mat_mul(a, kmat)
        restricted = solve_many(kmat, image)
        if restricted is None:
            raise StructureError(
                f"adjoint action of e{i} does not preserve the degree-{k} Lie kernel")
        rho.append(restricted)
    return GModule(g, rho, name=f"lie_kernel(k={k})")


# ---------------------------------------------------------------------------
# cochain spaces and the differential
# ---------------------------------------------------------------------------

def cochain_dim(g: LieAlgebra, m: GModule, k: int) -> int:
    return len(exterior_basis(g.dim, k)) * m.dim


def ce_module_differential(m: GModule, k: int) -> Mat:
    """Matrix of the cochain differential d^k: C^k(g, M) -> C^{k+1}(g, M),

    (d f)(x_1..x_{k+1}) = sum_i (-1)^(i+1) x_i . f(..x_i-hat..)
                        + sum_{i<j} (-1)^(i+j) f([x_i,x_j], ..hats..).

    The bracket terms are the algebra's boundary acting on the arguments, so
    they form boundary_matrix(g, k+1)^T (x) 1_M; the action terms add
    (-1)^a rho(e_{s_a}) in the block of rows s and columns s minus s_a.  With
    trivial coefficients the action terms vanish and d^k is the transposed
    boundary: the Chevalley-Eilenberg complex.
    """
    g = m.algebra
    dompos = {t: i for i, t in enumerate(exterior_basis(g.dim, k))}
    out = kron(boundary_matrix(g, k + 1).transpose(), Mat.identity(m.dim))
    for row_t, s in enumerate(exterior_basis(g.dim, k + 1)):
        for a, i in enumerate(s):
            col_t = dompos[s[:a] + s[a + 1:]]
            for u, v, x in m.rho[i].nonzeros():
                out.add(row_t * m.dim + u, col_t * m.dim + v, (-1) ** a * x)
    return out


def module_cohomology_dim(m: GModule, k: int) -> int:
    """dim H^k(g, M), exactly."""
    g = m.algebra
    if k < 0 or k > g.dim:
        return 0
    rank_in = m.differential_rank(k - 1) if k > 0 else 0
    return cochain_dim(g, m, k) - m.differential_rank(k) - rank_in


def invariants_basis(m: GModule):
    """Canonical basis of H^0(g, M) = ker d^0, the joint kernel of all
    rho(e_i) (d^0 stacks them)."""
    return nullspace(ce_module_differential(m, 0))


def coboundary_solve(m: GModule, k: int, target):
    """Solve d x = target for x in C^{k-1}(g, M), target in C^k(g, M).

    Returns the deterministic particular solution (free coordinates zero),
    or None when the target is not a coboundary.  Raises StructureError if
    the target is not even a cocycle (then no solution can exist and the
    caller's input is inconsistent).
    """
    dk = ce_module_differential(m, k)
    if any(mat_vec(dk, target)):
        raise StructureError("coboundary_solve target is not a cocycle")
    dprev = ce_module_differential(m, k - 1)
    return solve(dprev, target)
