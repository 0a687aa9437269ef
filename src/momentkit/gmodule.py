"""Lie algebra modules and cohomology with coefficients.

A GModule packages exact matrices rho(e_i).  Its dimension is the size of
the matrices, or the `dim` argument over a 0-dimensional algebra, which has
none.  Cochains C^k(g, M) = Lambda^k(g)^* (x) M are stored as sparse
columns over the basis {(T, u)}: T an increasing k-tuple over the algebra
basis (ordered lexicographically, major index) and u a module basis index
(minor index), the layout of `linalg.kron_sum`.

The differential d^k: C^k(g, M) -> C^{k+1}(g, M) of the Chevalley-Eilenberg
complex with coefficients in M is

    d^k = boundary_matrix(g, k+1)^T (x) 1_M + sum_i wedge_matrix(dim, i, k) (x) rho(e_i)

(`ce_module_differential`), so the algebra's bracket is written once, in
`lie_core.boundary_of_tuple`, and trivial coefficients give
d^k = boundary^T.  rho is a representation exactly when d^1 d^0 = 0, which
`GModule.validate` checks; construction does not.  H^0(g, M) = ker d^0.  A
GModule keeps the rank of each d^k once computed, not the matrix;
`differential_rank` ranks every such complex, the trivial module's (the
Betti numbers) too.

A module built from another is a restriction (`restrict`): rho(e_i) is read
in a canonical kernel basis of the subspace (`linalg.coordinates`), and a
StructureError names the first e_i whose image leaves the span.  So are built
P_k under ad, the closed forms under s * L_V and the weight-zero part below.

Dimensions are read from the weight-zero part (`GModule.weight_zero`).  For
z in the centre (`LieAlgebra.center`), rho(z) commutes with every rho(x), so
M = M_0 (+) M_1, its Fitting decomposition (the generalized kernel of rho(z)
and the image of a high power), is one of modules.  On cochains
theta_z = 1 (x) rho(z), as ad z = 0, and Cartan's formula
theta_z = d iota_z + iota_z d (Chevalley-Eilenberg, Trans. AMS 63, 1948)
makes theta_z zero on cohomology; it is invertible on C*(g, M_1), so that
complex is acyclic and H*(g, M) = H*(g, M_0) (the central case of the
Hochschild-Serre reduction, Ann. Math. 57, 1953).  Each central basis
vector that acts cuts the module down in turn; `module_cohomology_dim`
reads the ranks of what is left, while `invariants_basis` and
`coboundary_solve` stay on the full module.  On a tensor product a (x) b,
rho(z) = rho_a(z) (x) 1 + 1 (x) rho_b(z) is a sum of commuting maps; when
a_0 = a the first is nilpotent and does not change the generalized kernel
of the second, a (x) that of rho_b(z), so M_0 = a (x) b_0, read from b alone.
Hom(P_k, F) = P_k* (x) F is such a product: ad z = 0 extends to Lambda g as
0, so a central z acts by zero on P_k and on its dual.
"""

from __future__ import annotations

from functools import cached_property

from .linalg import Mat, coordinates, kron_sum, mat_mul, mat_scale, nullspace, rank, solve
from .lie_core import LieAlgebra, StructureError, boundary_matrix, exterior_basis, \
    lie_kernel_basis, wedge_matrix


class GModule:
    """Finite-dimensional module over a Lie algebra, given by action matrices."""

    def __init__(self, algebra: LieAlgebra, rho, name: str = "", dim: int | None = None,
                 factors: tuple = ()):
        self.factors = factors  # (a, b) for `tensor_module(a, b)`, which passes rho=None
        if rho is not None:
            if len(rho) != algebra.dim:
                raise ValueError("need one action matrix per algebra basis element")
            self.rho = list(rho)
        self.algebra = algebra
        self.dim = rho[0].nrows if rho else (dim or 0)
        if dim is not None and dim != self.dim:
            raise ValueError(f"dim {dim} disagrees with {self.dim}x{self.dim} action matrices")
        self.name = name
        self._ranks = {}
        if any(m.shape != (self.dim, self.dim) for m in rho or ()):
            raise ValueError("action matrices must be square of equal size")

    @cached_property
    def rho(self):
        """rho_a(x) (x) 1 + 1 (x) rho_b(x) over a tensor product's factors (a, b)."""
        a, b = self.factors
        ia, ib = Mat.identity(a.dim), Mat.identity(b.dim)
        return [kron_sum([(ra, ib), (ia, rb)]) for ra, rb in zip(a.rho, b.rho)]

    def validate(self) -> GModule:
        """The module itself, or StructureError unless d^1 d^0 = 0, naming the
        pair (e_i, e_j) of the first nonzero row: row block e_i^e_j of
        d^1 d^0 is [rho(e_i), rho(e_j)] - rho([e_i, e_j])."""
        square = mat_mul(ce_module_differential(self, 1), ce_module_differential(self, 0))
        first = next(square.nonzeros(), None)
        if first is not None:
            i, j = exterior_basis(self.algebra.dim, 2)[first[0] // self.dim]
            raise StructureError(
                f"module action is not a representation on pair (e{i + 1}, e{j + 1})"
                + (f" of {self.name}" if self.name else ""))
        return self

    @cached_property
    def acts_by_zero(self) -> bool:
        """Whether every rho(e_i) is zero, read from a tensor product's factors
        (both act by zero) without building rho; factors whose actions cancel
        (rho_a = c 1, rho_b = -c 1) read False, and are ranked exactly."""
        if self.factors:
            return all(f.acts_by_zero for f in self.factors)
        return all(r.is_zero() for r in self.rho)

    def differential_rank(self, k: int) -> int:
        """Rank of ce_module_differential(self, k), computed once.  When g
        acts by zero it is dim M * rank boundary_{k+1}, 0 past n = dim g, and
        rank boundary_n = 0 certifies that g is unimodular (the top wedge's
        boundary is sum_i +-tr(ad e_i) e_1..e_i-hat..e_n); then
        rank boundary_j = rank boundary_{n+1-j} (Koszul 1950; Hazewinkel
        1970), and the degrees past the middle are mirrored."""
        if k not in self._ranks:
            n = self.algebra.dim
            if not self.acts_by_zero:
                self._ranks[k] = rank(ce_module_differential(self, k))
            elif not self.dim or not 0 <= k < n:
                self._ranks[k] = 0
            elif (n + 1) // 2 <= k < n - 1 and not self.differential_rank(n - 1):
                self._ranks[k] = self.differential_rank(n - 1 - k)
            else:
                self._ranks[k] = self.dim * rank(boundary_matrix(self.algebra, k + 1))
        return self._ranks[k]

    @cached_property
    def weight_zero(self):
        """M_0 (see the module docstring), computed once; None when it is
        all of M, so that no module keeps itself.  For a tensor product a (x) b
        with a_0 = a it is a (x) b_0, and rho is not built.  Otherwise it is
        the joint generalized kernel of rho(z) over the centre's basis: that
        of p^(2^j), p = rho(z) summed over z's nonzero coefficients, once
        squaring stops growing it, and all of M once a power is zero;
        `restrict` refuses it only if rho is no representation."""
        if self.acts_by_zero:
            return None
        if self.factors and self.factors[0].weight_zero is None:
            a, b = self.factors
            return None if b.weight_zero is None else tensor_module(a, b.weight_zero)
        sub = self
        for z in self.algebra.center:
            p, kernel = kron_sum([(Mat.from_sparse_columns([{0: c}], 1), sub.rho[i])
                                   for i, c in z.items()]), None
            while not p.is_zero():
                wider = nullspace(p)
                if kernel is not None and len(wider) == len(kernel):
                    break
                kernel, p = wider, mat_mul(p, p)
            else:  # a power of p is zero, so M_0 is all of sub
                continue
            basis = Mat.from_sparse_columns(kernel, sub.dim)
            sub = restrict(self.algebra, basis, [mat_mul(r, basis) for r in sub.rho],
                           f"weight_zero({self.name})")
        return None if sub is self else sub

    def __repr__(self):
        return f"GModule({self.name or ''} dim={self.dim} over {self.algebra.name})"


def trivial_module(g: LieAlgebra, n: int = 1) -> GModule:
    return GModule(g, [Mat.zeros(n, n) for _ in range(g.dim)], name="trivial", dim=n)


def dual_module(m: GModule) -> GModule:
    rho = [mat_scale(r.transpose(), -1) for r in m.rho]
    return GModule(m.algebra, rho, name=f"dual({m.name})", dim=m.dim)


def tensor_module(a: GModule, b: GModule) -> GModule:
    """Tensor product module a (x) b; it keeps its factors, and rho is built on first read."""
    if a.algebra is not b.algebra:
        raise ValueError("tensor factors must share the algebra")
    return GModule(a.algebra, None, name=f"{a.name}(x){b.name}", dim=a.dim * b.dim,
                   factors=(a, b))


def restrict(g: LieAlgebra, basis: Mat, images, name: str) -> GModule:
    """The submodule spanned by the columns of `basis`, given images[i] =
    rho(e_i) basis (see the module docstring); it is not validated."""
    rho = [coordinates(basis, image) for image in images]
    if None in rho:
        raise StructureError(f"action of e{rho.index(None) + 1} does not preserve {name}")
    return GModule(g, rho, name=name, dim=basis.ncols)


def lie_kernel_module(g: LieAlgebra, k: int, basis=None) -> GModule:
    """The degree-k Lie kernel P_k = ker boundary_k with the extended adjoint
    action, in the canonical kernel basis (`lie_kernel_basis(g, k)`, computed
    here unless passed in).  On Lambda g, ad_xi = -(boundary e_xi + e_xi
    boundary) with e_xi = xi ^ . (`wedge_matrix`), so on P_k the action of
    e_i is -boundary_{k+1} e_i.  Its image is a boundary, in P_k as
    boundary boundary = 0 (the Jacobi identity), which `restrict` checks."""
    kb = lie_kernel_basis(g, k) if basis is None else basis
    kmat = Mat.from_sparse_columns(kb, len(exterior_basis(g.dim, k)))
    minus_boundary = mat_scale(boundary_matrix(g, k + 1), -1)
    m = restrict(g, kmat, (mat_mul(minus_boundary, mat_mul(wedge_matrix(g.dim, i, k), kmat))
                           for i in range(g.dim)), f"lie_kernel(k={k})")
    return m.validate()  # proven once Jacobi holds; ROADMAP item 7 drops this check


# ---------------------------------------------------------------------------
# cochain spaces and the differential
# ---------------------------------------------------------------------------

def cochain_dim(g: LieAlgebra, m: GModule, k: int) -> int:
    return len(exterior_basis(g.dim, k)) * m.dim


def ce_module_differential(m: GModule, k: int) -> Mat:
    """Matrix of the cochain differential d^k: C^k(g, M) -> C^{k+1}(g, M),

    (d f)(x_1..x_{k+1}) = sum_i (-1)^(i+1) x_i . f(..x_i-hat..)
                        + sum_{i<j} (-1)^(i+j) f([x_i,x_j], ..hats..).

    The bracket terms are the algebra's boundary acting on the arguments,
    boundary_matrix(g, k+1)^T (x) 1_M, and the action terms are
    sum_i wedge_matrix(dim, i, k) (x) rho(e_i): one sum of Kronecker
    products.  With trivial coefficients the action terms vanish and d^k is
    the transposed boundary: the Chevalley-Eilenberg complex.
    """
    g = m.algebra
    return kron_sum([(boundary_matrix(g, k + 1).transpose(), Mat.identity(m.dim))]
                    + [(wedge_matrix(g.dim, i, k), r) for i, r in enumerate(m.rho)])


def module_cohomology_dim(m: GModule, k: int) -> int:
    """dim H^k(g, M), exactly: that of the weight-zero part."""
    g = m.algebra
    if k < 0 or k > g.dim:
        return 0
    m = m.weight_zero or m
    rank_in = m.differential_rank(k - 1) if k > 0 else 0
    return cochain_dim(g, m, k) - m.differential_rank(k) - rank_in


def invariants_basis(m: GModule):
    """Canonical basis of H^0(g, M) = ker d^0, the joint kernel of all
    rho(e_i) (d^0 stacks them), as sparse columns."""
    return nullspace(ce_module_differential(m, 0))


def coboundary_solve(m: GModule, k: int, target):
    """Solve d x = target for x in C^{k-1}(g, M), target in C^k(g, M), both
    sparse columns.

    Returns the deterministic particular solution (free coordinates zero),
    or None when the target is not a coboundary.  Raises StructureError if
    the target is not even a cocycle (then no solution can exist and the
    caller's input is inconsistent).
    """
    dk = ce_module_differential(m, k)
    if not mat_mul(dk, Mat.from_sparse_columns([target], dk.ncols)).is_zero():
        raise StructureError("coboundary_solve target is not a cocycle")
    dprev = ce_module_differential(m, k - 1)
    return solve(dprev, target)
