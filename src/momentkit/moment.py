"""Weak moment maps for multisymplectic Lie algebra actions on R^n.

A weak moment map for an action with (n+1)-form omega is a family of linear
maps f_k from the degree-k Lie kernel to (n-k)-forms satisfying

    d f_k(p) = -zeta(k) * (V_p . omega),      zeta(k) = -(-1)^(k(k+1)/2),

for k = 1..n.  Maps are stored by their values on the canonical kernel
basis and extended linearly.  The kernel basis, the contractions V_p . omega
and the Hom modules are read from the action, which builds each once
(`LieAction.kernel`, `LieAction.hom_module`), like the bracket sign s
(`LieAction.sign`); a MomentMap keeps its own residuals and Sigma cochains
once computed.  Each constructor call builds and verifies a new map; a caller
that asks several questions of one map keeps it with `LieAction.derive`, as
the command line does with the moment map of each run.

Three constructors (each re-verifies the defining equation before
returning):
  * `construct_poincare`   — always available when omega is preserved:
                             f(p) = -zeta(k) K(V_p . omega) with K the
                             homotopy operator;
  * `construct_exactness`  — needs every kernel element to be a boundary;
  * `construct_brackets`   — needs the kernel to equal its own bracket
                             with the algebra.

Equivariance: the defect cochain

    Sigma(xi)(p) = f([xi,p]) - s * L_{V_xi} f(p)

(s the action's bracket sign) has closed-form entries, is a 1-cocycle for
the natural module structure on Hom(kernel, closed forms), and vanishes
exactly when f is a module morphism in the strong sense.  `make_equivariant`
repairs f by a coboundary inside a chosen polynomial truncation, or reports
the obstruction relative to that truncation.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Mat, mat_hstack, rref, solve_many
from .lie_core import (StructureError, boundary_matrix, ce_betti,
                       exterior_basis, mv_coords, mv_from_coords)
from .gmodule import (cochain_dim, coboundary_solve, invariants_basis,
                      module_cohomology_dim)
from .polyform import Form, contract, exterior_d, lie_derivative, poincare_homotopy
from .action import (LieAction, check_multisymplectic, infinitesimal_generator,
                     preserves_omega)


def zeta(k: int) -> int:
    return -((-1) ** (k * (k + 1) // 2))


class MomentMap:
    """Values of each f_k on the canonical degree-k kernel basis.  The
    components are fixed at construction, so `residuals` and `sigma` are
    computed once."""

    def __init__(self, action: LieAction, components: dict):
        n = action.plectic_degree()
        self.action = action
        self.components = {}
        self._residuals = None
        self._sigma = {}
        for k, forms in components.items():
            kb = action.kernel(k).basis
            if len(forms) != len(kb):
                raise ValueError(f"degree {k}: need one form per kernel basis element")
            for f in forms:
                if f.degree != n - k:
                    raise ValueError(f"degree {k}: values must be {n - k}-forms")
            self.components[k] = list(forms)

    def degrees(self):
        return sorted(self.components)

    def kernel_basis(self, k: int):
        return self.action.kernel(k).basis

    def residuals(self) -> dict:
        if self._residuals is None:
            self._residuals = defining_residuals(self)
        return self._residuals

    def sigma(self, k: int):
        if k not in self._sigma:
            self._sigma[k] = sigma_cochain(self, k)
        return self._sigma[k]

    def value(self, k: int, mv: dict) -> Form:
        """f_k on an arbitrary kernel element (multivector dict).

        The kernel basis is RREF-normalised: each basis vector's last nonzero
        entry is its free column, where it is 1 and every other basis vector
        is 0.  So an element's coordinates are its entries at those columns,
        and it lies in the kernel iff they rebuild it."""
        if k not in self.components:
            raise ValueError(f"the map has no degree-{k} component")
        kb = self.kernel_basis(k)
        vec = mv_coords(mv, exterior_basis(self.action.algebra.dim, k))
        coeffs = [vec[max(j for j, x in enumerate(v) if x)] for v in kb]
        rebuilt = [sum((c * v[j] for c, v in zip(coeffs, kb)), Fraction(0))
                   for j in range(len(vec))]
        if rebuilt != vec:
            raise ValueError("element is not in the Lie kernel")
        return Form.linear_combination(self.action.ambient_dim,
                                       self.action.plectic_degree() - k,
                                       zip(coeffs, self.components[k]))


def defining_residuals(mm: MomentMap) -> dict:
    """(k, basis index) -> d f_k(p) + zeta(k) (V_p . omega); all-zero
    certifies the moment map."""
    out = {}
    n = mm.action.ambient_dim
    for k in mm.degrees():
        for a, rhs in enumerate(mm.action.kernel(k).contractions):
            f = mm.components[k][a]
            out[(k, a)] = Form.linear_combination(
                n, f.degree + 1, ((1, exterior_d(f)), (zeta(k), rhs)))
    return out


def verify_moment(mm: MomentMap) -> bool:
    return all(r.is_zero() for r in mm.residuals().values())


def _checked(mm: MomentMap, route: str) -> MomentMap:
    bad = [key for key, r in mm.residuals().items() if not r.is_zero()]
    if bad:
        raise StructureError(
            f"{route} construction failed its defining-equation recheck at {bad}")
    return mm


def _first_unsolvable(a: Mat, b: Mat) -> int:
    """Index of the first column of b outside a's column space, once
    solve_many(a, b) has failed: in the RREF of [a | b] it is the first pivot
    right of a, since every column of b before it reduces into a's pivots."""
    return next(c for c in rref(mat_hstack(a, b))[1] if c >= a.ncols) - a.ncols


def _default_degrees(action: LieAction, ks):
    if ks is None:
        return list(range(1, action.plectic_degree() + 1))
    return sorted(set(ks))


def construct_poincare(action: LieAction, ks=None) -> MomentMap:
    """f_k(p) = -zeta(k) K(V_p . omega); valid whenever the action preserves
    the closed form omega (then V_p . omega is closed for kernel p)."""
    components = {}
    for k in _default_degrees(action, ks):
        z = Fraction(-zeta(k))
        components[k] = [poincare_homotopy(rhs) * z
                         for rhs in action.kernel(k).contractions]
    return _checked(MomentMap(action, components), "homotopy-operator")


def construct_exactness(action: LieAction, ks=None) -> MomentMap:
    """f_k(p) = zeta(k) s (-1)^k (V_q . omega) for a boundary preimage
    dq = p; applicable only when every kernel element is a boundary."""
    g = action.algebra
    s = action.sign()
    components = {}
    for k in _default_degrees(action, ks):
        z = Fraction(zeta(k) * s * (-1) ** k)
        bmat = boundary_matrix(g, k + 1)
        basis_next = exterior_basis(g.dim, k + 1)
        kmat = Mat.from_columns(action.kernel(k).basis, bmat.nrows)
        preimages = solve_many(bmat, kmat)
        if preimages is None:
            raise StructureError(
                f"exactness route does not apply at degree {k}: kernel basis "
                f"element {_first_unsolvable(bmat, kmat)} is not a boundary")
        forms = []
        for a in range(kmat.ncols):
            q = mv_from_coords(preimages.col(a), basis_next)
            forms.append(contract(infinitesimal_generator(action, q), action.omega) * z)
        components[k] = forms
    return _checked(MomentMap(action, components), "exactness")


def construct_brackets(action: LieAction, ks=None) -> MomentMap:
    """f_k(p) = sum_i c_i zeta(k) s ((V_{q_i} ^ V_{xi_i}) . omega) for a
    decomposition p = sum_i c_i [q_i, xi_i] with q_i in the kernel;
    applicable only when the kernel equals its bracket with the algebra.
    (The sign follows from d(q ^ xi) = (-1)^k [q, xi] for kernel q and the
    boundary identity for the preserved closed form omega.  The term
    (V_q ^ V_xi) . omega is computed as V_xi . (V_q . omega).)"""
    g = action.algebra
    s = action.sign()
    components = {}
    for k in _default_degrees(action, ks):
        z = zeta(k) * s
        kernel = action.kernel(k)
        r = len(kernel.basis)
        # columns: [q_a, e_j] = -ad_{e_j} q_a in kernel coordinates
        cols = []
        for a in range(r):
            for j in range(g.dim):
                cols.append([-kernel.module.rho[j].entry(b, a) for b in range(r)])
        bracket_mat = Mat.from_columns(cols, r)
        targets = Mat.identity(r)
        decompositions = solve_many(bracket_mat, targets)
        if decompositions is None:
            raise StructureError(
                f"bracket route does not apply at degree {k}: kernel basis element "
                f"{_first_unsolvable(bracket_mat, targets)} is not a bracket "
                f"combination")
        term_forms = {}  # column -> V_{xi_j} . (V_{q_b} . omega)
        forms = []
        for a in range(r):
            pairs = []
            for col, c in enumerate(decompositions.col(a)):
                if c:
                    if col not in term_forms:
                        b, j = divmod(col, g.dim)
                        term_forms[col] = contract(action.fields[j],
                                                   kernel.contractions[b])
                    pairs.append((z * c, term_forms[col]))
            forms.append(Form.linear_combination(
                action.ambient_dim, action.plectic_degree() - k, pairs))
        components[k] = forms
    return _checked(MomentMap(action, components), "bracket")


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def _module_act(action: LieAction, k: int, i: int, row, scale=1):
    """scale * (e_i . alpha)(p_a) for every kernel basis element p_a, where
    alpha takes the values `row` on the kernel basis and
    (e_i . alpha)(p) = s L_{V_i}(alpha(p)) - alpha([e_i, p]), i.e.
    (e_i . alpha)(p_a) = s L_{V_i} alpha(p_a) - sum_b rho_i[b, a] alpha(p_b)."""
    s = action.sign()
    rho_i = action.kernel(k).module.rho[i]
    v_i = action.fields[i]
    return [Form.linear_combination(
                action.ambient_dim, alpha.degree,
                [(scale * s, lie_derivative(v_i, alpha))]
                + [(-scale * rho_i.entry(b, a), beta) for b, beta in enumerate(row)])
            for a, alpha in enumerate(row)]


def sigma_cochain(mm: MomentMap, k: int):
    """Sigma(e_i)(p_a) = f([e_i, p_a]) - s L_{V_i} f(p_a) = -(e_i . f)(p_a),
    as a list indexed [i][a] of forms.  Entries are closed for a verified
    moment map."""
    return [_module_act(mm.action, k, i, mm.components[k], -1)
            for i in range(mm.action.algebra.dim)]


def sigma_is_zero(sigma) -> bool:
    return all(form.is_zero() for row in sigma for form in row)


def check_sigma_cocycle(mm: MomentMap, k: int) -> bool:
    """delta Sigma = 0 for the module action
    (xi.alpha)(p) = -alpha([xi,p]) + s L_{V_xi}(alpha(p)), checked exactly
    (no truncation: the check is symbolic in the form entries)."""
    action = mm.action
    g = action.algebra
    sigma = mm.sigma(k)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = _module_act(action, k, i, sigma[j])
            rhs = _module_act(action, k, j, sigma[i])
            bracket = g.bracket_basis(i, j)
            for a, (x, y) in enumerate(zip(lhs, rhs)):
                delta = Form.linear_combination(
                    action.ambient_dim, x.degree,
                    [(1, x), (-1, y)] + [(-c, row[a]) for c, row in zip(bracket, sigma)])
                if not delta.is_zero():
                    return False
    return True


def check_module_morphism(mm: MomentMap, k: int):
    """Quotient identity d f([xi,p]) = s d L_{V_xi} f(p) (holds for every
    verified moment map) and the strong identity f([xi,p]) = s L_{V_xi} f(p)
    (holds iff Sigma vanishes).  Returns (quotient_ok, strong_ok)."""
    sigma = mm.sigma(k)
    quotient_ok = all(exterior_d(form).is_zero() for row in sigma for form in row)
    return quotient_ok, sigma_is_zero(sigma)


def make_equivariant(mm: MomentMap, k: int, max_degree: int):
    """Try to repair f_k by l with delta l = Sigma inside the truncated
    module; returns (new_map, l_forms, status) where status is one of
    'already equivariant', 'repaired', 'obstructed at degree D'.
    StructureError if Sigma escapes the truncation (raise max_degree)."""
    action = mm.action
    sigma = mm.sigma(k)
    if sigma_is_zero(sigma):
        return mm, None, "already equivariant"
    hom = action.hom_module(k, max_degree)
    trunc = action.truncated_forms(k, max_degree)
    g = action.algebra
    r = len(mm.components[k])
    t = trunc.module.dim
    target = [Fraction(0)] * cochain_dim(g, hom, 1)
    for i in range(g.dim):
        for a in range(r):
            coords = trunc.to_coords(sigma[i][a])
            if coords is None:
                raise StructureError(
                    "Sigma entry escapes the truncated closed-form space; "
                    "raise the truncation degree")
            for b, c in enumerate(coords):
                if c:
                    target[i * (r * t) + a * t + b] = c
    sol = coboundary_solve(hom, 1, target)
    if sol is None:
        return None, None, f"obstructed at degree {max_degree}"
    l_forms = [trunc.from_coords(sol[a * t:(a + 1) * t]) for a in range(r)]
    components = {kk: list(forms) for kk, forms in mm.components.items()}
    components[k] = [f + l for f, l in zip(components[k], l_forms)]
    new_mm = _checked(MomentMap(action, components), "equivariantized")
    if not sigma_is_zero(new_mm.sigma(k)):
        raise StructureError("equivariantization failed its Sigma recheck")
    return new_mm, l_forms, "repaired"


def uniqueness_check(action: LieAction, k: int, max_degree: int):
    """Equivariant moment maps at degree k differ by invariant elements of
    Hom(kernel, closed forms); reports that space within the truncation."""
    hom = action.hom_module(k, max_degree)
    trunc = action.truncated_forms(k, max_degree)
    inv = invariants_basis(hom)
    t = trunc.module.dim
    r = len(action.kernel(k).basis)
    reps = []
    for v in inv:
        reps.append([trunc.from_coords(v[a * t:(a + 1) * t]) for a in range(r)])
    return {"dim_invariants": len(inv), "unique": not inv, "representatives": reps}


# ---------------------------------------------------------------------------
# existence diagnostics
# ---------------------------------------------------------------------------

def existence_diagnostic(action: LieAction, ks=None, max_degree=None):
    """Per-degree applicability report for the three constructors, plus
    (optionally) cohomology of the truncated coefficient module governing
    equivariant existence and uniqueness."""
    g = action.algebra
    msy = check_multisymplectic(action)
    preserved = not preserves_omega(action)
    betti = ce_betti(g)
    out = {"action": action.algebra.name, "plectic_degree": action.plectic_degree(),
           "omega_closed": msy["closed"], "omega_nondegenerate": msy["nondegenerate"],
           "omega_preserved": preserved, "bracket_sign": action.sign(),
           "betti": list(betti), "degrees": {}}
    for k in _default_degrees(action, ks):
        kernel = action.kernel(k)
        entry = {"dim_kernel": len(kernel.basis),
                 "betti_k": betti[k] if k < len(betti) else 0}
        bmat = boundary_matrix(g, k + 1)
        entry["exactness_applies"] = solve_many(
            bmat, Mat.from_columns(kernel.basis, bmat.nrows)) is not None
        h0_dual = len(invariants_basis(kernel.dual))
        entry["h0_dual_kernel"] = h0_dual
        entry["brackets_apply"] = h0_dual == 0
        entry["poincare_applies"] = (msy["closed"] and msy["nondegenerate"] is True
                                     and preserved)
        if max_degree is not None:
            hom = action.hom_module(k, max_degree)
            entry["hom_module_dim"] = hom.dim
            entry["h0_hom"] = module_cohomology_dim(hom, 0)
            entry["h1_hom"] = module_cohomology_dim(hom, 1)
            entry["truncation_degree"] = max_degree
        out["degrees"][k] = entry
    return out


def describe_kernel(action: LieAction, k: int):
    """Canonical kernel basis at degree k as formatted multivector strings."""
    return list(action.kernel(k).names)
