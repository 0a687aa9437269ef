"""Weak moment maps for multisymplectic Lie algebra actions on R^n.

A weak moment map for an action with (n+1)-form omega is a family of linear
maps f_k from the degree-k Lie kernel to (n-k)-forms satisfying

    d f_k(p) = -zeta(k) * (V_p . omega),      zeta(k) = -(-1)^(k(k+1)/2),

for k = 1..n.  Maps are stored by their values on the canonical kernel
basis and extended linearly.  The kernel basis, the contractions V_p . omega
and the Hom modules are read from the action, which builds each once
(`LieAction.kernel`, `LieAction.contractions`, `LieAction.hom_module`), like
the bracket sign s (`LieAction.sign`); a MomentMap keeps its own residuals,
Sigma cochains and their closedness once computed.  Each constructor call
builds and verifies a new map, which the action does not keep: a caller that
asks several questions of one map keeps the map, as the command line does
for each run.

Three constructors (each re-verifies the defining equation before
returning):
  * `construct_poincare`   — always available when omega is preserved:
                             f(p) = -zeta(k) K(V_p . omega) with K the
                             homotopy operator;
  * `construct_exactness`  — f(p) = V_Q . omega up to sign for a preimage
                             dQ = p; needs every kernel element to be a boundary;
  * `construct_brackets`   — the exactness route with Q taken in g ^ P_k;
                             needs the kernel to be its own bracket with g.

Equivariance: the defect cochain

    Sigma(xi)(p) = f([xi,p]) - s * L_{V_xi} f(p)

(s the action's bracket sign) is read by this definition (`sigma_cochain`),
[xi,p] from the kernel module.  As Sigma = -d^0 f in the Chevalley-Eilenberg
complex of Hom(kernel, forms) = kernel* (x) forms, d^1 Sigma = 0 is proven
(`check_sigma_cocycle`), and no d^1 of a Hom module is built.  Sigma vanishes
exactly when f is a strong module morphism; its entries are closed when the
action preserves omega (`check_module_morphism`).  `make_equivariant` decides
that closedness and Sigma's coefficient degree before any truncation, then
repairs f by a coboundary inside the chosen polynomial truncation, or reports
the obstruction there.

Sigma is proven zero, and not computed, for `construct_poincare`'s own map
when every generator field is linear and every generator preserves omega:
a linear V commutes with the Euler field, so L_V K = K L_V, and with
L_{V_xi} omega = 0 and [V_xi, V_p] = s V_[xi,p] that gives
f([xi,p]) = s L_{V_xi} f(p) (Callies, Fregier, Rogers and Zambon, "Homotopy
moment maps", 2016).  Every other map computes Sigma (`sigma_cochain`).
"""

from __future__ import annotations

from .linalg import Mat, coordinates, mat_hstack, mat_mul, rref, solve_many
from .lie_core import StructureError, boundary_matrix, exterior_basis, wedge_matrix
from .gmodule import coboundary_solve, invariants_basis, module_cohomology_dim
from .polyform import (Form, contraction_chains, exterior_d, exterior_d_plus,
                       lie_derivative, poincare_homotopy)
from .action import LieAction


def zeta(k: int) -> int:
    return -((-1) ** (k * (k + 1) // 2))


class MomentMap:
    """Values of each f_k on the canonical degree-k kernel basis.  The
    components are fixed at construction, so `residuals`, `sigma` and
    Sigma's closedness (`_unclosed_entry`) are computed once.
    `homotopy_operator` is True only on the output of `construct_poincare`."""

    homotopy_operator = False

    def __init__(self, action: LieAction, components: dict):
        n = action.plectic_degree()
        self.action = action
        self.components = {}
        self._residuals = None
        self._sigma = {}
        self._unclosed = {}
        for k, forms in components.items():
            if len(forms) != len(action.kernel(k).basis):
                raise ValueError(f"degree {k}: need one form per kernel basis element")
            for f in forms:
                if f.degree != n - k:
                    raise ValueError(f"degree {k}: values must be {n - k}-forms")
            self.components[k] = list(forms)

    def degrees(self):
        return sorted(self.components)

    def component(self, k: int):
        """The values of f_k; ValueError if the map has no degree-k component."""
        if k not in self.components:
            raise ValueError(f"the map has no degree-{k} component")
        return self.components[k]

    def residuals(self) -> dict:
        if self._residuals is None:
            self._residuals = defining_residuals(self)
        return self._residuals

    def sigma(self, k: int):
        """Sigma at degree k, kept once computed: proven zero, and not
        computed, for the homotopy-operator map of a linear action that
        preserves omega (see the module docstring); `sigma_cochain` otherwise."""
        if k not in self._sigma:
            forms, action = self.component(k), self.action
            action.sign()  # raises, as sigma_cochain does, if the generators do not close
            if (self.homotopy_operator and not action.omega_failures()
                    and all(sum(mono) == 1 for v in action.fields
                            for p in v.comps.values() for mono in p.terms)):
                self._sigma[k] = [[Form.zero(action.ambient_dim, action.plectic_degree() - k)
                                   for _ in forms] for _ in range(action.algebra.dim)]
            else:
                self._sigma[k] = sigma_cochain(self, k)
        return self._sigma[k]

    def value(self, k: int, mv: dict) -> Form:
        """f_k on an arbitrary kernel element (multivector dict), by its
        coordinates in the kernel basis (`linalg.coordinates`)."""
        values = self.component(k)
        pos = {t: i for i, t in enumerate(exterior_basis(self.action.algebra.dim, k))}
        bad = [t for t in mv if t not in pos]
        if bad:
            raise ValueError(f"multivector term {bad[0]} is not in the basis")
        coeffs = coordinates(Mat.from_sparse_columns(self.action.kernel(k).basis, len(pos)),
                             Mat.from_sparse_columns([{pos[t]: x for t, x in mv.items()}],
                                                     len(pos)))
        if coeffs is None:
            raise ValueError("element is not in the Lie kernel")
        return Form.linear_combination(self.action.ambient_dim,
                                       self.action.plectic_degree() - k,
                                       ((c, values[a]) for a, c in coeffs.columns()[0].items()))


def defining_residuals(mm: MomentMap) -> dict:
    """(k, basis index) -> d f_k(p) + zeta(k) (V_p . omega), each summed
    from the stored f_k(p) in one accumulator (`exterior_d_plus`), with the
    contractions of all the map's degrees asked of the action at once;
    all-zero certifies the moment map."""
    out = {}
    for k, rhss in mm.action.contractions(mm.degrees()).items():
        for a, rhs in enumerate(rhss):
            out[(k, a)] = exterior_d_plus(mm.components[k][a], zeta(k), rhs)
    return out


def verify_moment(mm: MomentMap) -> bool:
    return all(r.is_zero() for r in mm.residuals().values())


def _not_preserving(action: LieAction) -> str:
    """'V1, V2 do not preserve omega', or '' when every generator preserves it."""
    bad = [f"V{j + 1}" for j in action.omega_failures()]
    return f"{', '.join(bad)} {'do' if bad[1:] else 'does'} not preserve omega" if bad else ""


def _checked(mm: MomentMap, route: str) -> MomentMap:
    if verify_moment(mm):
        return mm
    bad = [f"f_{k}({mm.action.kernel(k).names[a]})"
           for (k, a), r in mm.residuals().items() if not r.is_zero()]
    # every route needs omega preserved and closed: name what the action lacks
    unclosed = "" if mm.action.omega_checks()["closed"] else "omega is not closed"
    cause = " and ".join(c for c in (_not_preserving(mm.action), unclosed) if c)
    raise StructureError(f"{route} construction failed its defining-equation "
                         f"recheck at {', '.join(bad)}" + (cause and f": {cause}"))


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
    """f_k(p) = -zeta(k) K(V_p . omega), the scalar taken into K's int scale
    and the contractions of all degrees asked of the action at once (the
    recheck reads them again); valid whenever the action preserves the
    closed form omega (then V_p . omega is closed for kernel p)."""
    ks = _default_degrees(action, ks)
    components = {k: [poincare_homotopy(rhs, -zeta(k)) for rhs in rhss]
                  for k, rhss in action.contractions(ks).items()}
    mm = _checked(MomentMap(action, components), "homotopy-operator")
    mm.homotopy_operator = True
    return mm


def _preimage_route(action: LieAction, ks, route: str, unsolvable: str,
                    in_brackets: bool) -> MomentMap:
    """f_k(p) = V_{zeta(k) s (-1)^k Q} . omega for a preimage dQ = p, the
    scalar folded into Q.  The preimages of the kernel basis K (in Lambda^k
    coordinates) solve a X = K: a = boundary_{k+1} and Q = X, or with
    `in_brackets`, Q = W X in g ^ P_k, column b dim + j of W being e_j ^ q_b,
    and a = boundary_{k+1} W (d(e_j ^ q) = [q, e_j]).  Every degree is solved,
    in order, before the preimages of all of them are contracted in one
    `contraction_chains` pass.  StructureError names the first kernel element
    with no preimage."""
    g, s = action.algebra, action.sign()
    preimages = {}
    for k in _default_degrees(action, ks):
        z = zeta(k) * s * (-1) ** k
        a = boundary_matrix(g, k + 1)
        basis_next = exterior_basis(g.dim, k + 1)
        kernel = action.kernel(k)
        kmat = Mat.from_sparse_columns(kernel.basis, a.nrows)
        if in_brackets:
            wedges = [mat_mul(wedge_matrix(g.dim, j, k), kmat).columns() for j in range(g.dim)]
            w = Mat.from_sparse_columns([col for cols in zip(*wedges) for col in cols],
                                        len(basis_next))
            a = mat_mul(a, w)
        x = solve_many(a, kmat)
        if x is None:
            raise StructureError(
                f"{route} route does not apply at degree {k}: kernel basis "
                f"element {kernel.names[_first_unsolvable(a, kmat)]} is {unsolvable}")
        if in_brackets:
            x = mat_mul(w, x)
        preimages[k] = [{basis_next[i]: z * c for i, c in col.items()} for col in x.columns()]
    values = iter(contraction_chains(action.fields, action.omega,
                                     [q for qs in preimages.values() for q in qs]))
    components = {k: [next(values) for _ in qs] for k, qs in preimages.items()}
    return _checked(MomentMap(action, components), route)


def construct_exactness(action: LieAction, ks=None) -> MomentMap:
    """f_k(p) from a boundary preimage dQ = p; applicable only when every
    kernel element is a boundary."""
    return _preimage_route(action, ks, "exactness", "not a boundary", False)


def construct_brackets(action: LieAction, ks=None) -> MomentMap:
    """f_k(p) from a preimage in g ^ P_k, a decomposition p = sum c [q, e_j]
    with q in the kernel; applicable only when the kernel is its bracket with g."""
    return _preimage_route(action, ks, "bracket", "not a bracket combination", True)


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def sigma_cochain(mm: MomentMap, k: int):
    """Sigma indexed [i][a], by its definition: Sigma(e_i)(p_a) =
    sum_b rho_P(e_i)[b, a] f(p_b) - s L_{V_i} f(p_a), rho_P the kernel
    module's action; a zero f(p_a) takes no Lie derivative.  ValueError if
    the map has no degree-k component."""
    forms, action = mm.component(k), mm.action
    s, degree = action.sign(), action.plectic_degree() - k
    return [[Form.linear_combination(
                action.ambient_dim, degree, [(c, forms[b]) for b, c in col.items()]
                + ([] if f.is_zero() else [(-s, lie_derivative(v_i, f))]))
             for col, f in zip(rho_i.columns(), forms)]
            for v_i, rho_i in zip(action.fields, action.kernel(k).module.rho)]


def sigma_is_zero(sigma) -> bool:
    return all(form.is_zero() for row in sigma for form in row)


def check_sigma_cocycle(mm: MomentMap, k: int) -> bool:
    """d^1 Sigma = 0, proven and not computed: Sigma is read (`mm.sigma`, so a
    missing degree or generators that do not close raise), then True.
    Sigma = -d^0 f in C*(g, P_k* (x) forms) with the action
    rho = rho_{P*} (x) 1 + 1 (x) s L_V, and d^1 d^0 = 0 when rho is a
    representation.  s L_V is one on all polynomial forms, as `LieAction.sign`
    proved [V_i, V_j] = s V_[e_i, e_j] and L_[X,Y] = [L_X, L_Y]; rho_P is one
    as `lie_kernel_module` validates it (`GModule.validate`), a check that
    may be dropped only for an equal guarantee here.  omega need not be
    preserved: that bears on `check_module_morphism` only."""
    mm.sigma(k)
    return True


def _unclosed_entry(mm: MomentMap, k: int):
    """'Sigma(e_i)(p)' for the first Sigma entry, i major, that is not closed,
    or None; decided once per degree and kept on the map."""
    if k not in mm._unclosed:
        mm._unclosed[k] = next((f"Sigma(e{i + 1})({name})" for i, row in enumerate(mm.sigma(k))
                                for name, form in zip(mm.action.kernel(k).names, row)
                                if not exterior_d(form).is_zero()), None)
    return mm._unclosed[k]


def check_module_morphism(mm: MomentMap, k: int) -> bool:
    """The quotient identity d f([xi,p]) = s d L_{V_xi} f(p): every Sigma
    entry is closed.  For a verified moment map
    d Sigma(xi)(p) = +-V_p . L_{V_xi} omega, so it holds when the action
    preserves omega and may fail otherwise; the strong identity
    f([xi,p]) = s L_{V_xi} f(p) holds iff sigma_is_zero."""
    return _unclosed_entry(mm, k) is None


def _blocks(col: dict, r: int, t: int):
    """A sparse column over P* (x) forms (r kernel elements major, t forms
    minor) as r sparse coordinate columns over the forms."""
    out = [{} for _ in range(r)]
    for j, c in col.items():
        out[j // t][j % t] = c
    return out


def make_equivariant(mm: MomentMap, k: int, max_degree: int):
    """Try to repair f_k by l with delta l = Sigma inside the truncated
    module; returns (new_map, l_forms, status) where status is one of
    'already equivariant', 'repaired', 'obstructed at degree D'.
    StructureError, decided on Sigma before any truncation, if a Sigma entry
    is not closed (at every D) or Sigma's coefficient degree is above
    max_degree (the message names the degree Sigma needs)."""
    action = mm.action
    sigma = mm.sigma(k)
    if sigma_is_zero(sigma):
        return mm, None, "already equivariant"
    bad = _unclosed_entry(mm, k)
    if bad:
        # d Sigma(xi)(p) = +-V_p . L_{V_xi} omega for a verified map
        cause = _not_preserving(action) or "the map does not satisfy its defining equation"
        raise StructureError(f"Sigma entry {bad} is not closed: {cause}")
    entries = [form for row in sigma for form in row]
    degree = max(form.max_coeff_degree() for form in entries)
    if degree > max_degree:
        raise StructureError(f"Sigma has coefficient degree {degree}, so the repair needs "
                             f"--max-poly-degree {degree} or more")
    hom = action.hom_module(k, max_degree)
    trunc = action.truncated_forms(k, max_degree)
    r = len(mm.components[k])
    t = len(trunc.forms)
    # Sigma(e_i)(p_a) is column c = i * r + a, in the layout of kron_sum over
    # Lambda^1 (x) P* (x) Omega
    coords = coordinates(trunc.basis_mat, trunc.space.matrix(entries))
    target = {c * t + j: x for c, col in enumerate(coords.columns()) for j, x in col.items()}
    sol = coboundary_solve(hom, 1, target)
    if sol is None:
        return None, None, f"obstructed at degree {max_degree}"
    l_forms = [trunc.from_coords(block) for block in _blocks(sol, r, t)]
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
    r = len(action.kernel(k).basis)
    reps = [[trunc.from_coords(coords) for coords in _blocks(v, r, len(trunc.forms))]
            for v in inv]
    return {"dim_invariants": len(inv), "unique": not inv, "representatives": reps}


# ---------------------------------------------------------------------------
# existence diagnostics
# ---------------------------------------------------------------------------

def existence_diagnostic(action: LieAction, ks=None, max_degree=None):
    """Per-degree applicability report for the three constructors, plus
    (optionally) cohomology of the truncated coefficient module governing
    equivariant existence and uniqueness.  Every route needs omega closed,
    proven nondegenerate and preserved, as its recheck does."""
    msy = action.omega_checks()
    preserved = not action.omega_failures()
    setting = msy["closed"] and msy["nondegenerate"] is True and preserved
    betti = action.betti()
    out = {"action": action.algebra.name, "plectic_degree": action.plectic_degree(),
           "omega_closed": msy["closed"], "omega_nondegenerate": msy["nondegenerate"],
           "omega_preserved": preserved, "bracket_sign": action.sign(),
           "betti": list(betti), "degrees": {}}
    for k in _default_degrees(action, ks):
        kernel = action.kernel(k)
        entry = {"dim_kernel": len(kernel.basis),
                 "betti_k": betti[k] if k < len(betti) else 0}
        # ker boundary_k lies in im boundary_{k+1} exactly when b_k = 0, and
        # every kernel element is a bracket combination when h0(P_k*) = 0
        entry["exactness_applies"] = setting and entry["betti_k"] == 0
        h0_dual = module_cohomology_dim(kernel.dual, 0)
        entry["h0_dual_kernel"] = h0_dual
        entry["brackets_apply"] = setting and h0_dual == 0
        entry["poincare_applies"] = setting
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
