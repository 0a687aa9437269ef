"""Weak moment maps for multisymplectic Lie algebra actions on R^n.

A weak moment map for an action with (n+1)-form omega is a family of linear
maps f_k from the degree-k Lie kernel to (n-k)-forms satisfying

    d f_k(p) = -zeta(k) * (V_p . omega),      zeta(k) = -(-1)^(k(k+1)/2),

for k = 1..n.  Maps are stored by their values on the canonical kernel
basis and extended linearly.  The kernel basis, the contractions V_p . omega
and the Hom modules are read from the action, which builds each once
(`LieAction.kernel`, `LieAction.contractions`, `LieAction.hom_module`), like
the bracket sign s (`LieAction.sign`); a MomentMap keeps its own residuals
and Sigma cochains once computed.  Each constructor call builds and verifies
a new map, which the action does not keep: a caller that asks several
questions of one map keeps the map, as the command line does for each run.

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

(s the action's bracket sign) is Sigma = -d^0 f in the Chevalley-Eilenberg
complex of Hom(kernel, forms) = kernel* (x) forms, whose differential is the
dual kernel's own plus the signed Lie derivative on form entries,
d = d_{kernel*} (x) 1 + sum_i (e_i (x) 1) (x) s L_{V_i}; the cocycle check is
d^1 Sigma = 0.  Sigma has closed-form entries and vanishes exactly when f is
a module morphism in the strong sense.  `make_equivariant` repairs f by a
coboundary inside a chosen polynomial truncation, or reports the obstruction
there.

Sigma is proven zero, and not computed, for `construct_poincare`'s own map
when every generator field is linear and every generator preserves omega:
a linear V commutes with the Euler field, so L_V K = K L_V, and with
L_{V_xi} omega = 0 and [V_xi, V_p] = s V_[xi,p] that gives
f([xi,p]) = s L_{V_xi} f(p) (Callies, Fregier, Rogers and Zambon, "Homotopy
moment maps", 2016).  Every other map computes Sigma (`sigma_cochain`),
which also serves the tests as the oracle.
"""

from __future__ import annotations

from .linalg import Mat, coordinates, kron_sum, mat_hstack, mat_mul, rref, solve_many
from .lie_core import StructureError, boundary_matrix, exterior_basis, wedge_matrix
from .gmodule import (ce_module_differential, coboundary_solve, invariants_basis,
                      module_cohomology_dim)
from .polyform import (Form, contraction_chains, exterior_d, exterior_d_plus,
                       lie_derivative, poincare_homotopy)
from .action import LieAction


def zeta(k: int) -> int:
    return -((-1) ** (k * (k + 1) // 2))


class MomentMap:
    """Values of each f_k on the canonical degree-k kernel basis.  The
    components are fixed at construction, so `residuals` and `sigma` are
    computed once.  `homotopy_operator` is True only on the output of
    `construct_poincare`."""

    homotopy_operator = False

    def __init__(self, action: LieAction, components: dict):
        n = action.plectic_degree()
        self.action = action
        self.components = {}
        self._residuals = None
        self._sigma = {}
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
    ks = mm.degrees()
    for k in ks:
        for a, rhs in enumerate(mm.action.contractions(k, also=ks)):
            out[(k, a)] = exterior_d_plus(mm.components[k][a], zeta(k), rhs)
    return out


def verify_moment(mm: MomentMap) -> bool:
    return all(r.is_zero() for r in mm.residuals().values())


def _checked(mm: MomentMap, route: str) -> MomentMap:
    bad = [f"f_{k}({mm.action.kernel(k).names[a]})"
           for (k, a), r in mm.residuals().items() if not r.is_zero()]
    if bad:
        raise StructureError(f"{route} construction failed its defining-equation "
                             f"recheck at {', '.join(bad)}")
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
    """f_k(p) = -zeta(k) K(V_p . omega), the scalar taken into K's int scale
    and the contractions of all degrees asked of the action at once (the
    recheck reads them again); valid whenever the action preserves the
    closed form omega (then V_p . omega is closed for kernel p)."""
    ks = _default_degrees(action, ks)
    components = {k: [poincare_homotopy(rhs, -zeta(k)) for rhs in action.contractions(k, also=ks)]
                  for k in ks}
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

def _hom_differential(mm: MomentMap, k: int, q: int, cochain):
    """d^q of a cochain in Hom(P_k, forms) = P_k* (x) forms, as rows of forms
    (one row per tuple of exterior_basis(dim, q + 1), one form per kernel
    basis element).  On the tensor product the differential is

        d^q = d^q_{P*} (x) 1 + sum_i (wedge_matrix(dim, i, q) (x) 1_{P*}) (x) s L_{V_i}

    with d^q_{P*} = `ce_module_differential(kernel(k).dual, q)`.  The entries,
    flattened in C^q(g, P_k*) order (tuple major, kernel element minor), go
    through the nonzeros of each matrix; a zero entry takes no Lie
    derivative."""
    action, s = mm.action, mm.action.sign()
    dual = action.kernel(k).dual
    flat = [alpha for row in cochain for alpha in row]
    rows = len(exterior_basis(action.algebra.dim, q + 1))
    terms = [[] for _ in range(rows * dual.dim)]
    for u, t, c in ce_module_differential(dual, q).nonzeros():
        terms[u].append((c, flat[t]))
    for i, v_i in enumerate(action.fields):
        spread = kron_sum([(wedge_matrix(action.algebra.dim, i, q), Mat.identity(dual.dim))])
        for u, t, c in spread.nonzeros():
            if not flat[t].is_zero():
                terms[u].append((c * s, lie_derivative(v_i, flat[t])))
    degree = action.plectic_degree() - k
    forms = [Form.linear_combination(action.ambient_dim, degree, pairs) for pairs in terms]
    return [forms[u * dual.dim:(u + 1) * dual.dim] for u in range(rows)]


def sigma_cochain(mm: MomentMap, k: int):
    """Sigma = -d^0 f, indexed [i][a]: Sigma(e_i)(p_a) = f([e_i, p_a]) -
    s L_{V_i} f(p_a).  Entries are closed for a verified moment map;
    ValueError if the map has no degree-k component."""
    return _hom_differential(mm, k, 0, [[-f for f in mm.component(k)]])


def sigma_is_zero(sigma) -> bool:
    return all(form.is_zero() for row in sigma for form in row)


def check_sigma_cocycle(mm: MomentMap, k: int) -> bool:
    """d^1 Sigma = 0, exactly (symbolic in the form entries, untruncated);
    d^1 is linear, so a zero Sigma is a cocycle without building it."""
    sigma = mm.sigma(k)
    return sigma_is_zero(sigma) or sigma_is_zero(_hom_differential(mm, k, 1, sigma))


def check_module_morphism(mm: MomentMap, k: int) -> bool:
    """The quotient identity d f([xi,p]) = s d L_{V_xi} f(p): every Sigma
    entry is closed.  It holds for every verified moment map; the strong
    identity f([xi,p]) = s L_{V_xi} f(p) holds iff sigma_is_zero."""
    return all(exterior_d(form).is_zero() for row in mm.sigma(k) for form in row)


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
    StructureError if a Sigma entry escapes the truncation (raise
    max_degree) or is not closed (a generator does not preserve omega, or
    the map is not a moment map)."""
    action = mm.action
    sigma = mm.sigma(k)
    if sigma_is_zero(sigma):
        return mm, None, "already equivariant"
    hom = action.hom_module(k, max_degree)
    trunc = action.truncated_forms(k, max_degree)
    g = action.algebra
    r = len(mm.components[k])
    t = len(trunc.forms)
    target = {}  # over Lambda^1 (x) P* (x) Omega, in the layout of kron_sum
    for i in range(g.dim):
        for a in range(r):
            coords = trunc.to_coords(sigma[i][a])
            if coords is None:
                # d Sigma(xi)(p) = +-V_p . L_{V_xi} omega for a verified map
                bad = [f"V{j + 1}" for j in action.omega_failures()]
                cause = (f"{', '.join(bad)} {'does' if len(bad) == 1 else 'do'} not preserve "
                         f"omega" if bad else "the map does not satisfy its defining equation")
                raise StructureError(
                    f"Sigma entry Sigma(e{i + 1})({action.kernel(k).names[a]}) is not "
                    f"closed: {cause}")
            target.update({(i * r + a) * t + j: c for j, c in coords.items()})
    sol = coboundary_solve(hom, 1, target)
    if sol is None:
        return None, None, f"obstructed at degree {max_degree}"
    l_forms = [trunc.from_coords(coords) for coords in _blocks(sol, r, t)]
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
    equivariant existence and uniqueness."""
    msy = action.omega_checks()
    preserved = not action.omega_failures()
    betti = action.betti()
    out = {"action": action.algebra.name, "plectic_degree": action.plectic_degree(),
           "omega_closed": msy["closed"], "omega_nondegenerate": msy["nondegenerate"],
           "omega_preserved": preserved, "bracket_sign": action.sign(),
           "betti": list(betti), "degrees": {}}
    for k in _default_degrees(action, ks):
        kernel = action.kernel(k)
        entry = {"dim_kernel": len(kernel.basis),
                 "betti_k": betti[k] if k < len(betti) else 0}
        # ker boundary_k lies in im boundary_{k+1} exactly when b_k = 0
        entry["exactness_applies"] = entry["betti_k"] == 0
        h0_dual = module_cohomology_dim(kernel.dual, 0)
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
