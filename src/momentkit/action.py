"""Lie algebra actions on R^n by polynomial vector fields.

A LieAction pairs a LieAlgebra with one generator field per basis element and
a distinguished closed nondegenerate form omega.  `validate_action` checks
that the generators close under the vector-field bracket and detects the
uniform bracket sign s with

    [V_xi, V_eta] = s * V_[xi,eta]    (s in {+1, -1}).

The rotation actions of the bundled problem files close with s = +1; for an
abelian algebra both signs hold vacuously and s = -1 is taken (the classical
left-action convention, which fixes the sign of the equivariance cocycle
for the translation example).

A LieAction owns the answers derived from it and builds each one once, on
first use, through `derive(key, build)` (an action is not changed after it
is built; a build that raises stores nothing):
  * `sign()`: the bracket sign, from `validate_action`;
  * `kernel(k)`: the degree-k Lie kernel P_k (`LieKernel`): canonical basis,
    kernel module and its dual, display names, and the contractions
    V_p . omega of the basis elements;
  * `truncated_forms(k, D)`: closed (n-k)-forms of coefficient degree <= D
    as a module;
  * `hom_module(k, D)`: Hom(P_k, those closed forms), whose cohomology
    decides equivariant existence and uniqueness.
Callers key their own answers with `derive` too: the command line keeps the
run's moment map there, so every section of a report reads the same map.

Also here: infinitesimal generators of multivectors, truncated spaces of
(invariant) closed forms as finite-dimensional modules, and the boundary
identity linking d, contraction, and Lie derivatives (`cartan_residual`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce

from .linalg import Mat, frac, mat_vstack, nullspace, rank, solve_many
from .lie_core import (LieAlgebra, StructureError, exterior_basis,
                       format_multivector, lie_kernel_basis, mv_boundary,
                       mv_from_coords)
from .gmodule import GModule, dual_module, lie_kernel_module, tensor_module
from .polyform import (Form, MultiField, Poly, contract, exterior_d,
                       lie_derivative, vf_bracket, wedge)


class LieAction:
    """A Lie algebra acting on R^n by polynomial vector fields, with a
    distinguished form omega on the same space."""

    def __init__(self, algebra: LieAlgebra, fields, omega: Form):
        if len(fields) != algebra.dim:
            raise ValueError("need one generator field per basis element")
        for v in fields:
            if not isinstance(v, MultiField) or v.degree != 1:
                raise ValueError("generators must be vector fields")
            if v.n != omega.n:
                raise ValueError("generator/omega dimension mismatch")
        self.algebra = algebra
        self.fields = list(fields)
        self.omega = omega
        self.ambient_dim = omega.n
        self._derived: dict = {}

    def plectic_degree(self) -> int:
        return self.omega.degree - 1

    def field_of(self, coeffs) -> MultiField:
        """Generator field of a general algebra element (coefficient list)."""
        return MultiField.linear_combination(self.ambient_dim, 1, zip(coeffs, self.fields))

    def sign(self) -> int:
        """The bracket sign; validates the action on first use and raises
        StructureError (keeping nothing) if the generators do not close."""
        return self.derive("sign", lambda: validate_action(self))

    def derive(self, key, build):
        """The answer stored under `key`, from `build()` on first use."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def kernel(self, k: int) -> "LieKernel":
        return self.derive(("kernel", k), lambda: LieKernel(self, k))

    def truncated_forms(self, k: int, max_degree: int) -> "TruncatedFormModule":
        """Closed (n-k)-forms of coefficient degree <= max_degree (the values
        of f_k) as a module."""
        return self.derive(("forms", k, max_degree), lambda: TruncatedFormModule(
            self, self.plectic_degree() - k, max_degree))

    def hom_module(self, k: int, max_degree: int) -> GModule:
        """Hom(P_k, truncated_forms(k, max_degree)) = dual kernel (x) forms."""
        return self.derive(("hom", k, max_degree), lambda: tensor_module(
            self.kernel(k).dual, self.truncated_forms(k, max_degree).module))


class LieKernel:
    """The degree-k Lie kernel P_k of an action and the objects derived from
    it; each attribute is computed on first access and kept."""

    def __init__(self, action: LieAction, k: int):
        self.action = action
        self.degree = k

    @cached_property
    def basis(self):
        """Canonical basis, as coordinate vectors over exterior_basis(dim, k)."""
        return lie_kernel_basis(self.action.algebra, self.degree)

    @cached_property
    def multivectors(self):
        basis = exterior_basis(self.action.algebra.dim, self.degree)
        return [mv_from_coords(vec, basis) for vec in self.basis]

    @cached_property
    def names(self):
        return [format_multivector(mv) for mv in self.multivectors]

    @cached_property
    def module(self) -> GModule:
        """The kernel with the extended adjoint action, in the basis above."""
        return lie_kernel_module(self.action.algebra, self.degree, basis=self.basis)

    @cached_property
    def dual(self) -> GModule:
        return dual_module(self.module)

    @cached_property
    def contractions(self):
        """V_p . omega for each basis element p: the right-hand side of the
        defining equation, up to the factor -zeta(k)."""
        omega = self.action.omega
        return [contract(infinitesimal_generator(self.action, mv), omega)
                for mv in self.multivectors]


def validate_action(action: LieAction) -> int:
    """Check the generators close per the structure constants and return the
    bracket sign (kept by `LieAction.sign`); raises StructureError naming the
    first failing pair."""
    g = action.algebra
    plus_ok, minus_ok = True, True
    saw_nonzero = False
    first_fail = None
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            got = vf_bracket(action.fields[i], action.fields[j])
            want = action.field_of(g.bracket_basis(i, j))
            if not (got.is_zero() and want.is_zero()):
                saw_nonzero = True
            if got != want:
                plus_ok = False
                first_fail = first_fail or (i, j)
            if got != -want:
                minus_ok = False
    # when every bracket is zero both signs hold, and -1 is taken
    if plus_ok and saw_nonzero:
        return 1
    if minus_ok:
        return -1
    i, j = first_fail
    raise StructureError(
        f"generator fields do not close under the bracket: pair (e{i + 1}, e{j + 1}) "
        f"matches neither sign convention")


_SAMPLE_SEEDS = (
    lambda n: [Fraction(0)] * n,
    lambda n: [Fraction(1)] * n,
    lambda n: [Fraction(i + 1) for i in range(n)],
    lambda n: [Fraction((-1) ** i, i + 2) for i in range(n)],
)


def _contraction_matrix_at(omega: Form, point) -> Mat:
    """Matrix of v -> v . omega with omega's coefficients evaluated at a
    point: rows indexed by (deg-1)-index tuples, columns by ambient basis."""
    n = omega.n
    rows_index = {idx: r for r, idx in
                  enumerate(itertools.combinations(range(n), omega.degree - 1))}
    m = Mat.zeros(len(rows_index), n)
    for idx, p in omega.comps.items():
        c = p.eval(point)
        if not c:
            continue
        for pos, i in enumerate(idx):
            key = idx[:pos] + idx[pos + 1:]
            m.add(rows_index[key], i, c * ((-1) ** pos))
    return m


def check_multisymplectic(action: LieAction) -> dict:
    """Closedness of omega (exact) and nondegeneracy of v -> v . omega on
    constant vectors, evaluated at the origin and three fixed rational
    points.  `nondegenerate` is True only for constant coefficients (exact);
    False when the rank drops at a sample point, given as
    `nondegenerate_witness`; None (not certified) otherwise."""
    omega = action.omega
    n = omega.n
    out = {"closed": exterior_d(omega).is_zero(), "nondegenerate": None,
           "plectic_degree": omega.degree - 1}
    for seed in _SAMPLE_SEEDS:
        point = seed(n)
        if rank(_contraction_matrix_at(omega, point)) != n:
            out["nondegenerate"] = False
            out["nondegenerate_witness"] = [str(x) for x in point]
            break
        if omega.max_coeff_degree() <= 0:
            out["nondegenerate"] = True
            break  # all sample points give the same matrix
    return out


def preserves_omega(action: LieAction):
    """Indices of generators that fail L_{V_i} omega = 0 (empty = preserved)."""
    bad = []
    for i, v in enumerate(action.fields):
        if not lie_derivative(v, action.omega).is_zero():
            bad.append(i)
    return bad


def infinitesimal_generator(action: LieAction, mv) -> MultiField:
    """Multivector field of a multivector: each basis term e_{t1}^...^e_{tk}
    maps to V_{t1} ^ ... ^ V_{tk}, extended linearly.  `mv` is a dict from
    increasing index tuples to coefficients (a single tuple is accepted)."""
    if isinstance(mv, tuple):
        mv = {mv: Fraction(1)}
    n = action.ambient_dim
    degree = len(next(iter(mv))) if mv else 0
    return MultiField.linear_combination(n, degree, (
        (c, _wedge_fields(action, idx)) for idx, c in mv.items() if c))


def _wedge_fields(action: LieAction, idx) -> MultiField:
    """V_{t1} ^ ... ^ V_{tk} for an index tuple (the constant 1 when empty)."""
    n = action.ambient_dim
    return reduce(wedge, (action.fields[t] for t in idx),
                  MultiField(n, 0, {(): Poly.const(n, 1)}))


def cartan_residual(action: LieAction, mv, tau: Form) -> Form:
    """Residual of the boundary identity

        (-1)^k d(V_p . tau) = s V_{dp} . tau
                              + sum_i (-1)^i (V_{t1}^..hat i..^V_{tk}) . L_{V_{ti}} tau
                              + V_p . d tau

    for p a degree-k multivector (dict form), extended linearly over basis
    terms.  Returns LHS - RHS; the zero form certifies the identity."""
    if isinstance(mv, tuple):
        mv = {mv: Fraction(1)}
    if not mv:
        raise ValueError("empty multivector")
    k = len(next(iter(mv)))
    if k < 1:
        raise ValueError("need degree >= 1")
    if tau.degree < k:
        raise ValueError("tau degree must be at least the multivector degree")
    s = action.sign()
    v_p = infinitesimal_generator(action, mv)
    # LHS and then each RHS term with the opposite sign
    pairs = [((-1) ** k, exterior_d(contract(v_p, tau))),
             (-1, contract(v_p, exterior_d(tau)))]
    boundary_field = infinitesimal_generator(action, mv_boundary(action.algebra, mv))
    if not boundary_field.is_zero():
        pairs.append((-s, contract(boundary_field, tau)))
    for idx, c in mv.items():
        for a, t in enumerate(idx):
            rest = _wedge_fields(action, idx[:a] + idx[a + 1:])
            ltau = lie_derivative(action.fields[t], tau)
            pairs.append((frac(c) * (-1) ** a, contract(rest, ltau)))
    return Form.linear_combination(action.ambient_dim, tau.degree - k + 1, pairs)


# ---------------------------------------------------------------------------
# truncated form spaces as finite-dimensional modules
# ---------------------------------------------------------------------------

def monomial_basis(n: int, max_degree: int):
    """All exponent tuples of total degree <= max_degree, sorted by
    (total degree, tuple)."""
    monos = []
    for d in range(max_degree + 1):
        for c in itertools.combinations_with_replacement(range(n), d):
            mono = [0] * n
            for i in c:
                mono[i] += 1
            monos.append(tuple(mono))
    return sorted(monos, key=lambda m: (sum(m), m))


def form_key_basis(n: int, p: int, max_degree: int):
    """Ordered (index-tuple, monomial) keys spanning p-forms with polynomial
    coefficients of degree <= max_degree."""
    monos = monomial_basis(n, max_degree)
    return [(idx, mono) for idx in itertools.combinations(range(n), p)
            for mono in monos]


def form_to_vector(alpha: Form, keys, key_index=None):
    """Coefficient vector of a form in a key basis; StructureError naming the
    smallest (index tuple, monomial) key outside the basis if the form has
    one (degree truncation escape)."""
    if key_index is None:
        key_index = {key: r for r, key in enumerate(keys)}
    vec = [Fraction(0)] * len(keys)
    for idx, poly in alpha.comps.items():
        for mono, c in poly.terms.items():
            try:
                vec[key_index[(idx, mono)]] = c
            except KeyError:
                escaped = min((i, m) for i, p in alpha.comps.items()
                              for m in p.terms if (i, m) not in key_index)
                raise StructureError(
                    f"form escapes the truncated space at key {escaped}") from None
    return vec


def vector_to_form(vec, keys, n: int, p: int) -> Form:
    return Form.from_terms(n, p, ((c, mono, idx) for c, (idx, mono) in zip(vec, keys) if c))


def _operator_matrix(op, keys_in, keys_out, n: int, p_in: int):
    """Matrix of a linear operator on forms w.r.t. key bases (columns =
    images of input basis forms)."""
    out_index = {key: r for r, key in enumerate(keys_out)}
    cols = []
    for idx, mono in keys_in:
        image = op(Form.from_terms(n, p_in, [(1, mono, idx)]))
        cols.append(form_to_vector(image, keys_out, out_index))
    return Mat.from_columns(cols, nrows=len(keys_out))


def closed_form_basis(n: int, p: int, max_degree: int):
    """Canonical basis (list of Forms) of closed p-forms of coefficient
    degree <= max_degree, plus the key basis and coordinate matrix."""
    keys = form_key_basis(n, p, max_degree)
    keys_out = form_key_basis(n, p + 1, max(max_degree - 1, 0))
    vecs = nullspace(_operator_matrix(exterior_d, keys, keys_out, n, p))
    basis_mat = Mat.from_columns(vecs, nrows=len(keys))
    forms = [vector_to_form(v, keys, n, p) for v in vecs]
    return forms, keys, basis_mat


def invariant_closed_forms(action: LieAction, p: int, max_degree: int):
    """Basis of closed p-forms of coefficient degree <= max_degree killed by
    every L_{V_i}."""
    n = action.ambient_dim
    keys = form_key_basis(n, p, max_degree)
    field_deg = max((v.max_coeff_degree() for v in action.fields), default=0)
    out_degree = max_degree + max(field_deg - 1, 0)
    keys_lie = form_key_basis(n, p, out_degree)
    keys_d = form_key_basis(n, p + 1, max(max_degree - 1, 0))
    blocks = [_operator_matrix(exterior_d, keys, keys_d, n, p)]
    for v in action.fields:
        blocks.append(_operator_matrix(lambda a, v=v: lie_derivative(v, a),
                                       keys, keys_lie, n, p))
    return [vector_to_form(v, keys, n, p)
            for v in nullspace(reduce(mat_vstack, blocks))]


class TruncatedFormModule:
    """Closed p-forms of coefficient degree <= D as a GModule under
    rho(xi) = s * L_{V_xi} (s the action's bracket sign, so that rho is a
    genuine left module structure)."""

    def __init__(self, action: LieAction, p: int, max_degree: int):
        s = action.sign()
        n = action.ambient_dim
        forms, keys, basis_mat = closed_form_basis(n, p, max_degree)
        key_index = {key: r for r, key in enumerate(keys)}
        rho = []
        for v in action.fields:
            cols = []
            for b in forms:
                image = lie_derivative(v, b) * Fraction(s)
                cols.append(form_to_vector(image, keys, key_index))
            coords = solve_many(basis_mat,
                                Mat.from_columns(cols, nrows=len(keys)))
            if coords is None:
                raise StructureError(
                    "Lie derivative leaves the truncated closed-form space; "
                    "raise the truncation degree")
            rho.append(coords)
        self.action = action
        self.form_degree = p
        self.max_degree = max_degree
        self.forms = forms
        self.keys = keys
        self.key_index = key_index
        self.basis_mat = basis_mat
        self.module = GModule(action.algebra, rho, dim=len(forms),
                              name=f"closed_forms(p={p},D<={max_degree})")

    def to_coords(self, alpha: Form):
        """Coordinates of a closed form in this basis; StructureError if it
        escapes the truncation, None if it is not closed (not in span)."""
        vec = form_to_vector(alpha, self.keys, self.key_index)
        sol = solve_many(self.basis_mat, Mat.from_columns([vec], nrows=len(self.keys)))
        return None if sol is None else sol.col(0)

    def from_coords(self, coords) -> Form:
        return Form.linear_combination(self.action.ambient_dim, self.form_degree,
                                       zip(coords, self.forms))
