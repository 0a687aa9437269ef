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
first use, through its private `_derive(key, build)`, or for
`contractions` in the same `_derived` record, several degrees from one
build (an action is not changed after it is built; a build that raises
stores nothing; no record points back at the action, so it is freed with
all it keeps when its last user drops it):
  * `sign()`: the bracket sign, from `validate_action`;
  * `omega_checks()` and `omega_failures()`: the answers of
    `check_multisymplectic` and `preserves_omega`, which `check-action`
    and `diagnose` share;
  * `trivial()`: the algebra's trivial module, whose differential ranks
    (kept by the module) `cohomology` and `diagnose` share; `betti()` is
    its cohomology and the kernel dimensions `kernel_dim(k)` are read from
    its ranks;
  * `kernel(k)`: the degree-k Lie kernel P_k of the algebra (`LieKernel`):
    canonical basis, kernel module and its dual, display names;
  * `contractions(k, also)`: V_p . omega of P_k's basis elements; the
    degrees asked for together and not kept yet come from one
    `polyform.contraction_chains` pass over the generator fields, and each
    degree's list is kept;
  * `truncated_forms(k, D)`: closed (n-k)-forms of coefficient degree <= D
    (`TruncatedFormModule`): the closed basis and its L_{V_i} images, built
    once, and the invariant forms read from them;
  * `hom_module(k, D)`: Hom(P_k, those closed forms as the module s * L_V),
    whose cohomology decides equivariant existence and uniqueness.
A moment map reads the action but is not kept by it.

V_p . omega is not built here: `polyform.contraction_chains` takes it as
chains of single-field contractions iota_{V_tk} ... iota_{V_t1} omega on
ints, each shared index-tuple prefix contracted once and no multivector
field V_p built.  Also here: the field V_p itself as a sum of wedges
(`infinitesimal_generator`), and truncated spaces of (invariant) closed
forms as finite-dimensional modules.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import comb

from .linalg import Mat, coordinates, mat_scale, nullspace, rank
from .lie_core import (LieAlgebra, StructureError, exterior_basis, format_multivector,
                       lie_kernel_basis)
from .gmodule import (GModule, dual_module, lie_kernel_module, module_cohomology_dim,
                      restrict, tensor_module, trivial_module)
from .polyform import (Form, MultiField, Poly, contract, contraction_chains, exterior_d,
                       format_form, lie_derivative, vf_bracket, wedge)


class LieAction:
    """A Lie algebra acting on R^n by polynomial vector fields, with a
    distinguished form omega on the same space; keeps what is derived from
    it (see the module docstring), each built once."""

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

    def sign(self) -> int:
        """The bracket sign; validates the action on first use and raises
        StructureError (keeping nothing) if the generators do not close."""
        return self._derive("sign", lambda: validate_action(self))

    def omega_checks(self) -> dict:
        """`check_multisymplectic` of this action, computed once."""
        return self._derive("omega_checks", lambda: check_multisymplectic(self))

    def omega_failures(self) -> list:
        """`preserves_omega` of this action, computed once."""
        return self._derive("omega_failures", lambda: preserves_omega(self))

    def trivial(self) -> GModule:
        """The algebra's trivial module, built once; it keeps its ranks."""
        return self._derive("trivial", lambda: trivial_module(self.algebra))

    def betti(self) -> tuple:
        """Betti numbers, degrees 0..dim: the cohomology of `trivial()`."""
        return tuple(module_cohomology_dim(self.trivial(), k)
                     for k in range(self.algebra.dim + 1))

    def kernel_dim(self, k: int) -> int:
        """dim P_k = C(dim, k) - rank boundary_k, where rank boundary_k is
        the rank of the trivial module's d^{k-1}."""
        return comb(self.algebra.dim, k) - self.trivial().differential_rank(k - 1)

    def _derive(self, key, build):
        """The answer stored under `key`, from `build()` on first use; it must
        not point back at the action, so that ownership stays a tree."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def kernel(self, k: int) -> "LieKernel":
        return self._derive(("kernel", k), lambda: LieKernel(self.algebra, k))

    def contractions(self, k: int, also=()) -> list:
        """V_p . omega, the defining equation's right-hand side up to -zeta(k),
        for each basis element p of kernel(k).  Degree k and the degrees in
        `also` that are not kept yet are contracted in one
        `contraction_chains` pass over all their basis elements, so a prefix
        shared across degrees is contracted once; each degree's list is kept."""
        missing = [d for d in dict.fromkeys((k, *also))
                   if ("contractions", d) not in self._derived]
        if missing:
            kernels = [self.kernel(d).multivectors for d in missing]
            values = iter(contraction_chains(self.fields, self.omega,
                                             [mv for mvs in kernels for mv in mvs]))
            for d, mvs in zip(missing, kernels):
                self._derived[("contractions", d)] = [next(values) for _ in mvs]
        return self._derived[("contractions", k)]

    def truncated_forms(self, k: int, max_degree: int) -> "TruncatedFormModule":
        """Closed (n-k)-forms of coefficient degree <= max_degree (the values
        of f_k) and their L_{V_i} images."""
        return self._derive(("forms", k, max_degree), lambda: TruncatedFormModule(
            self, self.plectic_degree() - k, max_degree))

    def hom_module(self, k: int, max_degree: int) -> GModule:
        """Hom(P_k, truncated_forms(k, max_degree)) = P_k* (x) (forms, s * L_V)."""
        return self._derive(("hom", k, max_degree), lambda: tensor_module(
            self.kernel(k).dual, self.truncated_forms(k, max_degree).signed_module(
                self.algebra, self.sign())))


class LieKernel:
    """The degree-k Lie kernel P_k of an algebra and the objects derived from
    it; each attribute is computed on first access and kept."""

    def __init__(self, algebra: LieAlgebra, k: int):
        self.algebra = algebra
        self.degree = k

    @cached_property
    def basis(self):
        """Canonical basis, as sparse columns over exterior_basis(dim, k)."""
        return lie_kernel_basis(self.algebra, self.degree)

    @cached_property
    def multivectors(self):
        basis = exterior_basis(self.algebra.dim, self.degree)
        return [{basis[i]: x for i, x in vec.items()} for vec in self.basis]

    @cached_property
    def names(self):
        return [format_multivector(mv) for mv in self.multivectors]

    @cached_property
    def module(self) -> GModule:
        """The kernel with the extended adjoint action, in the basis above."""
        return lie_kernel_module(self.algebra, self.degree, basis=self.basis)

    @cached_property
    def dual(self) -> GModule:
        return dual_module(self.module)


def validate_action(action: LieAction) -> int:
    """Check the generators close per the structure constants and return the
    bracket sign (kept by `LieAction.sign`), in one pass: s is read from the
    first pair whose bracket is nonzero and every other pair is checked
    against it.  Raises StructureError naming a pair that matches neither
    sign, or a pair whose sign differs from s together with the pair that
    fixed s."""
    g = action.algebra
    s, first = None, None
    for i, j in itertools.combinations(range(g.dim), 2):
        got = vf_bracket(action.fields[i], action.fields[j])
        want = MultiField.linear_combination(
            action.ambient_dim, 1, ((c, action.fields[m]) for m, c in g.bracket_basis(i, j)))
        if got.is_zero() and want.is_zero():
            continue
        pair = f"pair (e{i + 1}, e{j + 1})"
        if got not in (want, -want):
            raise StructureError(f"generator fields do not close under the bracket: "
                                 f"{pair} matches neither sign convention")
        sign = 1 if got == want else -1
        if s is None:
            s, first = sign, pair
        elif sign != s:
            raise StructureError(f"generator fields do not close under one bracket "
                                 f"sign: {pair} closes with sign {sign:+d} but "
                                 f"{first} with sign {s:+d}")
    # when every bracket is zero both signs hold, and -1 is taken
    return -1 if s is None else s


_SAMPLE_SEEDS = (
    lambda n: [Fraction(0)] * n,
    lambda n: [Fraction(1)] * n,
    lambda n: [Fraction(i + 1) for i in range(n)],
    lambda n: [Fraction((-1) ** i, i + 2) for i in range(n)],
)


def _contraction_matrix_at(columns, keys, point) -> Mat:
    """The forms `columns` with their coefficients evaluated at a point: one
    column per form, one row per index tuple of `keys`."""
    return Mat.from_sparse_columns([{r: col.comps[idx].eval(point) for r, idx in enumerate(keys)
                                     if idx in col.comps} for col in columns], len(keys))


def check_multisymplectic(action: LieAction) -> dict:
    """Closedness of omega (exact) and nondegeneracy of v -> v . omega on
    constant vectors: omega is contracted once with each unit field d/dx_i,
    and the matrix of those (deg-1)-forms is ranked at the origin and three
    fixed rational points.  `nondegenerate` is True only for constant
    coefficients (exact); False when the rank drops at a sample point, given
    as `nondegenerate_witness`; None (not certified) otherwise."""
    omega = action.omega
    n = omega.n
    columns = [contract(MultiField(n, 1, {(i,): Poly.const(n, 1)}), omega)
               for i in range(n)]
    keys = list(itertools.combinations(range(n), omega.degree - 1))
    out = {"closed": exterior_d(omega).is_zero(), "nondegenerate": None,
           "plectic_degree": omega.degree - 1}
    for seed in _SAMPLE_SEEDS:
        point = seed(n)
        if rank(_contraction_matrix_at(columns, keys, point)) != n:
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
    """Multivector field V_p = sum of c * V_{t1} ^ ... ^ V_{tk} over the terms
    of one multivector p (a dict as for `contraction_chains`, or one index
    tuple for the multivector with coefficient 1 on it)."""
    if isinstance(mv, tuple):
        mv = {mv: 1}
    n = action.ambient_dim
    unit = MultiField(n, 0, {(): Poly.const(n, 1)})
    return MultiField.linear_combination(n, len(next(iter(mv))) if mv else 0, (
        (c, reduce(wedge, (action.fields[t] for t in idx), unit))
        for idx, c in mv.items() if c))


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


def form_to_vector(alpha: Form, key_index) -> dict:
    """A form's sparse {row: c} column over a key basis indexed {key: row};
    StructureError naming, as a term like x1*x4^2*dx(1), the smallest
    (index tuple, monomial) key outside the basis if the form has one
    (degree truncation escape)."""
    vec = {}
    for idx, poly in alpha.comps.items():
        for mono, c in poly.terms.items():
            try:
                vec[key_index[(idx, mono)]] = c
            except KeyError:
                idx, mono = min((i, m) for i, p in alpha.comps.items()
                                for m in p.terms if (i, m) not in key_index)
                term = Form.from_terms(alpha.n, alpha.degree, [(1, mono, idx)])
                raise StructureError("form escapes the truncated space at term "
                                     + format_form(term)) from None
    return vec


def vector_to_form(vec: dict, keys, n: int, p: int) -> Form:
    """The form of a sparse {row: c} column over a key basis."""
    return Form.from_terms(n, p, ((c, keys[r][1], keys[r][0]) for r, c in vec.items()))


def _operator_matrix(op, keys_in, keys_out, n: int, p_in: int):
    """Matrix of a linear operator on forms w.r.t. key bases (columns =
    images of input basis forms)."""
    out_index = {key: r for r, key in enumerate(keys_out)}
    cols = [form_to_vector(op(Form.from_terms(n, p_in, [(1, mono, idx)])), out_index)
            for idx, mono in keys_in]
    return Mat.from_sparse_columns(cols, nrows=len(keys_out))


def closed_form_basis(n: int, p: int, max_degree: int):
    """Canonical basis (list of Forms) of closed p-forms of coefficient
    degree <= max_degree, plus the key basis and coordinate matrix."""
    keys = form_key_basis(n, p, max_degree)
    keys_out = form_key_basis(n, p + 1, max(max_degree - 1, 0))
    vecs = nullspace(_operator_matrix(exterior_d, keys, keys_out, n, p))
    basis_mat = Mat.from_sparse_columns(vecs, nrows=len(keys))
    forms = [vector_to_form(v, keys, n, p) for v in vecs]
    return forms, keys, basis_mat


def invariant_closed_forms(action: LieAction, p: int, max_degree: int):
    """Basis of closed p-forms of coefficient degree <= max_degree killed by
    every L_{V_i}: the `invariants` of the action's truncated form module."""
    return action.truncated_forms(action.plectic_degree() - p, max_degree).invariants


class TruncatedFormModule:
    """Closed p-forms of coefficient degree <= D on R^n, read from an action:
    the canonical basis and the images L_{V_i} b of each basis form b, built
    once; `invariants` is read from the images on first use and kept."""

    def __init__(self, action: LieAction, p: int, max_degree: int):
        self.n = action.ambient_dim
        self.form_degree = p
        self.max_degree = max_degree
        self.forms, self.keys, self.basis_mat = closed_form_basis(self.n, p, max_degree)
        self.key_index = {key: r for r, key in enumerate(self.keys)}
        self.images = [[lie_derivative(v, b) for b in self.forms] for v in action.fields]

    def signed_module(self, algebra: LieAlgebra, s: int) -> GModule:
        """The GModule rho(xi) = s * L_{V_xi} over the acting algebra (s the
        bracket sign, so rho is a left module) on closed forms, which it keeps
        (L_V b = d iota_V b); `form_to_vector` refuses a truncation escape."""
        images = [mat_scale(Mat.from_sparse_columns(
            [form_to_vector(b, self.key_index) for b in field], len(self.keys)), s)
            for field in self.images]
        m = restrict(algebra, self.basis_mat, images,
                     f"closed_forms(p={self.form_degree},D<={self.max_degree})")
        return m.validate()  # proven once the action closes; ROADMAP item 7 drops this check

    @cached_property
    def invariants(self):
        """Canonical basis of the forms killed by every L_{V_i}: `forms` over
        the nullspace of the images stacked field by field, each over the
        sorted (index tuple, monomial) keys the images hold (zero rows and
        row order do not change a nullspace)."""
        keys = sorted({(idx, mono) for images in self.images for image in images
                       for idx, poly in image.comps.items() for mono in poly.terms})
        index = {key: r for r, key in enumerate(keys)}
        cols = [{f * len(keys) + r: c for f, images in enumerate(self.images)
                 for r, c in form_to_vector(images[b], index).items()}
                for b in range(len(self.forms))]
        stacked = Mat.from_sparse_columns(cols, nrows=len(self.images) * len(keys))
        return [self.from_coords(c) for c in nullspace(stacked)]

    def to_coords(self, alpha: Form):
        """Coordinates of a closed form in this basis, as a sparse column;
        StructureError if it escapes the truncation, None if it is not closed
        (not in span)."""
        vec = form_to_vector(alpha, self.key_index)
        sol = coordinates(self.basis_mat, Mat.from_sparse_columns([vec], nrows=len(self.keys)))
        return None if sol is None else sol.columns()[0]

    def from_coords(self, coords: dict) -> Form:
        """The form of a sparse coordinate column in this basis."""
        return Form.linear_combination(self.n, self.form_degree,
                                       ((c, self.forms[a]) for a, c in coords.items()))
