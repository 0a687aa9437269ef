"""Polynomial differential forms and multivector fields on R^n, exact.

A Poly is a sparse polynomial in x_1..x_n with Fraction coefficients
(exponent tuples of length n as keys).  A Form of degree p maps increasing
p-index tuples (0-based) to Poly coefficients; a MultiField does the same
for polynomial multivector fields.

Conventions:
  * contraction: (X_1 ^ ... ^ X_k) . alpha applies iota_{X_1} innermost,
    i.e. equals alpha(X_1, ..., X_k, .),
  * Lie derivative along a vector field: L_X = d(X . alpha) + X . (d alpha),
  * homotopy operator K: a x^mu dx^{i_1..i_p} maps to
    1/(|mu|+p) * sum_j (-1)^(j-1) x^{i_j} a x^mu dx^{..i_j-hat..},
    the degree-lowering inverse of d away from constants.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import frac
from .lie_core import format_sum, format_term, sort_with_sign

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse exact polynomial in n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for mono, c in (terms or {}).items():
            c = frac(c)
            if c:
                if len(mono) != n:
                    raise ValueError("monomial length mismatch")
                clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = frac(c)
        return cls(n, {(0,) * n: c} if c else {})

    @classmethod
    def var(cls, i: int, n: int) -> "Poly":
        mono = [0] * n
        mono[i] = 1
        return cls(n, {tuple(mono): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return Poly(self.n, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    terms[m] = terms.get(m, ZERO) + c1 * c2
            return Poly(self.n, terms)
        c = frac(other)
        return Poly(self.n, {m: c * x for m, x in self.terms.items()})

    __rmul__ = __mul__

    def eval(self, point) -> Fraction:
        if len(point) != self.n:
            raise ValueError("point length mismatch")
        pt = [frac(c) for c in point]
        total = ZERO
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v *= x ** e
            total += v
        return total

    def diff(self, i: int) -> "Poly":
        terms = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                terms[tuple(mm)] = terms.get(tuple(mm), ZERO) + c * m[i]
        return Poly(self.n, terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def format_poly(p: Poly) -> str:
    """Deterministic human/machine form, e.g. '3/2*x1^2*x3 - x2'."""
    terms = []
    for mono, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(mono) if e]
        terms.append(format_term(str(c), "*".join(factors)))
    return format_sum(terms)


# ---------------------------------------------------------------------------
# graded objects: forms and multivector fields
# ---------------------------------------------------------------------------

class _Graded:
    """Shared machinery: Poly coefficients over increasing index tuples."""

    __slots__ = ("n", "degree", "comps")

    def __init__(self, n: int, degree: int, comps=None):
        self.n = n
        self.degree = degree
        clean = {}
        for idx, p in (comps or {}).items():
            if len(idx) != degree or any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"component key {idx} is not an increasing {degree}-tuple")
            if any(i < 0 or i >= n for i in idx):
                raise ValueError(f"component key {idx} out of range for n={n}")
            if not isinstance(p, Poly):
                p = Poly.const(n, p)
            if not p.is_zero():
                clean[tuple(idx)] = p
        self.comps = clean

    def is_zero(self) -> bool:
        return not self.comps

    def _binary(self, other, op):
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("degree/dimension mismatch")
        comps = dict(self.comps)
        for idx, p in other.comps.items():
            q = op(comps.get(idx, Poly(self.n)), p)
            if q.is_zero():
                comps.pop(idx, None)
            else:
                comps[idx] = q
        return type(self)(self.n, self.degree, comps)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self):
        return self * Fraction(-1)

    def __mul__(self, scalar):
        if isinstance(scalar, Poly):
            return type(self)(self.n, self.degree,
                              {i: p * scalar for i, p in self.comps.items()})
        c = frac(scalar)
        return type(self)(self.n, self.degree,
                          {i: p * c for i, p in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(self) is type(other) and self.n == other.n
                and self.degree == other.degree and self.comps == other.comps)

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.degree,
                     frozenset(self.comps.items())))

    def max_coeff_degree(self) -> int:
        return max((p.degree() for p in self.comps.values()), default=-1)

    def _wedge(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch in wedge")
        comps: dict = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                sign, idx = sort_with_sign(i1 + i2)
                if sign == 0:
                    continue
                add = (p1 * p2) * sign
                q = comps.get(idx)
                q = add if q is None else q + add
                if q.is_zero():
                    comps.pop(idx, None)
                else:
                    comps[idx] = q
        return type(self)(self.n, self.degree + other.degree, comps)


class Form(_Graded):
    """Polynomial differential form of fixed degree on R^n."""

    @classmethod
    def zero(cls, n: int, degree: int) -> "Form":
        return cls(n, degree, {})

    @classmethod
    def constant(cls, n: int, c) -> "Form":
        return cls(n, 0, {(): Poly.const(n, c)})

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls(p.n, 0, {(): p})

    def scalar(self) -> Poly:
        """The coefficient of a 0-form."""
        if self.degree != 0:
            raise ValueError("scalar() needs a 0-form")
        return self.comps.get((), Poly(self.n))


class MultiField(_Graded):
    """Polynomial multivector field of fixed degree on R^n."""

    @classmethod
    def zero(cls, n: int, degree: int) -> "MultiField":
        return cls(n, degree, {})

    @classmethod
    def vector(cls, n: int, components) -> "MultiField":
        """Vector field from its n component polynomials."""
        comps = {}
        for i, p in enumerate(components):
            if not isinstance(p, Poly):
                p = Poly.const(n, p)
            if not p.is_zero():
                comps[(i,)] = p
        return cls(n, 1, comps)

    def component(self, i: int) -> Poly:
        if self.degree != 1:
            raise ValueError("component() needs a vector field")
        return self.comps.get((i,), Poly(self.n))


def wedge(a, b):
    """Wedge of two forms or two multivector fields."""
    if type(a) is not type(b):
        raise TypeError("wedge needs two forms or two multivector fields")
    return a._wedge(b)


def exterior_d(alpha: Form) -> Form:
    """Exterior derivative."""
    comps: dict = {}
    for idx, p in alpha.comps.items():
        for i in range(alpha.n):
            dp = p.diff(i)
            if dp.is_zero():
                continue
            sign, key = sort_with_sign((i,) + idx)
            if sign == 0:
                continue
            add = dp * sign
            q = comps.get(key)
            q = add if q is None else q + add
            if q.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = q
    return Form(alpha.n, alpha.degree + 1, comps)


def _iota_basis(i: int, alpha: Form) -> Form:
    """Contraction with the coordinate field d/dx_i."""
    comps: dict = {}
    for idx, p in alpha.comps.items():
        if i in idx:
            pos = idx.index(i)
            key = idx[:pos] + idx[pos + 1:]
            add = p * ((-1) ** pos)
            q = comps.get(key)
            q = add if q is None else q + add
            if q.is_zero():
                comps.pop(key, None)
            else:
                comps[key] = q
    return Form(alpha.n, alpha.degree - 1, comps)


def contract(field: MultiField, alpha: Form) -> Form:
    """(X_1 ^ .. ^ X_k) . alpha = alpha(X_1, .., X_k, ...): for each field
    component d/dx_{t_0} ^ .. ^ d/dx_{t_{k-1}}, iota over t_0 first."""
    if field.n != alpha.n:
        raise ValueError("dimension mismatch in contract")
    if field.degree > alpha.degree:
        raise ValueError("cannot contract: field degree exceeds form degree")
    out = Form.zero(alpha.n, alpha.degree - field.degree)
    for idx, coeff in field.comps.items():
        partial = alpha
        for i in idx:
            partial = _iota_basis(i, partial)
        if not partial.is_zero():
            out = out + partial * coeff
    return out


def lie_derivative(x: MultiField, alpha: Form) -> Form:
    """Cartan formula along a vector field: d(x . alpha) + x . (d alpha)."""
    if x.degree != 1:
        raise ValueError("lie_derivative needs a vector field")
    if alpha.degree == 0:
        return contract(x, exterior_d(alpha))
    return exterior_d(contract(x, alpha)) + contract(x, exterior_d(alpha))


def vf_bracket(x: MultiField, y: MultiField) -> MultiField:
    """Vector-field bracket: [x,y]^i = sum_j x^j d_j y^i - y^j d_j x^i."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("vf_bracket needs vector fields")
    if x.n != y.n:
        raise ValueError("dimension mismatch in vf_bracket")
    comps = []
    for i in range(x.n):
        p = Poly(x.n)
        for j in range(x.n):
            xj, yj = x.component(j), y.component(j)
            if not xj.is_zero():
                p = p + xj * y.component(i).diff(j)
            if not yj.is_zero():
                p = p - yj * x.component(i).diff(j)
        comps.append(p)
    return MultiField.vector(x.n, comps)


def poincare_homotopy(alpha: Form) -> Form:
    """Homotopy operator K with d K + K d = identity on polynomial forms of
    form-degree >= 1 (and on 0-forms up to the constant term).  K of a 0-form
    is zero by convention."""
    if alpha.degree == 0:
        return Form.zero(alpha.n, 0)
    out = Form.zero(alpha.n, alpha.degree - 1)
    p = alpha.degree
    for idx, poly in alpha.comps.items():
        for mono, c in poly.terms.items():
            weight = Fraction(1, sum(mono) + p)
            for jpos, i in enumerate(idx):
                mm = list(mono)
                mm[i] += 1
                key = idx[:jpos] + idx[jpos + 1:]
                coeff = c * weight * ((-1) ** jpos)
                term = Poly(alpha.n, {tuple(mm): coeff})
                cur = out.comps.get(key)
                cur = term if cur is None else cur + term
                if cur.is_zero():
                    out.comps.pop(key, None)
                else:
                    out.comps[key] = cur
    return out


def form_from_terms(n: int, degree: int, terms) -> Form:
    """Form from (coefficient, monomial-exponents, index-tuple) triples;
    indices are 0-based and need not be sorted."""
    out = Form.zero(n, degree)
    for c, mono, idx in terms:
        sign, key = sort_with_sign(tuple(idx))
        if sign == 0:
            continue
        poly = Poly(n, {tuple(mono): frac(c) * sign})
        out = out + Form(n, degree, {key: poly})
    return out


def volume_form(n: int) -> Form:
    return Form(n, n, {tuple(range(n)): Poly.const(n, 1)})


def _format_graded(x, basis) -> str:
    """Polynomial coefficient times basis(index tuple), summed over the
    components of a form or multivector field."""
    return format_sum([format_term(format_poly(x.comps[idx]),
                                   basis(idx) if idx else "")
                       for idx in sorted(x.comps)])


def format_form(alpha: Form) -> str:
    """Deterministic rendering like 'x3*dx(1,2) - 1/2*dx(1,3)'; '0' when zero."""
    return _format_graded(
        alpha, lambda idx: "dx(" + ",".join(str(i + 1) for i in idx) + ")")


def format_field(x: MultiField) -> str:
    """Deterministic rendering like 'x3*d/dx1 - x1*d/dx3'; '0' when zero."""
    return _format_graded(x, lambda idx: "^".join(f"d/dx{i + 1}" for i in idx))
