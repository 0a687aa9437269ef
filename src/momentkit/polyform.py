"""Polynomial differential forms and multivector fields on R^n, exact.

A Poly is a sparse polynomial in x_1..x_n with Fraction coefficients
(exponent tuples of length n as keys).  A Form of degree p maps increasing
p-index tuples (0-based) to Poly coefficients; a MultiField does the same
for polynomial multivector fields.

Invariants of every Poly, Form and MultiField: exponents are ints >= 0,
component keys are increasing index tuples, no stored coefficient is zero,
and no component is the zero Poly.  The public constructors (`Poly(n, terms)`,
`Form(n, degree, comps)`, `MultiField(...)`, `from_terms`) validate their
input.  Internal results are not validated again.

The calculus is fraction-free: an operand enters as {index tuple:
{monomial: int}} over the lcm of its denominators (`_ints`), and a result
leaves once, as Fractions over its kernel's denominator (`_wrap`, which
also drops the zero coefficients and empty components that cancellation
left behind).  A result makes one Fraction per distinct value, shared by
every term that holds it: Fractions are immutable, and a so(5) result has
about one distinct value per five terms.  In between, every kernel (wedge
products, d, iota_X by a vector field X, linear combinations, the
vector-field bracket) works a block at a time: one source component, or
one pair of components, whose target index tuple and sign it resolves
once before adding the block into that target's dict (`_combination`,
`_add_products`).  An exponent move is a table lookup: raising exponent i
(the x_i of a linear field, or of K's Euler field) and lowering it (d, the
bracket's derivatives) read two module-level `_Table`s, `_RAISE` and
`_LOWER`, whose int-tuple entries are each sliced once, on first use.  A
constant factor leaves a monomial as it is, and only a factor of higher
degree builds a sum of exponent tuples.  Rendering reads each monomial's
sort key and text from a third such table (`format_poly`).

The composite operators compose the kernels and leave the ints once: the
Lie derivative; `contract`, a k-field's unit fields in turn, times its
coefficients; `contraction_chains`, (V_{t1} ^ ... ^ V_{tk}) . alpha for
many multivectors as chains of single-field contractions sharing their
prefixes; K scaled by a constant, in one pass over alpha's ints; and
`exterior_d_plus`, d alpha + c * beta.  The homotopy-operator construction
of a moment map runs these three in turn, so each of its values leaves the
ints three times.

Conventions:
  * contraction: (X_1 ^ ... ^ X_k) . alpha applies iota_{X_1} innermost,
    i.e. equals alpha(X_1, ..., X_k, .),
  * Lie derivative along a vector field: L_X = d(X . alpha) + X . (d alpha),
  * homotopy operator K: iota_E / (|mu|+p) on a term a x^mu dx^{i_1..i_p},
    E = sum_i x_i d/dx_i the Euler field: the degree-lowering inverse of d
    away from constants.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add

from .linalg import frac
from .lie_core import format_sum, format_term, sort_with_sign

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Sparse exact polynomial in n variables: a record of its coefficients.
    It has no arithmetic of its own; forms do all of it (a polynomial times
    a form is a wedge with a 0-form)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for mono, c in (terms or {}).items():
            c = frac(c)
            if c:
                if len(mono) != n:
                    raise ValueError("monomial length mismatch")
                if not all(type(e) is int and e >= 0 for e in mono):
                    raise ValueError(f"monomial {mono} has an exponent that is not an int >= 0")
                clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = frac(c)
        return cls(n, {(0,) * n: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

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

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _poly(n: int, terms: dict) -> Poly:
    """Wrap a {monomial: nonzero Fraction} dict as a Poly, uncopied and
    unchecked."""
    p = Poly.__new__(Poly)
    p.n = n
    p.terms = terms
    return p


class _Table(dict):
    """{key: build(key)}, each entry built on its first lookup; a hit is a
    plain dict lookup."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        entry = self[key] = self.build(key)
        return entry


# Every monomial format_poly has rendered, {monomial: (its sort key (degree,
# monomial), its rendered factors)}, shared by all calls like the exponent
# move tables below: a monomial's key and text do not depend on the
# polynomial it appears in.
_MONO_TEXTS = _Table(lambda mono: ((sum(mono), mono), "*".join(
    f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e)))


def format_poly(p: Poly) -> str:
    """Deterministic human/machine form, e.g. '3/2*x1^2*x3 - x2': terms by
    (degree, monomial), each monomial's key and text read from _MONO_TEXTS."""
    texts = _MONO_TEXTS
    return format_sum([format_term(str(c), body) for (_, body), c in
                       sorted([(texts[m], c) for m, c in p.terms.items()])])


# ---------------------------------------------------------------------------
# entry and exit of the int kernels
# ---------------------------------------------------------------------------

def _ints(comps: dict):
    """(den, {index tuple: {monomial: int}}): the Poly values of comps as
    ints over den, the lcm of their denominators."""
    den = lcm(*{c.denominator for p in comps.values() for c in p.terms.values()})
    return den, {idx: {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
                 for idx, p in comps.items()}


def _wrap(cls, n: int, degree: int, acc: dict, den: int):
    """The form or multivector field (of class cls) of an accumulated dict
    of ints over den, its zero coefficients and empty components dropped
    and not validated again: the one place a result's Fractions are made,
    one per distinct int value, shared by all the terms that hold it."""
    x = cls.__new__(cls)
    x.n = n
    x.degree = degree
    x.comps = {}
    values = {}  # int -> its Fraction over den, one shared object per value
    for key, poly in acc.items():
        terms = {}
        for m, v in poly.items():
            if v:
                c = values.get(v)
                if c is None:
                    c = values[v] = Fraction(v, den)
                terms[m] = c
        if terms:
            x.comps[key] = _poly(n, terms)
    return x


# ---------------------------------------------------------------------------
# int kernels on {index tuple: {monomial: int}} dicts, a block at a time
# ---------------------------------------------------------------------------
# Each kernel resolves a block's target index tuple and sign once and adds
# the whole block into that component.  A sum may leave zero coefficients
# and empty components behind: they are harmless inside the kernels and
# dropped by _wrap.


def _moves(step: int) -> _Table:
    """{i: {monomial: the monomial with exponent i moved by step}}, each
    entry sliced on its first lookup."""
    return _Table(lambda i: _Table(lambda m: m[:i] + (m[i] + step,) + m[i + 1:]))


# The exponent moves of every int kernel: _RAISE[i][m] is m with exponent i
# raised by one (the x_i of _add_products), _LOWER[i][m] lowered by one (d
# and the bracket's partial derivatives).  They are shared by every call and
# hold only int tuples, each equal to the slice it replaces, so a result's
# monomials do not depend on what was computed before it.
_RAISE = _moves(1)
_LOWER = _moves(-1)


def _add_products(acc: dict, key: tuple, q: dict, p: dict, s: int) -> None:
    """acc[key] += s * q * p.  A constant monomial of q leaves p's monomials
    as they are, and x_i (in a linear field) raises exponent i by looking it
    up in _RAISE; only a higher-degree monomial adds tuples."""
    poly = acc.setdefault(key, {})
    get = poly.get
    for m1, c1 in q.items():
        c1 *= s
        degree = sum(m1)
        if degree == 0:
            for m2, c2 in p.items():
                poly[m2] = get(m2, 0) + c1 * c2
        elif degree == 1:
            raised = _RAISE[m1.index(1)]
            for m2, c2 in p.items():
                m = raised[m2]
                poly[m] = get(m, 0) + c1 * c2
        else:
            for m2, c2 in p.items():
                m = tuple(map(add, m1, m2))
                poly[m] = get(m, 0) + c1 * c2


def _combination(reads):
    """(acc, den): sum of num/d * ints over the (num, d, ints) reads, den the lcm of the d."""
    den = lcm(*(d for _, d, _ in reads))
    acc: dict = {}
    for num, d, ints in reads:
        s = num * (den // d)
        for idx, p in ints.items():
            poly = acc.get(idx)
            if poly is None:
                acc[idx] = {m: s * v for m, v in p.items()}
            else:
                get = poly.get
                for m, v in p.items():
                    poly[m] = get(m, 0) + s * v
    return acc, den


def _wedge(a: dict, b: dict) -> dict:
    acc: dict = {}
    for i1, p1 in a.items():
        for i2, p2 in b.items():
            sign, key = sort_with_sign(i1 + i2)
            if sign:
                _add_products(acc, key, p1, p2, sign)
    return acc


def _d(a: dict, n: int) -> dict:
    """d a: dx^i ^ dx^idx puts i at the j-th place of idx, with sign (-1)^j."""
    acc: dict = {}
    for idx, p in a.items():
        for i in range(n):
            if i in idx:
                continue
            j = bisect_left(idx, i)
            poly = None
            s = -1 if j % 2 else 1
            lowered = _LOWER[i]
            for mono, c in p.items():
                e = mono[i]
                if e:
                    if poly is None:
                        poly = acc.setdefault(idx[:j] + (i,) + idx[j:], {})
                    m = lowered[mono]
                    poly[m] = poly.get(m, 0) + s * e * c
    return acc


def _contract(f: dict, a: dict, acc=None) -> dict:
    """acc (a new dict by default) plus iota_f a, for a vector field f: the
    component of f at idx[j] takes idx[j] out of idx with sign (-1)^j.  On
    a 0-form (no positions) iota_f a is 0, as lie_derivative needs."""
    acc = {} if acc is None else acc
    for idx, p in a.items():
        for j, i in enumerate(idx):
            q = f.get((i,))
            if q is not None:
                _add_products(acc, idx[:j] + idx[j + 1:], q, p, -1 if j % 2 else 1)
    return acc


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
            if not isinstance(p, Poly) or p.n != n:
                raise TypeError(f"component {idx} is not a Poly in {n} variables")
            if not p.is_zero():
                clean[tuple(idx)] = p
        self.comps = clean

    @classmethod
    def zero(cls, n: int, degree: int):
        return cls(n, degree, {})

    def is_zero(self) -> bool:
        return not self.comps

    @classmethod
    def from_terms(cls, n: int, degree: int, terms):
        """Sum of (coefficient, monomial exponents, index tuple) terms, with
        0-based indices in any order (a repeated index makes a term zero);
        each term is checked against n and the degree."""
        checked = []
        for c, mono, idx in terms:
            mono, idx = tuple(mono), tuple(idx)
            if len(mono) != n:
                raise ValueError("monomial length mismatch")
            if not all(type(e) is int and e >= 0 for e in mono):
                raise ValueError(f"monomial {mono} has an exponent that is not an int >= 0")
            if len(idx) != degree or any(i < 0 or i >= n for i in idx):
                raise ValueError(f"index tuple {idx} is not a {degree}-tuple in 0..{n - 1}")
            checked.append((idx, mono, frac(c)))
        den = lcm(*(c.denominator for _, _, c in checked))
        signs = {idx: sort_with_sign(idx) for idx, _, _ in checked}
        acc: dict = {}
        for idx, mono, c in checked:
            sign, key = signs[idx]
            if sign:
                poly = acc.setdefault(key, {})
                poly[mono] = poly.get(mono, 0) + sign * c.numerator * (den // c.denominator)
        return _wrap(cls, n, degree, acc, den)

    @classmethod
    def linear_combination(cls, n: int, degree: int, pairs):
        """sum c * x over (scalar c, x) pairs, every x of this dimension and
        degree, in one pass over one common denominator."""
        reads = []
        for c, x in pairs:
            if x.n != n or x.degree != degree:
                raise ValueError("degree/dimension mismatch in linear_combination")
            c = frac(c)
            if c:
                den, ints = _ints(x.comps)
                reads.append((c.numerator, c.denominator * den, ints))
        return _wrap(cls, n, degree, *_combination(reads))

    def __add__(self, other):
        return self.linear_combination(self.n, self.degree, ((1, self), (1, other)))

    def __sub__(self, other):
        return self.linear_combination(self.n, self.degree, ((1, self), (-1, other)))

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        return self.linear_combination(self.n, self.degree, ((scalar, self),))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(self) is type(other) and self.n == other.n
                and self.degree == other.degree and self.comps == other.comps)

    def max_coeff_degree(self) -> int:
        return max((p.degree() for p in self.comps.values()), default=-1)


class Form(_Graded):
    """Polynomial differential form of fixed degree on R^n."""


class MultiField(_Graded):
    """Polynomial multivector field of fixed degree on R^n."""


def wedge(a, b):
    """Wedge of two forms or two multivector fields."""
    if type(a) is not type(b):
        raise TypeError("wedge needs two forms or two multivector fields")
    if a.n != b.n:
        raise ValueError("dimension mismatch in wedge")
    da, ia = _ints(a.comps)
    db, ib = _ints(b.comps)
    return _wrap(type(a), a.n, a.degree + b.degree, _wedge(ia, ib), da * db)


def exterior_d(alpha: Form) -> Form:
    """Exterior derivative."""
    den, a = _ints(alpha.comps)
    return _wrap(Form, alpha.n, alpha.degree + 1, _d(a, alpha.n), den)


def exterior_d_plus(alpha: Form, c, beta: Form) -> Form:
    """d alpha + c * beta, for a scalar c and a form beta of degree
    alpha.degree + 1: both summands over one denominator in one dict."""
    if beta.n != alpha.n or beta.degree != alpha.degree + 1:
        raise ValueError("degree/dimension mismatch in exterior_d_plus")
    c = frac(c)
    da, a = _ints(alpha.comps)
    db, b = _ints(beta.comps)
    return _wrap(Form, alpha.n, alpha.degree + 1, *_combination(
        [(1, da, _d(a, alpha.n)), (c.numerator, c.denominator * db, b)]))


def contract(field: MultiField, alpha: Form) -> Form:
    """(X_1 ^ .. ^ X_k) . alpha = alpha(X_1, .., X_k, ...): a component q
    d/dx_{t_1} ^ .. ^ d/dx_{t_k} is iota over t_1 first, .., t_k, times q."""
    if field.n != alpha.n:
        raise ValueError("dimension mismatch in contract")
    if field.degree > alpha.degree:
        raise ValueError("cannot contract: field degree exceeds form degree")
    df, f = _ints(field.comps)
    da, a = _ints(alpha.comps)
    acc: dict = {}
    for t, q in f.items():
        b = reduce(lambda b, i: _contract({(i,): {(0,) * alpha.n: 1}}, b), t, a)
        for idx, p in b.items():
            _add_products(acc, idx, q, p, 1)
    return _wrap(Form, alpha.n, alpha.degree - field.degree, acc, df * da)


def contraction_chains(fields, alpha: Form, mvs) -> list:
    """(V_{t1} ^ ... ^ V_{tk}) . alpha = iota_{V_tk} ... iota_{V_t1} alpha,
    extended linearly, for each multivector in `mvs`: a dict from index
    tuples into the vector fields `fields` to coefficients.  A multivector's
    degree is the length of its first tuple; a degree above alpha's, or a
    nonzero term of another length, raises ValueError.

    The distinct index tuples with a nonzero coefficient are visited in
    lexicographic order, with a stack of the int contractions (den, ints) of
    alpha, V_{t1} . alpha, ... for the current tuple, cut back to the prefix
    it shares with the previous one: each distinct prefix is contracted once
    per call, each field is read once, and the denominators multiply through
    unreduced.  A result is summed from its tuples' ints over one common
    denominator and wrapped once, at its multivector's last tuple; a tuple's
    contraction lives only while a multivector that uses it is still open."""
    n = alpha.n
    users: dict = {}  # index tuple -> [(position in mvs, nonzero coefficient)]
    out, sizes = [], []  # per multivector: zero until taken; its number of nonzero terms
    for a, mv in enumerate(mvs):
        degree = len(next(iter(mv))) if mv else 0
        if degree > alpha.degree:
            raise ValueError("cannot contract: multivector degree exceeds form degree")
        nonzero = [(idx, frac(c)) for idx, c in mv.items() if c]
        for idx, c in nonzero:
            if len(idx) != degree:
                raise ValueError(f"multivector mixes degrees {degree} and {len(idx)}")
            users.setdefault(idx, []).append((a, c))
        out.append(Form.zero(n, alpha.degree - degree))
        sizes.append(len(nonzero))
    reached = [[] for _ in out]  # per open multivector: its (num, den, ints) reads
    field_ints = {}  # field index -> (den, ints) of each field the tuples use
    for t in {t for idx in users for t in idx}:
        if fields[t].degree != 1 or fields[t].n != n:
            raise ValueError("contraction_chains needs vector fields on the form's space")
        field_ints[t] = _ints(fields[t].comps)
    stack, prev = [_ints(alpha.comps)], ()
    for idx in sorted(users):
        while idx[:len(stack) - 1] != prev[:len(stack) - 1]:
            stack.pop()
        for t in idx[len(stack) - 1:]:
            (df, f), (den, ints) = field_ints[t], stack[-1]
            stack.append((den * df, _contract(f, ints)))
        prev = idx
        den, ints = stack[-1]
        for a, c in users[idx]:
            reached[a].append((c.numerator, c.denominator * den, ints))
            if len(reached[a]) == sizes[a]:
                out[a] = _wrap(Form, n, out[a].degree, *_combination(reached[a]))
                reached[a] = None
    return out


def lie_derivative(x: MultiField, alpha: Form) -> Form:
    """Cartan formula along a vector field: d(x . alpha) + x . (d alpha),
    both summands over the same denominator in one dict."""
    if x.degree != 1:
        raise ValueError("lie_derivative needs a vector field")
    if x.n != alpha.n:
        raise ValueError("dimension mismatch in lie_derivative")
    dx, v = _ints(x.comps)
    da, a = _ints(alpha.comps)
    acc = _d(_contract(v, a), alpha.n)
    return _wrap(Form, alpha.n, alpha.degree, _contract(v, _d(a, alpha.n), acc), dx * da)


def vf_bracket(x: MultiField, y: MultiField) -> MultiField:
    """Vector-field bracket: [x,y]^i = sum_j x^j d_j y^i - y^j d_j x^i."""
    if x.degree != 1 or y.degree != 1:
        raise ValueError("vf_bracket needs vector fields")
    if x.n != y.n:
        raise ValueError("dimension mismatch in vf_bracket")
    dx, ix = _ints(x.comps)
    dy, iy = _ints(y.comps)
    acc: dict = {}
    # sign * a^j d_j b^i, for (a, b, sign) = (x, y, +1) and (y, x, -1)
    for a, b, sign in ((ix, iy, 1), (iy, ix, -1)):
        for (j,), p1 in a.items():
            lowered = _LOWER[j]
            for i, p2 in b.items():
                dp2 = {lowered[m]: c * m[j] for m, c in p2.items() if m[j]}
                if dp2:
                    _add_products(acc, i, p1, dp2, sign)
    return _wrap(MultiField, x.n, 1, acc, dx * dy)


def poincare_homotopy(alpha: Form, c=1) -> Form:
    """c * K(alpha), for a scalar c (default 1), with K the homotopy operator:
    d K + K d = identity on polynomial forms of form-degree >= 1 (and on
    0-forms up to the constant term).  K of a 0-form is zero by convention.
    Each term is scaled once by L/(|mu|+p), L the lcm of the |mu|+p, and
    the Euler field's x_i d/dx_i at position j raises exponent i with sign
    (-1)^j * c.numerator, all as ints over den * L * c.denominator."""
    if alpha.degree == 0:
        return Form.zero(alpha.n, 0)
    p = alpha.degree
    c = frac(c)
    den, a = _ints(alpha.comps)
    scale = lcm(*{sum(mono) + p for q in a.values() for mono in q})
    acc: dict = {}
    for idx, q in a.items():
        scaled = [(mono, v * (scale // (sum(mono) + p))) for mono, v in q.items()]
        for j, i in enumerate(idx):
            s, raised = -c.numerator if j % 2 else c.numerator, _RAISE[i]
            poly = acc.setdefault(idx[:j] + idx[j + 1:], {})
            for mono, v in scaled:
                m = raised[mono]
                poly[m] = poly.get(m, 0) + s * v
    return _wrap(Form, alpha.n, p - 1, acc, den * scale * c.denominator)


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
