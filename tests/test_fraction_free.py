"""The fraction-free form calculus against Fraction-valued oracles.

The oracles below are the Fraction-valued wedge, d, contraction, homotopy
operator K, Lie derivative, linear combination, vector-field bracket and
infinitesimal generators that `polyform` and the former
multivector-field batch of `action` used before they ran on ints over one
common denominator; `polyform.contraction_chains` is checked against the
oracle contraction of the oracle generators, and the Poincare route's
scaled K and one-accumulator residual against K, d and linear combinations
of the oracles.  Each oracle streams Fraction terms into a dict and builds
its result with the validating public constructors.

Equality alone cannot catch an int that leaks into a result, since it
compares equal to its Fraction: every result is also checked to hold only
Fraction coefficients.  On integral so(5) input the operators make no
Fraction arithmetic call at all, and the whole Poincare route, recheck
included, makes none and leaves the ints three times per kernel element.

The exit `_wrap` is checked against `oracle_wrap`, the per-term
comprehension it replaced, on every result of the so(5) construction and
of rational operators on R^3 and R^4: no zero is stored, and equal values
inside one result are one shared Fraction object.

The exponent move tables that the kernels share are checked entry by entry
against the slices they replace, the oracles still match once the tables
hold monomials of another dimension, and a corrupted entry fails them.
"""

import os
import random
from fractions import Fraction
from math import lcm, prod
from operator import add

import pytest

import momentkit.polyform
from momentkit.action import LieAction, infinitesimal_generator
from momentkit.cli import catalog_action, main
from momentkit.lie_core import LieAlgebra, StructureError, sort_with_sign
from momentkit.moment import (MomentMap, _checked, construct_poincare, defining_residuals,
                              zeta)
from momentkit.polyform import (Form, MultiField, Poly, contract, contraction_chains,
                                exterior_d, exterior_d_plus, lie_derivative,
                                poincare_homotopy, vf_bracket, wedge)

from support import GOLDEN, so5_action


# ---------------------------------------------------------------------------
# Fraction-valued oracles
# ---------------------------------------------------------------------------

def oracle_build(cls, n, degree, terms):
    """Sum of (unsorted index tuple, monomial, Fraction) terms."""
    acc = {}
    for idx, mono, c in terms:
        sign, key = sort_with_sign(idx)
        if sign:
            poly = acc.setdefault(key, {})
            poly[mono] = poly.get(mono, Fraction(0)) + sign * c
    return cls(n, degree, {key: Poly(n, poly) for key, poly in acc.items()})


def oracle_linear_combination(cls, n, degree, pairs):
    return oracle_build(cls, n, degree, (
        (idx, mono, Fraction(c) * a)
        for c, x in pairs for idx, p in x.comps.items() for mono, a in p.terms.items()))


def oracle_wedge(a, b):
    return oracle_build(type(a), a.n, a.degree + b.degree, (
        (i1 + i2, tuple(map(add, m1, m2)), c1 * c2)
        for i1, p1 in a.comps.items()
        for i2, p2 in b.comps.items() if set(i1).isdisjoint(i2)
        for m1, c1 in p1.terms.items()
        for m2, c2 in p2.terms.items()))


def oracle_d(alpha):
    return oracle_build(Form, alpha.n, alpha.degree + 1, (
        ((i,) + idx, mono[:i] + (e - 1,) + mono[i + 1:], c * e)
        for idx, p in alpha.comps.items()
        for mono, c in p.terms.items()
        for i, e in enumerate(mono) if e and i not in idx))


def oracle_contract(field, alpha):
    def terms():
        for t, q in field.comps.items():
            for idx, p in alpha.comps.items():
                rest = tuple(i for i in idx if i not in t)
                if len(rest) + len(t) != len(idx):
                    continue
                sign = sort_with_sign(t + rest)[0]
                for m1, c1 in q.terms.items():
                    for m2, c2 in p.terms.items():
                        yield rest, tuple(map(add, m1, m2)), sign * c1 * c2
    return oracle_build(Form, alpha.n, alpha.degree - field.degree, terms())


def oracle_lie_derivative(x, alpha):
    if alpha.degree == 0:
        return oracle_contract(x, oracle_d(alpha))
    return oracle_linear_combination(Form, alpha.n, alpha.degree, (
        (1, oracle_d(oracle_contract(x, alpha))), (1, oracle_contract(x, oracle_d(alpha)))))


def oracle_vf_bracket(x, y):
    return oracle_build(MultiField, x.n, 1, (
        (i, tuple(map(add, m1, m2[:j] + (m2[j] - 1,) + m2[j + 1:])), sign * c1 * c2 * m2[j])
        for a, b, sign in ((x, y, 1), (y, x, -1))
        for (j,), p1 in a.comps.items()
        for i, p2 in b.comps.items()
        for m2, c2 in p2.terms.items() if m2[j]
        for m1, c1 in p1.terms.items()))


def oracle_homotopy(alpha):
    p = alpha.degree
    return oracle_build(Form, alpha.n, max(p - 1, 0), (
        (idx[:j] + idx[j + 1:], mono[:i] + (mono[i] + 1,) + mono[i + 1:],
         (-c if j % 2 else c) / (sum(mono) + p))
        for idx, poly in alpha.comps.items()
        for mono, c in poly.terms.items()
        for j, i in enumerate(idx)))


def oracle_generators(action, mvs):
    """Each distinct index tuple's wedge, built on the shared prefix stack,
    times each coefficient, summed per multivector in Fractions."""
    n = action.ambient_dim
    users = {}
    for a, mv in enumerate(mvs):
        for idx, c in mv.items():
            if c:
                users.setdefault(idx, []).append((a, Fraction(c)))
    terms = [[] for _ in mvs]
    stack, prev = [MultiField(n, 0, {(): Poly.const(n, 1)})], ()
    for idx in sorted(users):
        shared = 0
        while shared < min(len(prev), len(idx)) and prev[shared] == idx[shared]:
            shared += 1
        del stack[shared + 1:]
        for t in idx[shared:]:
            stack.append(oracle_wedge(stack[-1], action.fields[t]))
        prev = idx
        for a, c in users[idx]:
            terms[a] += [(key, mono, c * x) for key, p in stack[-1].comps.items()
                         for mono, x in p.terms.items()]
    return [oracle_build(MultiField, n, len(next(iter(mv))) if mv else 0, t)
            for mv, t in zip(mvs, terms)]


# ---------------------------------------------------------------------------
# seeded random forms and fields with denominators 1..6
# ---------------------------------------------------------------------------

def random_terms(rng, n, p, max_degree, count):
    terms = []
    for _ in range(count):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        terms.append((c, tuple(exps), tuple(sorted(rng.sample(range(n), p)))))
    return terms


def random_graded(rng, cls, n, p, max_degree=2):
    """A random form or field; one in six is zero, and repeated terms with
    opposite coefficients cancel in from_terms."""
    if rng.random() < 1 / 6:
        return cls.zero(n, p)
    terms = random_terms(rng, n, p, max_degree, rng.randint(1, 5))
    if rng.random() < 0.3:
        terms += [(-c, mono, idx) for c, mono, idx in terms[:2]]
    return cls.from_terms(n, p, terms)


def assert_fraction_valued(x):
    for p in x.comps.values():
        assert p.terms and all(type(c) is Fraction and c for c in p.terms.values())


def assert_same(got, want):
    assert got == want
    assert_fraction_valued(got)


def test_operators_match_the_fraction_oracles_on_random_input():
    rng = random.Random(2031)
    seen = {"zero": 0, "rational": 0}
    for _ in range(60):
        n = rng.choice((3, 4))
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = random_graded(rng, Form, n, p)
        b = random_graded(rng, Form, n, q)
        x = random_graded(rng, MultiField, n, 1)
        y = random_graded(rng, MultiField, n, 1)
        f = random_graded(rng, MultiField, n, rng.randint(0, p))
        zero_form = Form(n, 0, {(): Poly(n, {m: c for c, m, _ in random_terms(rng, n, 0, 2, 3)})})
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(3)]
        a2 = random_graded(rng, Form, n, p)
        results = [
            (wedge(a, b), oracle_wedge(a, b)),
            (wedge(x, y), oracle_wedge(x, y)),
            (exterior_d(a), oracle_d(a)),
            (contract(f, a), oracle_contract(f, a)),
            (poincare_homotopy(a), oracle_homotopy(a)),
            (lie_derivative(x, a), oracle_lie_derivative(x, a)),
            (vf_bracket(x, y), oracle_vf_bracket(x, y)),
            (wedge(a, zero_form), oracle_wedge(a, zero_form)),
            (Form.linear_combination(n, p, zip(cs, (a, a2, a))),
             oracle_linear_combination(Form, n, p, zip(cs, (a, a2, a)))),
            (a - a, Form.zero(n, p)),
            (a * cs[0], oracle_linear_combination(Form, n, p, [(cs[0], a)])),
        ]
        for got, want in results:
            assert_same(got, want)
            seen["zero"] += got.is_zero()
            seen["rational"] += any(c.denominator > 1 for s in got.comps.values()
                                    for c in s.terms.values())
    assert min(seen.values()) >= 20, seen


def test_mixed_denominator_linear_combinations():
    n = 3
    a = Form.from_terms(n, 1, [(Fraction(1, 2), (1, 0, 0), (0,)), (Fraction(1, 3), (0, 0, 0), (1,))])
    b = Form.from_terms(n, 1, [(Fraction(1, 4), (1, 0, 0), (0,)), (Fraction(5, 6), (0, 1, 0), (2,))])
    pairs = [(Fraction(2, 5), a), (Fraction(-4, 5), b), (Fraction(3, 7), a), (0, b)]
    assert_same(Form.linear_combination(n, 1, pairs),
                oracle_linear_combination(Form, n, 1, pairs))
    # a/2 - b - c cancels term by term over the common denominator 12
    cancel = [(Fraction(1, 2), a), (-1, b), (-1, Form.from_terms(n, 1, [
        (Fraction(-5, 6), (0, 1, 0), (2,)), (Fraction(1, 6), (0, 0, 0), (1,))]))]
    assert Form.linear_combination(n, 1, cancel).is_zero()


def test_generators_of_rational_fields_match_the_oracle():
    # fields, omega and multivectors with denominators 1..6, shared and
    # unsorted tuples, and terms that cancel between tuples
    rng = random.Random(2034)
    for dim, n in ((3, 3), (4, 4), (5, 3)):
        fields = [random_graded(rng, MultiField, n, 1) for _ in range(dim)]
        omega = Form.from_terms(n, n, random_terms(rng, n, n, 2, rng.randint(1, 5)))
        assert not omega.is_zero()
        action = LieAction(LieAlgebra(dim), fields, omega)
        mvs = []
        for k in range(min(dim, n) + 1):
            for _ in range(3):
                tuples = [tuple(rng.sample(range(dim), k)) for _ in range(3)]
                mvs.append({t: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for t in tuples})
        oracle = oracle_generators(action, mvs)
        for got, mv, want in zip(contraction_chains(fields, omega, mvs), mvs, oracle):
            assert_same(infinitesimal_generator(action, mv), want)
            assert_same(got, oracle_contract(want, omega))


def denominator(x):
    """The lcm of the denominators of a form's or field's coefficients."""
    return lcm(*(c.denominator for p in x.comps.values() for c in p.terms.values()))


def test_the_poincare_route_matches_the_oracles_on_rational_input():
    # fields and omega with denominators 1..6, so the chain's int stack
    # carries d_omega * d_{V_t1} * ... * d_{V_tk} unreduced; then the scaled K
    # and the one-accumulator residual d f + c * rhs, for f = -zeta(k) K(rhs)
    # and for a random f and c
    rng = random.Random(2035)
    seen = {"unreduced": 0, "rational": 0, "nonzero residual": 0}
    for dim, n in ((3, 3), (4, 4), (4, 5)):
        fields = [random_graded(rng, MultiField, n, 1) for _ in range(dim)]
        omega = Form.from_terms(n, n, random_terms(rng, n, n, 2, rng.randint(2, 5)))
        action = LieAction(LieAlgebra(dim), fields, omega)
        mvs = [{tuple(rng.sample(range(dim), k)): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                for _ in range(3)}
               for k in range(1, min(dim, n - 1) + 1) for _ in range(4)]
        oracle = [oracle_contract(v, omega) for v in oracle_generators(action, mvs)]
        for mv, rhs, want in zip(mvs, contraction_chains(fields, omega, mvs), oracle):
            assert_same(rhs, want)
            k = len(next(iter(mv)))
            seen["unreduced"] += any(
                denominator(omega) * prod(denominator(fields[t]) for t in idx)
                > denominator(oracle_contract(oracle_generators(action, [{idx: 1}])[0], omega))
                for idx in mv)
            f = poincare_homotopy(rhs, -zeta(k))
            assert_same(f, oracle_linear_combination(Form, n, n - k - 1,
                                                     [(-zeta(k), oracle_homotopy(rhs))]))
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
            assert_same(poincare_homotopy(rhs, c), oracle_linear_combination(
                Form, n, n - k - 1, [(c, oracle_homotopy(rhs))]))
            g = random_graded(rng, Form, n, n - k - 1)
            for alpha, z in ((f, zeta(k)), (g, c)):
                got = exterior_d_plus(alpha, z, rhs)
                assert_same(got, oracle_linear_combination(
                    Form, n, n - k, [(1, oracle_d(alpha)), (z, rhs)]))
                seen["nonzero residual"] += not got.is_zero()
                seen["rational"] += denominator(got) > 1
    assert min(seen.values()) >= 10, seen


def test_a_changed_coefficient_fails_the_recheck_naming_its_value():
    # double one coefficient whose term d does not kill: the residuals still
    # equal the oracle's d f + zeta(k) rhs, and only that value's is nonzero
    action = catalog_action("so4_r4")
    components = construct_poincare(action).components
    k, a, idx, mono = next((k, a, idx, mono) for k in sorted(components)
                           for a, f in enumerate(components[k])
                           for idx, p in sorted(f.comps.items()) for mono in sorted(p.terms)
                           if any(e and i not in idx for i, e in enumerate(mono)))
    f = components[k][a]
    components[k][a] = f + Form.from_terms(f.n, f.degree, [(f.comps[idx].terms[mono], mono, idx)])
    mm = MomentMap(action, components)
    nonzero = []
    for (kk, b), r in defining_residuals(mm).items():
        value = components[kk][b]
        assert_same(r, oracle_linear_combination(Form, f.n, value.degree + 1, [
            (1, oracle_d(value)), (zeta(kk), action.contractions([kk])[kk][b])]))
        if not r.is_zero():
            nonzero.append((kk, b))
    assert nonzero == [(k, a)]
    with pytest.raises(StructureError) as err:
        _checked(mm, "homotopy-operator")
    assert str(err.value) == ("homotopy-operator construction failed its defining-equation "
                              f"recheck at f_{k}({action.kernel(k).names[a]})")


# ---------------------------------------------------------------------------
# the so(5) kernel, degrees 1..4
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def so5():
    return so5_action()


def test_so5_kernel_matches_the_oracles(so5):
    rng = random.Random(2033)
    for k in (1, 2, 3, 4):
        mvs = so5.kernel(k).multivectors
        contractions = contraction_chains(so5.fields, so5.omega, mvs)
        for got, want in zip(contractions, oracle_generators(so5, mvs)):
            assert_same(got, oracle_contract(want, so5.omega))
        for a in rng.sample(range(len(mvs)), min(12, len(mvs))):
            rhs = contractions[a]
            assert_same(rhs, so5.contractions([k])[k][a])
            f = poincare_homotopy(rhs)
            assert_same(f, oracle_homotopy(rhs))
            assert_same(exterior_d(f), oracle_d(f))
            v = so5.fields[rng.randrange(len(so5.fields))]
            assert_same(lie_derivative(v, f), oracle_lie_derivative(v, f))


# ---------------------------------------------------------------------------
# the exponent move tables
# ---------------------------------------------------------------------------

def test_every_move_table_entry_is_its_slice(so5):
    # filled by two dimensions: the so(5) Poincare route on R^5 and random
    # forms and fields on R^3
    construct_poincare(so5)
    rng = random.Random(2037)
    for _ in range(10):
        a = random_graded(rng, Form, 3, rng.randint(1, 3))
        x = random_graded(rng, MultiField, 3, 1)
        lie_derivative(x, a), poincare_homotopy(a), vf_bracket(x, x)
    lengths = set()
    for table, step in ((momentkit.polyform._RAISE, 1), (momentkit.polyform._LOWER, -1)):
        assert table
        for i, moves in table.items():
            for m, moved in moves.items():
                assert type(moved) is tuple and len(moved) == len(m)
                assert all(type(e) is int and e >= 0 for e in moved)
                assert moved == m[:i] + (m[i] + step,) + m[i + 1:]
                lengths.add(len(m))
    assert lengths >= {3, 5}


def test_warm_move_tables_keep_the_oracles_on_rational_input(so5):
    # after the tables hold so(5)'s 5-variable monomials: forms and fields on
    # R^3 and R^4 with denominators 1..6, fields with constant and nonlinear
    # terms, against the Fraction oracles
    construct_poincare(so5)
    rng = random.Random(2036)
    seen = {"constant": 0, "nonlinear": 0, "rational": 0}
    for _ in range(40):
        n = rng.choice((3, 4))
        a = random_graded(rng, Form, n, rng.randint(1, n))
        x, y = (random_graded(rng, MultiField, n, 1) for _ in "xy")
        for field in (x, y):
            monos = [m for p in field.comps.values() for m in p.terms]
            seen["constant"] += any(sum(m) == 0 for m in monos)
            seen["nonlinear"] += any(sum(m) > 1 for m in monos)
        for got, want in ((contract(x, a), oracle_contract(x, a)),
                          (exterior_d(a), oracle_d(a)),
                          (poincare_homotopy(a), oracle_homotopy(a)),
                          (lie_derivative(x, a), oracle_lie_derivative(x, a)),
                          (vf_bracket(x, y), oracle_vf_bracket(x, y)),
                          (wedge(x, y), oracle_wedge(x, y))):
            assert_same(got, want)
            seen["rational"] += denominator(got) > 1
    assert min(seen.values()) >= 10, seen


X1_D1 = MultiField.from_terms(3, 1, [(1, (1, 0, 0), (0,))])  # x1 d/dx1


@pytest.mark.parametrize("table, i, build, oracle", [
    ("_RAISE", 0, lambda a: contract(X1_D1, a), lambda a: oracle_contract(X1_D1, a)),
    ("_LOWER", 1, exterior_d, oracle_d)], ids=["raise", "lower"])
def test_a_corrupted_move_table_entry_fails_the_oracles(table, i, build, oracle):
    # alpha = 1/2 x2 dx1: x1 d/dx1 . alpha raises exponent 0 of (0, 1, 0), d lowers
    # exponent 1; with that one entry wrong the result is no longer the
    # oracle's, and it is again once the entry is restored
    alpha = Form.from_terms(3, 1, [(Fraction(1, 2), (0, 1, 0), (0,))])
    moves = getattr(momentkit.polyform, table)[i]
    mono = (0, 1, 0)
    kept = moves[mono]
    moves[mono] = (2, 1, 0)
    try:
        assert build(alpha) != oracle(alpha)
    finally:
        moves[mono] = kept
    assert_same(build(alpha), oracle(alpha))
    assert not build(alpha).is_zero()



# ---------------------------------------------------------------------------
# the exit: one Fraction per distinct value of a result
# ---------------------------------------------------------------------------

def oracle_wrap(cls, n, degree, acc, den):
    """The exit as a per-term comprehension: one new Fraction per term."""
    return cls(n, degree, {key: Poly(n, {m: Fraction(v, den) for m, v in poly.items() if v})
                           for key, poly in acc.items()})


def checked_wraps(monkeypatch):
    """Wrap every _wrap call so that each result is checked against
    oracle_wrap on the same ints; returns the list of (result, shared), where
    shared counts the terms that reuse a value met earlier in the result."""
    seen = []
    wrap = momentkit.polyform._wrap

    def checked(cls, n, degree, acc, den):
        want = oracle_wrap(cls, n, degree, acc, den)
        got = wrap(cls, n, degree, acc, den)
        assert_same(got, want)
        objects = {}  # value -> the one object that holds it
        shared = 0
        for p in got.comps.values():
            for c in p.terms.values():
                shared += c in objects
                assert objects.setdefault(c, c) is c
        seen.append((got, shared))
        return got

    monkeypatch.setattr(momentkit.polyform, "_wrap", checked)
    return seen


def test_so5_construct_wraps_one_fraction_per_value(monkeypatch, capsys):
    seen = checked_wraps(monkeypatch)
    so5 = os.path.join(GOLDEN, "so5_seed1.mmk")
    assert main(["construct", so5, "--k", "1,2,3,4", "--format", "machine"]) == 0
    capsys.readouterr()
    assert len(seen) >= 3 * 256
    # most terms of a so(5) value share their coefficient with another term
    assert sum(shared for _, shared in seen) > sum(
        len(p.terms) for got, _ in seen for p in got.comps.values()) // 2


def test_rational_results_wrap_one_fraction_per_value(monkeypatch):
    # forms and fields on R^3 and R^4 with denominators 1..6 and negative
    # values, through every operator that wraps
    seen = checked_wraps(monkeypatch)
    rng = random.Random(2038)
    for _ in range(40):
        n = rng.choice((3, 4))
        a = random_graded(rng, Form, n, rng.randint(1, n))
        x, y = (random_graded(rng, MultiField, n, 1) for _ in "xy")
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        wedge(a, a), wedge(x, y), exterior_d(a), contract(x, a), lie_derivative(x, a)
        vf_bracket(x, y), poincare_homotopy(a, c), a * c - a
        exterior_d_plus(poincare_homotopy(a), c, a)
        Form.from_terms(n, 1, random_terms(rng, n, 1, 2, 6))
    results = [got for got, _ in seen if not got.is_zero()]
    values = [c for got in results for p in got.comps.values() for c in p.terms.values()]
    assert len(results) > 200
    assert any(c < 0 for c in values) and any(c.denominator > 1 for c in values)
    assert sum(shared for _, shared in seen) > 50


# ---------------------------------------------------------------------------
# no Fraction arithmetic on integral input
# ---------------------------------------------------------------------------

COUNTED = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__truediv__", "__rtruediv__", "__neg__")


def count_fraction_arithmetic(monkeypatch):
    calls = {name: 0 for name in COUNTED}

    def counting(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)
        return counted

    for name in COUNTED:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    return calls


def test_integral_so5_input_makes_no_fraction_arithmetic(so5, monkeypatch):
    kernels = []
    for k in (1, 2, 3, 4):
        for mv in so5.kernel(k).multivectors:
            scale = lcm(*(Fraction(c).denominator for c in mv.values()))
            kernels.append({t: int(c * scale) for t, c in mv.items()})
    omega, fields = so5.omega, so5.fields
    sample = kernels[::9]
    integral = contraction_chains(so5.fields, so5.omega, sample)
    calls = count_fraction_arithmetic(monkeypatch)
    generated = contraction_chains(so5.fields, so5.omega, sample)
    for rhs in generated:
        f = poincare_homotopy(rhs)
        exterior_d(rhs)
        wedge(f, rhs)
        for v in fields[:3]:
            lie_derivative(v, rhs)
        Form.linear_combination(omega.n, rhs.degree, [(3, rhs), (-2, rhs), (1, rhs)])
        exterior_d(f)
    wedge(fields[0], fields[1])
    contract(fields[0], omega)
    lie_derivative(fields[0], omega)
    counts = dict(calls)
    monkeypatch.undo()
    assert generated == integral
    assert counts == {name: 0 for name in COUNTED}


@pytest.mark.parametrize("build, elements", [(so5_action, 256),
                                              (lambda: catalog_action("so4_r4"), 26)],
                         ids=["so5_seed1", "so4_r4"])
def test_the_poincare_route_leaves_the_ints_three_times_per_element(build, elements,
                                                                     monkeypatch):
    # on a new action with its kernels built: the chain, -zeta(k) K and the
    # defining-equation recheck each wrap once per kernel basis element, and
    # the whole route makes no Fraction arithmetic call
    action = build()
    degrees = range(1, action.plectic_degree() + 1)
    assert sum(len(action.kernel(k).multivectors) for k in degrees) == elements
    wraps = []
    wrap = momentkit.polyform._wrap

    def counted(*args):
        wraps.append(args[0])
        return wrap(*args)

    monkeypatch.setattr(momentkit.polyform, "_wrap", counted)
    calls = count_fraction_arithmetic(monkeypatch)
    mm = construct_poincare(action)
    counts = dict(calls)
    monkeypatch.undo()
    assert len(wraps) == 3 * elements
    assert set(wraps) == {Form}
    assert counts == {name: 0 for name in COUNTED}
    assert all(r.is_zero() for r in defining_residuals(mm).values())
    for k in degrees:
        for f in mm.component(k):
            assert_fraction_valued(f)


def test_the_fraction_counter_sees_fraction_arithmetic(monkeypatch):
    calls = count_fraction_arithmetic(monkeypatch)
    half = Fraction(1, 2)
    assert (half * 2, half + half, 1 - half, half / 3, -half) == (
        1, 1, half, Fraction(1, 6), Fraction(-1, 2))
    counts = dict(calls)
    monkeypatch.undo()
    assert counts["__mul__"] == counts["__add__"] == counts["__rsub__"] == 1
    assert counts["__truediv__"] == counts["__neg__"] == 1
