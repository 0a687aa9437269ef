"""Polynomial differential forms and multivector fields on R^n.

`oracle_format_poly` is the per-term renderer that `format_poly` replaced,
kept as the oracle for its monomial table."""

import os
import random
import re
from fractions import Fraction
from functools import reduce

import pytest

from momentkit.cli import main
from momentkit.lie_core import format_sum, format_term
from momentkit.polyform import (_MONO_TEXTS, Form, MultiField, Poly, contract,
                                contraction_chains, exterior_d, exterior_d_plus,
                                format_field, format_form, format_poly, lie_derivative,
                                poincare_homotopy, vf_bracket, wedge)

from support import (GOLDEN, PROBLEMS, contract_in_turn, euler_homotopy, random_form,
                     vector_field, volume_form)


def random_poly(rng, n, max_degree, max_coeff=6):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        if sum(exps) > max_degree:
            continue
        c = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return Poly(n, terms)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_degree_and_diff():
    p = Poly(3, {(2, 1, 0): 1, (0, 1, 0): Fraction(3, 2)})  # x1^2*x2 + 3/2*x2
    dp = exterior_d(Form(3, 0, {(): p})).comps
    assert dp[(0,)].eval([2, 5, 0]) == 20           # d/dx1 = 2*x1*x2
    assert dp[(1,)] == Poly(3, {(2, 0, 0): 1, (0, 0, 0): Fraction(3, 2)})
    assert p.degree() == 3 and Poly(3).degree() == -1
    assert Poly(3, {(1, 0, 0): 0}).is_zero()


def test_poly_eval_matches_horner_by_hand():
    p = Poly(2, {(2, 1): Fraction(3, 2), (0, 0): Fraction(-1)})
    assert p.eval([2, 3]) == Fraction(3, 2) * 4 * 3 - 1


def test_the_public_constructors_refuse_malformed_input():
    one = Poly.const(3, 1)
    for comps, error, message in (
            ({(1, 0): one}, ValueError, r"key \(1, 0\) is not an increasing 2-tuple"),
            ({(0, 3): one}, ValueError, r"key \(0, 3\) out of range for n=3"),
            ({(0, 1): 1}, TypeError, r"component \(0, 1\) is not a Poly in 3 variables"),
            ({(0, 1): Poly.const(4, 1)}, TypeError, r"\(0, 1\) is not a Poly in 3 variables")):
        with pytest.raises(error, match=message):
            Form(3, 2, comps)
    with pytest.raises(ValueError, match="monomial length mismatch"):
        Poly(3, {(1, 0): 1})


def test_the_public_constructors_refuse_exponents_that_are_not_ints_at_least_zero():
    # x1^-1 dx(1) would reach K's scale |mu| + p = 0 in poincare_homotopy
    for mono in ((-1, 0), (0.5, 0), (1.5, 0), (True, 0)):
        message = re.escape(f"monomial {mono} has an exponent that is not an int >= 0")
        for build in (lambda: Poly(2, {mono: 1}),
                      lambda: Form.from_terms(2, 1, [(1, mono, (0,))]),
                      lambda: MultiField.from_terms(2, 1, [(1, mono, (1,))])):
            with pytest.raises(ValueError, match=message):
                build()


def test_format_poly_ordering():
    p = Poly(3, {(1, 0, 0): Fraction(-1), (2, 0, 1): Fraction(3, 2)})
    assert format_poly(p) == "-x1 + 3/2*x1^2*x3"
    assert format_poly(Poly(3)) == "0"


# ---------------------------------------------------------------------------
# forms: wedge, d, contraction
# ---------------------------------------------------------------------------

def test_wedge_anticommutes_on_one_forms():
    rng = random.Random(3)
    n = 4
    a = random_form(rng, n, 1, 2)
    b = random_form(rng, n, 1, 2)
    assert (wedge(a, b) + wedge(b, a)).is_zero()
    assert wedge(a, a).is_zero()


def test_wedge_associativity_random():
    rng = random.Random(5)
    n = 4
    for _ in range(10):
        a = random_form(rng, n, 1, 1)
        b = random_form(rng, n, 1, 1)
        c = random_form(rng, n, 2, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_d_squared_is_zero_random():
    rng = random.Random(9)
    for n in (3, 4):
        for p in range(0, n):
            for _ in range(5):
                a = random_form(rng, n, p, 3)
                assert exterior_d(exterior_d(a)).is_zero(), (n, p)


def test_d_leibniz_rule():
    rng = random.Random(17)
    n = 4
    for _ in range(8):
        a = random_form(rng, n, 1, 2)
        b = random_form(rng, n, 2, 2)
        lhs = exterior_d(wedge(a, b))
        rhs = wedge(exterior_d(a), b) - wedge(a, exterior_d(b))  # deg a = 1
        assert lhs == rhs


def test_contraction_applies_first_factor_first():
    # (X1 ^ X2) _| alpha = iota_{X2} iota_{X1} alpha = alpha(X1, X2, ...)
    n = 3
    x = vector_field(n, [Poly.const(n, 1), Poly.const(n, 0), Poly.const(n, 0)])
    y = vector_field(n, [Poly.const(n, 0), Poly.const(n, 1), Poly.const(n, 0)])
    vol = volume_form(n)
    xy = wedge(x, y)
    res = contract(xy, vol)             # should be dx3 with + sign
    assert res == Form.from_terms(n, 1, [(1, (0, 0, 0), (2,))])
    yx = wedge(y, x)
    assert contract(yx, vol) == Form.from_terms(n, 1, [(-1, (0, 0, 0), (2,))])


def test_contraction_of_basis_covector():
    # iota_{d/dx_m} dx_J = (-1)^pos dx_{J minus m}
    n = 4
    f = vector_field(n, [Poly.const(n, 0), Poly.const(n, 0),
                          Poly.const(n, 1), Poly.const(n, 0)])  # d/dx3
    alpha = Form.from_terms(n, 3, [(1, (0,) * 4, (0, 2, 3))])       # dx(1,3,4)
    # position of index 2 in (0,2,3) is 1 -> sign (-1)^1
    assert contract(f, alpha) == Form.from_terms(n, 2, [(-1, (0,) * 4, (0, 3))])


def test_contracting_a_wedge_of_fields_contracts_each_field_in_turn():
    # (X_1 ^ .. ^ X_k) _| alpha = iota_{X_k} .. iota_{X_1} alpha for 2- and
    # 3-fields built by wedge from seeded fields with rational polynomial
    # coefficients, on forms of every degree they reach
    rng = random.Random(4402)
    nonzero = cases = 0
    for n in (3, 4, 5):
        for k in (2, 3):
            for p in range(k, n + 1):
                for _ in range(4):
                    xs = [MultiField(n, 1, random_form(rng, n, 1, 2).comps) for _ in range(k)]
                    a = random_form(rng, n, p, 2)
                    got = contract(reduce(wedge, xs), a)
                    assert got == contract_in_turn(xs, a), (n, k, p)
                    nonzero += not got.is_zero()
                    cases += 1
    assert nonzero > cases // 2


def test_contraction_degree_overflow_raises():
    n = 3
    f = wedge(wedge(vector_field(n, [Poly.const(n, 1)] + [Poly.const(n, 0)] * 2),
                    vector_field(n, [Poly.const(n, 0), Poly.const(n, 1), Poly.const(n, 0)])),
              vector_field(n, [Poly.const(n, 0)] * 2 + [Poly.const(n, 1)]))
    alpha = Form.from_terms(n, 2, [(1, (0, 0, 0), (0, 1))])
    with pytest.raises(ValueError):
        contract(f, alpha)


# ---------------------------------------------------------------------------
# Lie derivative and vector field bracket
# ---------------------------------------------------------------------------

def test_cartan_magic_formula_random():
    rng = random.Random(23)
    n = 3
    for _ in range(6):
        x = vector_field(n, [random_poly(rng, n, 2) for _ in range(n)])
        a = random_form(rng, n, 2, 2)
        lhs = lie_derivative(x, a)
        rhs = exterior_d(contract(x, a)) + contract(x, exterior_d(a))
        assert lhs == rhs


def test_lie_derivative_commutator_identity():
    rng = random.Random(29)
    n = 3
    for _ in range(5):
        x = vector_field(n, [random_poly(rng, n, 1) for _ in range(n)])
        y = vector_field(n, [random_poly(rng, n, 1) for _ in range(n)])
        a = random_form(rng, n, 1, 2)
        lhs = lie_derivative(x, lie_derivative(y, a)) \
            - lie_derivative(y, lie_derivative(x, a))
        rhs = lie_derivative(vf_bracket(x, y), a)
        assert lhs == rhs


def test_vf_bracket_jacobi():
    rng = random.Random(31)
    n = 3
    x, y, z = (vector_field(n, [random_poly(rng, n, 1) for _ in range(n)])
               for _ in range(3))
    s = vf_bracket(x, vf_bracket(y, z)) + vf_bracket(y, vf_bracket(z, x)) \
        + vf_bracket(z, vf_bracket(x, y))
    assert s.is_zero()


# ---------------------------------------------------------------------------
# homotopy operator
# ---------------------------------------------------------------------------

def test_homotopy_identity_many_random_forms():
    # d(K alpha) + K(d alpha) = alpha for form degree >= 1
    rng = random.Random(41)
    cases = 0
    for n in (3, 4):
        for p in (1, 2, 3, 4):
            if p > n:
                continue
            for _ in range(30):
                a = random_form(rng, n, p, rng.randint(0, 6))
                lhs = exterior_d(poincare_homotopy(a)) \
                    + poincare_homotopy(exterior_d(a))
                assert lhs == a, (n, p)
                cases += 1
    assert cases >= 200


@pytest.mark.parametrize("c", [1, -1, Fraction(3, 2), Fraction(-2, 7)])
def test_scaled_homotopy_is_the_term_by_term_euler_contraction(c):
    # seeded forms with denominators 1..3 and monomials of degree 0..3, of
    # every degree p = 0..n on R^1..R^5: c K(alpha) is the oracle's, and
    # d(c K alpha) + c K(d alpha) = c alpha for p >= 1, while on a 0-form
    # c K(d alpha) = c (alpha - alpha(0))
    rng = random.Random(4401)
    for n in range(1, 6):
        for p in range(n + 1):
            for _ in range(4):
                a = random_form(rng, n, p, 3)
                k = poincare_homotopy(a, c)
                assert k == euler_homotopy(a, c), (n, p)
                if p:
                    assert exterior_d(k) + poincare_homotopy(exterior_d(a), c) == a * c
                else:
                    at_0 = a.comps[()].eval((0,) * n) if a.comps else 0
                    constant = Form(n, 0, {(): Poly.const(n, at_0)})
                    assert poincare_homotopy(exterior_d(a), c) == (a - constant) * c


def test_homotopy_vanishes_on_zero_forms():
    p = Poly(3, {(2, 0, 0): Fraction(1)})
    assert poincare_homotopy(Form(3, 0, {(): p})).is_zero()


def test_homotopy_commutes_with_linear_field_derivatives():
    rng = random.Random(43)
    n = 3
    rot = vector_field(n, [Poly(n, {(0, 1, 0): Fraction(-1)}),
                            Poly(n, {(1, 0, 0): Fraction(1)}),
                            Poly(n)])
    for _ in range(6):
        a = random_form(rng, n, 2, 3)
        assert lie_derivative(rot, poincare_homotopy(a)) \
            == poincare_homotopy(lie_derivative(rot, a))


def test_primitive_of_volume_form():
    # K(dx1^dx2^dx3) = (1/3)(x1 dx2^dx3 - x2 dx1^dx3 + x3 dx1^dx2)
    third = Fraction(1, 3)
    k = poincare_homotopy(volume_form(3))
    expected = Form.from_terms(3, 2, [
        (third, (1, 0, 0), (1, 2)),
        (-third, (0, 1, 0), (0, 2)),
        (third, (0, 0, 1), (0, 1)),
    ])
    assert k == expected
    assert exterior_d(k) == volume_form(3)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_form_and_field():
    n = 3
    f = Form.from_terms(n, 1, [(1, (0, 0, 1), (0,)), (Fraction(-1, 2), (0, 0, 0), (1,))])
    assert format_form(f) == "x3*dx(1) - 1/2*dx(2)"
    v = vector_field(n, [Poly(n), Poly(n, {(0, 0, 1): Fraction(1)}),
                          Poly(n, {(0, 1, 0): Fraction(-1)})])
    assert format_field(v) == "x3*d/dx2 - x2*d/dx3"
    assert format_form(Form.zero(n, 2)) == "0"


def oracle_format_poly(p):
    """The per-term renderer that format_poly replaced: each term's sort key
    and factors computed from its monomial, every time."""
    terms = []
    for mono, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                   for i, e in enumerate(mono) if e]
        terms.append(format_term(str(c), "*".join(factors)))
    return format_sum(terms)


def test_format_poly_matches_the_per_term_renderer():
    # random rational polynomials in 1..5 variables, exponents up to 4
    rng = random.Random(2039)
    for _ in range(300):
        n = rng.randint(1, 5)
        p = Poly(n, {tuple(rng.randint(0, 4) for _ in range(n)):
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for _ in range(rng.randint(0, 8))})
        assert format_poly(p) == oracle_format_poly(p)


def test_every_monomial_text_entry_is_its_rendering(capsys):
    # warmed by the so(5) construction on R^5 and by random forms on R^3
    assert main(["construct", os.path.join(GOLDEN, "so5_seed1.mmk"), "--k", "1,2"]) == 0
    capsys.readouterr()
    rng = random.Random(2040)
    for _ in range(20):
        format_form(random_form(rng, 3, rng.randint(0, 3), 4))
    lengths = set()
    for mono, (key, text) in _MONO_TEXTS.items():
        assert key == (sum(mono), mono)
        assert text == "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                                for i, e in enumerate(mono) if e)
        lengths.add(len(mono))
    assert lengths >= {3, 5}


@pytest.mark.parametrize("mono, corrupt", [
    ((1, 0, 0), lambda entry: (entry[0], "x2")),
    ((0, 0, 2), lambda entry: ((3, (0, 0, 2)), entry[1]))], ids=["text", "key"])
def test_a_corrupted_monomial_entry_fails_a_report_golden(mono, corrupt, capsys):
    # so3_r3's report renders x1 alone and -1/3*x3^2 - 1/3*x2^2, so a wrong
    # text for x1 or a wrong sort key for x3^2 changes its bytes
    argv = ["report", os.path.join(PROBLEMS, "so3_r3.mmk"), "--format", "text"]
    with open(os.path.join(GOLDEN, "report_so3_r3.text.out"), encoding="utf-8") as fh:
        want = fh.read()
    assert main(argv) == 0 and capsys.readouterr().out == want
    kept = _MONO_TEXTS[mono]
    _MONO_TEXTS[mono] = corrupt(kept)
    try:
        assert main(argv) == 0 and capsys.readouterr().out != want
    finally:
        _MONO_TEXTS[mono] = kept
    assert main(argv) == 0 and capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# every operator keeps the invariants (zeros dropped on exit, no re-validation)
# ---------------------------------------------------------------------------

def assert_canonical(x):
    """x is what the validating constructors would build from its terms:
    increasing keys, no empty component, no zero coefficient."""
    for idx, p in x.comps.items():
        assert all(a < b for a, b in zip(idx, idx[1:])), idx
        assert p.terms, idx
        assert all(p.terms.values()), idx
    rebuilt = type(x)(x.n, x.degree, {idx: Poly(x.n, p.terms)
                                      for idx, p in x.comps.items()})
    assert rebuilt == x


def test_every_operator_result_is_canonical():
    rng = random.Random(53)
    n = 4
    seen_zero = 0
    for _ in range(12):
        a = random_form(rng, n, 1, 2)
        b = random_form(rng, n, 2, 2)
        c = random_form(rng, n, 1, 2)
        x = vector_field(n, [random_poly(rng, n, 1) for _ in range(n)])
        y = vector_field(n, [random_poly(rng, n, 2) for _ in range(n)])
        q = Form(n, 0, {(): random_poly(rng, n, 1)})
        results = [
            a + c, a - c, a - a, a + a * -1, -b, b * Fraction(3, 2), b * 0,
            wedge(b, q), wedge(b, q - q), q + q * -1, wedge(q, q), q - q, q * 0,
            wedge(a, c), wedge(a, a), wedge(a, b),
            wedge(x, y), wedge(x, x), exterior_d(b), exterior_d(exterior_d(a)),
            contract(x, b), contract(wedge(x, y), b), contract(x, a - a),
            poincare_homotopy(b), poincare_homotopy(exterior_d(a)),
            lie_derivative(x, a), lie_derivative(x, b),
            vf_bracket(x, y), vf_bracket(x, x),
            Form.linear_combination(n, 1, [(1, a), (2, c), (-1, a), (-2, c)]),
            Form.linear_combination(n, 2, [(0, b), (Fraction(1, 3), b), (-1, b)]),
            MultiField.linear_combination(n, 1, [(3, x), (-1, y), (1, y)]),
            Form.from_terms(n, 2, [(1, (0,) * n, (1, 0)), (1, (0,) * n, (0, 1)),
                                   (2, (1,) * n, (3, 2)), (5, (0,) * n, (2, 2))]),
        ]
        for r in results:
            assert_canonical(r)
            seen_zero += r.is_zero()
    assert seen_zero >= 12 * 8  # the cancelling cases really cancel


# ---------------------------------------------------------------------------
# zeros leave at the exit: inputs built to cancel inside each kernel
# ---------------------------------------------------------------------------

def test_cancellation_inside_each_kernel_leaves_no_zero():
    # each kernel may sum a coefficient to zero mid-way; the result still
    # stores no zero coefficient and no empty component, and an exact zero
    # is the empty form
    n = 3
    x1, x2, x3 = (Poly(n, {mono: 1}) for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    x1x3 = Poly(n, {(1, 0, 1): 1})
    one, minus_one = Poly.const(n, 1), Poly.const(n, -1)
    dx = [Form(n, 1, {(i,): one}) for i in range(n)]
    rot = vector_field(n, [Poly(n, {(0, 1, 0): -1}), x1, Poly(n)])  # x1 d/dx2 - x2 d/dx1
    v = vector_field(n, [x1, Poly(n, {(0, 1, 0): 2}), one])
    w = vector_field(n, [one, one, Poly(n)])
    omega = Form(n, 2, {(0, 1): one, (1, 2): x3})
    alpha = Form(n, 1, {(0,): x2, (1,): x1x3, (2,): x1})
    # d kills the exact part of beta = (x2 + x3^2) dx1 + x1 dx2
    beta = Form(n, 1, {(0,): Poly(n, {(0, 1, 0): 1, (0, 0, 2): 1}), (1,): x1})
    invariant = Form(n, 2, {(0, 1): x3})  # dx1 ^ dx2 times x3: L_rot kills it
    k_alpha = poincare_homotopy(Form(n, 2, {(0, 1): x3, (0, 2): Poly(n, {(1, 1, 0): 1})}))
    zeros = {
        "linear_combination": Form.linear_combination(n, 1, [(1, alpha), (-1, alpha)]),
        "from_terms": Form.from_terms(n, 2, [(1, (0,) * n, (0, 1)), (1, (0,) * n, (1, 0))]),
        "d d": exterior_d(exterior_d(alpha)),
        "d of exact": exterior_d(Form(n, 1, {(0,): x2, (1,): x1})),
        "exterior_d_plus": exterior_d_plus(alpha, Fraction(1, 2), exterior_d(alpha) * -2),
        "wedge": wedge(alpha, alpha),
        "contract": contract(w, wedge(dx[0], dx[2]) - wedge(dx[1], dx[2])),
        "contract 2-field": contract(MultiField(n, 2, {(0, 2): one, (1, 2): one}),
                                     wedge(dx[0], dx[2]) - wedge(dx[1], dx[2])),
        "K K": poincare_homotopy(k_alpha),
        "K times 0": poincare_homotopy(omega, 0),
        "lie_derivative": lie_derivative(rot, invariant),
        "vf_bracket": vf_bracket(v, v),
    }
    chains = contraction_chains([v, w], omega, [{(0, 0): 1}, {(0, 1): 1, (1, 0): 1}, {}])
    zeros.update({f"chain {a}": f for a, f in enumerate(chains)})
    for name, z in zeros.items():
        assert z.comps == {}, name
    partial = {
        "linear_combination": (
            Form.linear_combination(n, 1, [(1, alpha), (-1, Form(n, 1, {(2,): x1}))]),
            Form(n, 1, {(0,): x2, (1,): x1x3})),
        "d": (exterior_d(beta), Form(n, 2, {(0, 2): Poly(n, {(0, 0, 1): -2})})),
        "exterior_d_plus": (exterior_d_plus(beta, 1, Form(n, 2, {
            (0, 1): one, (0, 2): Poly(n, {(0, 0, 1): 2})})), Form(n, 2, {(0, 1): one})),
        "wedge": (wedge(alpha, alpha + dx[0]), Form(n, 2, {(0, 1): Poly(n, {(1, 0, 1): -1}),
                                                             (0, 2): Poly(n, {(1, 0, 0): -1})})),
        # (x1 + x2) * (x1 - x2) dx1: the cross terms cancel
        "wedge with a 0-form": (
            wedge(Form(n, 0, {(): Poly(n, {(1, 0, 0): 1, (0, 1, 0): 1})}),
                  Form(n, 1, {(0,): Poly(n, {(1, 0, 0): 1, (0, 1, 0): -1})})),
            Form(n, 1, {(0,): Poly(n, {(2, 0, 0): 1, (0, 2, 0): -1})})),
        "contract": (contract(w, wedge(dx[0], dx[2]) - wedge(dx[1], dx[2]) + omega),
                     Form(n, 1, {(0,): minus_one, (1,): one, (2,): x3})),
        "K": (poincare_homotopy(Form(n, 2, {(0, 2): x2, (1, 2): Poly(n, {(1, 0, 0): -1})})),
              Form(n, 1, {(0,): Poly(n, {(0, 1, 1): Fraction(-1, 3)}),
                          (1,): Poly(n, {(1, 0, 1): Fraction(1, 3)})})),
        "lie_derivative": (lie_derivative(rot, invariant + wedge(dx[0], dx[2])),
                           Form(n, 2, {(1, 2): minus_one})),
        "vf_bracket": (vf_bracket(v, v + rot), vf_bracket(v, rot)),
        "chain": (contraction_chains([v, w], omega, [{(0, 0): 1, (1, 0): 1}])[0],
                  contract(v, contract(w, omega))),  # (w ^ v) . omega
    }
    for name, (got, want) in partial.items():
        assert_canonical(got)
        assert got == want, name
    assert not any(got.is_zero() for got, _ in partial.values())


def test_each_dimension_mismatch_names_its_operator():
    a3 = Form(3, 1, {(0,): Poly.const(3, 1)})
    a4 = Form(4, 2, {(0, 1): Poly.const(4, 1)})
    x3 = vector_field(3, [Poly.const(3, 1), Poly(3), Poly(3)])
    x4 = vector_field(4, [Poly.const(4, 1), Poly(4), Poly(4), Poly(4)])
    calls = {
        "wedge": lambda: wedge(a3, a4),
        "contract": lambda: contract(x3, a4),
        "lie_derivative": lambda: lie_derivative(x3, a4),
        "vf_bracket": lambda: vf_bracket(x3, x4),
        "exterior_d_plus": lambda: exterior_d_plus(a3, 1, a4),
        "linear_combination": lambda: Form.linear_combination(3, 1, [(1, a3), (1, a4)]),
        "contraction_chains": lambda: contraction_chains([x3], a4, [{(0,): 1}]),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call()
