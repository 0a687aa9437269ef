"""Lie algebra actions on R^n: validation, Cartan identity, invariant forms."""

import random
from fractions import Fraction

import pytest

from momentkit.lie_core import LieAlgebra, StructureError, catalog_algebra, \
    exterior_basis, lie_kernel_basis, mv_from_coords
from momentkit.polyform import (Form, MultiField, Poly, exterior_d,
                                form_from_terms, volume_form, wedge)
from momentkit.action import (LieAction, TruncatedFormModule, cartan_residual,
                              check_multisymplectic, closed_form_basis,
                              form_key_basis, form_to_vector,
                              infinitesimal_generator, invariant_closed_forms,
                              monomial_basis, preserves_omega, validate_action)
from momentkit.cli import catalog_action

ACTIONS = ("abelian_r3", "so3_r3", "so4_r4", "u2_r4")


def euler_one_form(n):
    return form_from_terms(n, 1, [(1, tuple(1 if j == i else 0 for j in range(n)), (i,))
                                  for i in range(n)])


def random_form(rng, n, p, max_degree):
    triples = []
    for _ in range(rng.randint(1, 4)):
        idx = tuple(sorted(rng.sample(range(n), p)))
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        triples.append((c, tuple(exps), idx))
    return form_from_terms(n, p, triples)


# ---------------------------------------------------------------------------
# validation and multisymplectic checks
# ---------------------------------------------------------------------------

def test_catalog_actions_validate_with_expected_signs():
    expected = {"abelian_r3": -1, "so3_r3": 1, "so4_r4": 1, "u2_r4": 1}
    for name in ACTIONS:
        action = catalog_action(name)
        assert action.sign() == expected[name], name


def test_corrupted_action_names_failing_pair():
    base = catalog_action("so3_r3")
    fields = list(base.fields)
    n = base.ambient_dim
    fields[1] = fields[1] + MultiField.vector(
        n, [Poly.var(0, n), Poly(n), Poly(n)])
    bad = LieAction(base.algebra, fields, base.omega)
    with pytest.raises(StructureError) as err:
        validate_action(bad)
    assert "pair" in str(err.value)


def test_multisymplectic_checks_on_catalog():
    for name in ACTIONS:
        action = catalog_action(name)
        res = check_multisymplectic(action)
        assert res["closed"] and res["nondegenerate"], name
        assert res["plectic_degree"] == action.ambient_dim - 1
        assert preserves_omega(action) == []


def test_degenerate_omega_is_flagged():
    g = catalog_algebra("abelian3")
    n = 3
    fields = [MultiField.vector(n, [Poly.const(n, 1 if j == i else 0)
                                    for j in range(n)]) for i in range(3)]
    omega = form_from_terms(n, 2, [(1, (0, 0, 0), (0, 1))])  # dx1^dx2 on R^3
    action = LieAction(g, fields, omega)
    assert check_multisymplectic(action)["nondegenerate"] is False


def test_non_preserving_generator_is_listed():
    base = catalog_action("abelian_r3")
    n = 3
    fields = list(base.fields)
    fields[0] = MultiField.vector(n, [Poly.var(0, n), Poly(n), Poly(n)])  # x1 d/dx1
    action = LieAction(base.algebra, fields, base.omega)
    assert preserves_omega(action) == [0]


# ---------------------------------------------------------------------------
# infinitesimal generators and the extended Cartan identity
# ---------------------------------------------------------------------------

def test_generator_of_decomposable_wedges_fields():
    action = catalog_action("so3_r3")
    mv = {(0, 1): Fraction(1)}
    vp = infinitesimal_generator(action, mv)
    assert vp == wedge(action.fields[0], action.fields[1])


def kernel_multivectors(g, k):
    basis = exterior_basis(g.dim, k)
    return [mv_from_coords(v, basis) for v in lie_kernel_basis(g, k)]


def test_cartan_identity_on_kernel_decomposables():
    rng = random.Random(57)
    for name in ACTIONS:
        action = catalog_action(name)
        g = action.algebra
        n = action.ambient_dim
        for k in (1, 2, 3):
            if k > g.dim:
                continue
            for mv in kernel_multivectors(g, k)[:4]:
                assert cartan_residual(action, mv, action.omega).is_zero(), \
                    (name, k, "omega")
                for p in {k, min(k + 1, n)}:
                    tau = random_form(rng, n, p, 2)
                    assert cartan_residual(action, mv, tau).is_zero(), \
                        (name, k, p)


def test_cartan_identity_on_arbitrary_multivectors():
    # the identity holds for any multivector, not only kernel elements
    rng = random.Random(61)
    action = catalog_action("so4_r4")
    for k in (2, 3):
        basis = exterior_basis(action.algebra.dim, k)
        for _ in range(3):
            mv = {basis[rng.randrange(len(basis))]: Fraction(rng.randint(1, 3)),
                  basis[rng.randrange(len(basis))]: Fraction(-1)}
            tau = random_form(rng, 4, 3, 2)
            assert cartan_residual(action, mv, tau).is_zero(), (k,)


# ---------------------------------------------------------------------------
# closed and invariant forms in a truncation
# ---------------------------------------------------------------------------

def test_monomial_basis_counts():
    assert [len(monomial_basis(3, d)) for d in (0, 1, 2)] == [1, 4, 10]


def test_closed_form_basis_is_closed_and_complete():
    n, p, D = 3, 2, 1
    forms, keys, _ = closed_form_basis(n, p, D)
    for f in forms:
        assert exterior_d(f).is_zero()
    # every top-degree form is closed: at p = n the basis is everything
    top, _, _ = closed_form_basis(n, n, 1)
    assert len(top) == 1 + n  # constant + linear coefficients


def test_so3_invariants_contain_euler_form():
    action = catalog_action("so3_r3")
    inv = invariant_closed_forms(action, 1, 1)
    assert len(inv) == 1
    assert inv[0] == euler_one_form(3)


def test_so4_has_no_invariant_constant_two_forms():
    action = catalog_action("so4_r4")
    assert invariant_closed_forms(action, 2, 0) == []


def test_so4_euler_form_survives_at_degree_one():
    action = catalog_action("so4_r4")
    inv = invariant_closed_forms(action, 1, 1)
    assert inv == [euler_one_form(4)]


def test_u2_invariants_oracle():
    action = catalog_action("u2_r4")
    kahler = form_from_terms(4, 2, [(1, (0,) * 4, (0, 1)), (1, (0,) * 4, (2, 3))])
    assert invariant_closed_forms(action, 2, 0) == [kahler]
    assert euler_one_form(4) in invariant_closed_forms(action, 1, 1)


def test_truncated_module_action_and_escape():
    action = catalog_action("so3_r3")
    trunc = TruncatedFormModule(action, 1, 1)
    # rotations act degree-preservingly: no escape, representation validates
    assert trunc.module.dim == len(trunc.forms)
    coords = trunc.to_coords(euler_one_form(3))
    assert coords is not None
    assert trunc.from_coords(coords) == euler_one_form(3)

    # a dilation-like action pushes linear coefficients up in degree: x_i^2 terms
    g = catalog_algebra("abelian3")
    n = 3
    def sq(i):
        expo = tuple(2 if j == i else 0 for j in range(n))
        return Poly(n, {expo: Fraction(1)})
    quad = [MultiField.vector(n, [sq(i) if j == i else Poly(n) for j in range(n)])
            for i in range(3)]
    omega = volume_form(3)
    bad = LieAction(g, quad, omega)
    validate_action(bad)
    with pytest.raises(StructureError) as err:
        TruncatedFormModule(bad, 1, 0)
    assert "truncat" in str(err.value)


def test_truncated_module_over_the_zero_algebra_keeps_its_dimension():
    action = LieAction(LieAlgebra(0), [], volume_form(3))
    trunc = TruncatedFormModule(action, 1, 1)
    assert trunc.module.dim == len(trunc.forms) == 9  # d of x_i and x_i x_j


def test_truncation_escape_names_the_smallest_key():
    # the message must not depend on the order the form's terms were built in
    keys = form_key_basis(3, 1, 1)
    x3_sq = Poly(3, {(0, 0, 2): 1})
    x1_cubed = Poly(3, {(3, 0, 0): 1, (1, 0, 0): 1})
    for comps in ({(2,): x1_cubed, (0,): x3_sq}, {(0,): x3_sq, (2,): x1_cubed}):
        with pytest.raises(StructureError) as err:
            form_to_vector(Form(3, 1, comps), keys)
        assert str(err.value).endswith("at key ((0,), (0, 0, 2))")
