"""Weak moment maps: construction routes, verification, equivariance repair."""

from fractions import Fraction

import pytest

from momentkit.lie_core import (LieAlgebra, StructureError, catalog_algebra,
                                exterior_basis, lie_kernel_basis, mv_add,
                                mv_boundary, mv_from_coords, mv_term, schouten,
                                unit_vector, validate_jacobi)
from momentkit.polyform import exterior_d, form_from_terms, format_form
from momentkit.action import LieAction
from momentkit.cli import catalog_action
from momentkit.moment import (MomentMap, check_module_morphism,
                              check_sigma_cocycle, construct_brackets,
                              construct_exactness, construct_poincare,
                              defining_residuals, describe_kernel,
                              existence_diagnostic, make_equivariant,
                              sigma_cochain, sigma_is_zero, uniqueness_check,
                              verify_moment, zeta)

CATALOG_ALGEBRAS = ("abelian3", "su2", "so3", "heisenberg3", "so4", "u2")


def mv_wedge(a, b):
    """Wedge product of two multivectors (dicts), the reference for the
    graded boundary/bracket identity."""
    out = {}
    for ta, xa in a.items():
        for tb, xb in b.items():
            mv_term(out, ta + tb, xa * xb)
    return out


# ---------------------------------------------------------------------------
# the graded boundary/bracket identity behind the bracket route
# ---------------------------------------------------------------------------

def test_boundary_of_kernel_wedge_generator():
    # for p in the degree-k kernel: d(p ^ xi) = (-1)^k [p, xi]
    #                               d(xi ^ p) = [p, xi]
    for name in CATALOG_ALGEBRAS:
        g = catalog_algebra(name)
        for k in range(1, g.dim):
            basis = exterior_basis(g.dim, k)
            for vec in lie_kernel_basis(g, k):
                p = mv_from_coords(vec, basis)
                for i in range(g.dim):
                    xi = {(i,): Fraction(1)}
                    br = schouten(g, p, xi)
                    left1 = mv_boundary(g, mv_wedge(p, xi))
                    assert left1 == {t: (-1) ** k * c for t, c in br.items()}, \
                        (name, k, i)
                    left2 = mv_boundary(g, mv_wedge(xi, p))
                    assert left2 == br, (name, k, i)


def test_su2_signs_in_the_identity_are_sharp():
    # p = e1 (k = 1): d(e1^e2) = -e3 while [e1,e2] = +e3, so the
    # ungraded version of the identity fails at odd k
    g = catalog_algebra("su2")
    p = {(0,): Fraction(1)}
    xi = {(1,): Fraction(1)}
    assert mv_boundary(g, mv_wedge(p, xi)) == {(2,): Fraction(-1)}
    assert schouten(g, p, xi) == {(2,): Fraction(1)}


# ---------------------------------------------------------------------------
# constructors and the defining equation
# ---------------------------------------------------------------------------

def test_all_routes_verify_on_so3():
    action = catalog_action("so3_r3")
    for build in (construct_poincare, construct_exactness, construct_brackets):
        mm = build(action, ks=[1, 2])
        assert verify_moment(mm)
        assert all(r.is_zero() for r in defining_residuals(mm).values())


def test_exactness_and_brackets_verify_on_so4_low_degrees():
    action = catalog_action("so4_r4")
    for build in (construct_exactness, construct_brackets):
        mm = build(action, ks=[1, 2])
        assert verify_moment(mm)


def test_poincare_constructs_everywhere_on_catalog():
    for name in ("abelian_r3", "so3_r3", "so4_r4", "u2_r4"):
        action = catalog_action(name)
        mm = construct_poincare(action)
        assert verify_moment(mm), name


def test_translation_moment_values_are_pinned():
    action = catalog_action("abelian_r3")
    mm = construct_poincare(action)
    # f_2(e1^e2) = -x3
    val2 = mm.value(2, {(0, 1): Fraction(1)})
    assert format_form(val2) == "-x3"
    # f_1(e3) = -(1/2)(x1 dx2 - x2 dx1)
    val1 = mm.value(1, {(2,): Fraction(1)})
    assert format_form(val1) == "1/2*x2*dx(1) - 1/2*x1*dx(2)"


def test_value_is_linear_in_the_kernel_argument():
    action = catalog_action("so3_r3")
    mm = construct_poincare(action, ks=[1])
    a = mm.value(1, {(0,): Fraction(2), (1,): Fraction(-3)})
    b = mm.value(1, {(0,): Fraction(1)}) * Fraction(2) \
        + mm.value(1, {(1,): Fraction(1)}) * Fraction(-3)
    assert a == b


def test_value_reads_kernel_coordinates_and_rejects_other_elements():
    action = catalog_action("so4_r4")
    mm = construct_poincare(action, ks=[2])
    kernel = action.kernel(2)
    f = mm.components[2]
    p = mv_add(kernel.multivectors[1], kernel.multivectors[4], -3)
    assert mm.value(2, p) == f[1] - f[4] * Fraction(3)
    for outside in ({(0, 1): Fraction(1)}, mv_add(p, {(0, 1): Fraction(1, 2)})):
        with pytest.raises(ValueError, match="not in the Lie kernel"):
            mm.value(2, outside)


def test_value_rejects_other_degrees_and_indices():
    mm = construct_poincare(catalog_action("so4_r4"), ks=[2])
    for k, mv, message in ((2, {(0,): Fraction(1)}, "not in the basis"),
                           (2, {(0, 6): Fraction(1)}, "not in the basis"),
                           (1, {(0,): Fraction(1)}, "no degree-1 component")):
        with pytest.raises(ValueError, match=message):
            mm.value(k, mv)


def test_exactness_route_refuses_on_translations():
    action = catalog_action("abelian_r3")
    with pytest.raises(StructureError) as err:
        construct_exactness(action, ks=[1])
    assert str(err.value) == ("exactness route does not apply at degree 1: "
                              "kernel basis element 0 is not a boundary")


def test_brackets_route_refuses_on_translations():
    action = catalog_action("abelian_r3")
    with pytest.raises(StructureError) as err:
        construct_brackets(action, ks=[2])
    assert str(err.value) == ("bracket route does not apply at degree 2: kernel "
                              "basis element 0 is not a bracket combination")


def test_route_refusals_name_the_first_failing_kernel_element():
    # u(2) with its central element last: at degree 1 the kernel basis is
    # e1..e4 and e1, e2, e3 are brackets, so element 3 is the first to fail
    u2 = catalog_action("u2_r4")
    g = LieAlgebra(4, {(0, 1): unit_vector(2, 4), (1, 2): unit_vector(0, 4),
                       (0, 2): [0, -1, 0, 0]}, name="su2+R")
    validate_jacobi(g)
    action = LieAction(g, u2.fields[1:] + u2.fields[:1], u2.omega)
    with pytest.raises(StructureError) as err:
        construct_exactness(action, ks=[1])
    assert str(err.value) == ("exactness route does not apply at degree 1: "
                              "kernel basis element 3 is not a boundary")
    with pytest.raises(StructureError) as err:
        construct_brackets(action, ks=[1])
    assert str(err.value) == ("bracket route does not apply at degree 1: kernel "
                              "basis element 3 is not a bracket combination")
    assert existence_diagnostic(action, ks=[1])["degrees"][1]["exactness_applies"] is False


def test_theorem_routes_refuse_on_u2():
    # H^1(u2) = 1: the hypotheses fail and both routes must say so
    action = catalog_action("u2_r4")
    with pytest.raises(StructureError):
        construct_exactness(action, ks=[1])
    with pytest.raises(StructureError):
        construct_brackets(action, ks=[1])


def test_routes_agree_up_to_closed_forms_on_so3():
    action = catalog_action("so3_r3")
    pm = construct_poincare(action, ks=[1])
    em = construct_exactness(action, ks=[1])
    bm = construct_brackets(action, ks=[1])
    assert em.components[1] == bm.components[1]
    for a in range(3):
        diff = em.components[1][a] - pm.components[1][a]
        assert exterior_d(diff).is_zero()


def test_manual_moment_map_is_rejected_when_wrong():
    action = catalog_action("abelian_r3")
    mm = construct_poincare(action, ks=[2])
    # corrupt one component by a non-closed form
    bad = dict(mm.components)
    brk = form_from_terms(3, 0, [(1, (2, 0, 0), ())])
    bad[2] = [bad[2][0] + brk] + list(bad[2][1:])
    assert not verify_moment(MomentMap(action, bad))


# ---------------------------------------------------------------------------
# the obstruction cochain Sigma
# ---------------------------------------------------------------------------

def test_sigma_vanishes_for_rotation_actions():
    for name in ("so3_r3", "so4_r4", "u2_r4"):
        action = catalog_action(name)
        mm = construct_poincare(action)
        for k in mm.degrees():
            assert sigma_is_zero(sigma_cochain(mm, k)), (name, k)


def test_sigma_entries_for_translations():
    action = catalog_action("abelian_r3")
    mm = construct_poincare(action, ks=[1, 2])
    sigma2 = sigma_cochain(mm, 2)
    # Sigma(e3)(e1^e2) = -1 (constant 0-form)
    names = describe_kernel(action, 2)
    a = names.index("e1^e2")
    assert format_form(sigma2[2][a]) == "-1"
    assert not sigma_is_zero(sigma2)


def test_sigma_is_always_a_cocycle():
    for name in ("abelian_r3", "so3_r3", "so4_r4", "u2_r4"):
        action = catalog_action(name)
        mm = construct_poincare(action)
        for k in mm.degrees():
            assert check_sigma_cocycle(mm, k), (name, k)


def test_module_morphism_quotient_and_strong():
    # strong holds exactly when Sigma vanishes
    action = catalog_action("so4_r4")
    mm = construct_poincare(action)
    for k in mm.degrees():
        quotient_ok, strong_ok = check_module_morphism(mm, k)
        assert quotient_ok and strong_ok

    action = catalog_action("abelian_r3")
    mm = construct_poincare(action, ks=[1, 2])
    for k in (1, 2):
        quotient_ok, strong_ok = check_module_morphism(mm, k)
        assert quotient_ok
        assert not strong_ok


# ---------------------------------------------------------------------------
# equivariantization
# ---------------------------------------------------------------------------

def test_translations_are_obstructed_at_every_truncation():
    action = catalog_action("abelian_r3")
    mm = construct_poincare(action, ks=[2])
    for D in (0, 1, 2):
        fixed, l_forms, status = make_equivariant(mm, 2, D)
        assert fixed is None and l_forms is None
        assert status == f"obstructed at degree {D}"


def test_so4_perturbed_map_is_repaired_exactly():
    action = catalog_action("so4_r4")
    mm = construct_poincare(action, ks=[2])
    dx1 = form_from_terms(4, 1, [(1, (0,) * 4, (0,))])
    warped = dict(mm.components)
    warped[2] = [c + dx1 for c in warped[2]]
    bad = MomentMap(action, warped)
    assert verify_moment(bad)                     # dx1 is closed
    assert not sigma_is_zero(sigma_cochain(bad, 2))

    fixed, l_forms, status = make_equivariant(bad, 2, 0)
    assert status == "repaired"
    assert sigma_is_zero(sigma_cochain(fixed, 2))
    assert verify_moment(fixed)
    # the equivariant map in this truncation is unique: we recover the original
    assert fixed.components[2] == mm.components[2]
    assert uniqueness_check(action, 2, 0)["unique"]


def test_already_equivariant_status():
    action = catalog_action("so3_r3")
    mm = construct_poincare(action, ks=[1])
    fixed, l_forms, status = make_equivariant(mm, 1, 1)
    assert status == "already equivariant"
    assert fixed.components[1] == mm.components[1]


def test_uniqueness_dimensions():
    assert uniqueness_check(catalog_action("so4_r4"), 2, 0) == {
        "dim_invariants": 0, "unique": True, "representatives": []}
    u = uniqueness_check(catalog_action("so3_r3"), 1, 1)
    assert u["dim_invariants"] == 1 and not u["unique"]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_existence_diagnostic_so4():
    diag = existence_diagnostic(catalog_action("so4_r4"), max_degree=0)
    assert diag["betti"] == [1, 0, 0, 2, 0, 0, 1]
    assert diag["omega_closed"] and diag["omega_nondegenerate"]
    assert diag["omega_preserved"] and diag["bracket_sign"] == 1
    k3 = diag["degrees"][3]
    assert k3["dim_kernel"] == 11
    assert k3["betti_k"] == 2
    assert k3["h0_dual_kernel"] == 2
    assert not k3["exactness_applies"] and not k3["brackets_apply"]
    assert k3["poincare_applies"]
    k2 = diag["degrees"][2]
    assert k2["exactness_applies"] and k2["brackets_apply"]


def test_existence_diagnostic_u2():
    diag = existence_diagnostic(catalog_action("u2_r4"))
    assert diag["betti"] == [1, 1, 0, 1, 1]
    k1 = diag["degrees"][1]
    assert k1["dim_kernel"] == 4 and k1["betti_k"] == 1
    assert k1["h0_dual_kernel"] == 1
    assert not k1["exactness_applies"] and not k1["brackets_apply"]


def test_describe_kernel_formatting():
    action = catalog_action("abelian_r3")
    assert describe_kernel(action, 2) == ["e1^e2", "e1^e3", "e2^e3"]


def test_zeta_period_four():
    assert [zeta(k) for k in (1, 2, 3, 4, 5)] == [1, 1, -1, -1, 1]
