"""Weak moment maps: construction routes, verification, equivariance repair."""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

import momentkit.action
import momentkit.moment
from momentkit.lie_core import (LieAlgebra, StructureError, boundary_matrix,
                                catalog_algebra, validate_jacobi)
from momentkit.linalg import Mat, solve_many
from momentkit.gmodule import invariants_basis, module_cohomology_dim
from momentkit.polyform import Form, MultiField, exterior_d, format_form, lie_derivative
from momentkit.action import LieAction
from momentkit.cli import catalog_action, main, parse_problem
from momentkit.moment import (MomentMap, _checked, _hom_differential,
                              check_sigma_cocycle, construct_brackets,
                              construct_exactness, construct_poincare,
                              defining_residuals, describe_kernel,
                              existence_diagnostic, make_equivariant,
                              sigma_cochain, sigma_is_zero, uniqueness_check,
                              verify_moment, zeta)

from support import (count_calls, entry, mv_add, mv_boundary, mv_wedge,
                     oracle_actions, random_form, schouten, so5_action, volume_form)


# ---------------------------------------------------------------------------
# the graded boundary/bracket identity behind the bracket route (checked on
# every catalog algebra in test_acceptance.py)
# ---------------------------------------------------------------------------

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
                              "kernel basis element e1 is not a boundary")


def test_brackets_route_refuses_on_translations():
    action = catalog_action("abelian_r3")
    with pytest.raises(StructureError) as err:
        construct_brackets(action, ks=[2])
    assert str(err.value) == ("bracket route does not apply at degree 2: kernel "
                              "basis element e1^e2 is not a bracket combination")


def test_route_refusals_name_the_first_failing_kernel_element():
    # u(2) with its central element last: at degree 1 the kernel basis is
    # e1..e4 and e1, e2, e3 are brackets, so e4 is the first to fail
    u2 = catalog_action("u2_r4")
    g = LieAlgebra(4, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, name="su2+R")
    validate_jacobi(g)
    action = LieAction(g, u2.fields[1:] + u2.fields[:1], u2.omega)
    with pytest.raises(StructureError) as err:
        construct_exactness(action, ks=[1])
    assert str(err.value) == ("exactness route does not apply at degree 1: "
                              "kernel basis element e4 is not a boundary")
    with pytest.raises(StructureError) as err:
        construct_brackets(action, ks=[1])
    assert str(err.value) == ("bracket route does not apply at degree 1: kernel "
                              "basis element e4 is not a bracket combination")
    assert existence_diagnostic(action, ks=[1])["degrees"][1]["exactness_applies"] is False


def test_a_library_algebra_failing_jacobi_is_refused_by_the_kernel_module():
    # built without catalog_algebra or the parser, so nothing checks Jacobi;
    # four zero fields close under any bracket, so sign() passes and the
    # Poincare route builds, and the diagnostic refuses only because the
    # degree-1 Lie kernel module fails its representation check
    g = LieAlgebra(4, {(0, 1): {2: 1}, (1, 3): {1: 1}, (2, 3): {0: 1}})
    with pytest.raises(StructureError):
        validate_jacobi(g)
    omega = Form.from_terms(2, 2, [(1, (0, 0), (0, 1))])
    action = LieAction(g, [MultiField(2, 1, {})] * 4, omega)
    assert action.sign() == -1
    assert construct_poincare(action, ks=[1]).degrees() == [1]
    with pytest.raises(StructureError) as err:
        existence_diagnostic(action, ks=[1], max_degree=0)
    assert str(err.value) == ("module action is not a representation on pair "
                              "(e1, e2) of lie_kernel(k=1)")


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
    brk = Form.from_terms(3, 0, [(1, (2, 0, 0), ())])
    bad[2] = [bad[2][0] + brk] + list(bad[2][1:])
    assert not verify_moment(MomentMap(action, bad))


def test_recheck_names_the_failing_value_by_its_kernel_element():
    action = catalog_action("abelian_r3")
    mm = construct_poincare(action, ks=[2])
    brk = Form.from_terms(3, 0, [(1, (2, 0, 0), ())])
    bad = MomentMap(action, {2: [mm.components[2][0] + brk] + mm.components[2][1:]})
    with pytest.raises(StructureError) as err:
        _checked(bad, "test")
    assert str(err.value) == ("test construction failed its defining-equation "
                              "recheck at f_2(e1^e2)")


def test_a_degree_the_map_lacks_is_a_value_error():
    mm = construct_poincare(catalog_action("so3_r3"), ks=[1])
    for ask in (lambda: sigma_cochain(mm, 2), lambda: mm.sigma(2),
                lambda: check_sigma_cocycle(mm, 2), lambda: make_equivariant(mm, 2, 1),
                lambda: mm.value(2, {(0, 1): Fraction(1)})):
        with pytest.raises(ValueError, match="^the map has no degree-2 component$"):
            ask()


def test_zero_dimensional_algebra_gives_empty_maps_and_sigma():
    action = LieAction(LieAlgebra(0), [], volume_form(3))
    for build in (construct_poincare, construct_brackets):
        assert build(action).components == {1: [], 2: []}
    mm = construct_poincare(action)
    for k in (1, 2):
        assert sigma_cochain(mm, k) == []
        assert check_sigma_cocycle(mm, k) is True
    # an empty kernel over a nonzero algebra: one empty row per generator
    mm = construct_poincare(catalog_action("so3_r3"), ks=[2])
    assert sigma_cochain(mm, 2) == [[], [], []]
    assert check_sigma_cocycle(mm, 2) is True


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


# ---------------------------------------------------------------------------
# Sigma and d^1 against the hand-written module action (the oracle)
# ---------------------------------------------------------------------------

def oracle_module_act(action, k, i, row, scale=1):
    """scale * (e_i . alpha)(p_a) for every kernel basis element p_a, where
    alpha takes the values `row` on the kernel basis and
    (e_i . alpha)(p_a) = s L_{V_i} alpha(p_a) - sum_b rho_i[b, a] alpha(p_b)."""
    s = action.sign()
    rho_i = action.kernel(k).module.rho[i]
    v_i = action.fields[i]
    return [Form.linear_combination(
                action.ambient_dim, alpha.degree,
                [(scale * s, lie_derivative(v_i, alpha))]
                + [(-scale * entry(rho_i, b, a), beta) for b, beta in enumerate(row)])
            for a, alpha in enumerate(row)]


def oracle_sigma(mm, k):
    """Sigma(e_i)(p_a) = -(e_i . f)(p_a), indexed [i][a]."""
    return [oracle_module_act(mm.action, k, i, mm.components[k], -1)
            for i in range(mm.action.algebra.dim)]


def oracle_delta(mm, k, sigma):
    """(delta sigma)(e_i, e_j)(p_a) = (e_i . sigma(e_j))(p_a)
    - (e_j . sigma(e_i))(p_a) - sigma([e_i, e_j])(p_a), one row per pair
    i < j, with the bracket read from the structure constants."""
    action = mm.action
    g = action.algebra
    out = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = oracle_module_act(action, k, i, sigma[j])
            rhs = oracle_module_act(action, k, j, sigma[i])
            bracket = g.bracket_basis(i, j)
            out.append([Form.linear_combination(
                action.ambient_dim, x.degree,
                [(1, x), (-1, y)] + [(-c, sigma[m][a]) for m, c in bracket])
                for a, (x, y) in enumerate(zip(lhs, rhs))])
    return out


def oracle_maps():
    """Every bundled problem by every route that applies to it, and the
    generated so(5) action at degrees 1 and 2."""
    maps = []
    for name in ("abelian_r3", "so3_r3", "so4_r4", "u2_r4"):
        action = catalog_action(name)
        for build in (construct_poincare, construct_exactness, construct_brackets):
            for k in range(1, action.plectic_degree() + 1):
                try:
                    maps.append(build(action, ks=[k]))
                except StructureError:
                    pass
    return maps + [construct_poincare(so5_action(), ks=[1, 2])]


def test_sigma_and_its_cocycle_check_match_the_oracle():
    maps = oracle_maps()
    assert len(maps) > 12
    for mm in maps:
        for k in mm.degrees():
            sigma = mm.sigma(k)
            assert sigma == oracle_sigma(mm, k), (mm.action.algebra, k)
            delta = _hom_differential(mm, k, 1, sigma)
            assert delta == oracle_delta(mm, k, sigma), (mm.action.algebra, k)
            assert check_sigma_cocycle(mm, k) is sigma_is_zero(delta) is True


def test_d1_matches_the_oracle_on_cochains_that_are_not_cocycles():
    rng = random.Random(12)
    for name in ("abelian_r3", "so3_r3", "so4_r4", "u2_r4"):
        action = catalog_action(name)
        n = action.ambient_dim
        for k in range(1, action.plectic_degree() + 1):
            if not action.kernel(k).basis:
                continue
            mm = construct_poincare(action, ks=[k])
            sigma = [[x + random_form(rng, n, x.degree, 2, max_terms=4, max_coeff=4)
                      for x in row] for row in sigma_cochain(mm, k)]
            want = oracle_delta(mm, k, sigma)
            assert _hom_differential(mm, k, 1, sigma) == want, (name, k)
            assert not sigma_is_zero(want), (name, k)
            mm._sigma[k] = sigma
            assert check_sigma_cocycle(mm, k) is False, (name, k)


def counted_lie_derivatives(monkeypatch, *modules):
    """Wrap lie_derivative where `modules` call it; the returned list gets
    one entry per call: whether the form was zero."""
    zero = []
    for module in modules:
        def counted(x, alpha, inner=module.lie_derivative):
            zero.append(alpha.is_zero())
            return inner(x, alpha)
        monkeypatch.setattr(module, "lie_derivative", counted)
    return zero


def test_the_cocycle_check_of_a_zero_sigma_takes_no_lie_derivative(monkeypatch):
    mm = construct_poincare(catalog_action("so4_r4"))
    for k in mm.degrees():
        assert sigma_is_zero(mm.sigma(k))
    calls = counted_lie_derivatives(monkeypatch, momentkit.moment)
    assert all(check_sigma_cocycle(mm, k) for k in mm.degrees())
    assert calls == []


def test_report_takes_no_lie_derivative_of_a_zero_form(monkeypatch, capsys):
    calls = counted_lie_derivatives(monkeypatch, momentkit.moment, momentkit.action)
    assert main(["report", "so4_r4.mmk"]) == 0
    capsys.readouterr()
    assert calls and not any(calls)


# ---------------------------------------------------------------------------
# Sigma proven zero on the homotopy-operator route
# ---------------------------------------------------------------------------

TESTS = os.path.dirname(__file__)


def scale_r3_action():
    """tests/golden/scale_r3.mmk: a linear action whose V1 scales omega."""
    with open(os.path.join(TESTS, "golden", "scale_r3.mmk"), encoding="utf-8") as fh:
        return parse_problem(fh.read()).build_action()


def so5gen_action(seed):
    """The generated so(5) action on R^5 of `perfbench/so5gen.py` for a seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_so5gen", os.path.join(TESTS, "..", "perfbench", "so5gen.py"))
    so5gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(so5gen)
    return parse_problem(so5gen.generate(seed)[0]).build_action()


def test_a_proven_zero_sigma_is_the_computed_one(monkeypatch):
    # linear fields that preserve omega: K commutes with every L_V, so the
    # homotopy-operator map's Sigma is zero and MomentMap.sigma computes none
    computed = count_calls(monkeypatch, sigma_cochain)
    cases = [(catalog_action(name), None) for name in ("sl2_r2", "so3_r3", "so4_r4", "u2_r4")]
    cases += [(so5gen_action(seed), [1, 2]) for seed in (1, 2)]
    for action, ks in cases:
        mm = construct_poincare(action, ks)
        for k in mm.degrees():
            want = sigma_cochain(mm, k)
            assert mm.sigma(k) == want, (action.algebra.name, k)
            assert check_sigma_cocycle(mm, k) is sigma_is_zero(
                _hom_differential(mm, k, 1, want)), (action.algebra.name, k)
    assert computed == []


def test_sigma_is_computed_where_it_is_not_proven_zero(monkeypatch):
    # translations are not linear, scale_r3's V1 scales omega, the preimage
    # routes give other maps, and a repaired map carries no proof
    so4 = catalog_action("so4_r4")
    maps = [construct_poincare(catalog_action(name)) for name in ("abelian_r2", "abelian_r3")]
    maps += [construct_poincare(scale_r3_action(), ks=[2]),
             construct_exactness(so4, ks=[1, 2]), construct_brackets(so4, ks=[1, 2])]
    computed = count_calls(monkeypatch, sigma_cochain)
    for mm in maps:
        for k in mm.degrees():
            mm.sigma(k)
    assert computed == [(mm, k) for mm in maps for k in mm.degrees()]
    mm = construct_poincare(so4, ks=[2])
    dx1 = Form.from_terms(4, 1, [(1, (0,) * 4, (0,))])
    bad = MomentMap(so4, {2: [c + dx1 for c in mm.components[2]]})
    computed.clear()
    fixed, _, status = make_equivariant(bad, 2, 0)
    assert status == "repaired" and fixed.components == mm.components
    assert computed == [(bad, 2), (fixed, 2)]


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
    dx1 = Form.from_terms(4, 1, [(1, (0,) * 4, (0,))])
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


def test_repair_names_a_sigma_entry_that_is_not_closed():
    # f_1(e1) + x1 dx2 breaks the defining equation; Sigma(e1)(e1) is then
    # inside the truncation but not closed, which no larger D can mend
    action = catalog_action("so3_r3")
    mm = construct_poincare(action, ks=[1])
    warped = [mm.components[1][0] + Form.from_terms(3, 1, [(1, (1, 0, 0), (1,))])]
    bad = MomentMap(action, {1: warped + mm.components[1][1:]})
    with pytest.raises(StructureError) as err:
        make_equivariant(bad, 1, 2)
    assert str(err.value) == ("Sigma entry Sigma(e1)(e1) is not closed: "
                              "the map does not satisfy its defining equation")


def test_repair_blames_the_generators_that_do_not_preserve_omega():
    # two dilations of R^2, neither preserving omega, and f_1(e1) = x1;
    # scale_r3's single generator is pinned by tests/test_cli.py
    action = parse_problem("[algebra]\ndim = 2\n\n[action]\ndim = 2\nV1 = x1*d/dx1\n"
                           "V2 = x2*d/dx2\n\n[omega]\nomega = dx(1,2)\n").build_action()
    x1 = Form.from_terms(2, 0, [(1, (1, 0), ())])
    with pytest.raises(StructureError) as err:
        make_equivariant(MomentMap(action, {1: [x1, Form.zero(2, 0)]}), 1, 1)
    assert str(err.value) == ("Sigma entry Sigma(e1)(e1) is not closed: "
                              "V1, V2 do not preserve omega")


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


def test_uniqueness_counts_h0_of_the_hom_module():
    # the command line prints h0 from the rank of d0; uniqueness_check
    # counts the nullspace of the same d0
    for name in ("abelian_r3", "so3_r3", "so4_r4", "u2_r4"):
        action = catalog_action(name)
        for k in range(1, action.plectic_degree() + 1):
            for D in (0, 1):
                h0 = module_cohomology_dim(action.hom_module(k, D), 0)
                assert uniqueness_check(action, k, D)["dim_invariants"] == h0, (name, k, D)


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


def test_existence_counts_match_the_solves_they_replace():
    # exactness applies iff every kernel basis element has a boundary
    # preimage, and h0 of the dual kernel is the dimension of its invariants;
    # on the bundled problems and the generated so(5) one
    verdicts = set()
    for action in oracle_actions():
        g = action.algebra
        for k, entry in existence_diagnostic(action)["degrees"].items():
            kernel = action.kernel(k)
            bmat = boundary_matrix(g, k + 1)
            preimages = solve_many(bmat, Mat.from_sparse_columns(kernel.basis, bmat.nrows))
            assert entry["exactness_applies"] == (preimages is not None), (g, k)
            assert entry["h0_dual_kernel"] == len(invariants_basis(kernel.dual)), (g, k)
            verdicts.add((entry["exactness_applies"], entry["h0_dual_kernel"] > 0))
    assert verdicts == {(True, False), (False, True)}  # each answer occurs


def test_describe_kernel_formatting():
    action = catalog_action("abelian_r3")
    assert describe_kernel(action, 2) == ["e1^e2", "e1^e3", "e2^e3"]


def test_zeta_period_four():
    assert [zeta(k) for k in (1, 2, 3, 4, 5)] == [1, 1, -1, -1, 1]
