"""Acceptance gate: end-to-end checks of every advertised guarantee.

Everything here is exact rational arithmetic, so every comparison is
equality against zero or a frozen value - no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from momentkit.lie_core import (boundary_matrix,
                                catalog_algebra, ce_betti, exterior_basis,
                                lie_kernel_basis)
from momentkit.linalg import mat_mul
from momentkit.gmodule import (ce_module_differential, dual_module, lie_kernel_module,
                               trivial_module)
from momentkit.polyform import Form, exterior_d, format_form, poincare_homotopy
from momentkit.action import (check_multisymplectic, invariant_closed_forms,
                              preserves_omega, validate_action)
from momentkit.moment import (MomentMap, check_module_morphism,
                              check_sigma_cocycle, construct_brackets,
                              construct_exactness, construct_poincare,
                              defining_residuals, describe_kernel,
                              make_equivariant, sigma_cochain, sigma_is_zero,
                              uniqueness_check, verify_moment)
from momentkit.cli import catalog_action, main as cli_main

from support import (ACTIONS, ALGEBRAS, adjoint_module, cartan_residual, column_mv, dense,
                     euler_one_form, mv_boundary, mv_wedge, naive_rank, random_form, schouten)

# ---------------------------------------------------------------------------
# differentials square to zero
# ---------------------------------------------------------------------------

def test_boundary_and_module_differentials_square_to_zero():
    started = time.monotonic()
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        for k in range(2, g.dim + 1):
            prod = mat_mul(boundary_matrix(g, k - 1), boundary_matrix(g, k))
            assert prod.is_zero(), (name, k)
        modules = [trivial_module(g), adjoint_module(g),
                   dual_module(adjoint_module(g))]
        for k in range(1, g.dim):
            if lie_kernel_basis(g, k):
                modules.append(lie_kernel_module(g, k))
        for m in modules:
            for k in range(g.dim):
                d1 = ce_module_differential(m, k)
                d2 = ce_module_differential(m, k + 1)
                if d1.ncols and d2.nrows:
                    assert mat_mul(d2, d1).is_zero(), (name, m.name, k)
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# cohomology dimensions against an independent elimination
# ---------------------------------------------------------------------------

def test_betti_tables_match_frozen_values_and_plain_elimination():
    frozen = {
        "abelian3": [1, 3, 3, 1],
        "su2": [1, 0, 0, 1],
        "so3": [1, 0, 0, 1],
        "heisenberg3": [1, 2, 2, 1],
        "so4": [1, 0, 0, 2, 0, 0, 1],
        "u2": [1, 1, 0, 1, 1],
    }
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        betti = list(ce_betti(g))
        assert betti == frozen[name], name
        ranks = {k: naive_rank(dense(boundary_matrix(g, k)))
                 for k in range(1, g.dim + 1)}
        for k in range(g.dim + 1):
            expected = comb(g.dim, k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            assert betti[k] == expected, (name, k)


# ---------------------------------------------------------------------------
# the graded boundary/bracket identity
# ---------------------------------------------------------------------------

def test_boundary_of_wedge_with_generator_equals_graded_bracket():
    # p in the degree-k kernel, xi a generator:
    #   boundary(p ^ xi) = (-1)^k [p, xi]   and   boundary(xi ^ p) = [p, xi]
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        for k in range(1, g.dim):
            basis = exterior_basis(g.dim, k)
            for vec in lie_kernel_basis(g, k):
                p = column_mv(vec, basis)
                for i in range(g.dim):
                    xi = {(i,): Fraction(1)}
                    br = schouten(g, p, xi)
                    graded = {t: (-1) ** k * c for t, c in br.items()}
                    assert mv_boundary(g, mv_wedge(p, xi)) == graded, (name, k, i)
                    assert mv_boundary(g, mv_wedge(xi, p)) == br, (name, k, i)


# ---------------------------------------------------------------------------
# the extended Cartan identity for wedges of generators
# ---------------------------------------------------------------------------

def test_extended_cartan_identity_residual_vanishes():
    rng = random.Random(2024)
    for name in ACTIONS:
        action = catalog_action(name)
        g = action.algebra
        n = action.ambient_dim
        for k in (1, 2, 3):
            if k > g.dim:
                continue
            basis = exterior_basis(g.dim, k)
            mvs = [column_mv(v, basis) for v in lie_kernel_basis(g, k)][:3]
            mvs.append({basis[0]: Fraction(1)})  # decomposable basis wedge
            for mv in mvs:
                assert cartan_residual(action, mv, action.omega).is_zero()
                for p in {k, min(k + 1, n)}:
                    tau = random_form(rng, n, p, 2, max_terms=4)
                    assert cartan_residual(action, mv, tau).is_zero(), \
                        (name, k, p)


# ---------------------------------------------------------------------------
# the homotopy operator inverts d
# ---------------------------------------------------------------------------

def test_homotopy_operator_identity_on_two_hundred_random_forms():
    rng = random.Random(777)
    cases = 0
    for n in (3, 4):
        for p in (1, 2, 3, 4):
            if p > n:
                continue
            for _ in range(30):
                a = random_form(rng, n, p, rng.randint(0, 6), max_terms=4)
                assert exterior_d(poincare_homotopy(a)) \
                    + poincare_homotopy(exterior_d(a)) == a, (n, p)
                cases += 1
    assert cases >= 200


# ---------------------------------------------------------------------------
# construction routes satisfy the defining equation exactly
# ---------------------------------------------------------------------------

ROUTES = {
    "abelian_r3": [(construct_poincare, [1, 2])],
    "so3_r3": [(construct_poincare, [1, 2]),
               (construct_exactness, [1, 2]),
               (construct_brackets, [1, 2])],
    "so4_r4": [(construct_poincare, [1, 2, 3]),
               (construct_exactness, [1, 2]),
               (construct_brackets, [1, 2])],
    "u2_r4": [(construct_poincare, [1, 2, 3])],
}


def test_every_applicable_route_produces_zero_residuals():
    for name, routes in ROUTES.items():
        action = catalog_action(name)
        for build, ks in routes:
            mm = build(action, ks=ks)
            residuals = defining_residuals(mm)
            assert all(r.is_zero() for r in residuals.values()), \
                (name, build.__name__)
            assert verify_moment(mm)


def test_translation_values_are_the_frozen_ones():
    mm = construct_poincare(catalog_action("abelian_r3"), ks=[1, 2])
    assert format_form(mm.value(2, {(0, 1): Fraction(1)})) == "-x3"
    assert format_form(mm.value(1, {(2,): Fraction(1)})) \
        == "1/2*x2*dx(1) - 1/2*x1*dx(2)"


def test_inapplicable_routes_refuse_loudly():
    from momentkit.lie_core import StructureError
    with pytest.raises(StructureError):
        construct_exactness(catalog_action("abelian_r3"), ks=[1])
    with pytest.raises(StructureError):
        construct_brackets(catalog_action("u2_r4"), ks=[1])
    with pytest.raises(StructureError):
        construct_exactness(catalog_action("so4_r4"), ks=[3])


# ---------------------------------------------------------------------------
# the unitary example: checks and invariant forms
# ---------------------------------------------------------------------------

def test_unitary_action_validates_and_has_the_expected_invariants():
    action = catalog_action("u2_r4")
    assert validate_action(action) == 1
    res = check_multisymplectic(action)
    assert res["closed"] and res["nondegenerate"]
    assert preserves_omega(action) == []
    kahler = Form.from_terms(4, 2, [(1, (0,) * 4, (0, 1)),
                                    (1, (0,) * 4, (2, 3))])
    assert invariant_closed_forms(action, 2, 0) == [kahler]
    assert euler_one_form(4) in invariant_closed_forms(action, 1, 1)


# ---------------------------------------------------------------------------
# rotation invariants in truncations
# ---------------------------------------------------------------------------

def test_so4_truncated_invariants():
    action = catalog_action("so4_r4")
    assert invariant_closed_forms(action, 2, 0) == []
    assert invariant_closed_forms(action, 1, 1) == [euler_one_form(4)]


# ---------------------------------------------------------------------------
# the obstruction cochain is a cocycle for every constructed map
# ---------------------------------------------------------------------------

def test_sigma_is_a_cocycle_for_every_constructed_map():
    for name, routes in ROUTES.items():
        action = catalog_action(name)
        for build, ks in routes:
            mm = build(action, ks=ks)
            for k in ks:
                assert check_sigma_cocycle(mm, k), (name, build.__name__, k)


# ---------------------------------------------------------------------------
# module morphism: quotient always, strong exactly when Sigma vanishes
# ---------------------------------------------------------------------------

def test_module_morphism_quotient_and_strong_characterization():
    strong_mm = construct_poincare(catalog_action("so4_r4"))
    for k in strong_mm.degrees():
        assert check_module_morphism(strong_mm, k)
        assert sigma_is_zero(strong_mm.sigma(k))
        assert sigma_is_zero(sigma_cochain(strong_mm, k))

    weak_mm = construct_poincare(catalog_action("abelian_r3"), ks=[1, 2])
    for k in (1, 2):
        assert check_module_morphism(weak_mm, k)
        assert not sigma_is_zero(weak_mm.sigma(k))
    sigma = sigma_cochain(weak_mm, 2)
    names = describe_kernel(weak_mm.action, 2)
    assert format_form(sigma[2][names.index("e1^e2")]) == "-1"


# ---------------------------------------------------------------------------
# equivariantization: repair where possible, honest obstruction where not
# ---------------------------------------------------------------------------

def test_equivariantization_repair_and_obstruction():
    # translations: obstructed at every truncation we try
    weak = construct_poincare(catalog_action("abelian_r3"), ks=[2])
    for D in (0, 1, 2):
        fixed, l_forms, status = make_equivariant(weak, 2, D)
        assert (fixed, l_forms) == (None, None)
        assert status == f"obstructed at degree {D}"

    # rotations of R^4: perturb with a closed non-invariant form, then repair
    action = catalog_action("so4_r4")
    mm = construct_poincare(action, ks=[2])
    dx1 = Form.from_terms(4, 1, [(1, (0,) * 4, (0,))])
    warped = MomentMap(action, {2: [c + dx1 for c in mm.components[2]]})
    assert verify_moment(warped)
    assert not sigma_is_zero(sigma_cochain(warped, 2))
    fixed, l_forms, status = make_equivariant(warped, 2, 0)
    assert status == "repaired"
    assert sigma_is_zero(sigma_cochain(fixed, 2))
    assert verify_moment(fixed)
    assert fixed.components[2] == mm.components[2]   # unique, hence recovered
    assert uniqueness_check(action, 2, 0) == {
        "dim_invariants": 0, "unique": True, "representatives": []}


# ---------------------------------------------------------------------------
# full truncated-Hom diagnose of so(4) on R^4, every degree, D <= 1
# ---------------------------------------------------------------------------

def test_so4_full_diagnose_at_truncation_one(capsys):
    # answers frozen from the dense Bareiss elimination that preceded the sparse core
    frozen = {
        "1": {"hom_module_dim": 156, "h0_hom": 2, "h1_hom": 0,
              "poincare_applies": True, "exactness_applies": True,
              "brackets_apply": True},
        "2": {"hom_module_dim": 126, "h0_hom": 1, "h1_hom": 0,
              "poincare_applies": True, "exactness_applies": True,
              "brackets_apply": True},
        "3": {"hom_module_dim": 11, "h0_hom": 2, "h1_hom": 0,
              "poincare_applies": True, "exactness_applies": False,
              "brackets_apply": False},
    }
    argv = ["diagnose", "so4_r4.mmk", "--max-poly-degree", "1", "--format", "machine"]
    assert cli_main(argv) == 0
    degrees = json.loads(capsys.readouterr().out)["sections"][0]["data"]["degrees"]
    assert {k: {f: e[f] for f in frozen[k]} for k, e in degrees.items()} == frozen


# ---------------------------------------------------------------------------
# command line determinism
# ---------------------------------------------------------------------------

def test_cli_output_is_byte_deterministic(capsys):
    for fmt in ("text", "machine"):
        argv = ["report", "so4_r4.mmk", "--k", "2", "--format", fmt]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first.encode("utf-8") == second.encode("utf-8")
        if fmt == "machine":
            data = json.loads(first)
            assert json.dumps(data, sort_keys=True, indent=2) + "\n" == first
