"""Lie algebra actions on R^n: validation, Cartan identity, invariant forms."""

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import comb

import pytest

from momentkit.lie_core import LieAlgebra, StructureError, \
    catalog_algebra, ce_betti, exterior_basis, lie_kernel_basis
from momentkit.gmodule import invariants_basis
from momentkit.linalg import coordinates, mat_vstack, nullspace, rank
from momentkit.polyform import (Form, MultiField, Poly, contract, contraction_chains,
                                exterior_d, lie_derivative, wedge)
from momentkit.action import (_SAMPLE_SEEDS, FormSpace, LieAction, TruncatedFormModule,
                              _contraction_matrix_at, check_multisymplectic,
                              closed_form_basis, infinitesimal_generator,
                              invariant_closed_forms, preserves_omega, validate_action)
from momentkit.cli import catalog_action, main, parse_problem

from support import (ACTIONS, ALGEBRAS, cartan_residual, column_mv, euler_one_form,
                     oracle_actions, random_form, summed_matrix, vector_field, volume_form)


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
    fields[1] = fields[1] + vector_field(
        n, [Poly(n, {(1, 0, 0): 1}), Poly(n), Poly(n)])
    bad = LieAction(base.algebra, fields, base.omega)
    with pytest.raises(StructureError) as err:
        validate_action(bad)
    assert "pair" in str(err.value)


SO3_PLUS_SO3 = """[algebra]
dim = 6
[e1,e2] = e3
[e2,e3] = e1
[e1,e3] = -e2
[e4,e5] = e6
[e5,e6] = e4
[e4,e6] = -e5
[action]
dim = 6
V1 = x2*d/dx3 - x3*d/dx2
V2 = x3*d/dx1 - x1*d/dx3
V3 = x1*d/dx2 - x2*d/dx1
V4 = -x5*d/dx6 + x6*d/dx5
V5 = -x6*d/dx4 + x4*d/dx6
V6 = -x4*d/dx5 + x5*d/dx4
[omega]
omega = dx(1,2,3,4,5,6)
"""


def test_mixed_signs_name_both_pairs(tmp_path, capsys):
    # so(3) + so(3): the first block closes with sign -1, the second with +1
    action = parse_problem(SO3_PLUS_SO3).build_action()
    with pytest.raises(StructureError) as err:
        validate_action(action)
    assert str(err.value) == (
        "generator fields do not close under one bracket sign: pair (e4, e5) "
        "closes with sign +1 but pair (e1, e2) with sign -1")
    path = tmp_path / "mixed.mmk"
    path.write_text(SO3_PLUS_SO3)
    assert main(["check-action", str(path)]) == 1
    assert "pair (e4, e5) closes with sign +1" in capsys.readouterr().out


def test_a_pair_that_matches_neither_sign_is_named_after_one_that_closes():
    # doubling V4..V6 breaks every bracket of the second block
    doubled = SO3_PLUS_SO3
    for v in ("V4 = -x5*d/dx6 + x6*d/dx5", "V5 = -x6*d/dx4 + x4*d/dx6",
              "V6 = -x4*d/dx5 + x5*d/dx4"):
        doubled = doubled.replace(v, v.replace("-x", "-2*x").replace("+ x", "+ 2*x"))
    with pytest.raises(StructureError) as err:
        validate_action(parse_problem(doubled).build_action())
    assert str(err.value) == ("generator fields do not close under the bracket: "
                              "pair (e4, e5) matches neither sign convention")


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
    fields = [vector_field(n, [Poly.const(n, 1 if j == i else 0)
                                for j in range(n)]) for i in range(3)]
    omega = Form.from_terms(n, 2, [(1, (0, 0, 0), (0, 1))])  # dx1^dx2 on R^3
    action = LieAction(g, fields, omega)
    assert check_multisymplectic(action)["nondegenerate"] is False


def oracle_contraction_matrix_at(omega, point):
    """Matrix of v -> v . omega with omega's coefficients evaluated at a
    point, by the sign rule d/dx_i . dx^idx = (-1)^pos dx^(idx without i) for
    i at position pos of idx: rows indexed by (deg-1)-index tuples, columns
    by ambient basis."""
    n = omega.n
    rows_index = {idx: r for r, idx in
                  enumerate(itertools.combinations(range(n), omega.degree - 1))}
    entries = []
    for idx, p in omega.comps.items():
        c = p.eval(point)
        if not c:
            continue
        for pos, i in enumerate(idx):
            key = idx[:pos] + idx[pos + 1:]
            entries.append((rows_index[key], i, c * ((-1) ** pos)))
    return summed_matrix(entries, len(rows_index), n)


def oracle_nondegeneracy(omega):
    """(nondegenerate, witness) from the oracle matrix at the sample points."""
    for seed in _SAMPLE_SEEDS:
        point = seed(omega.n)
        if rank(oracle_contraction_matrix_at(omega, point)) != omega.n:
            return False, [str(x) for x in point]
        if omega.max_coeff_degree() <= 0:
            return True, None
    return None, None


def test_contraction_matrices_match_the_sign_rule_oracle():
    rng = random.Random(29)
    # (1 - x1) dx1^dx2 drops rank at the sample point (1, 1);
    # (1 + x1^2) dx1^dx2 keeps full rank at every sample point
    degenerate = Form.from_terms(2, 2, [(1, (0, 0), (0, 1)), (-1, (1, 0), (0, 1))])
    uncertified = Form.from_terms(2, 2, [(1, (0, 0), (0, 1)), (1, (2, 0), (0, 1))])
    omegas = [action.omega for action in oracle_actions()] + [degenerate, uncertified]
    omegas += [random_form(rng, n, p, 2, max_terms=4, max_coeff=4)
               for n, p in ((3, 2), (4, 3), (4, 2), (5, 3)) for _ in range(3)]
    verdicts = set()
    for omega in omegas:
        n = omega.n
        columns = [contract(vector_field(n, [Poly.const(n, int(i == j)) for j in range(n)]),
                           omega) for i in range(n)]
        keys = list(itertools.combinations(range(n), omega.degree - 1))
        points = [seed(n) for seed in _SAMPLE_SEEDS]
        points += [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(3)]
        for point in points:
            assert _contraction_matrix_at(columns, keys, point) == \
                oracle_contraction_matrix_at(omega, point), (omega, point)
        res = check_multisymplectic(LieAction(LieAlgebra(0), [], omega))
        want = oracle_nondegeneracy(omega)
        assert (res["nondegenerate"], res.get("nondegenerate_witness")) == want, omega
        verdicts.add(want[0])
    assert verdicts == {True, False, None}
    assert oracle_nondegeneracy(degenerate) == (False, ["1", "1"])
    assert oracle_nondegeneracy(uncertified) == (None, None)


def test_non_preserving_generator_is_listed():
    base = catalog_action("abelian_r3")
    n = 3
    fields = list(base.fields)
    fields[0] = vector_field(n, [Poly(n, {(1, 0, 0): 1}), Poly(n), Poly(n)])  # x1 d/dx1
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


def oracle_generator(action, mv):
    """V_p as the sum of c * V_{t1} ^ ... ^ V_{tk}, each term wedged from
    scratch."""
    n = action.ambient_dim
    unit = MultiField(n, 0, {(): Poly.const(n, 1)})
    degree = len(next(iter(mv))) if mv else 0
    return MultiField.linear_combination(n, degree, (
        (c, reduce(wedge, (action.fields[t] for t in idx), unit))
        for idx, c in mv.items()))


def test_generators_of_every_kernel_match_the_wedge_oracle():
    for action in oracle_actions():
        for k in range(1, action.plectic_degree() + 1):
            kernel = action.kernel(k)
            want = oracle_contractions(action, kernel.multivectors)
            got = contraction_chains(action.fields, action.omega, kernel.multivectors)
            assert got == want, (action.algebra.name, k)
            assert action.contractions([k]) == {k: want}, (action.algebra.name, k)


def oracle_contractions(action, mvs):
    """V_p . omega of each multivector, V_p from `oracle_generator`."""
    return [contract(oracle_generator(action, mv), action.omega) for mv in mvs]


def test_generators_edge_cases():
    action = catalog_action("so4_r4")
    n = action.ambient_dim
    v = action.fields
    cases = [
        [],
        [{}],
        [{(): Fraction(-2, 3)}, {(): 0}],
        [{(0, 1): 0}, {(0, 1): 0, (1, 2): 3}],
        # one tuple shared by several multivectors, and an unsorted tuple
        # that cancels its sorted twin
        [{(0, 1): 1}, {(0, 1): Fraction(-1, 2), (0, 2): 1, (3, 4): 2},
         {(1, 0): 1, (0, 1): 1}, {(0, 1): 2}],
        # degrees 0..3 in one call, each tuple a prefix of the next
        [{(0, 1, 2): 1, (0, 2, 1): 1}, {(0, 1): 1}, {(0,): 2}, {(): 1}],
    ]
    fields, omega = action.fields, action.omega
    for mvs in cases:
        assert contraction_chains(fields, omega, mvs) == oracle_contractions(action, mvs), mvs
    assert [r.degree for r in contraction_chains(fields, omega, cases[3])] == [2, 2]
    assert contraction_chains(fields, omega, cases[4])[2].is_zero()
    assert contraction_chains(fields, omega, cases[5])[0].is_zero()
    assert infinitesimal_generator(action, (0, 1)) == wedge(v[0], v[1])
    assert infinitesimal_generator(action, ()) == MultiField(n, 0, {(): Poly.const(n, 1)})
    # a term of another length counts only with a nonzero coefficient
    assert infinitesimal_generator(action, {(0, 1): 1, (2,): 0}) == wedge(v[0], v[1])
    assert contraction_chains(fields, omega, [{(0, 1): 1, (2,): 0}]) == [
        contract(wedge(v[0], v[1]), action.omega)]
    for mv in ({(0,): 1, (0, 1): 1}, {(0, 1): 0, (2,): 1}):
        with pytest.raises(ValueError):
            contraction_chains(fields, omega, [{(0,): 1}, mv])
        with pytest.raises(ValueError):
            infinitesimal_generator(action, mv)
    # a degree above omega's, as for contract(V_p, omega), even when V_p = 0
    for mv in ({(0, 1, 2, 3, 4): 0}, {(0, 1, 2, 3, 4): 1}):
        with pytest.raises(ValueError):
            contract(oracle_generator(action, mv), action.omega)
        with pytest.raises(ValueError):
            contraction_chains(fields, omega, [mv])
    # the chain contracts vector fields only
    with pytest.raises(ValueError):
        contraction_chains([wedge(v[0], v[1])], omega, [{(0,): 1}])


def kernel_multivectors(g, k):
    basis = exterior_basis(g.dim, k)
    return [column_mv(v, basis) for v in lie_kernel_basis(g, k)]


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
                    tau = random_form(rng, n, p, 2, max_terms=4, max_coeff=4)
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
            tau = random_form(rng, 4, 3, 2, max_terms=4, max_coeff=4)
            assert cartan_residual(action, mv, tau).is_zero(), (k,)


# ---------------------------------------------------------------------------
# closed and invariant forms in a truncation
# ---------------------------------------------------------------------------

def test_monomial_basis_counts():
    assert [len(FormSpace(3, 0, d).keys) for d in (0, 1, 2)] == [1, 4, 10]
    for n in range(1, 5):
        for p in range(n + 1):
            for D in range(3):
                assert len(FormSpace(n, p, D).keys) == comb(n, p) * comb(n + D, D)


def test_form_space_keys_round_trip_and_escape():
    rng = random.Random(27)
    for n in range(1, 5):
        for p in range(n + 1):
            for D in range(3):
                space = FormSpace(n, p, D)
                keys = space.keys
                assert len(keys) == len(set(keys))
                assert all(len(mono) == n and sum(mono) <= D for _, mono in keys)
                # index tuples lexicographic, then monomials by (total degree, exponents)
                assert keys == sorted(keys, key=lambda key: (key[0], sum(key[1]), key[1]))
                assert space.index == {key: r for r, key in enumerate(keys)}
                for _ in range(3):
                    alpha = random_form(rng, n, p, D)
                    assert space.form(space.vector(alpha)) == alpha, (n, p, D)
    with pytest.raises(StructureError) as err:
        FormSpace(3, 1, 0).vector(Form(3, 1, {(0,): Poly(3, {(1, 0, 0): 1})}))
    assert str(err.value) == "form escapes the truncated space at term x1*dx(1)"


def test_truncation_escape_names_the_smallest_key():
    # the message must not depend on the order the form's terms were built in
    x3_sq = Poly(3, {(0, 0, 2): 1})
    x1_cubed = Poly(3, {(3, 0, 0): 1, (1, 0, 0): 1})
    for comps in ({(2,): x1_cubed, (0,): x3_sq}, {(0,): x3_sq, (2,): x1_cubed}):
        with pytest.raises(StructureError) as err:
            FormSpace(3, 1, 1).vector(Form(3, 1, comps))
        assert str(err.value) == "form escapes the truncated space at term x3^2*dx(1)"


def test_closed_form_basis_is_closed_and_complete():
    space = FormSpace(3, 2, 1)
    for v in closed_form_basis(space):
        assert exterior_d(space.form(v)).is_zero()
    # every top-degree form is closed: at p = n the basis is everything
    assert len(closed_form_basis(FormSpace(3, 3, 1))) == 1 + 3  # constant + linear


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
    kahler = Form.from_terms(4, 2, [(1, (0,) * 4, (0, 1)), (1, (0,) * 4, (2, 3))])
    assert invariant_closed_forms(action, 2, 0) == [kahler]
    assert euler_one_form(4) in invariant_closed_forms(action, 1, 1)


def stacked_invariant_closed_forms(action, p, max_degree):
    """Invariant closed p-forms as the nullspace of d stacked over every
    L_{V_i}, all over the key basis (the oracle)."""
    n = action.ambient_dim
    space = FormSpace(n, p, max_degree)
    field_deg = max((v.max_coeff_degree() for v in action.fields), default=0)
    lie_space = FormSpace(n, p, max_degree + max(field_deg - 1, 0))
    d_space = FormSpace(n, p + 1, max(max_degree - 1, 0))
    basis = [space.form({r: 1}) for r in range(len(space.keys))]
    blocks = [d_space.matrix(exterior_d(a) for a in basis)]
    blocks += [lie_space.matrix(lie_derivative(v, a) for a in basis) for v in action.fields]
    return [space.form(v) for v in nullspace(reduce(mat_vstack, blocks))]


def monomial_field(n, i, j, e):
    """x_j^e d/dx_i, 0-based."""
    return vector_field(n, [Poly(n, {tuple(e if m == j else 0 for m in range(n)): 1})
                            if m == i else Poly(n) for m in range(n)])


def test_invariant_closed_forms_match_the_stacked_nullspace():
    cases = [(catalog_action(name), D) for name in ACTIONS for D in (0, 1, 2)]
    # nonlinear fields: x2^2 d/dx1 on R^3, and x2^2 d/dx1, x4^3 d/dx3 on R^4
    r3 = LieAction(LieAlgebra(1), [monomial_field(3, 0, 1, 2)], volume_form(3))
    r4 = LieAction(LieAlgebra(2), [monomial_field(4, 0, 1, 2), monomial_field(4, 2, 3, 3)],
                   volume_form(4))
    cases += [(action, D) for action in (r3, r4) for D in (0, 1, 2, 3)]
    for action, D in cases:
        for p in range(action.ambient_dim + 1):
            want = stacked_invariant_closed_forms(action, p, D)
            assert invariant_closed_forms(action, p, D) == want, (action.algebra, p, D)


def test_truncated_module_action_and_escape():
    action = catalog_action("so3_r3")
    trunc = TruncatedFormModule(action, 1, 1)
    # rotations act degree-preservingly: no escape, representation validates
    assert trunc.signed_module(action.algebra, action.sign()).dim == len(trunc.forms)
    coords = coordinates(trunc.basis_mat, trunc.space.matrix([euler_one_form(3)]))
    assert coords is not None
    assert trunc.from_coords(coords.columns()[0]) == euler_one_form(3)

    # a dilation-like action pushes linear coefficients up in degree: x_i^2 terms
    g = catalog_algebra("abelian3")
    n = 3
    def sq(i):
        expo = tuple(2 if j == i else 0 for j in range(n))
        return Poly(n, {expo: Fraction(1)})
    quad = [vector_field(n, [sq(i) if j == i else Poly(n) for j in range(n)])
            for i in range(3)]
    omega = volume_form(3)
    bad = LieAction(g, quad, omega)
    validate_action(bad)
    # the basis and images are built; the module over them refuses
    with pytest.raises(StructureError) as err:
        TruncatedFormModule(bad, 1, 0).signed_module(g, bad.sign())
    assert str(err.value) == "form escapes the truncated space at term x1*dx(1)"


def test_invariant_closed_forms_are_the_module_invariants():
    for name in ACTIONS:
        action = catalog_action(name)
        n = action.ambient_dim
        for D in (0, 1, 2):
            for p in range(n + 1):
                trunc = TruncatedFormModule(action, p, D)
                module = trunc.signed_module(action.algebra, action.sign())
                want = [trunc.from_coords(v) for v in invariants_basis(module)]
                assert invariant_closed_forms(action, p, D) == want, (name, p, D)


def test_truncated_module_acts_by_the_signed_lie_derivative():
    # abelian_r3 has bracket sign -1, so the sign shows
    for name in ACTIONS:
        action = catalog_action(name)
        s = action.sign()
        trunc = action.truncated_forms(1, 1)
        for v, rho in zip(action.fields, trunc.signed_module(action.algebra, s).rho):
            for col, b in zip(rho.columns(), trunc.forms):
                assert trunc.from_coords(col) == lie_derivative(v, b) * s, name


def test_truncated_module_over_the_zero_algebra_keeps_its_dimension():
    action = LieAction(LieAlgebra(0), [], volume_form(3))
    trunc = TruncatedFormModule(action, 1, 1)
    module = trunc.signed_module(action.algebra, action.sign())
    assert module.dim == len(trunc.forms) == 9  # d of x_i and x_i x_j


def test_kernel_dimensions_are_read_from_the_boundary_ranks():
    # dim P_k = C(dim, k) - rank boundary_k, for the catalog algebras (under
    # zero fields), the bundled problems and so(5); past the top degree too
    algebras = [catalog_algebra(name) for name in ALGEBRAS]
    actions = [LieAction(g, [MultiField.zero(3, 1)] * g.dim, volume_form(3))
               for g in algebras] + oracle_actions()
    for action in actions:
        g = action.algebra
        for k in range(g.dim + 3):
            assert action.kernel_dim(k) == len(lie_kernel_basis(g, k)), (g.name, k)
        assert action.betti() == ce_betti(g), g.name
