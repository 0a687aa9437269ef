"""Lie algebra layer: boundaries, Betti numbers, kernels, Schouten bracket."""

from fractions import Fraction
from math import comb

import pytest

from momentkit.lie_core import (ALGEBRA_CATALOG, LieAlgebra, StructureError,
                                boundary_matrix, catalog_algebra, ce_betti,
                                exterior_basis, format_multivector,
                                lie_kernel_basis, mv_boundary, mv_coords,
                                mv_from_coords, mv_term, schouten,
                                unit_vector, validate_jacobi)
from momentkit.linalg import mat_mul

from test_linalg import naive_rank


CATALOG = sorted(ALGEBRA_CATALOG)


def test_catalog_algebras_satisfy_jacobi():
    for name in CATALOG:
        validate_jacobi(catalog_algebra(name))


def test_jacobi_violation_is_reported():
    bad = LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [0, 1, 0]})
    with pytest.raises(StructureError):
        validate_jacobi(bad)


def test_su2_boundary_of_e1_wedge_e2():
    g = catalog_algebra("su2")
    b = mv_boundary(g, {(0, 1): Fraction(1)})
    assert b == {(2,): Fraction(-1)}


def test_boundary_squares_to_zero_everywhere():
    for name in CATALOG:
        g = catalog_algebra(name)
        for k in range(2, g.dim + 1):
            dk = boundary_matrix(g, k)
            dk1 = boundary_matrix(g, k - 1)
            if k >= 2 and dk1.ncols and dk.ncols:
                assert mat_mul(dk1, dk).is_zero(), (name, k)


def test_betti_numbers_match_naive_rank_oracle():
    frozen = {
        "abelian3": [1, 3, 3, 1],
        "su2": [1, 0, 0, 1],
        "so3": [1, 0, 0, 1],
        "heisenberg3": [1, 2, 2, 1],
        "so4": [1, 0, 0, 2, 0, 0, 1],
        "u2": [1, 1, 0, 1, 1],
    }
    for name in CATALOG:
        g = catalog_algebra(name)
        betti = list(ce_betti(g))
        assert betti == frozen[name], name
        # recompute from scratch with the plain elimination oracle
        ranks = {}
        for k in range(1, g.dim + 1):
            m = boundary_matrix(g, k)
            ranks[k] = naive_rank(m.dense()) if m.nrows else 0
        for k in range(g.dim + 1):
            dim_k = comb(g.dim, k)
            rk = ranks.get(k, 0)        # rank of boundary leaving degree k
            rk1 = ranks.get(k + 1, 0)   # rank of boundary entering degree k
            assert betti[k] == dim_k - rk - rk1, (name, k)


def test_poincare_duality_of_betti_tables():
    for name in CATALOG:
        betti = list(ce_betti(catalog_algebra(name)))
        assert betti == betti[::-1], name  # all catalog algebras are unimodular


def test_lie_kernel_dimensions():
    expected = {
        ("so4", 2): 9, ("so4", 3): 11,
        ("u2", 1): 4, ("u2", 2): 3,
        ("su2", 1): 3, ("su2", 2): 0,
        ("abelian3", 2): 3,
        ("heisenberg3", 2): 2,
    }
    for (name, k), dim in expected.items():
        g = catalog_algebra(name)
        assert len(lie_kernel_basis(g, k)) == dim, (name, k)


def test_degree_one_kernel_is_everything():
    for name in CATALOG:
        g = catalog_algebra(name)
        assert len(lie_kernel_basis(g, 1)) == g.dim


def test_kernel_elements_have_zero_boundary():
    for name in CATALOG:
        g = catalog_algebra(name)
        for k in range(1, g.dim + 1):
            basis = exterior_basis(g.dim, k)
            for v in lie_kernel_basis(g, k):
                assert not mv_boundary(g, mv_from_coords(v, basis))


def test_schouten_su2_generators():
    g = catalog_algebra("su2")
    assert schouten(g, {(0,): 1}, {(1,): 1}) == {(2,): Fraction(1)}


def test_schouten_graded_antisymmetry():
    g = catalog_algebra("so4")
    a = {(0, 1): Fraction(1), (2, 3): Fraction(2)}   # degree 2
    b = {(1, 4): Fraction(1)}                        # degree 2
    ab = schouten(g, a, b)
    ba = schouten(g, b, a)
    # [a,b] = -(-1)^{(p-1)(q-1)} [b,a] with p = q = 2
    sign = -(-1) ** ((2 - 1) * (2 - 1))
    assert ab == {key: sign * c for key, c in ba.items()}


def test_schouten_extends_ad_action():
    # [xi, e_a ^ e_b] = [xi, e_a] ^ e_b + e_a ^ [xi, e_b] on so4 basis 2-vectors
    g = catalog_algebra("so4")
    xis = [unit_vector(i, 6) for i in range(6)]
    xis.append([Fraction(x) for x in (1, 0, -2, 0, 3, 1)])
    for xi in xis:
        for a, b in exterior_basis(6, 2):
            want = {}
            for m, c in enumerate(g.bracket(xi, unit_vector(a, 6))):
                mv_term(want, (m, b), c)
            for m, c in enumerate(g.bracket(xi, unit_vector(b, 6))):
                mv_term(want, (a, m), c)
            got = schouten(g, mv_from_coords(xi, exterior_basis(6, 1)),
                           {(a, b): Fraction(1)})
            assert got == want


def test_format_multivector_output():
    assert format_multivector({}) == "0"
    assert format_multivector({(0,): Fraction(1)}) == "e1"
    s = format_multivector({(0, 1): Fraction(1), (2, 3): Fraction(-2)})
    assert s == "e1^e2 - 2*e3^e4"


def test_exterior_basis_sizes():
    assert len(exterior_basis(6, 3)) == comb(6, 3)
    assert exterior_basis(3, 1) == [(0,), (1,), (2,)]


def test_boundary_matrix_against_componentwise_boundary():
    g = catalog_algebra("u2")
    for k in (2, 3):
        basis_k = exterior_basis(g.dim, k)
        basis_k1 = exterior_basis(g.dim, k - 1)
        m = boundary_matrix(g, k)
        for j, t in enumerate(basis_k):
            image = mv_boundary(g, {t: Fraction(1)})
            assert mv_coords(image, basis_k1) == m.col(j), (k, t)
