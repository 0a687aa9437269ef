"""Module coefficients: representations, CE differentials, cohomology dims."""

from fractions import Fraction

import pytest

from momentkit.lie_core import (ALGEBRA_CATALOG, LieAlgebra, StructureError,
                                boundary_matrix, catalog_algebra, exterior_basis,
                                lie_kernel_basis, sort_with_sign)
from momentkit.linalg import Mat, mat_mul, mat_vec, nullspace
from momentkit.gmodule import (GModule, ce_module_differential, cochain_dim,
                               coboundary_solve, dual_module, invariants_basis,
                               lie_kernel_module, module_cohomology_dim,
                               tensor_module, trivial_module)


def adjoint_module(g):
    mats = [Mat([[g.bracket_basis(i, j)[m] for j in range(g.dim)]
                 for m in range(g.dim)], ncols=g.dim) for i in range(g.dim)]
    return GModule(g, mats, name="adjoint")


def sample_modules(g):
    """Trivial, adjoint and dual adjoint modules, and each nonzero Lie-kernel
    module and its dual."""
    ad = adjoint_module(g)
    out = [trivial_module(g), ad, dual_module(ad)]
    for k in range(1, g.dim + 1):
        if lie_kernel_basis(g, k):
            kernel = lie_kernel_module(g, k)
            out += [kernel, dual_module(kernel)]
    return out


def reference_differential(m, k):
    """The Chevalley-Eilenberg differential written entry by entry, action
    terms and bracket terms alike (the oracle for ce_module_differential)."""
    g = m.algebra
    dom = exterior_basis(g.dim, k)
    cod = exterior_basis(g.dim, k + 1)
    dompos = {t: i for i, t in enumerate(dom)}
    out = Mat.zeros(len(cod) * m.dim, len(dom) * m.dim)
    for row_t, s in enumerate(cod):
        for a in range(len(s)):
            col_t = dompos[s[:a] + s[a + 1:]]
            for u, v, x in m.rho[s[a]].nonzeros():
                out.add(row_t * m.dim + u, col_t * m.dim + v, (-1) ** a * x)
        for a in range(len(s)):
            for b in range(a + 1, len(s)):
                rest = s[:a] + s[a + 1:b] + s[b + 1:]
                for w, c in enumerate(g.bracket_basis(s[a], s[b])):
                    if not c:
                        continue
                    tsign, t = sort_with_sign((w,) + rest)
                    if tsign == 0:
                        continue
                    for u in range(m.dim):
                        out.add(row_t * m.dim + u, dompos[t] * m.dim + u,
                                (-1) ** (a + b) * tsign * c)
    return out


def test_representation_property_is_validated():
    g = catalog_algebra("su2")
    adjoint_module(g)  # validates in the constructor
    broken = [Mat.identity(3)] * 3
    with pytest.raises(StructureError):
        GModule(g, broken)


def test_trivial_module_acts_by_zero():
    g = catalog_algebra("so3")
    m = trivial_module(g)
    assert m.act([1, 2, 3], [Fraction(5)]) == [Fraction(0)]


def test_dual_and_tensor_dimensions():
    g = catalog_algebra("so4")
    ad = adjoint_module(g)
    assert dual_module(ad).dim == 6
    assert tensor_module(ad, dual_module(ad)).dim == 36


def test_module_over_the_zero_algebra_keeps_its_dimension():
    m = trivial_module(LieAlgebra(0), 3)
    assert m.dim == 3
    assert module_cohomology_dim(m, 0) == 3
    assert dual_module(m).dim == 3 and tensor_module(m, m).dim == 9
    with pytest.raises(ValueError):
        GModule(catalog_algebra("so3"), [Mat.zeros(2, 2)] * 3, dim=3)


def test_differential_matches_the_entrywise_reference():
    for name in ALGEBRA_CATALOG:
        g = catalog_algebra(name)
        for m in sample_modules(g):
            for k in range(g.dim + 1):
                assert ce_module_differential(m, k) == reference_differential(m, k), \
                    (name, m.name, k)


def test_trivial_coefficients_give_the_transposed_boundary():
    for name in ALGEBRA_CATALOG:
        g = catalog_algebra(name)
        m = trivial_module(g)
        for k in range(g.dim + 1):
            assert ce_module_differential(m, k) == boundary_matrix(g, k + 1).transpose()


def test_invariants_are_the_joint_kernel_of_the_action():
    def stacked_nullspace(m):
        rows = [row for r in m.rho for row in r.dense()]
        return nullspace(Mat(rows, ncols=m.dim))

    cases = [trivial_module(LieAlgebra(0)), trivial_module(catalog_algebra("so3"), 0)]
    for name in ALGEBRA_CATALOG:
        cases += sample_modules(catalog_algebra(name))
    for m in cases:
        assert invariants_basis(m) == stacked_nullspace(m), m


def test_module_differential_squares_to_zero():
    for name in ("su2", "so3", "so4", "heisenberg3", "u2"):
        g = catalog_algebra(name)
        for m in sample_modules(g):
            for k in range(g.dim):
                d1 = ce_module_differential(m, k)
                d2 = ce_module_differential(m, k + 1)
                if d1.ncols and d2.nrows:
                    assert mat_mul(d2, d1).is_zero(), (name, m.name, k)


def test_whitehead_vanishing_for_so3_adjoint():
    g = catalog_algebra("so3")
    ad = adjoint_module(g)
    assert module_cohomology_dim(ad, 1) == 0
    assert module_cohomology_dim(ad, 2) == 0


def test_trivial_coefficients_match_betti():
    g = catalog_algebra("u2")
    m = trivial_module(g)
    assert [module_cohomology_dim(m, k) for k in range(5)] == [1, 1, 0, 1, 1]


def test_lie_kernel_module_is_preserved_by_the_action():
    for name in ("so3", "so4", "u2", "heisenberg3"):
        g = catalog_algebra(name)
        for k in range(1, g.dim):
            if not lie_kernel_basis(g, k):
                continue
            lie_kernel_module(g, k)  # raises if ad does not preserve the kernel


def test_dual_kernel_invariants_dimensions():
    expected = {("u2", 1): 1, ("so4", 2): 0, ("so4", 3): 2}
    for (name, k), h0 in expected.items():
        g = catalog_algebra(name)
        m = dual_module(lie_kernel_module(g, k))
        assert module_cohomology_dim(m, 0) == h0, (name, k)
        assert len(invariants_basis(m)) == h0


def test_cochain_dimension_bookkeeping():
    g = catalog_algebra("so4")
    ad = adjoint_module(g)
    assert cochain_dim(g, ad, 0) == 6
    assert cochain_dim(g, ad, 1) == 36
    assert cochain_dim(g, ad, 2) == 90


def test_coboundary_solve_round_trip():
    g = catalog_algebra("so3")
    ad = adjoint_module(g)
    # pick x in C^0 = V, push to a 1-coboundary, solve back, compare images
    x = [Fraction(1), Fraction(-2), Fraction(3)]
    d0 = ce_module_differential(ad, 0)
    target = mat_vec(d0, x)
    y = coboundary_solve(ad, 1, target)
    assert y is not None
    assert mat_vec(d0, y) == target


def test_coboundary_solve_rejects_non_cocycles():
    g = catalog_algebra("su2")
    m = trivial_module(g)
    # no 1-cochain on su(2) with trivial coefficients is a cocycle except 0
    v = [Fraction(1), Fraction(0), Fraction(0)]
    d1 = ce_module_differential(m, 1)
    assert any(mat_vec(d1, v))
    with pytest.raises(StructureError):
        coboundary_solve(m, 1, v)
