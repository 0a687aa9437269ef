"""The symplectic case (plectic degree n = 1) as an exact oracle.

For n = 1 the Lie kernel P_1 is the whole algebra, because the boundary of
degree 1 is zero, and the closed 0-forms are the constants.  So the k = 1
Hom module is g* in every truncation, and its h^0 is dim (g*)^g = b_1.
Sigma of a moment map has constant entries, and c(e_i, e_j) =
Sigma(e_i)(e_j) is Souriau's cocycle, antisymmetric.  A correction l with
delta l = Sigma exists exactly when c = lambda o boundary_2 for some lambda
in g*, that is when [c] = 0 in H^2(g) (Souriau; Guillemin and Sternberg,
*Symplectic Techniques in Physics*, 1984).  The oracle below decides that on
the trivial-coefficient complex alone, with `boundary_matrix`, and shares no
code with the Hom modules that `make_equivariant` solves in.

Every bundled problem with n = 1 is checked: `abelian_r2` (translations of
the plane, [c] != 0, obstructed) and `sl2_r2` (a linear action, Sigma = 0).
Each map is also checked shifted by constants, which keeps it a moment map
and, for sl(2), makes Sigma a nonzero coboundary that the repair removes."""

import itertools
import os

from momentkit.cli import PROBLEMS, parse_problem, read_problem_text, serialize_problem
from momentkit.gmodule import module_cohomology_dim
from momentkit.lie_core import boundary_matrix, exterior_basis
from momentkit.linalg import solve
from momentkit.moment import MomentMap, construct_poincare, make_equivariant
from momentkit.polyform import Form, exterior_d

from support import sparse_vector


def symplectic_problems():
    """(file name, ProblemFile) of every bundled problem whose omega is a
    2-form."""
    for name in sorted(os.listdir(PROBLEMS)):
        pf = parse_problem(read_problem_text(os.path.join(PROBLEMS, name)))
        if pf.omega.degree == 2:
            yield name, pf


def constant(form):
    """The value of a closed 0-form."""
    assert form.degree == 0 and exterior_d(form).is_zero()
    poly = form.comps.get(())
    return 0 if poly is None else poly.eval([0] * form.n)


def souriau_cocycle(mm):
    """c[i][j] = Sigma(e_i)(e_j) of the degree-1 component of a moment map
    on a symplectic action."""
    sigma = mm.sigma(1)
    dim = mm.action.algebra.dim
    return [[constant(sigma[i][j]) for j in range(dim)] for i in range(dim)]


def is_coboundary(g, c):
    """Whether c(e_i, e_j) = lambda(boundary_2(e_i ^ e_j)) over the pairs
    i < j for some lambda in g*."""
    target = [c[i][j] for i, j in exterior_basis(g.dim, 2)]
    return solve(boundary_matrix(g, 2).transpose(), sparse_vector(target)) is not None


def shifted(mm, values):
    """The map f_1 + values, each value a constant 0-form."""
    n = mm.action.ambient_dim
    return MomentMap(mm.action, {1: [f + Form.from_terms(n, 0, [(x, [0] * n, ())])
                                     for f, x in zip(mm.component(1), values)]})


def test_symplectic_verdicts_match_the_trivial_complex():
    names = []
    for name, pf in symplectic_problems():
        names.append(name)
        action = pf.build_action()
        g = action.algebra
        assert action.kernel(1).basis == [{b: 1} for b in range(g.dim)], name  # P_1 = g
        poincare = construct_poincare(action, [1])
        for mm in (poincare, shifted(poincare, range(1, g.dim + 1))):
            c = souriau_cocycle(mm)
            assert all(c[i][j] == -c[j][i]
                       for i, j in itertools.product(range(g.dim), repeat=2)), name
            repairable = is_coboundary(g, c)
            for D in (0, 1, 2):
                assert module_cohomology_dim(action.hom_module(1, D), 0) == action.betti()[1]
                _, _, status = make_equivariant(mm, 1, D)
                assert (status in ("repaired", "already equivariant")) == repairable, \
                    (name, D, status)
    assert {"abelian_r2.mmk", "sl2_r2.mmk"} <= set(names)


def test_symplectic_problems_round_trip_through_the_serializer():
    for name, pf in symplectic_problems():
        again = parse_problem(serialize_problem(pf))
        assert again.algebra.table == pf.algebra.table, name
        assert (again.algebra_ref, again.ambient_dim, again.fields, again.omega, again.ks,
                again.max_poly_degree) == (pf.algebra_ref, pf.ambient_dim, pf.fields,
                                           pf.omega, pf.ks, pf.max_poly_degree), name
