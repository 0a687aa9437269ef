"""Lie algebra layer: boundaries, Betti numbers, kernels, Schouten bracket.

`oracle_boundary` is the boundary of a basis k-vector written with
`support.mv_term`, the oracle for `boundary_of_tuple`.
`oracle_boundary_matrix` and `oracle_wedge_matrix` sum their entries one by
one through `support.summed_matrix`, the oracles for the sparse-column
builds of `boundary_matrix` and `wedge_matrix`."""

import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import momentkit.gmodule
import momentkit.lie_core
from momentkit.gmodule import trivial_module
from momentkit.lie_core import (LieAlgebra, StructureError,
                                boundary_matrix, boundary_of_tuple,
                                catalog_algebra, ce_betti, exterior_basis,
                                format_multivector, lie_kernel_basis, sort_with_sign,
                                validate_jacobi, wedge_matrix)
from momentkit.cli import catalog_action, main, parse_problem
from momentkit.linalg import mat_mul

from support import (ALGEBRAS, BUNDLED, GOLDEN, INLINE_ALGEBRAS, NON_UNIMODULAR, column_mv,
                     dense, inline_algebra_problem, mv_boundary, mv_column, mv_term,
                     naive_rank, schouten, so5_action, sparse_vector, summed_matrix)


def oracle_boundary(g, t):
    """sum over positions a<b of (-1)^(a+b) (1-indexed) [e_{t_a}, e_{t_b}]
    wedged with the remaining factors, each term sorted by `mv_term`."""
    out = {}
    k = len(t)
    for a in range(k):
        for b in range(a + 1, k):
            sign = (-1) ** ((a + 1) + (b + 1))
            rest = t[:a] + t[a + 1:b] + t[b + 1:]
            for m, c in g.bracket_basis(t[a], t[b]):
                mv_term(out, (m,) + rest, sign * c)
    return out


def test_catalog_algebras_satisfy_jacobi():
    for name in ALGEBRAS:
        validate_jacobi(catalog_algebra(name))


def test_jacobi_violation_is_reported():
    bad = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})
    with pytest.raises(StructureError):
        validate_jacobi(bad)


def test_jacobi_failure_names_the_first_failing_triple():
    # [e0,e1] = e2, [e1,e3] = e1, [e2,e3] = e0 (0-based): the Jacobiator of
    # (e0, e1, e3) is e0 - e2 and that of (e1, e2, e3) is e2; (e0, e1, e2) and
    # (e0, e2, e3) satisfy Jacobi.  Messages count from e1.
    bad = LieAlgebra(4, {(0, 1): {2: 1}, (1, 3): {1: 1}, (2, 3): {0: 1}})
    with pytest.raises(StructureError) as err:
        validate_jacobi(bad)
    assert str(err.value) == "Jacobi identity fails on basis triple (e1, e2, e4)"


def test_wedge_matrix_against_mv_term():
    for dim in range(7):
        for i in range(dim):
            for k in range(dim + 1):
                dom, cod = exterior_basis(dim, k), exterior_basis(dim, k + 1)
                m = wedge_matrix(dim, i, k)
                assert m.shape == (len(cod), len(dom))
                for t, col in zip(dom, m.columns()):
                    want = {}
                    mv_term(want, (i,) + t, Fraction(1))
                    assert mv_column(want, cod) == col, (dim, i, k, t)
                    assert bool(col) == (i not in t)


def test_su2_boundary_of_e1_wedge_e2():
    g = catalog_algebra("su2")
    b = mv_boundary(g, {(0, 1): Fraction(1)})
    assert b == {(2,): Fraction(-1)}


def test_so4_row_is_the_commutators_of_the_basis_matrices():
    # the catalog writes so(4)'s structure constants out; here they are
    # recomputed as commutators of E_ij = e_i e_j^T - e_j e_i^T (i < j,
    # lexicographic) and each commutator is read in that basis
    pairs = list(combinations(range(4), 2))

    def basis_matrix(i, j):
        m = [[0] * 4 for _ in range(4)]
        m[i][j], m[j][i] = 1, -1
        return m

    def commutator(a, b):
        return [[sum(a[r][m] * b[m][c] - b[r][m] * a[m][c] for m in range(4))
                 for c in range(4)] for r in range(4)]

    mats = [basis_matrix(i, j) for i, j in pairs]
    g = catalog_algebra("so4")
    assert g.dim == len(mats) == 6
    for a, b in combinations(range(6), 2):
        comm = commutator(mats[a], mats[b])
        terms = {m: comm[i][j] for m, (i, j) in enumerate(pairs) if comm[i][j]}
        rebuilt = [[sum(x * mats[m][r][c] for m, x in terms.items()) for c in range(4)]
                   for r in range(4)]
        assert rebuilt == comm, (a, b)  # the commutator lies in the span
        assert g.bracket_basis(a, b) == tuple(sorted(terms.items())), (a, b)


def test_boundary_squares_to_zero_everywhere():
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        for k in range(2, g.dim + 1):
            dk = boundary_matrix(g, k)
            dk1 = boundary_matrix(g, k - 1)
            if k >= 2 and dk1.ncols and dk.ncols:
                assert mat_mul(dk1, dk).is_zero(), (name, k)


def naive_boundary_ranks(g):
    """Rank of the boundary of every degree 0..dim+1 by the dense oracle,
    each degree ranked on its own."""
    ranks = []
    for k in range(g.dim + 2):
        m = boundary_matrix(g, k)
        ranks.append(naive_rank(dense(m)) if m.nrows else 0)
    return tuple(ranks)


@pytest.fixture(scope="module")
def duality():
    """name -> (algebra, its naive_boundary_ranks), for the catalog, the
    bundled problems' algebras, the generated so(5), the zero algebra and
    the non-unimodular pair."""
    algebras = {name: catalog_algebra(name) for name in ALGEBRAS}
    algebras.update({f"{name}.mmk": catalog_action(name).algebra for name in BUNDLED})
    algebras["so5_seed1.mmk"] = so5_action().algebra
    algebras["zero"] = LieAlgebra(0)
    algebras.update(NON_UNIMODULAR)
    return {name: (g, naive_boundary_ranks(g)) for name, g in algebras.items()}


def trivial_boundary_ranks(g):
    """Rank of the boundary of every degree 0..dim+1, read from a fresh
    trivial module: rank boundary_k is the rank of its d^{k-1}."""
    m = trivial_module(g)
    return tuple(m.differential_rank(k - 1) for k in range(g.dim + 2))


def test_boundary_ranks_match_the_naive_rank_oracle(duality):
    for name, (g, ranks) in duality.items():
        assert trivial_boundary_ranks(g) == ranks, name
    assert trivial_boundary_ranks(NON_UNIMODULAR["aff1"]) == (0, 0, 1, 0)
    assert ce_betti(NON_UNIMODULAR["aff1"]) == (1, 1, 0)
    assert trivial_boundary_ranks(NON_UNIMODULAR["solvable3"]) == (0, 0, 2, 1, 0)
    assert ce_betti(NON_UNIMODULAR["solvable3"]) == (1, 1, 0, 0)
    # Kuenneth: (1, 1, 0) times (1, 1, 0); rank boundary_3 = 3 but rank boundary_2 = 2
    assert trivial_boundary_ranks(NON_UNIMODULAR["aff1+aff1"]) == (0, 0, 2, 3, 1, 0)
    assert ce_betti(NON_UNIMODULAR["aff1+aff1"]) == (1, 2, 1, 0, 0)


def test_only_unimodular_algebras_mirror_their_ranks(duality, monkeypatch):
    built = []

    def counted(g, k):
        built.append(k)
        return boundary_matrix(g, k)

    monkeypatch.setattr(momentkit.gmodule, "boundary_matrix", counted)
    for name, (g, _) in duality.items():
        built.clear()
        trivial_boundary_ranks(g)
        n, half = g.dim, (g.dim + 1) // 2
        # the top degree comes before any degree past the middle: its rank
        # is the unimodularity certificate that allows the mirror
        assert all(built.index(n) < built.index(j) for j in built if half < j < n), name
        if name in NON_UNIMODULAR:
            assert sorted(built) == list(range(1, n + 1)), name
        else:
            assert sorted(built) == sorted({n, *range(1, half + 1)} - {0}), name


def test_poincare_duality_of_betti_tables(duality):
    # Betti numbers from every degree ranked on its own, so the palindrome
    # is the duality theorem at work and not the mirror in
    # GModule.differential_rank
    for name, (g, _) in duality.items():
        betti = list(ce_betti(g))
        if name in NON_UNIMODULAR:
            assert betti != betti[::-1], name
        else:
            assert betti == betti[::-1], name


def test_so5_cohomology_builds_half_the_boundaries(monkeypatch, capsys):
    # degrees 2 and 3 for the Jacobi check, then degrees 1..5 and the top
    # degree 10, whose rank certifies the mirror; degrees 6..9 are mirrored
    # and nothing past the top degree is built
    built = []

    def counted(g, k):
        built.append(k)
        return boundary_matrix(g, k)

    monkeypatch.setattr(momentkit.lie_core, "boundary_matrix", counted)
    monkeypatch.setattr(momentkit.gmodule, "boundary_matrix", counted)
    assert main(["cohomology", os.path.join(GOLDEN, "so5_seed1.mmk")]) == 0
    assert "(1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1)" in capsys.readouterr().out
    assert built == [2, 3, 1, 2, 3, 4, 5, 10]


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
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        assert len(lie_kernel_basis(g, 1)) == g.dim


def test_kernel_elements_have_zero_boundary():
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        for k in range(1, g.dim + 1):
            basis = exterior_basis(g.dim, k)
            for v in lie_kernel_basis(g, k):
                assert not mv_boundary(g, column_mv(v, basis))


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

    def ad(xi, a):
        """Coefficient vector of [xi, e_a]."""
        out = [Fraction(0)] * g.dim
        for i, x in enumerate(xi):
            for m, c in g.bracket_basis(i, a):
                out[m] += x * c
        return out

    def unit_vector(i, n):
        return [Fraction(int(m == i)) for m in range(n)]

    xis = [unit_vector(i, 6) for i in range(6)]
    xis.append([Fraction(x) for x in (1, 0, -2, 0, 3, 1)])
    for xi in xis:
        for a, b in exterior_basis(6, 2):
            want = {}
            for m, c in enumerate(ad(xi, a)):
                mv_term(want, (m, b), c)
            for m, c in enumerate(ad(xi, b)):
                mv_term(want, (a, m), c)
            got = schouten(g, column_mv(sparse_vector(xi), exterior_basis(6, 1)),
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


def random_bracket_table(rng, dim):
    """A seeded table of rational structure constants; most violate Jacobi."""
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.6:
                vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                       if rng.random() < 0.4 else 0 for _ in range(dim)]
                brackets[(i, j)] = {m: c for m, c in enumerate(vec) if c}
    return LieAlgebra(dim, brackets, name=f"random{dim}")


def assert_bracket_contract(g):
    """`bracket_basis(i, j)` is the tuple of nonzero (m, c) terms of
    [e_i, e_j], m ascending; (m, -c) for i > j; () on the diagonal."""
    for i in range(g.dim):
        assert g.bracket_basis(i, i) == (), (g.name, i)
        for j in range(i + 1, g.dim):
            terms = g.bracket_basis(i, j)
            assert type(terms) is tuple, (g.name, i, j)
            ms = [m for m, _ in terms]
            assert ms == sorted(set(ms)) and all(0 <= m < g.dim for m in ms), (g.name, i, j)
            assert all(type(c) is Fraction and c for _, c in terms), (g.name, i, j)
            assert g.bracket_basis(j, i) == tuple((m, -c) for m, c in terms), (g.name, i, j)
            assert g.table.get((i, j), ()) == terms, (g.name, i, j)
    assert all(g.table.values()), g.name


def test_bracket_basis_yields_the_nonzero_terms():
    rng = random.Random(17)
    algebras = [catalog_algebra(name) for name in ALGEBRAS] + [so5_action().algebra]
    algebras += [random_bracket_table(rng, dim) for dim in (1, 2, 3, 4, 5, 6) for _ in range(3)]
    for dim, brackets, table in INLINE_ALGEBRAS:
        g = parse_problem(inline_algebra_problem(dim, brackets)).algebra
        assert g.table == table, brackets
        algebras.append(g)
    for g in algebras:
        assert_bracket_contract(g)
    assert catalog_algebra("su2").bracket_basis(2, 0) == ((1, Fraction(1)),)


def test_bracket_terms_are_sorted_and_checked():
    g = LieAlgebra(3, {(0, 1): {2: 0, 1: -1, 0: Fraction(1, 2)}, (0, 2): {0: 0}})
    assert g.table == {(0, 1): ((0, Fraction(1, 2)), (1, Fraction(-1)))}
    assert g.bracket_basis(1, 0) == ((0, Fraction(-1, 2)), (1, Fraction(1)))
    for bad in ({(0, 1): {3: 1}}, {(0, 1): {-1: 1}}, {(0, 1): [0, 0, 1]},
                {(0, 1): ((2, 1),)}, {(1, 0): {2: 1}}):
        with pytest.raises(ValueError):
            LieAlgebra(3, bad)


def test_boundary_of_tuple_matches_the_mv_term_oracle():
    rng = random.Random(2027)
    algebras = [catalog_algebra(name) for name in ALGEBRAS] + [so5_action().algebra]
    algebras += [random_bracket_table(rng, dim) for dim in (1, 2, 3, 4, 5, 6) for _ in range(3)]
    for g in algebras:
        for k in range(g.dim + 1):
            for t in exterior_basis(g.dim, k):
                got = boundary_of_tuple(g, t)
                assert got == oracle_boundary(g, t), (g.name, t)
                assert all(type(c) is Fraction and c for c in got.values()), (g.name, t)


def test_boundary_matrix_against_componentwise_boundary():
    g = catalog_algebra("u2")
    for k in (2, 3):
        basis_k = exterior_basis(g.dim, k)
        basis_k1 = exterior_basis(g.dim, k - 1)
        for t, col in zip(basis_k, boundary_matrix(g, k).columns()):
            image = mv_boundary(g, {t: Fraction(1)})
            assert mv_column(image, basis_k1) == col, (k, t)


def oracle_boundary_matrix(g, k):
    dom = exterior_basis(g.dim, k)
    cod = exterior_basis(g.dim, k - 1)
    pos = {t: i for i, t in enumerate(cod)}
    return summed_matrix([(pos[u], j, x) for j, t in enumerate(dom)
                          for u, x in boundary_of_tuple(g, t).items()], len(cod), len(dom))


def oracle_wedge_matrix(dim, i, k):
    dom = exterior_basis(dim, k)
    cod = exterior_basis(dim, k + 1)
    pos = {t: r for r, t in enumerate(cod)}
    entries = []
    for j, t in enumerate(dom):
        sign, s = sort_with_sign((i,) + t)
        if sign:
            entries.append((pos[s], j, sign))
    return summed_matrix(entries, len(cod), len(dom))


def test_sparse_column_builds_match_the_entrywise_oracles():
    algebras = [catalog_algebra(name) for name in ALGEBRAS] + [so5_action().algebra]
    for g in algebras:
        for k in range(g.dim + 2):
            got = boundary_matrix(g, k)
            assert got == oracle_boundary_matrix(g, k), (g.name, k)
            assert all(type(x) is Fraction and x for _, _, x in got.nonzeros())
            for i in range(g.dim):
                got = wedge_matrix(g.dim, i, k)
                assert got == oracle_wedge_matrix(g.dim, i, k), (g.dim, i, k)
                assert all(type(x) is Fraction for _, _, x in got.nonzeros())


def unit_vectors(indices):
    return [{j: Fraction(1)} for j in indices]


def test_center_of_the_catalog_and_generated_algebras():
    sl2 = catalog_action("sl2_r2").algebra
    for g in (catalog_algebra("so3"), catalog_algebra("so4"), sl2, so5_action().algebra):
        assert g.center == [], g.name
    assert catalog_algebra("u2").center == unit_vectors([0])
    assert catalog_algebra("heisenberg3").center == unit_vectors([2])
    for n in (0, 1, 3):
        assert LieAlgebra(n, {}).center == unit_vectors(range(n))
    assert SKEW_CENTER.center == [{0: 1, 1: 1}]


# [e1, e3] = e3 and [e2, e3] = -e3: the centre is spanned by e1 + e2
SKEW_CENTER = LieAlgebra(3, {(0, 2): {2: 1}, (1, 2): {2: -1}}, name="skew_center")


def test_center_vectors_bracket_to_zero_with_every_basis_element():
    algebras = [catalog_algebra(name) for name in ALGEBRAS]
    algebras += [catalog_action("sl2_r2").algebra, so5_action().algebra]
    algebras += list(NON_UNIMODULAR.values()) + [SKEW_CENTER]
    for g in algebras:
        for z in g.center:
            for j in range(g.dim):
                bracket = {}
                for i, x in z.items():
                    for m, c in g.bracket_basis(i, j):
                        bracket[m] = bracket.get(m, 0) + x * c
                assert not any(bracket.values()), (g.name, z, j)
