"""Module coefficients: representations, CE differentials, cohomology dims."""

import os
import random
from fractions import Fraction

import pytest

import momentkit.gmodule
from momentkit.action import LieAction
from momentkit.cli import catalog_action, main
from momentkit.lie_core import (LieAlgebra, StructureError,
                                boundary_matrix, catalog_algebra, ce_betti, exterior_basis,
                                lie_kernel_basis, sort_with_sign)
from momentkit.linalg import Mat, kron_sum, mat_mul, nullspace, rank, solve_many
from momentkit.gmodule import (GModule, ce_module_differential, cochain_dim,
                               coboundary_solve, dual_module, invariants_basis,
                               lie_kernel_module, module_cohomology_dim,
                               tensor_module, trivial_module)

from support import (ALGEBRAS, NON_UNIMODULAR, PROBLEMS, adjoint_module, column_mv, dense,
                     dense_vector, from_dense, mat_vec, mv_column, problem_actions, schouten,
                     so5_action, sparse_vector, summed_matrix)


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
    out = []
    for row_t, s in enumerate(cod):
        for a in range(len(s)):
            col_t = dompos[s[:a] + s[a + 1:]]
            for u, v, x in m.rho[s[a]].nonzeros():
                out.append((row_t * m.dim + u, col_t * m.dim + v, (-1) ** a * x))
        for a in range(len(s)):
            for b in range(a + 1, len(s)):
                rest = s[:a] + s[a + 1:b] + s[b + 1:]
                for w, c in g.bracket_basis(s[a], s[b]):
                    tsign, t = sort_with_sign((w,) + rest)
                    if tsign == 0:
                        continue
                    for u in range(m.dim):
                        out.append((row_t * m.dim + u, dompos[t] * m.dim + u,
                                    (-1) ** (a + b) * tsign * c))
    return summed_matrix(out, len(cod) * m.dim, len(dom) * m.dim)


def test_representation_property_is_validated():
    g = catalog_algebra("su2")
    adjoint_module(g)  # validates
    broken = [Mat.identity(3)] * 3
    with pytest.raises(StructureError):
        GModule(g, broken).validate()


def test_validation_names_the_first_failing_pair():
    g = catalog_algebra("abelian3")
    a = from_dense([[0, 1], [0, 0]], 2)
    b = from_dense([[0, 0], [1, 0]], 2)
    # [a, b, a] fails on (e0, e1) and (e1, e2), 0-based; the first is named,
    # counting from e1
    for rho, pair in (([Mat.zeros(2, 2), a, b], "(e2, e3)"), ([a, b, a], "(e1, e2)")):
        with pytest.raises(StructureError) as err:
            GModule(g, rho).validate()
        assert str(err.value).endswith(f"on pair {pair}")
    GModule(g, [Mat.zeros(0, 0)] * 3).validate()
    GModule(LieAlgebra(0), [], dim=2).validate()
    GModule(LieAlgebra(1), [from_dense([[1, 2], [0, 3]], 2)]).validate()


def test_trivial_module_acts_by_zero():
    g = catalog_algebra("so3")
    m = trivial_module(g)
    assert all(r.is_zero() for r in m.rho)


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
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        for m in sample_modules(g):
            for k in range(g.dim + 1):
                assert ce_module_differential(m, k) == reference_differential(m, k), \
                    (name, m.name, k)


def test_trivial_coefficients_give_the_transposed_boundary():
    for name in ALGEBRAS:
        g = catalog_algebra(name)
        m = trivial_module(g)
        for k in range(g.dim + 1):
            assert ce_module_differential(m, k) == boundary_matrix(g, k + 1).transpose()


def test_invariants_are_the_joint_kernel_of_the_action():
    def stacked_nullspace(m):
        rows = [row for r in m.rho for row in dense(r)]
        return nullspace(from_dense(rows, m.dim))

    cases = [trivial_module(LieAlgebra(0)), trivial_module(catalog_algebra("so3"), 0)]
    for name in ALGEBRAS:
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


def rank_test_algebras():
    """The catalog, the zero algebra, the generated so(5) and three
    non-unimodular algebras, by name."""
    algebras = {name: catalog_algebra(name) for name in ALGEBRAS}
    algebras["zero"] = LieAlgebra(0)
    algebras["so5_seed1"] = so5_action().algebra
    algebras.update(NON_UNIMODULAR)
    return algebras


def test_zero_action_ranks_match_the_module_differential():
    # read from the boundary (and mirrored when the top degree certifies
    # unimodularity), yet equal to the rank of the kron_sum differential
    for name, g in rank_test_algebras().items():
        for n in (0, 1, 3):
            m = trivial_module(g, n)
            for k in range(g.dim + 2):
                assert m.differential_rank(k) == rank(ce_module_differential(m, k)), \
                    (name, n, k)


def test_a_betti_table_builds_each_boundary_at_most_once(monkeypatch):
    # boundaries 1..(n+1)//2 and n for a unimodular algebra, whose upper
    # degrees are mirrored, and 1..n otherwise; none past the top degree
    built = []

    def counted(g, k):
        built.append(k)
        return boundary_matrix(g, k)

    monkeypatch.setattr(momentkit.gmodule, "boundary_matrix", counted)
    for name, g in rank_test_algebras().items():
        built.clear()
        m = trivial_module(g)
        betti = tuple(module_cohomology_dim(m, k) for k in range(g.dim + 1))
        assert betti == ce_betti(g), name
        n = g.dim
        if name in NON_UNIMODULAR:
            assert sorted(built) == list(range(1, n + 1)), name
        else:
            assert sorted(built) == sorted({n, *range(1, (n + 1) // 2 + 1)} - {0}), name


def test_lie_kernel_module_is_preserved_by_the_action():
    for name in ("so3", "so4", "u2", "heisenberg3"):
        g = catalog_algebra(name)
        for k in range(1, g.dim):
            if not lie_kernel_basis(g, k):
                continue
            lie_kernel_module(g, k)  # raises if ad does not preserve the kernel


def schouten_kernel_module(g, k):
    """What lie_kernel_module(g, k) should give, from the term-by-term
    Schouten bracket [e_i, p] of each kernel basis element p, read in kernel
    coordinates by solve_many: the module's rho, or the StructureError
    message of the first e_i that leaves the kernel or of the failed
    representation check."""
    basis = exterior_basis(g.dim, k)
    kb = lie_kernel_basis(g, k)
    kmat = Mat.from_sparse_columns(kb, len(basis))
    rho = []
    for i in range(g.dim):
        images = [mv_column(schouten(g, {(i,): Fraction(1)}, column_mv(v, basis)), basis)
                  for v in kb]
        coords = solve_many(kmat, Mat.from_sparse_columns(images, len(basis)))
        if coords is None:
            return f"action of e{i + 1} does not preserve lie_kernel(k={k})"
        rho.append(coords)
    return outcome(lambda: GModule(g, rho, name=f"lie_kernel(k={k})").validate())


def outcome(build):
    """The built module's rho, or the message of the StructureError raised."""
    try:
        return build().rho
    except StructureError as err:
        return str(err)


def test_lie_kernel_action_is_the_schouten_bracket():
    cases = [(catalog_algebra(name), k) for name in ALGEBRAS
             for k in range(catalog_algebra(name).dim + 1)]
    cases += [(so5_action().algebra, k) for k in range(4)]
    for g, k in cases:
        want = schouten_kernel_module(g, k)
        assert isinstance(want, list), (g, k)
        assert lie_kernel_module(g, k).rho == want, (g, k)


def test_lie_kernel_refusal_names_the_first_generator_leaving_the_kernel():
    # not a Lie algebra: [e1,e3] = e1 - e2 - e3 + e4, [e2,e3] = e3 (1-based)
    bad = LieAlgebra(4, {(0, 2): {0: 1, 1: -1, 2: -1, 3: 1}, (1, 2): {2: 1}})
    with pytest.raises(StructureError) as err:
        lie_kernel_module(bad, 2)
    assert str(err.value) == "action of e3 does not preserve lie_kernel(k=2)"
    # random bracket tables, nearly all failing Jacobi: the module, the
    # refusal and the representation check's failure all match the oracle
    rng = random.Random(4)
    seen = set()
    for _ in range(60):
        dim = rng.randint(2, 4)
        table = {(i, j): dict(enumerate(rng.choice((0, 0, 1, -1)) for _ in range(dim)))
                 for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.6}
        g = LieAlgebra(dim, table)
        for k in range(1, dim + 1):
            want = schouten_kernel_module(g, k)
            assert outcome(lambda: lie_kernel_module(g, k)) == want, (table, k)
            seen.add(want.split()[0] if isinstance(want, str) else "rho")
    # every outcome occurs: a module, a refusal ("action of ..."), and a
    # kernel kept by a map that is not a representation ("module action ...")
    assert seen == {"rho", "action", "module"}


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
    y = coboundary_solve(ad, 1, sparse_vector(target))
    assert y is not None
    assert mat_vec(d0, dense_vector(y, d0.ncols)) == target


def test_coboundary_solve_rejects_non_cocycles():
    g = catalog_algebra("su2")
    m = trivial_module(g)
    # no 1-cochain on su(2) with trivial coefficients is a cocycle except 0,
    # and a target that is not a cocycle is no coboundary
    v = [Fraction(1), Fraction(0), Fraction(0)]
    d1 = ce_module_differential(m, 1)
    assert any(mat_vec(d1, v))
    assert coboundary_solve(m, 1, sparse_vector(v)) is None


# ---------------------------------------------------------------------------
# the weight-zero part: H*(g, M) = H*(g, M_0)
# ---------------------------------------------------------------------------

def full_cohomology_dim(m, k):
    """h^k from the full module's own ranks, the oracle for the weight-zero
    part that `module_cohomology_dim` reads."""
    rank_in = m.differential_rank(k - 1) if k > 0 else 0
    return cochain_dim(m.algebra, m, k) - m.differential_rank(k) - rank_in


def assert_weight_zero_cohomology(m, label):
    for k in range(m.algebra.dim + 1):
        assert module_cohomology_dim(m, k) == full_cohomology_dim(m, k), (label, k)


def test_weight_zero_cohomology_of_every_problem_module():
    reduced = {}
    for p, action in problem_actions().items():
        for k in range(1, action.plectic_degree() + 1):
            modules = [(("dual", k), action.kernel(k).dual)]
            modules += [(("hom", k, D), action.hom_module(k, D)) for D in (0, 1, 2)]
            for key, m in modules:
                w = m.weight_zero
                reduced[(p, *key)] = (m.dim, None if w is None else w.dim)
                if w is not None:  # else module_cohomology_dim reads m itself
                    assert_weight_zero_cohomology(m, (p, key))
    # u2's central e1 acts invertibly on most of each Hom module and by zero
    # on the dual kernels; co3's Euler field is invertible on every form
    # module; heis's central translation is nilpotent, and nothing reduces
    assert reduced[("u2_r4", "hom", 1, 1)] == (104, 16)
    assert reduced[("u2_r4", "hom", 2, 1)] == (42, 12)
    assert reduced[("co3_r3", "hom", 1, 2)] == (76, 0)
    assert reduced[("heis_r3", "hom", 1, 2)] == (57, None)
    acting = [key for key, (_, w) in reduced.items() if w is not None]
    assert {key[0] for key in acting} == {"u2_r4", "co3_r3"}
    assert {key[1] for key in acting} == {"hom"}


def test_weight_zero_of_a_tensor_the_centre_acts_on_twice():
    # F: u2's 26-dimensional module of closed 2-forms of coefficient degree
    # <= 1.  The central e1 acts on both factors of F* (x) F, and not
    # nilpotently on F*, so its weight-zero part is read from the whole
    # module: F* (x) F_0 and F_0* (x) F_0 would both give h0 = 2, not
    # dim End_g(F) = 16
    action = catalog_action("u2_r4")
    forms = action.truncated_forms(1, 1).signed_module(action.algebra, action.sign())
    m = tensor_module(dual_module(forms), forms)
    assert module_cohomology_dim(m, 0) == full_cohomology_dim(m, 0) == 16
    assert (m.dim, forms.weight_zero.dim, m.weight_zero.dim) == (676, 4, 154)


def test_a_tensor_builds_rho_only_when_a_matrix_is_asked_for(monkeypatch):
    # the centre acts by zero on the dual kernel, so the Hom module's
    # weight-zero part is read from its forms factor; rho is built once, by
    # one kron_sum per generator, when it is read
    hom = catalog_action("u2_r4").hom_module(1, 1)
    assert (hom.dim, hom.weight_zero.dim) == (104, 16)
    assert "rho" not in vars(hom)
    built = []

    def counted(pairs):
        built.append(pairs)
        return kron_sum(pairs)

    monkeypatch.setattr(momentkit.gmodule, "kron_sum", counted)
    assert hom.rho is hom.rho and len(built) == hom.algebra.dim


def test_report_on_u2_builds_no_rho_of_its_acted_on_hom_modules(monkeypatch, capsys):
    # Sigma = 0 by theorem, and each h0 and h1 is read from a weight-zero
    # part, so the k = 1 and k = 2 Hom modules never build rho; g acts by
    # zero on both factors of the 1-dimensional k = 3 one, which is read
    # from its factors, so it builds none either
    homs = {}
    build = LieAction.hom_module

    def recorded(self, k, max_degree):
        homs[k] = build(self, k, max_degree)
        return homs[k]

    monkeypatch.setattr(LieAction, "hom_module", recorded)
    assert main(["report", os.path.join(PROBLEMS, "u2_r4.mmk")]) == 0
    capsys.readouterr()
    assert set(homs) == {1, 2, 3} and homs[3].dim == 1
    assert ["rho" in vars(homs[k]) for k in (1, 2, 3)] == [False, False, False]


def staircase_module(rng, n):
    """A seeded module of the abelian LieAlgebra(n, {}), n = 1 or 2: a direct sum of blocks,
    each spanned by the monomials x^i y^j under a random staircase, with e1
    acting as c1 + x and e2 as c2 + y (multiplication, dropping monomials
    past the staircase), each c zero or not; then conjugated by a random
    unimodular matrix.  For n = 1 the blocks are Jordan blocks."""
    basis, shifts = [], []
    for b in range(rng.randint(1, 3)):
        widths = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2) if n == 2 else 1)),
                        reverse=True)
        basis += [(b, i, j) for j, w in enumerate(widths) for i in range(w)]
        shifts.append([rng.choice((0, 0, 1, -2)) for _ in range(n)])
    pos = {mono: r for r, mono in enumerate(basis)}
    size = len(basis)
    rho = []
    for a in range(n):
        dense = [[0] * size for _ in range(size)]
        for (b, i, j), col in pos.items():
            dense[col][col] = shifts[b][a]
            step = (b, i + 1, j) if a == 0 else (b, i, j + 1)
            if step in pos:
                dense[pos[step]][col] = 1
        rho.append(from_dense(dense, size))
    lower = from_dense([[int(i == j) or (rng.randint(-1, 1) if i > j else 0) for j in range(size)]
                        for i in range(size)], size)
    upper = from_dense([[int(i == j) or (rng.randint(-1, 1) if i < j else 0) for j in range(size)]
                        for i in range(size)], size)
    conj = mat_mul(lower, upper)
    inverse = solve_many(conj, Mat.identity(size))
    return GModule(LieAlgebra(n, {}), [mat_mul(mat_mul(conj, r), inverse) for r in rho]).validate()


def test_weight_zero_cohomology_of_random_abelian_modules():
    rng = random.Random(30)
    for n in (1, 2):
        for trial in range(60):
            assert_weight_zero_cohomology(staircase_module(rng, n), (n, trial))


def test_the_weight_zero_part_of_a_non_commuting_action_is_refused():
    # rho(e1) = diag(0, 1) is not central in this non-representation: its
    # kernel e1 is not preserved by rho(e2), which swaps the coordinates
    m = GModule(LieAlgebra(2, {}),
                [from_dense([[0, 0], [0, 1]], 2), from_dense([[0, 1], [1, 0]], 2)], name="swap")
    with pytest.raises(StructureError) as err:
        m.weight_zero
    assert str(err.value) == "action of e2 does not preserve weight_zero(swap)"
