"""Exact rational linear algebra: rank/rref/nullspace/solve."""

import random
from fractions import Fraction
from math import gcd

import pytest

from momentkit.linalg import (Mat, _axpy, _eliminate, _integer_rows,
                              coordinates, frac, kron_sum, mat_hstack, mat_mul,
                              mat_scale, mat_vstack, nullspace, rank, rref, solve,
                              solve_many)

from support import (dense, dense_vector, entry, from_dense, mat_vec, naive_rank,
                     naive_rref, sparse_vector, summed_matrix)


def from_dense_columns(cols, nrows):
    """The Mat whose columns are the lists of nrows numbers in `cols`."""
    assert all(len(col) == nrows for col in cols)
    return Mat.from_sparse_columns([sparse_vector(col) for col in cols], nrows)


def in_span(vectors, v) -> bool:
    """Is v in the span of the given vectors (all plain lists)?"""
    if not vectors:
        return all(x == 0 for x in v)
    a = from_dense_columns(vectors, len(v))
    return solve(a, sparse_vector(v)) is not None


def random_matrix(rng, m, n, density=0.7):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             if rng.random() < density else Fraction(0)
             for _ in range(n)] for _ in range(m)]


def test_rank_matches_naive_elimination():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_matrix(rng, m, n)
        assert rank(from_dense(rows, n)) == naive_rank(rows)


def test_rref_reproduces_row_space():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        rows = random_matrix(rng, m, n)
        a = from_dense(rows, n)
        r, pivots = rref(a)
        assert rank(r) == rank(a) == len(pivots)
        # every original row lies in the span of the reduced rows
        rvecs = [row for row in dense(r) if any(row)]
        for row in rows:
            assert in_span(rvecs, list(row))


def test_nullspace_vectors_are_killed():
    rng = random.Random(13)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = from_dense(random_matrix(rng, m, n), n)
        null = nullspace(a)
        assert len(null) == n - rank(a)
        for v in null:
            assert all(x == 0 for x in mat_vec(a, dense_vector(v, n)))


def test_solve_round_trip_and_unsolvable():
    a = from_dense([[1, 2], [3, 4], [5, 6]], 2)
    x = solve(a, sparse_vector([5, 11, 17]))  # = a @ (1, 2)
    assert x == {0: 1, 1: 2}
    assert mat_vec(a, dense_vector(x, 2)) == [frac(5), frac(11), frac(17)]
    assert solve(a, {0: 1}) is None


def test_solve_many_columns():
    a = from_dense([[2, 0], [0, 3]], 2)
    b = from_dense([[4, 2], [9, 3]], 2)
    x = solve_many(a, b)
    assert x is not None
    assert mat_mul(a, x) == b
    assert solve_many(a, from_dense([[1, 0], [0, 1], ], 2)) is not None
    bad = from_dense([[1], [1]], 1)
    assert solve_many(from_dense([[1], [1]], 1), bad) is not None
    assert solve_many(from_dense([[1, 1]], 2).transpose(), from_dense([[1], [2]], 1)) is None


def test_coordinates_match_solve_many():
    # canonical bases: nullspaces of seeded integer matrices, from 0 columns
    # (full column rank) to the whole space (a matrix with no rows), on
    # spaces of dimension 0 to 6
    rng = random.Random(11)
    outside = empty = whole = 0
    for _ in range(150):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        a = from_dense([[rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
                        for _ in range(m)], n)
        basis = Mat.from_sparse_columns(nullspace(a), n)
        cols = [mat_vec(basis, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(basis.ncols)])
                for _ in range(rng.randint(0, 2))]
        cols.insert(rng.randint(0, len(cols)), [Fraction(0)] * n)
        if rng.random() < 0.4:
            cols.insert(rng.randint(0, len(cols)),
                        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)])
        for rhs in (from_dense_columns(cols, n), from_dense_columns(cols[:1], n),
                    Mat.zeros(n, 0)):
            got = coordinates(basis, rhs)
            assert got == solve_many(basis, rhs)
            if got is None:
                outside += 1
            else:
                assert got.shape == (basis.ncols, rhs.ncols) and stores_no_zero(got)
                assert mat_mul(basis, got) == rhs
        empty += basis.ncols == 0
        whole += basis.ncols == n
    assert outside and empty and whole
    with pytest.raises(ValueError):
        coordinates(Mat.identity(2), Mat.zeros(3, 1))


def test_in_span_edges():
    vecs = [[1, 0, 1], [0, 1, 1]]
    assert in_span(vecs, [2, 3, 5])
    assert not in_span(vecs, [0, 0, 1])
    assert in_span([], [0, 0, 0])
    assert not in_span([], [1, 0, 0])


def test_stack_and_kron_shapes():
    a = from_dense([[1, 2]], 2)
    b = from_dense([[3, 4]], 2)
    assert mat_vstack(a, b).shape == (2, 2)
    assert mat_hstack(a, b).shape == (1, 4)
    k = kron_sum([(from_dense([[1, 2], [0, 1]], 2), from_dense([[0, 1], [1, 0]], 2))])
    assert k.shape == (4, 4)
    assert dense(k)[0] == [frac(0), frac(1), frac(0), frac(2)]


def test_fraction_exactness_on_hilbert_block():
    # Hilbert matrices are notorious under floating point; exact rank is full.
    n = 6
    h = from_dense([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)], n)
    assert rank(h) == n
    assert len(nullspace(h)) == 0


# ---------------------------------------------------------------------------
# the sparse elimination core against the dense oracle
# ---------------------------------------------------------------------------

def naive_solve(a_rows, ncols, b):
    """Column solve from the dense RREF of [a | b]: free variables zero."""
    rows, pivots = naive_rref([list(r) + [y] for r, y in zip(a_rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[ncols]
    return x


def stores_no_zero(m):
    # rebuilding from dense rows drops zeros, so this fails on a stored zero
    return m == from_dense(dense(m), m.ncols)


def edge_case_matrices(rng):
    """Seeded sparse matrices, with the shapes elimination gets wrong first."""
    yield [], 4                                    # 0 x n
    yield [[] for _ in range(3)], 0                # n x 0
    yield [[0] * 5 for _ in range(4)], 5           # all zero
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = random_matrix(rng, m, n, density=rng.choice((0.15, 0.3, 0.6)))
        kind = rng.randrange(4)
        if kind == 0:                              # zero rows
            rows[rng.randrange(m)] = [Fraction(0)] * n
        elif kind == 1:                            # duplicate rows
            rows.append(list(rows[rng.randrange(m)]))
        elif kind == 2 and m >= 2:                 # a row that cancels to zero
            i, j = rng.sample(range(m), 2)
            c = Fraction(rng.randint(1, 3), rng.randint(1, 3))
            rows.append([x - c * y for x, y in zip(rows[i], rows[j])])
            rows.append([c * y for y in rows[j]])
        yield rows, n


def test_sparse_core_matches_dense_oracle():
    rng = random.Random(2024)
    for rows, n in edge_case_matrices(rng):
        a = from_dense(rows, n)
        assert stores_no_zero(a)
        assert dense(a) == [[Fraction(x) for x in r] for r in rows]
        assert rank(a) == naive_rank(rows)

        r, pivots = rref(a)
        want_rows, want_pivots = naive_rref(rows, n)
        assert (dense(r), pivots) == (want_rows, want_pivots)
        assert stores_no_zero(r)

        null = nullspace(a)
        assert len(null) == n - len(pivots)
        for v in null:
            assert not any(mat_vec(a, dense_vector(v, n)))

        # right-hand sides: some consistent (a times a vector), some random
        ncols_b = rng.randint(0, 3)
        cols = []
        for _ in range(ncols_b):
            if rng.random() < 0.6:
                cols.append(mat_vec(a, [Fraction(rng.randint(-3, 3)) for _ in range(n)]))
            else:
                cols.append([Fraction(rng.randint(-3, 3)) for _ in range(len(rows))])
        b = from_dense_columns(cols, len(rows))
        per_column = [naive_solve(rows, n, col) for col in cols]
        assert [solve(a, sparse_vector(col)) for col in cols] == [
            None if x is None else sparse_vector(x) for x in per_column]
        got = solve_many(a, b)
        if any(x is None for x in per_column):
            assert got is None
        else:
            assert got is not None and got.shape == (n, ncols_b)
            assert stores_no_zero(got)
            assert [dense_vector(col, n) for col in got.columns()] == per_column


def test_builders_store_no_zeros():
    rng = random.Random(5)
    for _ in range(30):
        m, n, p = rng.randint(0, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = from_dense(random_matrix(rng, m, n, density=0.4), n)
        b = from_dense(random_matrix(rng, n, p, density=0.4), p)
        one = Mat.identity(1)
        assert kron_sum([(a, one), (mat_scale(a, -1), one)]) == Mat.zeros(*a.shape)
        assert mat_scale(a, 0) == Mat.zeros(*a.shape)
        prod = mat_mul(a, b)
        assert dense(prod) == [[sum((x * y for x, y in zip(row, col)), Fraction(0))
                                for col in zip(*dense(b))] for row in dense(a)]
        for out in (prod, kron_sum([(a, one), (a, one)]), a.transpose(),
                    kron_sum([(a, b)]), mat_hstack(a, a), mat_vstack(b, b)):
            assert stores_no_zero(out)
        assert a.transpose().transpose() == a
    c = summed_matrix([(1, 2, Fraction(1, 3))], 2, 3)
    assert entry(c, 1, 2) == Fraction(1, 3) and entry(c, 0, 2) == 0 and not c.is_zero()
    c = summed_matrix([(1, 2, Fraction(1, 3)), (1, 2, Fraction(-1, 3))], 2, 3)
    assert c == Mat.zeros(2, 3) and c.is_zero() and stores_no_zero(c)
    for outside in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            entry(c, *outside)
        with pytest.raises(IndexError):
            summed_matrix([(*outside, 1)], 2, 3)


def dense_kron_sum(pairs):
    """Entry (r * p + s, k * q + j) = sum of a[r][k] * b[s][j] over the
    pairs, b of shape p x q."""
    (m, n), (p, q) = pairs[0][0].shape, pairs[0][1].shape
    out = [[Fraction(0)] * (n * q) for _ in range(m * p)]
    for a, b in pairs:
        for r, arow in enumerate(dense(a)):
            for s, brow in enumerate(dense(b)):
                for k, x in enumerate(arow):
                    for j, y in enumerate(brow):
                        out[r * p + s][k * q + j] += x * y
    return out


def test_kron_sum_matches_the_dense_oracle():
    rng = random.Random(13)
    for trial in range(60):
        m, n, p, q = (rng.randint(0, 3) for _ in range(4))
        pairs = [(from_dense(random_matrix(rng, m, n, density=0.5), n),
                  from_dense(random_matrix(rng, p, q, density=0.5), q))
                 for _ in range(rng.randint(1, 3))]
        if trial % 2:  # the first product cancels, entry by entry
            pairs.append((mat_scale(pairs[0][0], -1), pairs[0][1]))
        got = kron_sum(pairs)
        assert got.shape == (m * p, n * q)
        assert dense(got) == dense_kron_sum(pairs)
        assert stores_no_zero(got)
    a = from_dense([[1, 2], [3, 4]], 2)
    assert kron_sum([(a, Mat.identity(2)), (mat_scale(a, -1), Mat.identity(2))]).is_zero()


def test_kron_sum_rejects_mismatched_shapes():
    one, two = Mat.identity(1), Mat.identity(2)
    for pairs in ([], [(two, one), (two, two)], [(two, one), (one, one)],
                  [(Mat.zeros(2, 0), one), (Mat.zeros(0, 2), one)]):
        with pytest.raises(ValueError):
            kron_sum(pairs)


# ---------------------------------------------------------------------------
# the integer core against the Fraction elimination it replaced
# ---------------------------------------------------------------------------

def fraction_eliminate(rows, ncols, reduce):
    """The Fraction Gauss-Jordan core that `linalg._eliminate` replaced,
    kept as its oracle: the same column order and pivot rule (fewest
    nonzeros, then lowest row index), each pivot scaled to a leading 1 and
    cleared from every other candidate.  In place; returns the pivots."""
    where = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    pivots = []
    for c in range(ncols):
        cand = where[c]
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for j in prow:
            where[j].discard(p)
        x = prow[c]
        if x != 1:
            inv = 1 / x
            prow = rows[p] = {j: inv * y for j, y in prow.items()}
        for i in list(cand):
            row = rows[i]
            f = -row[c]
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = f * y
                    where[j].add(i)
                else:
                    x += f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(i)
        pivots.append((p, c))
    if reduce:
        # A pivot row's support lies at and right of its pivot, so clearing
        # column c (right to left) never touches an entry left of c: the rows
        # holding column c can all be listed before the sweep starts.
        above = {c: [] for _, c in pivots}
        for p, c in pivots:
            for j in rows[p]:
                if j != c and j in above:
                    above[j].append(p)
        for p, c in reversed(pivots):
            prow = rows[p]
            for i in above[c]:
                row = rows[i]
                _axpy(row, -row[c], prow)
    return pivots


def fraction_rank(m):
    return len(fraction_eliminate([dict(row) for row in m.rows], m.ncols, False))


def fraction_rref(m):
    rows = [dict(row) for row in m.rows]
    pivots = fraction_eliminate(rows, m.ncols, True)
    out = [rows[p] for p, _ in pivots] + [{} for _ in range(m.nrows - len(pivots))]
    return Mat._of(out, m.ncols), tuple(c for _, c in pivots)


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


def hard_matrices(rng):
    """Seeded sparse Mats the integer core could get wrong: empty shapes,
    zero rows, negative pivots, large coprime denominators, and
    rank-deficient Kronecker-shaped differentials."""
    primes = (65537, 999983, 1000003, 2 ** 31 - 1, 2 ** 61 - 1)
    yield from_dense([], 5)                                        # 0 x n
    yield from_dense([[] for _ in range(4)], 0)                    # n x 0
    yield from_dense([[0] * 3, [0] * 3], 3)
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = random_matrix(rng, m, n, density=rng.choice((0.2, 0.4, 0.8)))
        kind = rng.randrange(4)
        if kind == 0:                                              # big denominators
            rows = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes))
                     if x else x for x in row] for row in rows]
        elif kind == 1:                                            # negative pivots
            rows = [[-abs(x) for x in row] for row in rows]
        elif kind == 2:                                            # zero rows
            for i in rng.sample(range(m), rng.randint(1, m)):
                rows[i] = [Fraction(0)] * n
        else:                                                      # dependent rows
            c = Fraction(rng.randint(-9, 9), rng.choice(primes))
            rows.append([x - c * y for x, y in zip(rows[0], rows[-1])])
        yield from_dense(rows, n)
    for _ in range(12):
        # d = A (x) 1 - 1 (x) B, with A, B singular: the shape of the
        # module differentials, rank-deficient by construction
        p, q = rng.randint(2, 4), rng.randint(1, 4)
        a = from_dense(random_matrix(rng, p, p, density=0.5), p)
        b = from_dense(random_matrix(rng, q, q, density=0.5), q)
        a.rows[-1] = dict(a.rows[0])
        b.rows[0] = {}
        d = kron_sum([(a, Mat.identity(q)), (Mat.identity(p), mat_scale(b, -1))])
        yield mat_vstack(d, kron_sum([(a, b)]))


def test_integer_core_matches_fraction_oracle(monkeypatch):
    from momentkit import linalg
    rng = random.Random(909)
    deficient = 0
    for a in hard_matrices(rng):
        cols = [mat_vec(a, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(a.ncols)]) for _ in range(2)]
        cols.append([Fraction(rng.randint(-4, 4), rng.choice((1, 7, 65537)))
                     for _ in range(a.nrows)])
        b = from_dense_columns(cols, a.nrows)
        got = (rank(a), rref(a), nullspace(a), solve_many(a, b),
               solve_many(a, from_dense_columns(cols[:2], a.nrows)),
               [solve(a, sparse_vector(col)) for col in cols])
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "rref", fraction_rref)
            want = (fraction_rank(a), fraction_rref(a), nullspace(a),
                    solve_many(a, b), solve_many(a, from_dense_columns(cols[:2], a.nrows)),
                    [solve(a, sparse_vector(col)) for col in cols])
        assert got == want
        r, _ = got[1]
        assert all_fractions(x for _, _, x in r.nonzeros())
        assert all_fractions(x for v in got[2] for x in v.values())
        for sol in got[3:5]:
            assert sol is None or all_fractions(x for _, _, x in sol.nonzeros())
        assert all_fractions(x for sol in got[5] if sol for x in sol.values())
        deficient += 0 < got[0] < min(a.shape)
        # in between, the core holds primitive rows of plain ints
        rows = _integer_rows(a)
        _eliminate(rows, a.ncols, reduce=True)
        assert all(type(x) is int for row in rows for x in row.values())
        assert all(gcd(*row.values()) == 1 for row in rows if row)
    assert deficient >= 10


def test_integer_core_keeps_int_rows_and_canonical_pivots():
    # the pivot row {4, 6} has content 2, and clearing column 0 from the
    # second row leaves 2*(2, 5, 8) - (4, 6, 0), of content 4
    rows = [{0: 4, 1: 6}, {0: 2, 1: 5, 2: 8}, {1: -3, 2: 12}]
    pivots = _eliminate(rows, 3, reduce=True)
    assert all(type(x) is int for row in rows for x in row.values())
    got = [{j: Fraction(x, rows[p][c]) for j, x in rows[p].items()} for p, c in pivots]
    want, want_pivots = fraction_rref(from_dense([[4, 6, 0], [2, 5, 8], [0, -3, 12]], 3))
    assert (got, tuple(c for _, c in pivots)) == (want.rows[:len(pivots)], want_pivots)
    # a Mat row is made primitive on entry, so its scale never shows
    for scale in (1, 2, -6, Fraction(1, 10)):
        r, piv = rref(from_dense([[scale * 2, scale * 4, 0], [0, 0, scale * 3]], 3))
        assert dense(r) == [[1, 2, 0], [0, 0, 1]] and piv == (0, 2)
        assert all_fractions(x for _, _, x in r.nonzeros())


def test_from_sparse_columns_skips_zeros_and_keeps_the_shape():
    m = Mat.from_sparse_columns([{0: 2, 2: 0}, {}, {1: Fraction(-1, 3)}], 3)
    assert m.shape == (3, 3)
    assert dense(m) == [[2, 0, 0], [0, 0, Fraction(-1, 3)], [0, 0, 0]]
    assert list(m.nonzeros()) == [(0, 0, 2), (1, 2, Fraction(-1, 3))]
    assert all(type(x) is Fraction for _, _, x in m.nonzeros())
    assert m.columns() == [{0: 2}, {}, {1: Fraction(-1, 3)}]
    assert Mat.from_sparse_columns([], 2).shape == (2, 0)
    assert from_dense_columns([[0, 1], [Fraction(1, 2), 0]], 2) == Mat.from_sparse_columns(
        [{1: 1}, {0: Fraction(1, 2)}], 2)


def test_nullspace_returns_canonical_sparse_columns():
    # random matrices with non-integral entries and the shapes elimination
    # gets wrong first: 0 x n, n x 0, zero and full rank
    rng = random.Random(35)
    shapes = [([], 4), ([[] for _ in range(3)], 0), ([[0] * 5 for _ in range(4)], 5),
              ([[Fraction(1, i + j + 1) for j in range(4)] for i in range(5)], 4)]
    shapes += [(random_matrix(rng, m, n, density=rng.choice((0.2, 0.5, 0.9))), n)
               for m, n in ((rng.randint(1, 7), rng.randint(1, 7)) for _ in range(60))]
    full = deficient = 0
    for rows, n in shapes:
        a = from_dense(rows, n)
        ns = nullspace(a)
        want_rows, pivots = naive_rref(rows, n)
        assert ns == [{c: -row[j] for row, c in zip(want_rows, pivots) if row[j]} | {j: 1}
                      for j in range(n) if j not in pivots]
        assert len(ns) == n - rank(a) == n - naive_rank(rows)
        for col in ns:
            assert all(type(x) is Fraction and x for x in col.values())
            assert list(col) == sorted(col)
            assert list(col)[-1] not in pivots and col[list(col)[-1]] == 1
        basis = Mat.from_sparse_columns(ns, n)
        assert mat_mul(a, basis).is_zero()
        assert basis.columns() == ns
        full += not ns and n > 0
        deficient += 0 < len(ns) < n
    assert full and deficient
