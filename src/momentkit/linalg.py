"""Exact linear algebra over the rationals.

Everything downstream (boundary operators, cochain differentials, kernel
bases, solvers) reduces to the handful of primitives in this module.  Every
matrix entry a caller sees is a `fractions.Fraction`; there are no
tolerances anywhere.

Conventions:
  * a matrix is a `Mat`: a list of sparse rows, each a `{col: Fraction}`
    dict that never stores a zero, with an explicit shape so that 0-row and
    0-column matrices stay well defined.  Only this module reads the rows;
    callers build with `from_sparse_columns`, and read with `nonzeros` and
    `columns`,
  * a vector is a sparse column, a `{row: Fraction}` dict that stores no
    zero, rows ascending: kernel bases, coordinate vectors, right-hand sides
    and solutions all take this one form, and a list of columns is a basis,
  * a matrix on a tensor product is a sum of Kronecker products, built by
    `kron_sum`, the one place that builds a matrix in that block layout: row
    and column index = first factor's index major, second factor's minor.
    Vectors over a tensor product use the same order; `moment` indexes them
    in it by hand (`make_equivariant`'s target, `_blocks` and the flattened
    cochain of `_hom_differential`),
  * all elimination is one fraction-free Gauss-Jordan routine,
    `_eliminate`, on integer rows: `rank` and `rref` scale each row of a
    `Mat` to a primitive integer row on entry (same row space), and `rref`
    divides each pivot row by its pivot entry on exit; in between there is
    no `Fraction` arithmetic, only `int` multiplies, adds and gcds.  It makes
    a forward pass over the columns left to right, then back-substitution
    when the RREF is wanted (`rank` skips it; `rref`, `nullspace` and the
    solvers use it).  In each column the pivot is the candidate row with
    the fewest nonzeros (Markowitz's rule, ties broken by row index), which
    keeps fill-in low on the Kronecker-structured differentials this
    package builds,
  * `rref` returns the unique reduced row echelon form.  Which row supplies
    a pivot changes only the order of row operations, not the row space, and
    a row space has exactly one RREF; so the pivot rule never changes the
    result,
  * `nullspace` returns the canonical RREF-normalized kernel basis as a
    list of sparse columns: one per free column, with entry 1 in that free
    column, its last row,
  * coordinates in such a basis are read, not solved for: a basis vector's
    free column is its last nonzero entry, where it is 1 and every other
    basis vector is 0, so a vector's coordinates are its entries at the free
    columns, in order, and it lies in the span iff they rebuild it
    (`coordinates`, for a `Mat` whose columns are the basis),
  * `solve` returns the particular solution with all free variables set
    to zero (deterministic minimal-pivot-support choice), or None.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat:
    """Sparse exact-rational matrix with explicit shape."""

    __slots__ = ("nrows", "ncols", "rows")

    @classmethod
    def _of(cls, rows, ncols):
        """Wrap sparse rows (dicts without zeros) as they are, uncopied."""
        m = cls.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def zeros(cls, m, n):
        return cls._of([{} for _ in range(m)], n)

    @classmethod
    def identity(cls, n):
        return cls._of([{i: ONE} for i in range(n)], n)

    @classmethod
    def from_sparse_columns(cls, cols, nrows):
        """The matrix of sparse columns, each a {row: number} dict with rows
        in range(nrows): every entry is written once, zeros skipped."""
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, x in col.items():
                if x:
                    rows[i][j] = frac(x)
        return cls._of(rows, len(cols))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def nonzeros(self):
        """(i, j, x) for every nonzero entry, row by row, columns ascending."""
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                yield i, j, row[j]

    def columns(self):
        """The columns as sparse {row: Fraction} dicts, rows ascending."""
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return cols

    def transpose(self):
        return Mat._of(self.columns(), self.nrows)

    def is_zero(self):
        return not any(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.shape == other.shape
                and self.rows == other.rows)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def _axpy(row, f, other, off=0):
    """row += f * other shifted right by off columns, in place, dropping
    entries that cancel."""
    for j, y in other.items():
        j += off
        x = row.get(j)
        if x is None:
            row[j] = f * y
        else:
            x += f * y
            if x:
                row[j] = x
            else:
                del row[j]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.shape} * {b.shape}")
    out = []
    for arow in a.rows:
        orow = {}
        for k, x in arow.items():
            _axpy(orow, x, b.rows[k])
        out.append(orow)
    return Mat._of(out, b.ncols)


def mat_scale(a: Mat, c) -> Mat:
    c = frac(c)
    if not c:
        return Mat.zeros(*a.shape)
    return Mat._of([{j: c * x for j, x in row.items()} for row in a.rows], a.ncols)


def mat_hstack(a: Mat, b: Mat) -> Mat:
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in mat_hstack")
    off = a.ncols
    out = []
    for ra, rb in zip(a.rows, b.rows):
        row = dict(ra)
        for j, x in rb.items():
            row[off + j] = x
        out.append(row)
    return Mat._of(out, a.ncols + b.ncols)


def mat_vstack(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.ncols:
        raise ValueError("shape mismatch in mat_vstack")
    return Mat._of([dict(row) for row in a.rows] + [dict(row) for row in b.rows],
                   a.ncols)


def kron_sum(pairs: list) -> Mat:
    """Sum of the Kronecker products kron(a, b) over the (a, b) pairs, with
    row and column index = a-index major, b-index minor.  Every a has one
    shape and every b another; ValueError otherwise."""
    if not pairs or any(a.shape != pairs[0][0].shape or b.shape != pairs[0][1].shape
                        for a, b in pairs):
        raise ValueError("kron_sum needs pairs of equal shapes")
    a0, b0 = pairs[0]
    out = [{} for _ in range(a0.nrows * b0.nrows)]
    for a, b in pairs:
        for r, arow in enumerate(a.rows):
            for k, x in arow.items():
                for s, brow in enumerate(b.rows):
                    _axpy(out[r * b.nrows + s], x, brow, k * b.ncols)
    return Mat._of(out, a0.ncols * b0.ncols)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _eliminate(rows, ncols, reduce):
    """Fraction-free Gauss-Jordan elimination on sparse integer rows, in place.

    Every row holds nonzero `int`s and is kept primitive (the gcd of its
    entries is 1).  Columns are taken left to right.  In each column the
    pivot is the candidate row with the fewest nonzeros (ties: lowest row
    index).  Every other candidate row becomes a*row + b*prow, with the
    smallest a > 0 and b that cancel its entry in the pivot column
    (`_multipliers`), divided by its content.  An index column -> rows not
    yet used as pivots finds the candidates without scanning rows.  With
    `reduce`, back-substitution then clears each pivot column above its
    pivot the same way.  Rows never chosen end up empty.

    Each step scales a row by a nonzero number or adds a multiple of another
    row to it, and every row stays a nonzero multiple of the row that
    Fraction elimination with pivots scaled to 1 would hold.  So the
    sparsity, the pivot choices and the row space are the same, and after
    `reduce` each pivot row divided by its pivot entry is a row of the RREF.

    Returns the (row index, column) pivots in column order."""
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
        pv = prow[c]
        for i in list(cand):
            row = rows[i]
            a, b = _multipliers(pv, row[c])
            if a != 1:
                row = rows[i] = {j: a * x for j, x in row.items()}
            for j, y in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = b * y
                    where[j].add(i)
                else:
                    x += b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(i)
            _make_primitive(row)
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
            pv = prow[c]
            for i in above[c]:
                row = rows[i]
                a, b = _multipliers(pv, row[c])
                if a != 1:
                    row = rows[i] = {j: a * x for j, x in row.items()}
                for j, y in prow.items():
                    x = row.get(j, 0) + b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                _make_primitive(row)
    return pivots


def _multipliers(pv, x):
    """(a, b) with a > 0 and a*x + b*pv = 0, as small as they can be: the
    row operation row := a*row + b*prow clears the entry x against the
    pivot entry pv.  (The sign of a row never matters, so a = -1 is
    avoided: a = 1 needs no scaling pass.)"""
    g = gcd(pv, x)
    if pv < 0:
        g = -g
    return pv // g, -x // g


def _make_primitive(row):
    """Divide an integer row, in place, by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j, x in row.items():
            row[j] = x // g


def _integer_rows(m: Mat):
    """The rows of m as primitive integer rows: each row times the lcm of
    its denominators, divided by the gcd of the result."""
    out = []
    for row in m.rows:
        scale = lcm(*(x.denominator for x in row.values()))
        irow = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        _make_primitive(irow)
        out.append(irow)
    return out


def rank(m: Mat) -> int:
    """Exact rank by sparse elimination."""
    return len(_eliminate(_integer_rows(m), m.ncols, reduce=False))


def rref(m: Mat):
    """Unique reduced row echelon form.  Returns (Mat, pivot column tuple)."""
    rows = _integer_rows(m)
    pivots = _eliminate(rows, m.ncols, reduce=True)
    out = []
    for p, c in pivots:
        row = rows[p]
        pv = row[c]
        out.append({j: Fraction(y, pv) for j, y in row.items()})
    out += [{} for _ in range(m.nrows - len(pivots))]
    return Mat._of(out, m.ncols), tuple(c for _, c in pivots)


def nullspace(m: Mat):
    """Canonical kernel basis (RREF-normalized), as a list of sparse columns:
    column j's rows are the pivots left of free column j, ascending, then j
    itself with entry 1."""
    r, pivots = rref(m)
    pivset = set(pivots)
    basis = {j: {} for j in range(m.ncols) if j not in pivset}
    for row, c in zip(r.rows, pivots):
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x
    for j, v in basis.items():
        v[j] = ONE
    return list(basis.values())


def coordinates(basis: Mat, m: Mat):
    """X with basis X = m, or None if a column of m is outside the span of
    basis's columns, which must be a canonical kernel basis as `nullspace`
    returns it: row a of X is m's row at column a's free row, its last
    nonzero row.  One product checks every column at once."""
    if basis.nrows != m.nrows:
        raise ValueError("shape mismatch in coordinates")
    free = [0] * basis.ncols
    for i, row in enumerate(basis.rows):
        for a in row:
            free[a] = i
    x = Mat._of([dict(m.rows[i]) for i in free], m.ncols)
    return x if mat_mul(basis, x) == m else None


def solve_many(a: Mat, b: Mat):
    """Solve a X = b: the solution with free variables zero, or None if any
    column of b is inconsistent.  One elimination of [a | b] serves every
    column, since the RREF restricted to a's columns is a's RREF."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve_many")
    r, pivots = rref(mat_hstack(a, b))
    if pivots and pivots[-1] >= a.ncols:
        return None  # inconsistent: pivot in the right-hand side
    out = Mat.zeros(a.ncols, b.ncols)
    for row, c in zip(r.rows, pivots):
        out.rows[c] = {j - a.ncols: x for j, x in row.items() if j >= a.ncols}
    return out


def solve(a: Mat, b: dict):
    """Particular solution of a x = b, b a sparse column, with free variables
    set to zero, as a sparse column; or None."""
    x = solve_many(a, Mat.from_sparse_columns([b], a.nrows))
    return None if x is None else x.columns()[0]
