"""Exact linear algebra over the rationals.

Everything downstream (boundary operators, cochain differentials, kernel
bases, solvers) reduces to the handful of primitives in this module.  All
entries are `fractions.Fraction`; there are no tolerances anywhere.

Conventions:
  * a matrix is a `Mat`: a list of sparse rows, each a `{col: Fraction}`
    dict that never stores a zero, with an explicit shape so that 0-row and
    0-column matrices stay well defined.  Only this module reads the rows;
    callers use `entry`, `add`, `nonzeros`, `col` and `dense`,
  * all elimination is one Gauss-Jordan routine, `_eliminate`: a forward
    pass over the columns left to right, then back-substitution when the
    RREF is wanted (`rank` skips it; `rref`, `nullspace` and the solvers
    use it).  In each column the pivot is the candidate row with the fewest
    nonzeros (Markowitz's rule, ties broken by row index), which keeps
    fill-in low on the Kronecker-structured differentials this package
    builds,
  * `rref` returns the unique reduced row echelon form.  Which row supplies
    a pivot changes only the order of row operations, not the row space, and
    a row space has exactly one RREF; so the pivot rule never changes the
    result,
  * `nullspace` returns the canonical RREF-normalized kernel basis: one
    vector per free column, with entry 1 in that free column,
  * `solve` returns the particular solution with all free variables set
    to zero (deterministic minimal-pivot-support choice), or None.
"""

from __future__ import annotations

from fractions import Fraction


ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat:
    """Sparse exact-rational matrix with explicit shape.

    `Mat(rows, ncols)` builds one from dense rows (lists of numbers)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = [list(row) for row in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        self.rows = [{j: frac(x) for j, x in enumerate(row) if x} for row in rows]
        self.nrows = len(rows)
        self.ncols = ncols

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
    def from_columns(cls, cols, nrows):
        m = cls.zeros(nrows, len(cols))
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("column length mismatch")
            for i, x in enumerate(col):
                if x:
                    m.rows[i][j] = frac(x)
        return m

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _check(self, i, j):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a "
                             f"{self.nrows}x{self.ncols} matrix")

    def entry(self, i, j) -> Fraction:
        self._check(i, j)
        return self.rows[i].get(j, ZERO)

    def add(self, i, j, x) -> None:
        """Add x to entry (i, j) in place."""
        self._check(i, j)
        row = self.rows[i]
        value = row.get(j, ZERO) + frac(x)
        if value:
            row[j] = value
        else:
            row.pop(j, None)

    def nonzeros(self):
        """(i, j, x) for every nonzero entry, row by row, columns ascending."""
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                yield i, j, row[j]

    def dense(self):
        """The rows as lists of Fractions."""
        return [[row.get(j, ZERO) for j in range(self.ncols)] for row in self.rows]

    def col(self, j):
        return [row.get(j, ZERO) for row in self.rows]

    def transpose(self):
        out = Mat.zeros(self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                out.rows[j][i] = x
        return out

    def is_zero(self):
        return not any(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.shape == other.shape
                and self.rows == other.rows)

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols})"


def _axpy(row, f, other):
    """row += f * other, in place, dropping entries that cancel."""
    for j, y in other.items():
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


def mat_vec(a: Mat, v) -> list:
    if a.ncols != len(v):
        raise ValueError("shape mismatch in mat_vec")
    out = []
    for row in a.rows:
        s = ZERO
        for j, x in row.items():
            y = v[j]
            if y:
                s += x * y
        out.append(s)
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    if a.shape != b.shape:
        raise ValueError("shape mismatch in mat_add")
    out = [dict(ra) for ra in a.rows]
    for row, rb in zip(out, b.rows):
        _axpy(row, ONE, rb)
    return Mat._of(out, a.ncols)


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


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product (row/col index = a-index major, b-index minor)."""
    out = []
    for arow in a.rows:
        for brow in b.rows:
            out.append({k * b.ncols + q: x * y
                        for k, x in arow.items() for q, y in brow.items()})
    return Mat._of(out, a.ncols * b.ncols)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _eliminate(rows, ncols, reduce):
    """Gauss-Jordan elimination on sparse rows, in place.

    Columns are taken left to right.  In each column the pivot is the
    candidate row with the fewest nonzeros (ties: lowest row index); it is
    scaled to a leading 1 and cleared from every other candidate.  An index
    column -> rows not yet used as pivots finds the candidates without
    scanning rows.  With `reduce`, back-substitution then clears each pivot
    column above its pivot, so the pivot rows form the RREF.  Rows never
    chosen end up empty.

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


def rank(m: Mat) -> int:
    """Exact rank by sparse elimination."""
    return len(_eliminate([dict(row) for row in m.rows], m.ncols, reduce=False))


def rref(m: Mat):
    """Unique reduced row echelon form.  Returns (Mat, pivot column tuple)."""
    rows = [dict(row) for row in m.rows]
    pivots = _eliminate(rows, m.ncols, reduce=True)
    out = [rows[p] for p, _ in pivots]
    out += [{} for _ in range(m.nrows - len(pivots))]
    return Mat._of(out, m.ncols), tuple(c for _, c in pivots)


def nullspace(m: Mat):
    """Canonical kernel basis (RREF-normalized), as a list of vectors."""
    r, pivots = rref(m)
    pivset = set(pivots)
    basis = {j: [ZERO] * m.ncols for j in range(m.ncols) if j not in pivset}
    for j, v in basis.items():
        v[j] = ONE
    for row, c in zip(r.rows, pivots):
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x
    return list(basis.values())


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


def solve(a: Mat, b):
    """Particular solution of a x = b with free variables set to zero, or None."""
    if a.nrows != len(b):
        raise ValueError("shape mismatch in solve")
    x = solve_many(a, Mat.from_columns([b], a.nrows))
    return None if x is None else x.col(0)
