"""What more than one test module reads, defined once: problem fixtures,
seeded inputs, exact references, call counters and the source walker.

The references are written independently of the code they check: `naive_rref`
is dense Gauss-Jordan; `dense`, `dense_vector`, `sparse_vector` and
`mat_vec` are the dense views of the sparse matrices and columns that
momentkit works in, and `mv_column` and
`column_mv` turn multivectors into such columns and back; `mv_term` accumulates one
sorted multivector term, and `mv_add`, `mv_boundary`, `mv_wedge` and the
term-by-term Schouten bracket `schouten` are written with it; `summed_matrix` and `entry` build and read
a `Mat` through its public sparse interface, and `from_dense`, the tests'
one way to write a matrix as dense rows, is built on `summed_matrix`;
`cartan_residual` is the boundary identity linking d, contraction and Lie
derivatives.

The AST contracts read each file under src/momentkit/ once (`src_text`) and
walk its syntax tree once (`syntax_nodes`).  Test modules import from here,
never from one another."""

import ast
import os
import sys
from fractions import Fraction
from functools import cache

from momentkit.cli import catalog_action, parse_problem
from momentkit.gmodule import GModule
from momentkit.lie_core import ALGEBRA_CATALOG, LieAlgebra, boundary_of_tuple, sort_with_sign
from momentkit.action import infinitesimal_generator
from momentkit.linalg import Mat
from momentkit.polyform import Form, MultiField, Poly, contract, exterior_d, lie_derivative

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "momentkit")
SRC_FILES = tuple(sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "src", "momentkit",
                        "problems")
ALGEBRAS = tuple(sorted(ALGEBRA_CATALOG))
BUNDLED = ("abelian_r3", "so3_r3", "so4_r4", "u2_r4", "abelian_r2", "sl2_r2")
ACTIONS = ("abelian_r3", "so3_r3", "so4_r4", "u2_r4")


# ---------------------------------------------------------------------------
# problems and seeded inputs
# ---------------------------------------------------------------------------

def so5_action():
    """The generated so(5) action on R^5 of tests/golden/so5_seed1.mmk."""
    with open(os.path.join(GOLDEN, "so5_seed1.mmk"), encoding="utf-8") as fh:
        return parse_problem(fh.read()).build_action()


def oracle_actions():
    return [catalog_action(name) for name in ACTIONS] + [so5_action()]


def problem_actions():
    """The bundled problems, and the two fixtures whose centre acts."""
    actions = {p: catalog_action(p) for p in BUNDLED}
    for p in ("co3_r3", "heis_r3"):
        with open(os.path.join(GOLDEN, f"{p}.mmk"), encoding="utf-8") as fh:
            actions[p] = parse_problem(fh.read()).build_action()
    return actions


# [e1,e2] = e2 (aff(1)), [e1,e2] = e2, [e1,e3] = 2e3, and aff(1) + aff(1):
# ad e1 has trace 1, 3 and 1, so no algebra here is unimodular and no
# complex self-dual.  Only the last has a degree strictly between (n+1)//2
# and n, so only it tells mirroring from ranking in the upper degrees.
NON_UNIMODULAR = {
    "aff1": LieAlgebra(2, {(0, 1): {1: 1}}, name="aff1"),
    "solvable3": LieAlgebra(3, {(0, 1): {1: 1}, (0, 2): {2: 2}}, name="solvable3"),
    "aff1+aff1": LieAlgebra(4, {(0, 1): {1: 1}, (2, 3): {3: 1}}, name="aff1+aff1"),
}


def inline_algebra_problem(dim, brackets):
    """A problem text with an inline [algebra] of dimension `dim` and the
    bracket statements `brackets`; the action and omega are placeholders."""
    fields = "\n".join(f"V{i} = d/dx{i}" for i in range(1, dim + 1))
    volume = ",".join(str(i) for i in range(1, dim + 1))
    return (f"[algebra]\ndim = {dim}\n{brackets}\n\n[action]\ndim = {dim}\n"
            f"{fields}\n\n[omega]\nomega = dx({volume})\n")


# (dim, bracket statements, the table they give): rational, reversed-pair
# and cancelling terms
INLINE_ALGEBRAS = [
    (3, "[e1,e2] = 1/2*e3", {(0, 1): ((2, Fraction(1, 2)),)}),
    (3, "[e2,e1] = 2*e3", {(0, 1): ((2, Fraction(-2)),)}),
    (3, "[e1,e2] = e3 - e3", {}),
    (2, "[e2,e1] = e1 + 1/2*e1", {(0, 1): ((0, Fraction(-3, 2)),)}),
    (3, "[e2,e1] = -e3\n[e3,e2] = -e1 + 1/3*e1 - 1/3*e1\n[e1,e3] = -e2",
     {(0, 1): ((2, Fraction(1)),), (0, 2): ((1, Fraction(-1)),),
      (1, 2): ((0, Fraction(1)),)}),
]


def random_form(rng, n, p, max_degree, max_terms=5, max_coeff=6):
    """A seeded p-form on R^n of 1..max_terms terms, each of coefficient
    degree at most max_degree and coefficient c/q, |c| <= max_coeff, q <= 3."""
    triples = []
    for _ in range(rng.randint(1, max_terms)):
        idx = tuple(sorted(rng.sample(range(n), p)))
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
        triples.append((c, tuple(exps), idx))
    return Form.from_terms(n, p, triples)


def vector_field(n, components):
    """Vector field from its n component polynomials."""
    return MultiField(n, 1, {(i,): p for i, p in enumerate(components)})


def volume_form(n):
    return Form(n, n, {tuple(range(n)): Poly.const(n, 1)})


def euler_one_form(n):
    return Form.from_terms(n, 1, [(1, tuple(1 if j == i else 0 for j in range(n)), (i,))
                                  for i in range(n)])


# ---------------------------------------------------------------------------
# exact references
# ---------------------------------------------------------------------------

def naive_rank(rows):
    """Plain fraction Gaussian elimination, no pivot heuristics."""
    if not rows:
        return 0
    return len(naive_rref(rows, len(rows[0]))[1])


def naive_rref(rows, ncols):
    """Dense Gauss-Jordan, first nonzero row as pivot: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def entry(m, i, j):
    """Entry (i, j) of a Mat, read from its nonzeros."""
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError(f"entry ({i}, {j}) outside a {m.nrows}x{m.ncols} matrix")
    return next((x for r, c, x in m.nonzeros() if (r, c) == (i, j)), Fraction(0))


def summed_matrix(entries, nrows, ncols):
    """The nrows x ncols Mat whose entry (i, j) is the sum of the x of the
    (i, j, x) in `entries`, summed in sparse columns: the entrywise oracles'
    builder."""
    cols = [{} for _ in range(ncols)]
    for i, j, x in entries:
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
        cols[j][i] = cols[j].get(i, 0) + Fraction(x)
    return Mat.from_sparse_columns(cols, nrows)


def from_dense(rows, ncols):
    """The Mat of dense rows, each a list of at most ncols numbers."""
    return summed_matrix([(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)],
                         len(rows), ncols)


def dense(m):
    """The rows of a Mat as lists of Fractions, read from its nonzeros."""
    rows = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for i, j, x in m.nonzeros():
        rows[i][j] = x
    return rows


def dense_vector(col, n):
    """A sparse {row: x} column as a list of n Fractions."""
    out = [Fraction(0)] * n
    for i, x in col.items():
        out[i] = x
    return out


def sparse_vector(values):
    """A list of numbers as a sparse column: its nonzero entries as Fractions."""
    return {i: Fraction(x) for i, x in enumerate(values) if x}


def mat_vec(a, v):
    """a times the list v, as a list of Fractions."""
    assert len(v) == a.ncols
    out = [Fraction(0)] * a.nrows
    for i, j, x in a.nonzeros():
        out[i] += x * v[j]
    return out


def mv_column(a: dict, basis):
    """A multivector as a sparse column over `basis`, rows ascending."""
    pos = {t: i for i, t in enumerate(basis)}
    return {i: Fraction(x) for i, x in sorted((pos[t], x) for t, x in a.items()) if x}


def column_mv(col, basis):
    """The multivector of a sparse column over `basis`."""
    return {basis[i]: Fraction(x) for i, x in col.items() if x}


def mv_term(target: dict, indices, coeff) -> None:
    """Accumulate coeff * e_{indices} (unsorted, may repeat) into target."""
    if not coeff:
        return
    sign, t = sort_with_sign(indices)
    if sign == 0:
        return
    val = target.get(t, Fraction(0)) + sign * coeff
    if val:
        target[t] = val
    else:
        target.pop(t, None)


def mv_add(a: dict, b: dict, coeff=1) -> dict:
    out = dict(a)
    c = Fraction(coeff)
    for t, x in b.items():
        out[t] = out.get(t, Fraction(0)) + c * x
    return {t: x for t, x in out.items() if x}


def mv_boundary(g, a: dict) -> dict:
    out: dict = {}
    for t, x in a.items():
        out = mv_add(out, boundary_of_tuple(g, t), x)
    return out


def mv_wedge(a, b):
    """Wedge product of two multivectors (dicts), the reference for the
    graded boundary/bracket identity."""
    out = {}
    for ta, xa in a.items():
        for tb, xb in b.items():
            mv_term(out, ta + tb, xa * xb)
    return out


def schouten(g, a, b):
    """Schouten bracket of multivectors, bilinear extension of
    [x_1^..^x_k, y_1^..^y_l] = sum_{i,j} (-1)^(i+j) [x_i,y_j] ^ (rest)."""
    out = {}
    for ta, xa in a.items():
        for tb, xb in b.items():
            xab = xa * xb
            for i in range(len(ta)):
                for j in range(len(tb)):
                    sign = (-1) ** ((i + 1) + (j + 1))
                    rest = ta[:i] + ta[i + 1:] + tb[:j] + tb[j + 1:]
                    for m, c in g.bracket_basis(ta[i], tb[j]):
                        mv_term(out, (m,) + rest, sign * xab * c)
    return out


def adjoint_module(g):
    mats = [from_dense([[dict(g.bracket_basis(i, j)).get(m, 0) for j in range(g.dim)]
                        for m in range(g.dim)], g.dim) for i in range(g.dim)]
    return GModule(g, mats, name="adjoint").validate()


def cartan_residual(action, mv, tau):
    """Residual of the boundary identity

        (-1)^k d(V_p . tau) = s V_{dp} . tau
                              + sum_i (-1)^i (V_{t1}^..hat i..^V_{tk}) . L_{V_{ti}} tau
                              + V_p . d tau

    for p a nonzero degree-k multivector (dict form), extended linearly over
    basis terms, V_{dp} term by term from `boundary_of_tuple`.  Returns
    LHS - RHS; the zero form certifies the identity."""
    k = len(next(iter(mv)))
    s = action.sign()
    v_p = infinitesimal_generator(action, mv)
    # LHS and then each RHS term with the opposite sign
    pairs = [((-1) ** k, exterior_d(contract(v_p, tau))),
             (-1, contract(v_p, exterior_d(tau)))]
    for idx, c in mv.items():
        c = Fraction(c)
        boundary = boundary_of_tuple(action.algebra, idx)
        if boundary:
            pairs.append((-s * c, contract(infinitesimal_generator(action, boundary), tau)))
        for a, t in enumerate(idx):
            rest = infinitesimal_generator(action, idx[:a] + idx[a + 1:])
            ltau = lie_derivative(action.fields[t], tau)
            pairs.append((c * (-1) ** a, contract(rest, ltau)))
    return Form.linear_combination(action.ambient_dim, tau.degree - k + 1, pairs)


# ---------------------------------------------------------------------------
# call counters
# ---------------------------------------------------------------------------

def replace_everywhere(monkeypatch, fn, replacement):
    """Replace `fn` in every loaded momentkit module that holds it, as a
    global or as a value of a module-level dict such as `cli._METHODS`."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "momentkit" and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            monkeypatch.setitem(value, key, replacement)


def count_calls(monkeypatch, fn):
    """Wrap `fn` everywhere with a recorder of each call's positional
    arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    replace_everywhere(monkeypatch, fn, counted)
    return calls


# ---------------------------------------------------------------------------
# the source walker
# ---------------------------------------------------------------------------

@cache
def src_text(file):
    """The text of src/momentkit/<file>, read once."""
    with open(os.path.join(SRC, file), encoding="utf-8") as fh:
        return fh.read()


@cache
def syntax_nodes(source):
    """(scope, node) for every node below the module in the syntax tree of
    `source`, parsed and walked once; scope is the tuple of the function and
    class definitions that enclose the node, outermost first."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            found.append((scope, child))
            visit(child, scope + (child,) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)

    visit(ast.parse(source), ())
    return tuple(found)


def owner(scope):
    """The qualified name of the innermost function of a scope
    (`Class.method` for a method), or "<module>" outside every function."""
    while scope and isinstance(scope[-1], ast.ClassDef):
        scope = scope[:-1]
    return ".".join(d.name for d in scope) or "<module>"


def owners(source, match):
    """Qualified names of the innermost functions, as for `owner`, holding a
    node that `match` accepts."""
    return {owner(scope) for scope, node in syntax_nodes(source) if match(node)}


@cache
def read_index(source):
    """name -> the owners of its reads, as a variable or as an attribute."""
    index = {}
    for scope, node in syntax_nodes(source):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name is not None:
            index.setdefault(name, set()).add(owner(scope))
    return index


def readers(source, name):
    """Qualified names of the innermost functions holding a read of `name`,
    as a variable or as an attribute, in the source."""
    return set(read_index(source).get(name, ()))


def source_readers(name, files):
    return {file: readers(src_text(file), name) for file in files}


def source_owners(match, files):
    return {file: owners(src_text(file), match) for file in files}
