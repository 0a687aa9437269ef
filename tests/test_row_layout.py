"""Only `linalg.py` knows how a `Mat` stores its rows: no other module under
src/momentkit/ reads a `.rows` attribute, so the row layout stays linalg's
decision: callers build matrices with `from_sparse_columns` and
`kron_sum`, and read them with `nonzeros` and `columns`, all in sparse
`{row: Fraction}` columns.  `Mat` has no constructor of its own, so no
module calls `Mat(...)`: arbitrary entries enter only as sparse columns.  The entrywise test oracles read and build
matrices through `support.entry` and `support.summed_matrix`, and the
tests' dense views (`support.dense`, `support.dense_vector`,
`support.mat_vec`) go through the same interface."""

import ast

from support import SRC_FILES, src_text, syntax_nodes


def rows_reads(source):
    """Line numbers of the `.rows` attributes in the source."""
    return sorted(node.lineno for _, node in syntax_nodes(source)
                  if isinstance(node, ast.Attribute) and node.attr == "rows")


def test_the_checker_finds_a_rows_read():
    assert rows_reads("x = m.rows[0]\ny = m.nrows\n") == [1]
    assert rows_reads("n = 1\nfor r in a.b.rows:\n    pass\n") == [2]


def test_only_linalg_reads_matrix_rows():
    found = {name: rows_reads(src_text(name)) for name in SRC_FILES if name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def mat_calls(source):
    """Line numbers of the direct calls `Mat(...)` in the source."""
    return sorted(node.lineno for _, node in syntax_nodes(source)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "Mat")


def test_matrices_are_built_only_from_sparse_columns():
    assert mat_calls("a = Mat.zeros(1, 1)\nb = f(Mat([[1]]))\n") == [2]
    found = {name: mat_calls(src_text(name)) for name in SRC_FILES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    mat = next(node for _, node in syntax_nodes(src_text("linalg.py"))
               if isinstance(node, ast.ClassDef) and node.name == "Mat")
    assert "__init__" not in {d.name for d in mat.body if isinstance(d, ast.FunctionDef)}
