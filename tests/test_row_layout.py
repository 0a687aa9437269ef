"""Only `linalg.py` knows how a `Mat` stores its rows: no other module under
src/momentkit/ reads a `.rows` attribute, so the row layout stays linalg's
decision: callers build matrices with `from_sparse_columns` and
`kron_sum`, and read them with `nonzeros` and `columns`, all in sparse
`{row: Fraction}` columns.  The entrywise test oracles read and build
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
