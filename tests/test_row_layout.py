"""Only `linalg.py` knows how a `Mat` stores its rows: no other module under
src/momentkit/ reads a `.rows` attribute, so the row layout stays linalg's
decision (callers use `from_columns`, `from_sparse_columns`, `nonzeros`,
`col`, `dense` and `kron_sum`; the entrywise test oracles read and build
matrices through `test_linalg.entry` and `test_linalg.summed_matrix`, over
`nonzeros` and `from_sparse_columns`)."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "momentkit")


def rows_reads(source):
    """Line numbers of the `.rows` attributes in the source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "rows"]


def test_the_checker_finds_a_rows_read():
    assert rows_reads("x = m.rows[0]\ny = m.nrows\n") == [1]
    assert rows_reads("n = 1\nfor r in a.b.rows:\n    pass\n") == [2]


def test_only_linalg_reads_matrix_rows():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "linalg.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = rows_reads(fh.read())
            if lines:
                found[name] = lines
    assert found == {}
