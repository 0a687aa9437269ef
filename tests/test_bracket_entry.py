"""The bracket enters the exterior algebra once: in `lie_core.py` and
`gmodule.py` no function other than `boundary_of_tuple` reads a
`bracket_basis` attribute.  Every matrix those modules build from the
structure constants (the boundary, the Chevalley-Eilenberg differential
with module coefficients, the adjoint action on the Lie kernels) goes
through the boundary, so there is one bracket sign rule."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "momentkit")


def bracket_readers(source):
    """Names of the innermost functions (or "<module>") holding a read of a
    `bracket_basis` attribute in the source."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "bracket_basis":
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_checker_finds_a_bracket_read():
    source = ("def f(g):\n    return g.bracket_basis(0, 1)\n"
              "class A:\n    def bracket_basis(self, i, j):\n        return self.table\n"
              "    def ad(self):\n        h = lambda: self.bracket_basis\n        return h\n"
              "x = g.bracket_basis\n")
    assert bracket_readers(source) == {"f", "ad", "<module>"}


def test_only_the_boundary_reads_the_bracket():
    found = {}
    for name in ("lie_core.py", "gmodule.py"):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            found[name] = bracket_readers(fh.read())
    assert found == {"lie_core.py": {"boundary_of_tuple"}, "gmodule.py": set()}
