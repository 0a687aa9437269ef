"""Each derived object has one builder in the source, checked on the syntax
tree.

The bracket enters the exterior algebra once: in `lie_core.py`, `gmodule.py`
and `moment.py` no function other than `boundary_of_tuple` reads a
`bracket_basis` attribute.  Every matrix those modules build from the
structure constants (the boundary, the Chevalley-Eilenberg differential
with module coefficients, the adjoint action on the Lie kernels) and every
cochain differential of Hom(P_k, forms) goes through the boundary, so there
is one bracket sign rule.  The stored table of structure constants is read
in `lie_core.py` only; every other module reads `bracket_basis`.

The cochain differential of Hom(P_k, forms) is the dual kernel's own
Chevalley-Eilenberg differential plus the Lie derivative on form entries:
`moment._hom_differential` reads neither `boundary_matrix` nor a `rho`.

Truncated closed forms are built once per (form degree, truncation): only
`TruncatedFormModule.__init__` calls `closed_form_basis`.  Only the
nondegeneracy check reads coefficient degrees (`max_coeff_degree`), and the
contraction signs come from `polyform.contract` alone: the matrix it ranks
is built without sign arithmetic.

Ints and Fractions cross only at the edges of `polyform`'s operators: no
module other than `polyform.py` reads its int kernels' entry `_ints`, exit
`_wrap` or block helpers `_combination` and `_add_products`.

Every cohomology dimension has one rank owner: `linalg.rank` is read only by
`GModule.differential_rank`, by `lie_core.ce_betti` (the test oracle, which
ranks each degree on its own) and by the nondegeneracy check, so a second
path to a Chevalley-Eilenberg rank fails here.

Every module derived from another is a restriction with one refusal: of the
functions that read `linalg.coordinates`, only `gmodule.restrict` builds a
module; `TruncatedFormModule.to_coords` and `MomentMap.value` read the
coordinates of one form or one kernel element.  Only `GModule.__init__`
assigns a module's `factors`, and only `GModule.acts_by_zero` tests a
module's rho for zero, so a tensor product answers it from its factors.

A table filled on first lookup has one class: `polyform._Table` is the only
class that defines `__missing__`, and the exponent moves and monomial texts
are instances of it."""

import ast

from support import (SRC_FILES, owners, readers, source_owners, source_readers, src_text,
                     syntax_nodes)


def test_the_checker_finds_a_bracket_read():
    source = ("def f(g):\n    return g.bracket_basis(0, 1)\n"
              "class A:\n    def bracket_basis(self, i, j):\n        return self.table\n"
              "    def ad(self):\n        h = lambda: self.bracket_basis\n        return h\n"
              "x = g.bracket_basis\n"
              "def bracket_basis():\n    return bracket_basis\n")
    assert readers(source, "bracket_basis") == {"f", "A.ad", "<module>", "bracket_basis"}


def test_only_the_boundary_reads_the_bracket():
    assert source_readers("bracket_basis", ("lie_core.py", "gmodule.py", "moment.py")) == {
        "lie_core.py": {"boundary_of_tuple"}, "gmodule.py": set(), "moment.py": set()}


def test_only_lie_core_reads_the_bracket_table():
    found = source_owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "table",
                          SRC_FILES)
    assert {f for f, held in found.items() if held} == {"lie_core.py"}


def test_only_the_truncated_module_builds_closed_forms():
    found = source_readers("closed_form_basis", SRC_FILES)
    assert {f: owners for f, owners in found.items() if owners} == {
        "action.py": {"TruncatedFormModule.__init__"}}


def test_the_hom_differential_reuses_the_dual_kernel_complex():
    for name in ("boundary_matrix", "rho"):
        assert "_hom_differential" not in source_readers(name, ("moment.py",))["moment.py"]


def test_only_polyform_reads_its_int_kernels():
    for name in ("_ints", "_wrap", "_combination", "_add_products"):
        found = source_readers(name, SRC_FILES)
        assert [f for f, owners in found.items() if owners] == ["polyform.py"], name


def test_only_the_nondegeneracy_check_reads_coefficient_degrees():
    assert source_readers("max_coeff_degree", ("action.py",)) == {
        "action.py": {"check_multisymplectic"}}


def test_the_contraction_matrix_does_no_sign_arithmetic():
    inside = [node for scope, node in syntax_nodes(src_text("action.py"))
              if any(d.name == "_contraction_matrix_at" for d in scope)]
    signs = [node for node in inside if isinstance(node, (ast.USub, ast.Pow, ast.Sub, ast.Mult))]
    assert inside and signs == []


def test_only_the_module_differential_ranks_a_complex():
    found = source_readers("rank", SRC_FILES)
    assert {f: owners for f, owners in found.items() if owners} == {
        "action.py": {"check_multisymplectic"},
        "gmodule.py": {"GModule.differential_rank"},
        "lie_core.py": {"ce_betti"}}


def assigns(name):
    """Whether a node stores to an attribute `name`."""
    return lambda node: (isinstance(node, ast.Attribute) and node.attr == name
                         and isinstance(node.ctx, ast.Store))


def zero_test_of_rho(node):
    """Whether a node is a comprehension over some `.rho` that calls
    `is_zero`."""
    return (isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp))
            and any(isinstance(gen.iter, ast.Attribute) and gen.iter.attr == "rho"
                    for gen in node.generators)
            and any(isinstance(sub, ast.Attribute) and sub.attr == "is_zero"
                    for sub in ast.walk(node.elt)))


def test_the_checker_finds_assignments_and_zero_tests():
    source = ("class M:\n    def __init__(self):\n        self.factors = ()\n"
              "    def f(self):\n        return self.factors\n"
              "def g(m):\n    m.factors = (m, m)\n    return all(r.is_zero() for r in m.rho)\n"
              "def h(m):\n    return [r for r in m.rho], [r.is_zero() for r in m.rows]\n")
    assert owners(source, assigns("factors")) == {"M.__init__", "g"}
    assert owners(source, zero_test_of_rho) == {"g"}


def test_one_restriction_rule_and_one_zero_test():
    found = source_readers("coordinates", SRC_FILES)
    assert {f: held for f, held in found.items() if held} == {
        "action.py": {"TruncatedFormModule.to_coords"},
        "gmodule.py": {"restrict"},
        "moment.py": {"MomentMap.value"}}
    for match, want in ((assigns("factors"), "GModule.__init__"),
                        (zero_test_of_rho, "GModule.acts_by_zero")):
        found = source_owners(match, SRC_FILES)
        assert {f: held for f, held in found.items() if held} == {"gmodule.py": {want}}


def classes_defining(source, method):
    """Names of the classes in `source` whose own body defines `method`."""
    return {node.name for _, node in syntax_nodes(source) if isinstance(node, ast.ClassDef)
            and any(isinstance(d, ast.FunctionDef) and d.name == method for d in node.body)}


def test_the_checker_finds_classes_defining_a_method():
    source = ("class A(dict):\n    def __missing__(self, k):\n        return k\n"
              "class B:\n    class C(dict):\n        def __missing__(self, k):\n"
              "            return k\n    def f(self):\n        def __missing__(k):\n"
              "            return k\n")
    assert classes_defining(source, "__missing__") == {"A", "C"}


def test_one_lazily_filled_table_class():
    found = {f: classes_defining(src_text(f), "__missing__") for f in SRC_FILES}
    assert {f: held for f, held in found.items() if held} == {"polyform.py": {"_Table"}}
