"""Every module under src/momentkit/ and tests/ uses each name it imports
(`momentkit/__init__.py` is exempt: its imports are the package's exports).

Test modules share helpers only through `tests/support.py`: none imports
another test module, and no helper is defined in two of them.

Every function and named method under src/momentkit/ is read somewhere in
src/, outside the short list of API kept for a stated reason: API that
only tests call belongs in tests/."""

import ast
import os

from support import ROOT, SRC_FILES, owner, readers, src_text, syntax_nodes


def python_files():
    for folder in (os.path.join(ROOT, "src", "momentkit"), os.path.join(ROOT, "tests")):
        for name in sorted(os.listdir(folder)):
            path = os.path.join(folder, name)
            if name.endswith(".py") and path != os.path.join(ROOT, "src", "momentkit",
                                                             "__init__.py"):
                yield path


def unused_imports(source):
    """Names bound by the module's import statements and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nc(e)\n") == ["os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in python_files():
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            found[os.path.relpath(path, ROOT)] = names
    assert found == {}


def test_test_modules_share_helpers_only_through_support():
    imports, defined = [], {}
    for name in sorted(os.listdir(os.path.join(ROOT, "tests"))):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "tests", name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            imports += [(name, node.lineno) for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.module
                        and node.module.startswith("test_")
                        or isinstance(node, ast.Import)
                        and any(alias.name.startswith("test_") for alias in node.names)]
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("test_"):
                    defined.setdefault(node.name, []).append(name)
    assert imports == []
    assert {helper: files for helper, files in defined.items() if len(files) > 1} == {}


# The functions under src/ that nothing under src/ reads, each with the
# reason it stays there.
KEPT_WITHOUT_A_SRC_READER = {
    "action.infinitesimal_generator": "perfbench/tracer.py times it (ROADMAP item 13)",
    "lie_core.ce_betti": "perfbench/tracer.py times it (ROADMAP item 13)",
    "moment.uniqueness_check": "perfbench/tracer.py times it (ROADMAP item 13)",
    "moment.describe_kernel": "perfbench/tracer.py times it (ROADMAP item 13)",
    "cli.serialize_problem": "ROADMAP item 5's problem generator writes problems with it",
}


def defined_functions(file):
    """{qualified name: name} of the module-level functions and the named
    methods of module-level classes in src/momentkit/<file>; a dunder method
    is called by the language, not by its name, and is left out."""
    found = {}
    for scope, node in syntax_nodes(src_text(file)):
        if (isinstance(node, ast.FunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and (not scope or len(scope) == 1 and isinstance(scope[0], ast.ClassDef))):
            found[owner(scope + (node,))] = node.name
    return found


def class_names(source, cls):
    """The names the body of class `cls` binds: its methods and assignments."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == cls).body
    return ({node.name for node in body if isinstance(node, ast.FunctionDef)}
            | {target.id for node in body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)})


def test_every_function_in_src_has_a_reader_in_src():
    unread = []
    for file in SRC_FILES:
        for qualified, name in defined_functions(file).items():
            reads = {(other, reader) for other in SRC_FILES
                     for reader in readers(src_text(other), name)}
            if not reads - {(file, qualified)}:
                unread.append(f"{file[:-3]}.{qualified}")
    assert sorted(unread) == sorted(KEPT_WITHOUT_A_SRC_READER)


def test_poly_is_a_coefficient_record():
    # all arithmetic is on forms: a polynomial times a form is a wedge with
    # a 0-form, and neither a Poly nor a form is hashed
    source = src_text("polyform.py")
    assert class_names(source, "Poly") & {
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__hash__", "var"} == set()
    assert "__hash__" not in class_names(source, "_Graded")
    assert "_Graded.__mul__" not in readers(source, "Poly")
