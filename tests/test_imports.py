"""Every module under src/momentkit/ and tests/ uses each name it imports
(`momentkit/__init__.py` is exempt: its imports are the package's exports)."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
