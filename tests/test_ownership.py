"""Ownership runs one way: an action keeps what is derived from it, and no
derived record points back at the action.

So an action is no reference cycle, and all that a run derives from it is
freed by reference counting as soon as `cli.main` returns, with the cyclic
collector off.  The run's moment map reads the action but is kept by the
run's report, not by the action.  Checked end to end, by a weak reference
to every action and every module a run builds, and on the syntax tree.  A
module keeps its weight-zero submodule, which keeps nothing of it; a module
whose weight-zero part is all of it keeps None there, not itself.  A tensor
product keeps its two factors, and builds its rho from them on first read;
its weight-zero part may be a tensor product of one factor and the other's
weight-zero part."""

import ast
import gc
import os
import weakref

from momentkit.cli import COMMANDS, PROBLEMS, ProblemFile, main
from momentkit.gmodule import GModule, module_cohomology_dim

from support import problem_actions, src_text, syntax_nodes


def test_every_action_a_run_builds_is_freed_when_main_returns(monkeypatch, capsys):
    # and every module it builds
    refs, modules = [], []
    build = ProblemFile.build_action
    init = GModule.__init__

    def recorded(self):
        action = build(self)
        refs.append(weakref.ref(action))
        return action

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        modules.append(weakref.ref(self))

    monkeypatch.setattr(ProblemFile, "build_action", recorded)
    monkeypatch.setattr(GModule, "__init__", recorded_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for problem in sorted(os.listdir(PROBLEMS)):
            # the other methods fail on some problems: a failed construction
            # is reported, and kept by nothing either
            for argv in [[command] for command in sorted(COMMANDS)] + [
                    ["report", "--method", method] for method in ("exactness", "brackets")]:
                refs.clear()
                modules.clear()
                main(argv + [os.path.join(PROBLEMS, problem)])
                capsys.readouterr()
                assert len(refs) == 1 and refs[0]() is None, (argv, problem)
                assert [ref() for ref in modules if ref() is not None] == [], (argv, problem)
    finally:
        if enabled:
            gc.enable()


def kept_by(module, path=()):
    """What a module keeps through its factors and its computed weight-zero
    part, transitively; AssertionError if a module keeps one on its own path."""
    assert module not in path, path
    kept = [m for m in (*module.factors, vars(module).get("weight_zero")) if m is not None]
    return kept + [x for m in kept if isinstance(m, GModule)
                   for x in kept_by(m, path + (module,))]


def test_a_module_keeps_only_modules_and_none_of_them_back():
    # walked from each Hom module, a tensor product, once its cohomology,
    # and so its weight-zero part, and its rho are computed
    for problem, action in problem_actions().items():
        kept = []
        for k in range(1, action.plectic_degree() + 1):
            hom = action.hom_module(k, 1)
            module_cohomology_dim(hom, 0)
            assert len(hom.rho) == action.algebra.dim
            kept += kept_by(hom)
        assert kept and all(isinstance(m, GModule) for m in kept), problem


def attribute_assignments(source, attr):
    """Names of the classes whose methods assign `self.<attr>`."""
    return {cls.name for scope, node in syntax_nodes(source)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr == attr and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            for cls in scope if isinstance(cls, ast.ClassDef)}


def method_calls(source, name):
    """Line numbers of the calls `<anything>.<name>(...)` in the source."""
    return sorted(node.lineno for _, node in syntax_nodes(source)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == name)


def test_the_checkers_find_a_back_reference_and_a_derive_call():
    source = ("class K:\n    def __init__(self, action):\n        self.action = action\n"
              "class T:\n    def f(self, a):\n        self.n, self.action = 1, a\n"
              "class M:\n    def __init__(self, a):\n        self.algebra = a.algebra\n"
              "x = a._derive(1, f)\n")
    assert attribute_assignments(source, "action") == {"K", "T"}
    assert method_calls(source, "_derive") == [10]


def test_no_derived_record_points_back_at_the_action():
    assert attribute_assignments(src_text("action.py"), "action") == set()


def test_the_command_line_keeps_nothing_in_the_action():
    assert method_calls(src_text("cli.py"), "_derive") == []
    assert method_calls(src_text("action.py"), "_derive")  # the check is not vacuous
