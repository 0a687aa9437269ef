"""The benchmark's workloads still get their expected answers.

`perfbench/workloads.py` lists each workload's commands and the answer
fields it expects of them (Betti numbers, kernel dimensions, route
verdicts, Hom-module cohomology, residual and repair flags).  Each command
list runs once here, in-process through `cli.main`: bundled-report,
hom-rank, and so5-forms at seeds 1 and 2, whose generated problems are
written under `tmp_path`.  A change to an answer then fails here, before a
benchmark run refuses it.  Nothing under `perfbench/` is edited: the module
is loaded by path, as `tests/test_tracer_contract.py` loads the tracer.
"""

import contextlib
import importlib.util
import io
import os

from momentkit import cli

from support import ROOT

PERFBENCH = os.path.join(ROOT, "perfbench")


def load_workloads(monkeypatch):
    """perfbench/workloads.py as a module of its own; it imports its
    sibling `so5gen`, so perfbench/ is on the path while it loads."""
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_workload_command_gets_its_expected_answers(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    runs = [("bundled-report", 1), ("hom-rank", 1), ("so5-forms", 1), ("so5-forms", 2)]
    assert {name for name, _ in runs} == set(workloads.WORKLOADS)
    for name, seed in runs:
        _, commands, _ = workloads.plan(name, seed, str(tmp_path))
        assert commands, name
        for argv, expected in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            assert workloads.mismatches(expected, rc, out.getvalue()) == [], (name, seed, argv)
