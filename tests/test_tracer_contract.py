"""Contract between momentkit and the benchmark's outside-in tracer.

`perfbench/tracer.py` wraps momentkit functions by module and name, unpacks
the positional arguments of some of them to key their content, and reads
`Form.comps` / `Poly.terms` to key moment-map components and truncated form
spaces.

The first tests import the tracer by path and start no worker, so they do
not depend on how fast the host runs: every traced name resolves, the
hooked functions keep the positional parameters their hooks unpack, each
content-key hook reads the objects momentkit builds today, and the traced
names that no code in `src/` reads are exactly the known tracer-only API.

One traced pass of `perfbench/worker.py` over `report so4_r4.mmk` and
`equivariance abelian_r3.mmk` must still run, find the traced names, key
the Sigma cochains and truncated form spaces it builds, and keep its spans
nested.  (`so3_r3` is not used: its pass is shorter than the worker's 50 ms
sampling interval.  The translations of `abelian_r3` are not linear, so
their Sigma is computed; on the linear `so4_r4` it is proven zero.)
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys

from momentkit.action import TruncatedFormModule, infinitesimal_generator
from momentkit.cli import catalog_action
from momentkit.gmodule import lie_kernel_module
from momentkit.lie_core import lie_kernel_basis
from momentkit.moment import construct_poincare, sigma_cochain

from support import ROOT, SRC_FILES, source_readers


def load_tracer():
    """perfbench/tracer.py as a module of its own, without running a pass."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    for span, (module, attr) in load_tracer().TRACED.items():
        target = importlib.import_module(f"momentkit.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), span


def test_tracer_only_names_are_the_known_ones():
    # a traced function that nothing in src/ reads is kept only for the
    # tracer and the tests; for a method, its class must be read
    unread = {span for span, (_, attr) in load_tracer().TRACED.items()
              if not any(source_readers(attr.split(".")[0], SRC_FILES).values())}
    assert unread == {"action.infinitesimal_generator", "moment.uniqueness_check",
                      "moment.describe_kernel", "lie_core.ce_betti"}


def positional(fn):
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in kinds]


def test_hooked_functions_keep_the_parameters_their_hooks_unpack():
    assert positional(TruncatedFormModule.__init__) == ["self", "action", "p", "max_degree"]
    assert positional(sigma_cochain) == ["mm", "k"]
    assert positional(infinitesimal_generator) == ["action", "mv"]
    assert positional(lie_kernel_basis) == ["g", "k"]
    assert positional(lie_kernel_module)[:2] == ["g", "k"]


def test_content_key_hooks_read_todays_objects():
    action = catalog_action("so3_r3")
    mm = construct_poincare(action, [1])
    trunc = action.truncated_forms(1, 1)
    tracer = load_tracer().Tracer()
    calls = {"lie_core.lie_kernel_basis": (action.algebra, 1),
             "gmodule.lie_kernel_module": (action.algebra, 1),
             "action.infinitesimal_generator": (action, (0,)),
             "action.TruncatedFormModule": (trunc, action, 1, 1),
             "moment.sigma_cochain": (mm, 1)}
    for name, args in calls.items():
        tracer.hooks[name](name, args, None)
    assert {name: len(keys) for name, keys in tracer.keys.items()} == dict.fromkeys(calls, 1)


def test_traced_worker_pass_reads_the_form_layout(tmp_path):
    problems = os.path.join(ROOT, "src", "momentkit", "problems")
    request = {
        "src": os.path.join(ROOT, "src"),
        "commands": [["report", os.path.join(problems, "so4_r4.mmk"), "--format", "machine"],
                     ["equivariance", os.path.join(problems, "abelian_r3.mmk"),
                      "--format", "machine"]],
        "trace": True,
        "spans_out": str(tmp_path / "spans.json"),
        "untraced_wall": 1.0,
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py")],
        input=json.dumps(request), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reply = json.loads(proc.stdout)
    assert [c["rc"] for c in reply["commands"]] == [0, 0]
    layers = reply["layers"]
    assert layers["moment.sigma_cochain.distinct_ratio"] > 0
    assert layers["action.TruncatedFormModule.distinct_ratio"] > 0
    assert reply["unnested_s"] <= 0.01 * layers["trace.wall_s"]
