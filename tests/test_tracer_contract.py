"""Contract between momentkit and the benchmark's outside-in tracer.

`perfbench/tracer.py` wraps momentkit functions by module and name and reads
`Form.comps` / `Poly.terms` to count wedge output terms.  One traced pass of
`perfbench/worker.py` over `report so4_r4.mmk` must still run, find the
traced names, count wedge terms, and keep its spans nested.  (`so3_r3` is
not used: its pass is shorter than the worker's 50 ms sampling interval.)
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_traced_worker_pass_reads_the_form_layout(tmp_path):
    request = {
        "src": os.path.join(ROOT, "src"),
        "commands": [["report", os.path.join(ROOT, "src", "momentkit", "problems",
                                             "so4_r4.mmk"), "--format", "machine"]],
        "trace": True,
        "spans_out": str(tmp_path / "spans.json"),
        "untraced_wall": 1.0,
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py")],
        input=json.dumps(request), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reply = json.loads(proc.stdout)
    assert [c["rc"] for c in reply["commands"]] == [0]
    layers = reply["layers"]
    assert layers["polyform.wedge.calls"] > 0
    assert layers["polyform.wedge.terms_out"] > 0
    assert reply["unnested_s"] <= 0.01 * layers["trace.wall_s"]
