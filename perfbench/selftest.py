"""Self-tests of the benchmark's own code:  python3 perfbench/selftest.py

They cover the so5-forms generator, the span arithmetic, the answer checks,
the reference-speed sampler (and that a live heap does not slow its loop),
the traced worker and the agreement of BENCHMARK.json with the code.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import unittest

import calib
import run
import so5gen
import tracer
import workloads

sys.path.insert(0, run.SRC)
from momentkit import cli  # noqa: E402
from momentkit.action import preserves_omega, validate_action  # noqa: E402
from momentkit.lie_core import ce_betti, lie_kernel_basis  # noqa: E402
from momentkit.moment import construct_exactness, verify_moment  # noqa: E402


def machine_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--format", "machine"])
    return rc, out.getvalue()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for seed in (1, 2, 17):
            self.assertEqual(so5gen.generate(seed), so5gen.generate(seed))
        self.assertNotEqual(so5gen.generate(1)[0], so5gen.generate(2)[0])

    def test_default_seed(self):
        self.assertEqual(so5gen.generate(), so5gen.generate(so5gen.DEFAULT_SEED))

    def test_shear_inverse(self):
        identity = [[int(i == j) for j in range(so5gen.N)] for i in range(so5gen.N)]
        self.assertEqual(so5gen._mul(so5gen.SHEAR, so5gen.SHEAR_INV), identity)

    def test_invariants_across_seeds(self):
        kernel_dims = {int(k): n for k, n in workloads.SO5_KERNEL_DIMS.items()}
        for seed in (1, 2, 3):
            text, info = so5gen.generate(seed)
            self.assertEqual(info, {"seed": seed, "field_terms": so5gen.FIELD_TERMS})
            action = cli.parse_problem(text).build_action()
            validate_action(action)
            self.assertEqual(preserves_omega(action), [])
            self.assertEqual(list(ce_betti(action.algebra)), workloads.SO5_BETTI)
            for k, dim in kernel_dims.items():
                self.assertEqual(len(lie_kernel_basis(action.algebra, k)), dim)
            self.assertTrue(verify_moment(construct_exactness(action, ks=[1, 2])))


class SpanArithmeticTest(unittest.TestCase):
    def test_self_times(self):
        # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,7];  root > c [6,12]
        # c overlaps b and runs past root's end: only [7,10] of it is new cover.
        spans = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
                 ("a1", 2.0, 3.0, 1, 0), ("b", 5.0, 7.0, 0, 0),
                 ("c", 6.0, 12.0, 0, 0)]
        got = tracer.self_times(spans)
        for value, want in zip(got, [10 - 3 - 2 - 3, 2.0, 1.0, 2.0, 6.0]):
            self.assertAlmostEqual(value, want)

    def test_unnested(self):
        nested = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
                  ("a1", 2.0, 3.0, 1, 0), ("b", 5.0, 7.0, 0, 0),
                  ("calibration", 11.0, 11.5, -1, 0)]
        self.assertAlmostEqual(tracer.unnested_s(nested), 0.0)
        # b overlaps a by 1 s; a1 runs 0.5 s past its parent a
        bad = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0),
               ("a1", 3.0, 4.5, 1, 0), ("b", 3.0, 7.0, 0, 0)]
        self.assertAlmostEqual(tracer.unnested_s(bad), 1.5)

    def test_layer_sums(self):
        t = tracer.Tracer()
        t.spans = [("cli.main", 0.0, 10.0, -1, 0), ("linalg.rank", 1.0, 4.0, 0, 0),
                   ("polyform.wedge", 5.0, 6.0, 0, 0), ("trace.hook", 6.0, 6.5, 0, 0)]
        t.calibration_span(7.0, 7.5)   # no span open: a child of none
        t.stack = [1]
        t.calibration_span(2.0, 2.5)   # inside linalg.rank
        m = tracer.layer_metrics(t, 10.0, 1.25)
        self.assertAlmostEqual(m["layer.cli.self_s"], 5.5)
        self.assertAlmostEqual(m["layer.linalg.self_s"], 2.5)
        self.assertAlmostEqual(m["layer.polyform.self_s"], 1.0)
        self.assertAlmostEqual(m["trace.hook_s"], 0.5)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 1.25)
        self.assertEqual(m["linalg.rank.calls"], 1)
        self.assertEqual(set(m), {name for name, _, _ in tracer.PER_LAYER})


class ReferenceSpeedTest(unittest.TestCase):
    def test_reference_seconds(self):
        s = calib.Sampler(1.0)
        s.samples = [(0.1, 0.101), (0.2, 0.202), (0.3, 0.303), (2.0, 2.004)]
        # three loop runs inside [0, 1]: 6 ms busy, 2 ms mean
        self.assertAlmostEqual(s.reference_seconds(0.0, 1.0), 0.994 * calib.REF_S / 0.002)
        # one run inside [1.5, 2.5]: the speed comes from the fallback window
        self.assertAlmostEqual(s.reference_seconds(1.5, 2.5, (0.0, 3.0)),
                               0.996 * calib.REF_S / 0.0025)
        with self.assertRaises(RuntimeError):
            s.reference_seconds(5.0, 6.0)

    def test_sample_leaves_gc_setting(self):
        s = calib.Sampler(None)
        self.assertTrue(gc.isenabled())
        s.sample()
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            s.sample()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()

    def test_live_heap_does_not_slow_loop(self):
        check = calib.heap_check()
        self.assertGreater(check["heap_mib"], 40)
        # One round's ratio spreads by about +-15% on a shared machine, so the
        # median over the rounds is held to 10%: half the wall_s bound.
        self.assertAlmostEqual(check["median_ratio"], 1.0, delta=0.1)

    def test_sampler_runs_on_timer(self):
        s = calib.Sampler(0.01)
        s.start()
        try:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        finally:
            s.stop()
        self.assertGreater(len(s.samples), 3)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(workloads.HERE, "expected.json"), encoding="utf-8") as fh:
            cls.expected = json.load(fh)["bundled-report"]["so3_r3"]
        cls.rc, cls.output = machine_output(["report", "so3_r3.mmk"])

    def test_seed_output_passes(self):
        self.assertEqual(workloads.mismatches(self.expected, self.rc, self.output), [])

    def tampered(self, edit):
        doc = json.loads(self.output)
        edit({s["title"]: s["data"] for s in doc["sections"]})
        return workloads.mismatches(self.expected, self.rc, json.dumps(doc))

    def test_flipped_route_verdict_fails(self):
        def flip(sections):
            entry = sections["Existence diagnostics"]["degrees"]["1"]
            entry["exactness_applies"] = not entry["exactness_applies"]
        self.assertEqual(len(self.tampered(flip)), 1)

    def test_changed_answers_fail(self):
        edits = [
            lambda s: s["Cohomology"].update(betti=[1, 0, 0, 0]),
            lambda s: s["Existence diagnostics"]["degrees"]["2"].update(h1_hom=5),
            lambda s: s["Moment map (poincare)"].update(residuals_zero=False),
            lambda s: s["Equivariance, k=1"].update(cocycle=False),
            lambda s: s["Equivariance, k=2"].update(repair="repaired"),
            lambda s: s["Equivariance, k=2"].pop("unique_in_truncation"),
            lambda s: s["Lie kernel bases"]["1"].pop(),
        ]
        for edit in edits:
            self.assertTrue(self.tampered(edit))

    def test_wrong_exit_code_and_garbage_fail(self):
        self.assertTrue(workloads.mismatches(self.expected, 1, self.output))
        self.assertTrue(workloads.mismatches(self.expected, 0, "not json"))

    def test_added_witness_passes(self):
        def add(sections):
            sections["Existence diagnostics"]["degrees"]["1"]["witness"] = "e1"
        self.assertEqual(self.tampered(add), [])


class TracedWorkerTest(unittest.TestCase):
    def test_traced_pass(self):
        request = {"src": run.SRC, "commands": [["report", "so3_r3.mmk", "--format", "machine"]],
                   "trace": True, "untraced_wall": 1.0,
                   "spans_out": os.path.join(run.OUT, "spans-selftest.json")}
        os.makedirs(run.OUT, exist_ok=True)
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "worker.py")],
                              input=json.dumps(request), capture_output=True, text=True,
                              timeout=120, check=True)
        reply = json.loads(proc.stdout)
        m = reply["layers"]
        self.assertEqual(reply["commands"][0]["rc"], 0)
        self.assertLessEqual(reply["unnested_s"], run.UNNESTED_SHARE * m["trace.wall_s"])
        self.assertGreater(m["linalg.rref.calls"], 0)
        self.assertGreater(m["polyform.wedge.calls"], 0)
        self.assertEqual(m["cli.cmd.report.s"] > 0, True)
        self.assertLess(m["action.TruncatedFormModule.distinct_ratio"], 1)
        with open(request["spans_out"], encoding="utf-8") as fh:
            spans = json.load(fh)
        self.assertIn("moment.construct_poincare", spans["names"])
        self.assertIn("trace.calibration", spans["names"])


class BenchmarkFileTest(unittest.TestCase):
    def test_matches_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracer.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
