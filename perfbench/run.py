"""momentkit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): bundled-report, hom-rank, so5-forms.  Run from
anywhere; the package is taken from `src/` next to this directory.

The loop is closed, with one client: each pass runs the workload's command
list once through `momentkit.cli.main` in a fresh interpreter (worker.py),
and passes repeat until `--seconds` have elapsed (at least one pass).  Every
answer is checked (workloads.py).

Times are seconds at reference speed (calib.py): the measured time, less
the reference-loop runs inside it, scaled by how fast the CPU ran the
reference loop meanwhile.  On a shared machine whose speed drifts this
keeps the figures steady; the measured seconds are printed beside them and
kept in the result file (below).  calib.heap_check measures how much a
live heap the size of hom-rank's changes the loop's speed (BASELINE.json).

--trace 0 prints the end-to-end metrics:
  setup_s        median over SETUP_REPEATS fresh interpreters of the time to
                 import momentkit.cli and parse and validate (build the
                 action of) each of the workload's problem files
  wall_s         median pass time (the whole command list)
  slowest_cmd_s  median over passes of the longest single command
  peak_rss_mb    median over passes of the worker's peak resident memory
--trace 1 runs the same untraced passes, then one traced pass, and prints the
per-layer metrics of tracer.py (span times as measured); the spans go to
.perfbench_out/.  The traced pass fails its check when its spans do not nest
(tracer.unnested_s above UNNESTED_SHARE of the pass).

The last line of output is one JSON object with keys correct, attempted,
failed and metrics.  failed / attempted is the fail ratio: commands that
exited with the wrong code or failed the answer check.  The same object,
with the measured seconds added as "measured_s", is written to
.perfbench_out/result-<workload>-seed<n>-trace<0|1>.json.  Exit status 0 when
every check passed, 1 when one failed, 2 when the checkout has no
src/momentkit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
DEADLINE_S = 170
UNNESTED_SHARE = 0.01  # tolerated excess self time, as a share of the traced pass

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_cmd_s": "s", "peak_rss_mb": "MiB"}

SETUP_CODE = """
import json, sys, time
import calib
sampler = calib.Sampler(0.005)
for _ in range(5):
    sampler.sample()
sampler.start()
start = time.perf_counter()
from momentkit import cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        cli.parse_problem(fh.read()).build_action()
end = time.perf_counter()
sampler.stop()
for _ in range(5):
    sampler.sample()
window = (sampler.samples[0][0], sampler.samples[-1][1])
print(json.dumps([sampler.reference_seconds(start, end, window), end - start]))
"""


def result_path(workload, seed, trace):
    return os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")


class Budget:
    """Seconds left before the run must end."""

    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return max(1.0, self.end - time.perf_counter())


def setup_seconds(files, budget):
    """Medians of (reference, measured) set-up seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *files], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=budget.left())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout))
    return [statistics.median(t) for t in zip(*times)]


def run_pass(cmds, budget, trace=False, spans_out=None, untraced_wall=None):
    """One worker pass; the reply dict of worker.py."""
    request = {"src": SRC, "commands": [argv for argv, _ in cmds], "trace": trace,
               "spans_out": spans_out, "untraced_wall": untraced_wall}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
                          input=json.dumps(request), capture_output=True, text=True,
                          timeout=budget.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def check_pass(cmds, reply):
    """Number of failed commands in one pass; prints each failure."""
    failed = 0
    for (argv, expected), result in zip(cmds, reply["commands"]):
        bad = workloads.mismatches(expected, result["rc"], result["stdout"])
        if bad:
            failed += 1
            print(f"FAIL {' '.join(argv)}: " + "; ".join(bad[:5])
                  + (f"\n{result['stderr']}" if result["stderr"] else ""))
    return failed


def measure(args, cmds, files):
    """(metrics, measured, failed, attempted, correct) of one run."""
    budget = Budget(DEADLINE_S)
    metrics, measured = {}, {}
    if not args.trace:
        metrics["setup_s"], measured["setup_s"] = setup_seconds(files, budget)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(cmds, budget))
    failed = sum(check_pass(cmds, reply) for reply in passes)
    attempted = len(cmds) * len(passes)
    untraced_wall = statistics.median(reply["wall_s"] for reply in passes)
    measured["wall_s"] = statistics.median(reply["raw_wall_s"] for reply in passes)
    measured["slowest_cmd_s"] = statistics.median(
        max(c["raw_seconds"] for c in reply["commands"]) for reply in passes)
    correct = True
    if args.trace:
        spans_out = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        traced = run_pass(cmds, budget, True, spans_out, untraced_wall)
        failed += check_pass(cmds, traced)
        attempted += len(cmds)
        layers = traced["layers"]
        print(f"spans: self times exceed the root spans' time by "
              f"{traced['unnested_s']:.6g} s")
        if traced["unnested_s"] > UNNESTED_SHARE * layers["trace.wall_s"]:
            print(f"FAIL spans do not nest: their self times add up to "
                  f"{traced['unnested_s']:.6g} s more than the root spans' time")
            correct = False
        metrics = {name: layers[name] for name, _, _ in tracing.PER_LAYER}
    else:
        metrics["wall_s"] = untraced_wall
        metrics["slowest_cmd_s"] = statistics.median(
            max(c["seconds"] for c in reply["commands"]) for reply in passes)
        metrics["peak_rss_mb"] = statistics.median(reply["peak_rss_mb"] for reply in passes)
    print(f"passes {len(passes)}, commands attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.4f}; pass seconds "
          + ", ".join(f"{reply['wall_s']:.4g}" for reply in passes))
    return metrics, measured, failed, attempted, correct and failed == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.so5gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "momentkit", "cli.py")):
        print(f"error: no momentkit package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    files, cmds, info = workloads.plan(args.workload, args.seed, OUT)
    print(f"workload {args.workload}, seed {args.seed}"
          + "".join(f", {k} {v}" for k, v in info.items() if k != "seed")
          + f": {len(cmds)} commands per pass")
    try:
        metrics, measured, failed, attempted, correct = measure(args, cmds, files)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    units = dict(END_TO_END, **{name: unit for name, unit, _ in tracing.PER_LAYER})
    for name, value in metrics.items():
        extra = f"  (measured {measured[name]:.6g} s)" if name in measured else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump(dict(result, measured_s=measured), fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
