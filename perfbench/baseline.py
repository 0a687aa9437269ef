"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/baseline.py [--first-seed 1] > summary.json

Runs run.py untraced once per (seed, workload) for RUNS seeds from
--first-seed, every workload in turn within each seed, each run measuring
BENCHMARK.json's run_seconds.  Prints to stdout a JSON summary: per workload
the commands attempted and failed, and per metric the unit, values, median,
first and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, both at reference speed ("metrics") and as measured
("measured_s", from run.py's result files); and the reference loop's heap
check (calib.heap_check).  A table goes to stderr.  A run that exits
non-zero stops the script with its output.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import calib
import run
import workloads

RUNS = 10


def summarise(unit, values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    values = {name: {"metrics": {}, "measured_s": {}} for name in workloads.WORKLOADS}
    counts = {name: {"attempted": 0, "failed": 0} for name in workloads.WORKLOADS}
    units = {}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
            with open(run.result_path(name, seed, 0), encoding="utf-8") as fh:
                result = json.load(fh)
            for key in ("attempted", "failed"):
                counts[name][key] += result[key]
            for metric, m in result["metrics"].items():
                values[name]["metrics"].setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            for metric, value in result["measured_s"].items():
                values[name]["measured_s"].setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
    summary = {name: dict(counts[name], **{
        scale: {metric: summarise(units[metric], v) for metric, v in per.items()}
        for scale, per in scales.items()}) for name, scales in values.items()}
    for name, per in summary.items():
        print(f"{name}: {per['failed']} of {per['attempted']} commands failed",
              file=sys.stderr)
        for scale in ("metrics", "measured_s"):
            for metric, s in per[scale].items():
                label = metric if scale == "metrics" else f"{metric} (measured)"
                print(f"{name:15s} {label:26s} median {s['median']:.5g} {s['unit']}  "
                      f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}",
                      file=sys.stderr)
    heap = calib.heap_check()
    print(f"reference loop with a {heap['heap_mib']} MiB heap live: "
          f"{heap['median_ratio']:.4f} x its time without", file=sys.stderr)
    json.dump({"python": platform.python_version(), "nproc": os.cpu_count(),
               "runs": RUNS, "first_seed": args.first_seed, "seconds": seconds,
               "heap_check": heap, "workloads": summary},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
