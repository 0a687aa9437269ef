"""One pass of a workload in a fresh interpreter.

Reads a JSON request on stdin:
    {"src": <dir holding the momentkit package>, "commands": [argv, ...],
     "trace": bool, "spans_out": <path>, "untraced_wall": <seconds>}
runs each argv through `momentkit.cli.main` in order (one client, one
thread, the next command only after the previous one returns), and writes
one JSON reply on stdout: per command the exit code, captured output, and
seconds at reference speed (calib.py) and as measured; the same two times
for the whole pass; peak resident memory; and, when traced, the per-layer
metrics and the spans' excess self time (tracer.unnested_s).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calib

SAMPLE_INTERVAL_S = 0.05


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    return {"rc": rc, "start": start, "end": end, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-4000:]}


def main():
    req = json.load(sys.stdin)
    src = os.path.abspath(req["src"])
    sys.path.insert(0, src)
    from momentkit import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"momentkit was imported from {cli.__file__}, not from {src}")
    tracer = on_sample = None
    if req["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        on_sample = tracer.calibration_span
    sampler = calib.Sampler(SAMPLE_INTERVAL_S, on_sample)
    run = run_command if tracer is None else tracer.wrap("cli.main", run_command)
    results = []
    sampler.start()
    start = time.perf_counter()
    for i, argv in enumerate(req["commands"]):
        if tracer is not None:
            tracer.command = i
        results.append(run(cli, argv))
    end = time.perf_counter()
    sampler.stop()
    for r in results:
        r["raw_seconds"] = r["end"] - r["start"]
        r["seconds"] = sampler.reference_seconds(r.pop("start"), r.pop("end"), (start, end))
    reply = {"commands": results, "wall_s": sum(r["seconds"] for r in results),
             "raw_wall_s": end - start,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        reply["layers"] = tracing.layer_metrics(tracer, end - start,
                                                reply["wall_s"] / req["untraced_wall"])
        reply["unnested_s"] = tracing.unnested_s(tracer.all_spans())
        tracer.dump(req["spans_out"])
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
