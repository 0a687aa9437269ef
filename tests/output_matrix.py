"""Byte-identity check of the command line: one sha256 per run.

    python tests/output_matrix.py <src-dir>

runs `python -m momentkit.cli` with <src-dir> (the directory holding the
`momentkit` package) first on the module path, in a fresh interpreter per
run: 8 commands x 10 problems x 5 flag sets x 2 formats (800 runs), as
many at a time as `os.cpu_count()` gives, printed in the order of
`matrix_runs`.  The problems are
the 6 bundled ones and the fixtures co3_r3, heis_r3, scale_r3 and
unclosed_r3 of tests/golden/.  Each line printed is the sha256 of the
run's stdout, stderr and exit code, then the run's arguments.  Run it on two source trees and
diff the two outputs: no diff means the change left every run
byte-identical.

Every run starts in tests/golden/, so the fixtures there are named relative
to it and the bundled problems resolve by name inside <src-dir>; no path of
either tree reaches the output.  pytest does not collect this file."""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

COMMANDS = ("check-action", "cohomology", "kernel", "invariants", "diagnose", "construct",
            "equivariance", "report")
PROBLEMS = ("abelian_r2", "abelian_r3", "sl2_r2", "so3_r3", "so4_r4", "u2_r4",
            "co3_r3", "heis_r3", "scale_r3", "unclosed_r3")
FLAG_SETS = ((), ("--max-poly-degree", "0"), ("--max-poly-degree", "2"),
             ("--method", "exactness"), ("--method", "brackets"))
FORMATS = ("text", "machine")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def matrix_runs():
    """The argument list of every run, in the order printed."""
    return [[command, f"{problem}.mmk", *flags, "--format", fmt]
            for command in COMMANDS for problem in PROBLEMS
            for flags in FLAG_SETS for fmt in FORMATS]


def run_digest(src, argv):
    """sha256 over one run's stdout, stderr and exit code, each part
    length-prefixed so that no two runs' parts can run together."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "momentkit.cli", *argv], cwd=GOLDEN,
                          env=env, capture_output=True, timeout=600)
    digest = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2 or not os.path.isdir(os.path.join(sys.argv[1], "momentkit")):
        sys.exit("usage: python tests/output_matrix.py <src-dir holding momentkit/>")
    runs = matrix_runs()
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        digests = pool.map(lambda run: run_digest(sys.argv[1], run), runs)
        for run, digest in zip(runs, digests):
            print(digest, " ".join(run), flush=True)
