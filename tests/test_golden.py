"""Golden CLI output: exact stdout bytes and exit codes, frozen in tests/golden/.

Each case `<command>_<problem>[_<flags>].<format>` has its exit code in
`tests/golden/exit_codes.json` and its stdout either in
`tests/golden/<case>.out` or, for outputs too large to keep, as a SHA-256
digest and byte length in `tests/golden/digests.json`.  The files were
written by `momentkit.cli.main` before the refactor each case guards; a
refactor that keeps the answers keeps these bytes.  To refresh a case after
an intended output change, run the command below with `--format` set and
redirect stdout into its file (or record its digest and length).

`so5_seed1.mmk` is the generated so(5) problem of the `so5-forms` benchmark
workload (`perfbench/so5gen.py`, seed 1), kept here so the form-heavy
construct routes are covered without importing the benchmark.  Its
homotopy-operator construction and its Betti table (`cohomology`, whose
upper degrees come from the duality of the complex) are also run in fresh
interpreters under two string-hash seeds, and must give the recorded
digests under both.

`scale_r3.mmk` is a linear action on R^3 whose V1 scales omega, so the
homotopy-operator map is not equivariant there.

`co3_r3.mmk` (so(3) + R, the R acting by the Euler field) and
`heis_r3.mmk` (the Heisenberg algebra by translations and a shear) have a
centre that acts on the Hom modules, invertibly and nilpotently.

`unclosed_r3.mmk` is a pair of translations preserving an omega that is not
closed, so its refused construction is blamed on omega.
"""

import hashlib
import json
import os
import subprocess
import sys

from momentkit.cli import main

from support import BUNDLED, GOLDEN, PROBLEMS


def golden_cases():
    """case name -> argv."""
    cases = {}
    for p in BUNDLED:
        for fmt in ("text", "machine"):
            cases[f"report_{p}.{fmt}"] = [
                "report", os.path.join(PROBLEMS, f"{p}.mmk"), "--format", fmt]
    cases["diagnose_so4_r4_k2_D1.machine"] = [
        "diagnose", os.path.join(PROBLEMS, "so4_r4.mmk"), "--k", "2",
        "--max-poly-degree", "1", "--format", "machine"]
    # every degree at truncation 2: the largest Hom-module ranks in the suite
    cases["diagnose_u2_r4_D2.machine"] = [
        "diagnose", os.path.join(PROBLEMS, "u2_r4.mmk"),
        "--max-poly-degree", "2", "--format", "machine"]
    # truncation 3: the central e1 acts invertibly on most of each Hom module
    cases["diagnose_u2_r4_D3.machine"] = [
        "diagnose", os.path.join(PROBLEMS, "u2_r4.mmk"),
        "--max-poly-degree", "3", "--format", "machine"]
    # a centre that acts invertibly (co3: the Euler field) and one that acts
    # nilpotently (heis: a translation)
    for p in ("co3_r3", "heis_r3"):
        cases[f"diagnose_{p}_D2.text"] = [
            "diagnose", os.path.join(GOLDEN, f"{p}.mmk"),
            "--max-poly-degree", "2", "--format", "text"]
        # the whole report, equivariance included, on both centres
        cases[f"report_{p}.text"] = [
            "report", os.path.join(GOLDEN, f"{p}.mmk"), "--format", "text"]
    # truncation 2: each Hom module's cohomology read from its weight-zero part
    cases["report_u2_r4_D2.text"] = [
        "report", os.path.join(PROBLEMS, "u2_r4.mmk"), "--max-poly-degree", "2",
        "--format", "text"]
    # every degree at truncations 0 and 1 on every bundled problem: each Betti
    # number, h0(P_k*), h0_hom and h1_hom the CLI prints, including the
    # modules on which the algebra acts by zero
    for p in BUNDLED:
        for D in (0, 1):
            cases[f"diagnose_{p}_D{D}.machine"] = [
                "diagnose", os.path.join(PROBLEMS, f"{p}.mmk"),
                "--max-poly-degree", str(D), "--format", "machine"]
    # both preimage routes on every bundled problem, refusals included
    for p in BUNDLED:
        for method in ("brackets", "exactness"):
            cases[f"construct_{p}_{method}.text"] = [
                "construct", os.path.join(PROBLEMS, f"{p}.mmk"), "--method", method,
                "--format", "text"]
    so5 = os.path.join(GOLDEN, "so5_seed1.mmk")
    cases["construct_so5_seed1_k1234.machine"] = [
        "construct", so5, "--k", "1,2,3,4", "--format", "machine"]
    cases["construct_so5_seed1_exactness_k12.machine"] = [
        "construct", so5, "--method", "exactness", "--k", "1,2",
        "--format", "machine"]
    cases["construct_so5_seed1_brackets_k12.machine"] = [
        "construct", so5, "--method", "brackets", "--k", "1,2", "--format", "machine"]
    # the Betti table of so(5) through degree 10, and every Lie kernel
    for command in ("cohomology", "kernel"):
        cases[f"{command}_so5_seed1.machine"] = [command, so5, "--format", "machine"]
    for method in ("brackets", "exactness"):
        cases[f"equivariance_so4_r4_{method}_k12_D2.text"] = [
            "equivariance", os.path.join(PROBLEMS, "so4_r4.mmk"), "--method",
            method, "--k", "1,2", "--max-poly-degree", "2", "--format", "text"]
    # the homotopy-operator route's Sigma, cocycle check, repair and
    # uniqueness on every bundled problem, every degree, at truncations 0 and 1
    for p in BUNDLED:
        for D in (0, 1):
            cases[f"equivariance_{p}_D{D}.machine"] = [
                "equivariance", os.path.join(PROBLEMS, f"{p}.mmk"),
                "--max-poly-degree", str(D), "--format", "machine"]
    cases["equivariance_so5_seed1_k12.machine"] = [
        "equivariance", so5, "--k", "1,2", "--format", "machine"]
    # a linear action whose V1 scales omega: Sigma is not zero and the repair
    # fails on an entry that is not closed
    cases["equivariance_scale_r3.text"] = [
        "equivariance", os.path.join(GOLDEN, "scale_r3.mmk"), "--format", "text"]
    # omega is not closed: the refused construction names that cause, once
    cases["report_unclosed_r3.text"] = [
        "report", os.path.join(GOLDEN, "unclosed_r3.mmk"), "--format", "text"]
    return cases


def _load(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_output_matches_golden_bytes(capsys):
    exit_codes = _load("exit_codes.json")
    digests = _load("digests.json")
    cases = golden_cases()
    assert sorted(cases) == sorted(exit_codes)
    mismatched = []
    for name, argv in cases.items():
        rc = main(argv)
        got = capsys.readouterr().out.encode("utf-8")
        if name in digests:
            same = digests[name] == {"sha256": hashlib.sha256(got).hexdigest(),
                                     "bytes": len(got)}
        else:
            with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
                same = got == fh.read()
        if rc != exit_codes[name] or not same:
            mismatched.append(name)
    assert mismatched == []


def assert_same_bytes_under_two_hash_seeds(name):
    """Run golden case `name` in a fresh interpreter under two string-hash
    seeds, so the exponent move and monomial tables and every set and dict
    start empty under another seed; both must give its recorded digest."""
    want = _load("digests.json")[name]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "momentkit.cli", *golden_cases()[name]],
                              capture_output=True, env=env, check=False)
        assert (proc.returncode, proc.stderr) == (_load("exit_codes.json")[name], b""), seed
        assert {"sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "bytes": len(proc.stdout)} == want, seed


def test_so5_construct_bytes_do_not_depend_on_the_hash_seed():
    assert_same_bytes_under_two_hash_seeds("construct_so5_seed1_k1234.machine")


def test_so5_cohomology_bytes_do_not_depend_on_the_hash_seed():
    # the Betti table with its mirrored ranks
    assert_same_bytes_under_two_hash_seeds("cohomology_so5_seed1.machine")
