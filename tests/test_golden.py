"""Golden CLI output: exact stdout bytes and exit codes, frozen in tests/golden/.

Each case `<command>_<problem>[_<flags>].<format>` has its stdout in
`tests/golden/<case>.out` and its exit code in `tests/golden/exit_codes.json`.
The files were written by `momentkit.cli.main` before the derived objects of
a problem moved onto `LieAction`; a refactor that keeps the answers keeps
these bytes.  To refresh a case after an intended output change, run the
command below with `--format` set and redirect stdout into its file.
"""

import json
import os

from momentkit.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "src", "momentkit",
                        "problems")


def golden_cases():
    """case name -> argv."""
    cases = {}
    for p in ("abelian_r3", "so3_r3", "so4_r4", "u2_r4"):
        for fmt in ("text", "machine"):
            cases[f"report_{p}.{fmt}"] = [
                "report", os.path.join(PROBLEMS, f"{p}.mmk"), "--format", fmt]
    cases["diagnose_so4_r4_k2_D1.machine"] = [
        "diagnose", os.path.join(PROBLEMS, "so4_r4.mmk"), "--k", "2",
        "--max-poly-degree", "1", "--format", "machine"]
    return cases


def test_cli_output_matches_golden_bytes(capsys):
    with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as fh:
        exit_codes = json.load(fh)
    cases = golden_cases()
    assert sorted(cases) == sorted(exit_codes)
    mismatched = []
    for name, argv in cases.items():
        rc = main(argv)
        out = capsys.readouterr().out
        with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
            want = fh.read()
        if rc != exit_codes[name] or out.encode("utf-8") != want:
            mismatched.append(name)
    assert mismatched == []
