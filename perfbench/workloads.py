"""The three workloads: their command lists and the checks on their answers.

Each check reads the machine JSON of one command and compares a fixed set of
answer fields (exit code, Betti numbers, kernel dimensions, route verdicts,
Hom-module cohomology, residual / Sigma / cocycle flags, repair status and
uniqueness) with the expected values.  Whole-output bytes are never
compared, so added fields such as witnesses do not count as failures.
"""

import json
import os

import so5gen

HERE = os.path.dirname(os.path.abspath(__file__))
BUNDLED = ("abelian_r3", "so3_r3", "so4_r4", "u2_r4")

WORKLOADS = {
    "bundled-report": "report on the four bundled problems: the everyday path "
                      "through every layer, with many small solves and rebuilt "
                      "derived objects",
    "hom-rank": "diagnose so4_r4 --k 2 --max-poly-degree 1: ranks of large sparse "
                "Hom-module differentials, barely any form calculus",
    "so5-forms": "generated so(5) on R^5: form calculus and Lie-kernel nullspaces, "
                 "no Hom-module elimination",
}

# Seed-invariant answers of the so5-forms problem.
SO5_BETTI = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
SO5_KERNEL_DIMS = {"1": 10, "2": 35, "3": 85, "4": 126}

# Answer fields read from each section.  Kernel-basis, invariant-form and
# moment-map sections are reduced to the number of entries per degree.
_SECTION_KEYS = {
    "Action checks": ("closes", "bracket_sign", "closed", "nondegenerate",
                      "omega_preserved", "plectic_degree"),
    "Cohomology": ("betti", "kernel_dims"),
    "Existence diagnostics": ("betti", "bracket_sign", "omega_closed",
                              "omega_nondegenerate", "omega_preserved", "degrees"),
    "Equivariance": ("sigma_zero", "cocycle", "morphism_quotient",
                     "morphism_strong", "repair", "unique_in_truncation",
                     "invariant_hom_dim"),
}
_DEGREE_KEYS = ("dim_kernel", "betti_k", "poincare_applies", "exactness_applies",
                "brackets_apply", "h0_dual_kernel", "hom_module_dim", "h0_hom",
                "h1_hom", "truncation_degree")


def facts(rc, output):
    """Flat {field: value} of the answer fields of one machine-format output."""
    out = {"rc": rc}
    doc = json.loads(output)
    for section in doc["sections"]:
        title, data = section["title"], section["data"]
        base = title.split(",")[0]
        if base in _SECTION_KEYS:
            for key in _SECTION_KEYS[base]:
                if key == "degrees":
                    for k, entry in data[key].items():
                        for field in _DEGREE_KEYS:
                            if field in entry:
                                out[f"{title}/k={k}/{field}"] = entry[field]
                elif key in data:
                    out[f"{title}/{key}"] = data[key]
        elif title in ("Lie kernel bases", "Invariant closed forms") or \
                title.startswith("Moment map"):
            for key, value in data.items():
                out[f"{title}/{key}"] = len(value) if isinstance(value, list) else value
    return out


def mismatches(expected, rc, output):
    """Fields whose value differs from `expected` (missing counts too)."""
    try:
        got = facts(rc, output)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return [f"unreadable output: {e!r}"]
    return [f"{key}: expected {want!r}, got {got.get(key, '<missing>')!r}"
            for key, want in expected.items() if got.get(key) != want]


def _so5_expected():
    dims = SO5_KERNEL_DIMS
    poincare = {"rc": 0, "Moment map (poincare)/residuals_zero": True}
    poincare.update({f"Moment map (poincare)/{k}": n for k, n in dims.items()})
    exact = {"rc": 0, "Moment map (exactness)/residuals_zero": True,
             "Moment map (exactness)/1": dims["1"], "Moment map (exactness)/2": dims["2"]}
    return [
        {"rc": 0, "Action checks/closes": True, "Action checks/closed": True,
         "Action checks/nondegenerate": True, "Action checks/omega_preserved": True,
         "Action checks/plectic_degree": 4},
        {"rc": 0, "Cohomology/betti": SO5_BETTI, "Cohomology/kernel_dims": dims},
        dict({"rc": 0}, **{f"Lie kernel bases/{k}": n for k, n in dims.items()}),
        poincare,
        exact,
    ]


def plan(name, seed, workdir):
    """(problem files, [(argv, expected facts)], info) for one workload run.

    Generated inputs are written under `workdir`; the seed only affects
    `so5-forms`, whose problem text it determines."""
    problems = os.path.normpath(os.path.join(HERE, "..", "src", "momentkit", "problems"))
    machine = ["--format", "machine"]
    if name in ("bundled-report", "hom-rank"):
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)[name]
    if name == "bundled-report":
        files = [os.path.join(problems, f"{p}.mmk") for p in BUNDLED]
        cmds = [(["report", f] + machine, expected[p]) for p, f in zip(BUNDLED, files)]
        return files, cmds, {}
    if name == "hom-rank":
        f = os.path.join(problems, "so4_r4.mmk")
        argv = ["diagnose", f, "--k", "2", "--max-poly-degree", "1"] + machine
        return [f], [(argv, expected)], {}
    if name == "so5-forms":
        text, info = so5gen.generate(seed)
        f = os.path.join(workdir, f"so5-seed{seed}.mmk")
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(text)
        argvs = [["check-action", f], ["cohomology", f], ["kernel", f],
                 ["construct", f, "--k", "1,2,3,4"],
                 ["construct", f, "--method", "exactness", "--k", "1,2"]]
        return [f], [(a + machine, e) for a, e in zip(argvs, _so5_expected())], info
    raise KeyError(name)
