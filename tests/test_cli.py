"""Command line: problem parsing, commands, exit codes, determinism."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

import momentkit
from momentkit.cli import (MmkError, main, parse_problem, serialize_problem,
                           tokenize)

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "src", "momentkit",
                        "problems")
BUNDLED = ("abelian_r3.mmk", "so3_r3.mmk", "so4_r4.mmk", "u2_r4.mmk")


def bundled(name):
    return os.path.join(PROBLEMS, name)


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# tokenizer and parser errors carry positions
# ---------------------------------------------------------------------------

def test_malformed_exponent_points_at_caret():
    text = ('[algebra]\nalgebra = "so3"\n\n[action]\ndim = 3\n'
            'V1 = x1^*d/dx2\nV2 = d/dx2\nV3 = d/dx3\n\n[omega]\nomega = dx(1,2,3)\n')
    with pytest.raises(MmkError) as err:
        parse_problem(text)
    assert err.value.line == 6
    assert err.value.col == 8  # the caret
    assert "integer" in "".join(err.value.expected)


def test_out_of_range_variable_is_a_semantic_error():
    text = ('[algebra]\nalgebra = "abelian3"\n\n[action]\ndim = 3\n'
            'V1 = d/dx1\nV2 = d/dx2\nV3 = x5*d/dx3\n\n[omega]\nomega = dx(1,2,3)\n')
    with pytest.raises(MmkError) as err:
        parse_problem(text)
    assert err.value.line == 8
    assert "x5" in str(err.value)


def test_unexpected_character_position():
    with pytest.raises(MmkError) as err:
        tokenize("x1 @ x2", 4)
    assert err.value.line == 4 and err.value.col == 4


def test_missing_section_is_reported():
    with pytest.raises(MmkError) as err:
        parse_problem('[algebra]\nalgebra = "so3"\n')
    assert "[action]" in str(err.value)


def test_unknown_catalog_name():
    text = '[algebra]\nalgebra = "nope"\n\n[action]\ndim = 1\nV1 = d/dx1\n\n[omega]\nomega = dx(1)\n'
    with pytest.raises(MmkError) as err:
        parse_problem(text)
    assert "nope" in str(err.value) and "abelian3" in str(err.value)


def test_mixed_form_degrees_rejected():
    text = ('[algebra]\nalgebra = "abelian3"\n\n[action]\ndim = 3\n'
            'V1 = d/dx1\nV2 = d/dx2\nV3 = d/dx3\n\n[omega]\n'
            'omega = dx(1,2) + dx(1,2,3)\n')
    with pytest.raises(MmkError) as err:
        parse_problem(text)
    assert "mixed" in str(err.value)


def test_division_by_zero_literal():
    with pytest.raises(MmkError) as err:
        tokenize("1/0 * dx(1,2)", 2)
    assert "zero" in str(err.value)


SO3_LINES = ['[algebra]', 'algebra = "so3"', '[action]', 'dim = 3',
             'V1 = x3*d/dx2 - x2*d/dx3', 'V2 = x1*d/dx3 - x3*d/dx1',
             'V3 = x2*d/dx1 - x1*d/dx2', '[omega]', 'omega = dx(1,2,3)',
             '[options]', 'k = 1', 'max_poly_degree = 1']


def so3_with(line_no, statement, replace=False):
    """The so3_r3 problem text with `statement` put at 1-based `line_no`."""
    lines = list(SO3_LINES)
    lines[line_no - 1:line_no - 1 + replace] = [statement]
    return "\n".join(lines) + "\n"


def test_trailing_input_after_a_dimension_is_an_error():
    for line_no in (2, 4):  # [algebra] and [action]
        with pytest.raises(MmkError) as err:
            parse_problem(so3_with(line_no, "dim = 3 x1", replace=True))
        assert str(err.value) == f"line {line_no}, col 9: trailing input"


def test_repeated_single_statements_are_errors(tmp_path, capsys):
    for line_no, statement in ((3, 'algebra = "so3"'), (5, "dim = 3"),
                               (8, "dim = 3"), (12, "k = 2"), (13, "k = 1"),
                               (13, "max_poly_degree = 1")):
        key = statement.split()[0]
        with pytest.raises(MmkError) as err:
            parse_problem(so3_with(line_no, statement))
        assert str(err.value) == f"line {line_no}: duplicate {key} statement"
    inline = so3_with(2, "dim = 3", replace=True)
    with pytest.raises(MmkError) as err:
        parse_problem(inline.replace("dim = 3\n", "dim = 3\ndim = 2\n", 1))
    assert str(err.value) == "line 3: duplicate dim statement"
    # a second [action] dim after the generators used to reach LieAction
    path = tmp_path / "second_dim.mmk"
    path.write_text(so3_with(8, "dim = 4"))
    rc, out, err = run_main(["check-action", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: line 8: duplicate dim statement\n"


def test_unexpected_action_statement_is_named_as_written():
    for statement, name in (("k = 1", "k"), ("[e2,e1] = -e3", "[e2,e1]")):
        with pytest.raises(MmkError) as err:
            parse_problem(so3_with(5, statement))
        assert str(err.value) == f"line 5: unexpected statement '{name}' in [action]"


def test_unknown_option_is_named_as_written():
    for statement, name in (("V1 = d/dx1", "V1"), ("[e1,e2] = e3", "[e1,e2]")):
        with pytest.raises(MmkError) as err:
            parse_problem(so3_with(12, statement))
        assert str(err.value) == f"line 12: unknown option '{name}'"


def test_inline_algebra_jacobi_failure():
    text = ('[algebra]\ndim = 3\n[e1,e2] = e3\n[e1,e3] = e2\n[e2,e3] = e2\n\n'
            '[action]\ndim = 3\nV1 = d/dx1\nV2 = d/dx2\nV3 = d/dx3\n\n'
            '[omega]\nomega = dx(1,2,3)\n')
    with pytest.raises(MmkError) as err:
        parse_problem(text)
    assert "Jacobi" in str(err.value)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_serialize_parse_round_trip_is_idempotent():
    for name in BUNDLED:
        with open(bundled(name), encoding="utf-8") as fh:
            text = fh.read()
        once = serialize_problem(parse_problem(text))
        twice = serialize_problem(parse_problem(once))
        assert once == twice, name


def test_form_indices_are_sorted_with_the_permutation_sign():
    from momentkit.polyform import format_form
    head = ('[algebra]\nalgebra = "abelian3"\n\n[action]\ndim = 3\n'
            'V1 = d/dx1\nV2 = d/dx2\nV3 = d/dx3\n\n[omega]\nomega = ')
    for omega, want in (("dx(2,1,3)", "-dx(1,2,3)"),
                        ("dx(3,1,2)", "dx(1,2,3)"),
                        ("2*x1*dx(3,2,1)", "-2*x1*dx(1,2,3)"),
                        ("dx(1,1,2) + dx(2,3,1)", "dx(1,2,3)")):
        assert format_form(parse_problem(head + omega + "\n").omega) == want, omega


def test_inline_algebra_round_trip():
    text = ('[algebra]\ndim = 3\n[e2,e1] = 2*e3\n\n[action]\ndim = 3\n'
            'V1 = d/dx1\nV2 = d/dx2 + x1*d/dx3\nV3 = d/dx3\n\n'
            '[omega]\nomega = dx(1,2,3)\n')
    pf = parse_problem(text)
    out = serialize_problem(pf)
    assert "[e1,e2] = -2*e3" in out  # normalized to i < j
    assert serialize_problem(parse_problem(out)) == out


# ---------------------------------------------------------------------------
# commands, exit codes, determinism
# ---------------------------------------------------------------------------

def test_diagnose_so4_betti_row(capsys):
    rc, out, _ = run_main(["diagnose", bundled("so4_r4.mmk")], capsys)
    assert rc == 0
    assert "(1, 0, 0, 2, 0, 0, 1)" in out


def test_construct_translations_pinned_value(capsys):
    rc, out, _ = run_main(
        ["construct", bundled("abelian_r3.mmk"), "--method", "poincare"], capsys)
    assert rc == 0
    assert "f_2(e1^e2) = -x3" in out
    assert "residuals all zero: yes" in out


def test_construct_failure_exits_one(capsys):
    rc, out, _ = run_main(
        ["construct", bundled("abelian_r3.mmk"), "--method", "exactness"], capsys)
    assert rc == 1
    assert "not a boundary" in out


def test_check_action_pass_and_fail(tmp_path, capsys):
    rc, out, _ = run_main(["check-action", bundled("so3_r3.mmk")], capsys)
    assert rc == 0
    bad = tmp_path / "broken.mmk"
    bad.write_text('[algebra]\nalgebra = "so3"\n\n[action]\ndim = 3\n'
                   'V1 = x3*d/dx2 - x2*d/dx3\nV2 = x1*d/dx3\n'
                   'V3 = x2*d/dx1 - x1*d/dx2\n\n[omega]\nomega = dx(1,2,3)\n')
    rc, out, _ = run_main(["check-action", str(bad)], capsys)
    assert rc == 1
    assert "pair" in out


def test_nondegeneracy_is_proven_or_labelled(tmp_path, capsys):
    def problem(omega):
        path = tmp_path / "omega.mmk"
        path.write_text('[algebra]\nalgebra = "abelian3"\n\n[action]\ndim = 3\n'
                        'V1 = 0\nV2 = d/dx2\nV3 = d/dx3\n\n[omega]\nomega = '
                        + omega + "\n")
        return str(path)

    # degenerate on the plane x1 = 5, of full rank at every sample point
    plane = problem("x1*dx(1,2,3) - 5*dx(1,2,3)")
    rc, out, _ = run_main(["check-action", plane], capsys)
    assert rc == 1
    assert "omega nondegenerate on constant vectors: not certified" in out
    rc, out, _ = run_main(["diagnose", plane], capsys)
    assert rc == 0
    assert "omega closed/nondegenerate/preserved: True/not certified/True" in out
    assert "routes: homotopy-operator no" in out
    # degenerate at the origin, which is a sample point
    rc, out, _ = run_main(["check-action", problem("x1*dx(1,2,3)"), "--format",
                           "machine"], capsys)
    assert rc == 1
    data = json.loads(out)["sections"][0]["data"]
    assert data["nondegenerate"] is False
    assert data["nondegenerate_witness"] == ["0", "0", "0"]
    rc, out, _ = run_main(["check-action", problem("x1*dx(1,2,3)")], capsys)
    assert "nondegenerate on constant vectors: NO — degenerate at x = (0, 0, 0)" in out


def test_missing_file_is_input_error(capsys):
    rc, _, err = run_main(["kernel", "no_such_file.mmk"], capsys)
    assert rc == 2
    assert "cannot find" in err


def test_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "syntax.mmk"
    bad.write_text("[algebra]\nalgebra = \"so3\"\n\n[action]\ndim = 3\n"
                   "V1 = x1^\nV2 = d/dx2\nV3 = d/dx3\n\n[omega]\nomega = dx(1,2,3)\n")
    rc, _, err = run_main(["kernel", str(bad)], capsys)
    assert rc == 2
    assert "line 6" in err


# so3_r3 has plectic degree 2, so the allowed degrees are 1..2.
def test_k_flag_above_plectic_degree_is_input_error(capsys):
    rc, out, err = run_main(["construct", bundled("so3_r3.mmk"), "--k", "3"], capsys)
    assert rc == 2 and out == ""
    assert "1..2" in err and "values must be" not in err


def test_k_flag_far_above_plectic_degree_does_not_leak(capsys):
    rc, out, err = run_main(["diagnose", bundled("so3_r3.mmk"), "--k", "7"], capsys)
    assert rc == 2 and out == ""
    assert "1..2" in err and "non-negative" not in err


def test_k_flag_never_prints_an_empty_map(capsys):
    rc, out, err = run_main(["construct", bundled("so3_r3.mmk"), "--k", "5"], capsys)
    assert rc == 2 and out == ""
    assert "1..2" in err


def test_problem_file_degree_out_of_range(tmp_path, capsys):
    bad = tmp_path / "degrees.mmk"
    bad.write_text('[algebra]\nalgebra = "so3"\n\n[action]\ndim = 3\n'
                   'V1 = x3*d/dx2 - x2*d/dx3\nV2 = x1*d/dx3 - x3*d/dx1\n'
                   'V3 = x2*d/dx1 - x1*d/dx2\n\n[omega]\nomega = dx(1,2,3)\n'
                   '\n[options]\nk = 1, 3\n')
    rc, out, err = run_main(["construct", str(bad)], capsys)
    assert rc == 2 and out == ""
    assert "line 14, col 8" in err and "1..2" in err


def test_bundled_names_resolve_without_path(capsys):
    rc, out, _ = run_main(["cohomology", "u2_r4.mmk"], capsys)
    assert rc == 0
    assert "(1, 1, 0, 1, 1)" in out


def test_machine_format_is_sorted_json(capsys):
    rc, out, _ = run_main(
        ["diagnose", bundled("u2_r4.mmk"), "--format", "machine"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["command"] == "diagnose"
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out


def test_byte_determinism_across_runs(capsys):
    argv = ["report", bundled("so3_r3.mmk"), "--format", "machine"]
    rc1, out1, _ = run_main(argv, capsys)
    rc2, out2, _ = run_main(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode()


def test_k_flag_overrides_file_options(capsys):
    rc, out, _ = run_main(["kernel", bundled("so4_r4.mmk"), "--k", "1"], capsys)
    assert rc == 0
    assert "k=1" in out and "k=2" not in out


def test_max_poly_degree_flag(capsys):
    rc, out, _ = run_main(
        ["invariants", bundled("so4_r4.mmk"), "--k", "2", "--max-poly-degree", "1"],
        capsys)
    assert rc == 0
    assert "x1*dx(1) + x2*dx(2) + x3*dx(3) + x4*dx(4)" in out


def test_report_runs_all_sections(capsys):
    rc, out, _ = run_main(["report", bundled("so3_r3.mmk")], capsys)
    assert rc == 0
    for title in ("Action checks", "Cohomology", "Lie kernel bases",
                  "Existence diagnostics", "Invariant closed forms",
                  "Moment map", "Equivariance"):
        assert title in out


def test_equivariance_command_reports_obstruction(capsys):
    rc, out, _ = run_main(
        ["equivariance", bundled("abelian_r3.mmk"), "--k", "2"], capsys)
    assert rc == 0
    assert "obstructed at degree 2" in out
    assert "Sigma is a 1-cocycle: yes" in out


def test_console_entry_point_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(momentkit.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    rc = subprocess.run(
        [sys.executable, "-m", "momentkit.cli", "cohomology", "so3_r3.mmk"],
        capture_output=True, text=True, env=env)
    assert rc.returncode == 0
    assert "(1, 0, 0, 1)" in rc.stdout


# ---------------------------------------------------------------------------
# derived objects are built once per run
# ---------------------------------------------------------------------------

def replace_everywhere(monkeypatch, fn, replacement):
    """Replace `fn` in every loaded momentkit module that holds it, as a
    global or as a value of a module-level dict such as `cli._METHODS`."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "momentkit" and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            monkeypatch.setitem(value, key, replacement)


def count_calls(monkeypatch, fn):
    """Wrap `fn` everywhere with a recorder of each call's positional
    arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    replace_everywhere(monkeypatch, fn, counted)
    return calls


def test_report_builds_each_derived_object_once(monkeypatch, capsys):
    from momentkit.action import TruncatedFormModule
    from momentkit.gmodule import ce_module_differential, lie_kernel_module
    from momentkit.lie_core import lie_kernel_basis
    from momentkit.linalg import rank
    kernel_modules = count_calls(monkeypatch, lie_kernel_module)
    kernel_bases = count_calls(monkeypatch, lie_kernel_basis)
    truncations = []
    init = TruncatedFormModule.__init__

    def counted_init(self, *args):
        truncations.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(TruncatedFormModule, "__init__", counted_init)
    # id(matrix) -> (matrix, module, k); holding both keeps their ids unique
    differentials = {}
    ranked = []

    def recorded_differential(m, k):
        d = ce_module_differential(m, k)
        differentials[id(d)] = (d, m, k)
        return d

    def recorded_rank(a):
        if id(a) in differentials:
            _, m, k = differentials[id(a)]
            ranked.append((id(m), k))
        return rank(a)

    replace_everywhere(monkeypatch, ce_module_differential, recorded_differential)
    replace_everywhere(monkeypatch, rank, recorded_rank)
    rc, _, _ = run_main(["report", bundled("u2_r4.mmk")], capsys)
    assert rc == 0
    assert sorted(k for _, k in kernel_modules) == [1, 2, 3]
    assert sorted(k for _, k in kernel_bases) == [1, 2, 3]
    assert sorted(truncations) == [(0, 1), (1, 1), (2, 1)]  # (n - k, D)
    assert sorted(k for _, k in ranked) == [0, 0, 0, 1, 1, 1]  # d0, d1 per Hom module
    assert len(set(ranked)) == len(ranked)


def test_report_builds_and_verifies_one_moment_map(monkeypatch, capsys):
    # construct and equivariance read the same map, kept by the action
    from momentkit.action import validate_action
    from momentkit.moment import construct_poincare, defining_residuals
    from momentkit.polyform import poincare_homotopy
    counted = [count_calls(monkeypatch, fn) for fn in (
        construct_poincare, defining_residuals, poincare_homotopy, validate_action)]
    for problem, homotopies in (("so4_r4.mmk", 26), ("u2_r4.mmk", 8)):
        for calls in counted:
            calls.clear()
        rc, _, _ = run_main(["report", bundled(problem)], capsys)
        assert rc == 0
        assert [len(calls) for calls in counted] == [1, 1, homotopies, 1], problem


def test_poincare_construct_builds_one_generator_per_kernel_element(
        monkeypatch, capsys):
    from momentkit.action import infinitesimal_generator
    from momentkit.lie_core import catalog_algebra, lie_kernel_basis
    g = catalog_algebra("so4")
    kernel_elements = sum(len(lie_kernel_basis(g, k)) for k in (1, 2, 3))
    calls = count_calls(monkeypatch, infinitesimal_generator)
    rc, _, _ = run_main(["construct", bundled("so4_r4.mmk")], capsys)
    assert rc == 0
    assert 0 < len(calls) <= kernel_elements


# ---------------------------------------------------------------------------
# parser fuzz: seeded mutations of the bundled files
# ---------------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
MUTATION_BASES = [bundled(name) for name in BUNDLED] + [
    os.path.join(GOLDEN, "so5_seed1.mmk")]  # inline structure constants
MUTATION_PIECES = ("0", "1", "2", "7", "-", "+", "*", "^", ",", "(", ")", "[",
                   "]", "=", "/", " ", "#", "\n", '"', "x", "e", "d", "V", "_",
                   "@")
MUTATION_LINES = ("dim = 3 x1", "dim = 4", "dim = 10", "k = 1", "k = 2,1",
                  "max_poly_degree = 2", 'algebra = "so3"', 'algebra = "u2"',
                  "omega = dx(1,2,3)", "[e1,e2] = e3", "[e2,e1] = -e3",
                  "V1 = d/dx1", "V5 = x1*d/dx2", "[options]", "[omega]",
                  "[action]", "[algebra]")


def mutate(text, rng):
    """One random edit: a character deleted, inserted or replaced, or a line
    deleted, duplicated or inserted."""
    op = rng.randrange(6)
    if op < 3:
        pos = rng.randrange(len(text))
        piece = rng.choice(MUTATION_PIECES)
        return text[:pos] + ("", piece, piece)[op] + text[pos + (op != 1):]
    lines = text.splitlines()
    at = rng.randrange(len(lines))
    if op == 3:
        del lines[at]
    elif op == 4:
        lines.insert(at, lines[at])
    else:
        lines.insert(at, rng.choice(MUTATION_LINES))
    return "\n".join(lines) + "\n"


def mutated_problems(count, seed):
    """`count` problem texts, each one or two random edits of a bundled
    file; the same seed gives the same texts."""
    bases = []
    for path in MUTATION_BASES:
        with open(path, encoding="utf-8") as fh:
            bases.append(fh.read())
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            text = mutate(text, rng)
        yield text


def check_action_outcome(text, path, capsys):
    """(exit code, stdout, stderr with the file path replaced by <file>)
    of `check-action` on a problem text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    rc, out, err = run_main(["check-action", path], capsys)
    return rc, out, err.replace(path, "<file>")


def test_mutated_problem_files_exit_cleanly_with_positions(tmp_path, capsys):
    # tests/golden/parse_errors.json holds the exit code and stderr of each
    # input, recorded before the reader was rebuilt on token primitives.
    with open(os.path.join(GOLDEN, "parse_errors.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    path = str(tmp_path / "mutated.mmk")
    got = []
    for text in mutated_problems(len(golden), seed=2026):
        rc, out, err = check_action_outcome(text, path, capsys)
        assert rc in (0, 1, 2), text
        assert "Traceback" not in out + err, text
        if rc == 2:
            assert re.match(r"error: <file>: (line \d+|input)", err), err
        got.append({"rc": rc, "stderr": err})
    assert got == golden
