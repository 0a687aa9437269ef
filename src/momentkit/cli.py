"""Command-line front end: problem files, diagnostics, constructions, reports.

Problem files are line-oriented with four sections:

    [algebra]   algebra = "so4"          (catalog reference), or
                dim = 3                  followed by bracket statements
                [e1,e2] = e3 - 2*e1
    [action]    dim = 3                  (ambient dimension)
                V1 = x3*d/dx2 - x2*d/dx3 (one generator per basis element)
    [omega]     omega = dx(1,2,3)
    [options]   k = 1,2                  (degrees to process; default 1..n)
                max_poly_degree = 1      (truncation for invariants/repair;
                                          default 0)

`#` starts a comment, cut off before the statement is tokenized.  An omega
that is zero (`0`, or terms that cancel) is an error.  Each statement
appears at most once in its section, except `V<i>` (once per index) and
brackets (once per pair), and ends at the end of its line; anything after
its value is an error (trailing input).
Expressions are sums of terms; a term is a product of a rational literal,
variables `x<i>` with optional `^<exp>`, and one basis factor: `dx(i,j,...)`
for forms, `d/dx<i>` for vector fields, `e<i>` for algebra elements.  All
numerics are exact rationals (`p/q`).  One reader, `_terms`, checks each
term in full (basis factor, indices, variables) before it drops a term with
a repeated index as zero or compares its degree.  Files are UTF-8, with or
without a byte-order mark; a byte that is not UTF-8 is an input error at
its line and column (`read_problem_text`).

`catalog_action(name)` reads the bundled file `problems/<name>.mmk`, the one
definition of each example action.

`main` settles each run once: `--k` and `--max-poly-degree` override the
file's `k` and `max_poly_degree`, and the resolved degrees and truncation
replace them in the parsed arguments.  Every command is then called as
`cmd(action, args, report)` on one action; the run's `Report` keeps its
moment map, or the message of its refused construction (`_moment_map`),
printed once, so the sections of `report` share it.

Exit status: 0 = success, 1 = a check failed, 2 = input error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import combinations

from .lie_core import (LieAlgebra, StructureError, catalog_algebra,
                       format_multivector, format_sum, validate_jacobi,
                       ALGEBRA_CATALOG)
from .polyform import Form, MultiField, format_field, format_form
from .gmodule import module_cohomology_dim
from .action import LieAction, invariant_closed_forms
from .moment import (check_module_morphism, check_sigma_cocycle, construct_brackets,
                     construct_exactness, construct_poincare, existence_diagnostic,
                     make_equivariant, sigma_is_zero)


class MmkError(Exception):
    """Problem-file error with position information."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line, self.col, self.expected = line, col, expected
        where = f"line {line}" + (f", col {col}" if col is not None else "") \
            if line is not None else "input"
        exp = f" (expected {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{where}: {message}{exp}")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<ddx>d/dx(?P<ddxi>[0-9]+))
  | (?P<dx>dx)\b
  | (?P<var>x(?P<vari>[0-9]+))
  | (?P<eb>e(?P<ebi>[0-9]+))
  | (?P<number>[0-9]+(/[0-9]+)?)
  | (?P<string>"[A-Za-z0-9_]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*^(),=\[\]])
""", re.VERBOSE)


def tokenize(text, line_no):
    """One statement line -> list of (kind, value, col); col is 1-based.
    The kind is the name of the outermost matching group."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise MmkError(f"unexpected character {text[pos]!r}",
                           line=line_no, col=pos + 1)
        kind, value = m.lastgroup, m.group()
        if kind in ("ddx", "var", "eb"):
            value = int(m.group(kind + "i"))
        elif kind == "number":
            try:
                value = Fraction(value)
            except ZeroDivisionError:
                raise MmkError("division by zero in rational literal",
                               line=line_no, col=pos + 1)
        elif kind == "string":
            value = value[1:-1]
        if kind != "ws":
            out.append((kind, value, pos + 1))
        pos = m.end()
    return out


class _TokenStream:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def col(self):
        t = self.peek()
        if t is not None:
            return t[2]
        return (self.tokens[-1][2] + 1) if self.tokens else 1

    def fail(self, message, expected=None):
        raise MmkError(message, line=self.line, col=self.col(), expected=expected)

    def accept(self, sym):
        """Consume and return the next token if it is the symbol `sym`."""
        t = self.peek()
        if t is not None and t[0] == "sym" and t[1] == sym:
            return self.next()
        return None

    def expect_sym(self, sym):
        return self.accept(sym) or self.fail(f"expected {sym!r}",
                                             expected={repr(sym)})

    def take(self, kind, message, expected=None):
        """Consume and return the next token, which must be of `kind`."""
        t = self.peek()
        if t is None or t[0] != kind:
            self.fail(message, expected and {expected})
        return self.next()

    def integer(self, message, low=0, col=None):
        """Consume an integer literal >= low; the error is at `col` if given,
        and names the bound when the literal is an integer below it."""
        t = self.peek()
        if t is None or t[0] != "number" or t[1].denominator != 1 or t[1] < low:
            below = t is not None and t[0] == "number" and t[1].denominator == 1
            raise MmkError(message, line=self.line, col=col or self.col(),
                           expected={f"integer >= {low}" if below else "integer"})
        self.next()
        return int(t[1])

    def commas(self, read):
        """read() once, then again after each ','; the list of results."""
        items = [read()]
        while self.accept(","):
            items.append(read())
        return items

    def end(self, message):
        if self.peek() is not None:
            self.fail(message)


# ---------------------------------------------------------------------------
# expression parser: sums of product terms
# ---------------------------------------------------------------------------

_FACTORS = {"number", "x<i>", "dx(...)", "d/dx<i>", "e<i>"}


def _parse_factor(ts, term):
    t = ts.peek()
    if t is None or t[0] not in ("number", "var", "ddx", "eb", "dx"):
        ts.fail("expected a factor" if t is None else f"unexpected {t[1]!r}",
                expected=_FACTORS)
    kind, value, col = ts.next()
    if kind == "number":
        term["coeff"] *= value
    elif kind == "var":
        caret = ts.accept("^")
        exp = ts.integer("exponent must be a positive integer", 1,
                         caret[2]) if caret else 1
        term["powers"][value] = term["powers"].get(value, 0) + exp
    else:
        if kind == "dx":
            ts.expect_sym("(")
            value = tuple(ts.commas(
                lambda: ts.integer("expected a coordinate index")))
            ts.expect_sym(")")
        if term["basis"] is not None:
            ts.fail("more than one basis factor in a term")
        term["basis"] = (kind, value if kind == "dx" else (value,), col)


def parse_expression(ts):
    """List of term dicts: coeff (Fraction), powers (var index -> exp, 1-based),
    basis (None or (token kind, 1-based index tuple, col)); the expression
    runs to the end of the statement."""
    terms = []
    sign = ts.accept("+") or ts.accept("-")
    while True:
        term = {"coeff": Fraction(-1 if sign and sign[1] == "-" else 1),
                "powers": {}, "basis": None, "col": ts.col()}
        _parse_factor(ts, term)
        while ts.accept("*"):
            _parse_factor(ts, term)
        terms.append(term)
        if ts.peek() is None:
            return terms
        sign = ts.accept("+") or ts.accept("-")
        if sign is None:
            ts.fail("expected '+', '-' or end of expression",
                    expected={"'+'", "'-'"})


_BASIS = {  # basis token kind -> (missing-factor message, index display)
    "dx": ("form term needs a dx(...) factor", "coordinate index {}"),
    "ddx": ("vector-field term needs a d/dx<i> factor", "direction d/dx{}"),
    "eb": ("algebra term needs an e<i> factor", "basis element e{}"),
}


def _terms(terms, kind, n, line):
    """(coefficient, exponents on R^n, 0-based indices) of each term, or None
    for the literal 0.  Each term is checked in full before the next is
    read: its basis factor is of `kind`, each index is in 1..n, and each
    variable is in x1..xn (an algebra term has none).  Only then is a term
    with a repeated index dropped as zero, and one whose degree differs from
    the first kept term's refused."""
    if (len(terms) == 1 and terms[0]["basis"] is None
            and not terms[0]["powers"] and terms[0]["coeff"] == 0):
        return None
    missing, index = _BASIS[kind]
    out = []
    for term in terms:
        basis, col = term["basis"], term["col"]
        if basis is None or basis[0] != kind:
            raise MmkError(missing, line=line, col=col)
        for i in basis[1]:
            if not 1 <= i <= n:
                raise MmkError(f"{index.format(i)} out of range for dim {n}",
                               line=line, col=basis[2])
        mono = [0] * n
        for v, e in term["powers"].items():
            if kind == "eb":
                raise MmkError("algebra expressions cannot contain variables",
                               line=line, col=col)
            if not 1 <= v <= n:
                raise MmkError(f"variable x{v} out of range for dim {n}",
                               line=line, col=col)
            mono[v - 1] += e
        idx = tuple(i - 1 for i in basis[1])
        if len(set(idx)) < len(idx):
            continue
        if out and len(idx) != len(out[0][2]):
            raise MmkError("mixed form degrees in one expression", line=line, col=basis[2])
        out.append((term["coeff"], mono, idx))
    return out


def terms_to_form(terms, n, line):
    """A Form on R^n, or None for the literal 0 (degree unknown; the caller
    decides)."""
    triples = _terms(terms, "dx", n, line)
    if triples == []:
        raise MmkError("form expression has no nonzero term", line=line, col=1)
    return triples and Form.from_terms(n, len(triples[0][2]), triples)


def terms_to_field(terms, n, line):
    """A vector field on R^n."""
    return MultiField.from_terms(n, 1, _terms(terms, "ddx", n, line) or ())


def terms_to_algebra_element(terms, dim, line):
    """Terms {m: c} over e1..e<dim> (0-based m) of an algebra expression."""
    out = {}
    for c, _, (m,) in _terms(terms, "eb", dim, line) or ():
        out[m] = out.get(m, 0) + c
    return out


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

PROBLEMS = os.path.join(os.path.dirname(__file__), "problems")
SECTIONS = ("algebra", "action", "omega", "options")
# statements that may appear once per section (V<i> and brackets are indexed)
_SINGLE = {("name", key) for key in ("algebra", "dim", "omega", "k",
                                     "max_poly_degree")}


class ProblemFile:
    def __init__(self):
        self.algebra_ref = None      # catalog name, or None for inline
        self.algebra = None          # LieAlgebra
        self.ambient_dim = None
        self.fields = None           # list of MultiField
        self.omega = None            # Form
        self.ks = None               # list of degrees, or None = default
        self.max_poly_degree = 0

    def build_action(self) -> LieAction:
        return LieAction(self.algebra, self.fields, self.omega)


def _split_sections(text):
    """section name -> list of (line_no, raw statement)."""
    sections = {}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = re.fullmatch(r"\[([a-z_]+)\]", stripped)
        if m and m.group(1) in SECTIONS:
            current = m.group(1)
            if current in sections:
                raise MmkError(f"duplicate section [{current}]", line=line_no)
            sections[current] = []
            continue
        # bracket statements like [e1,e2] = ... belong to the algebra section
        if current is None:
            raise MmkError("statement outside of any section", line=line_no)
        sections[current].append((line_no, stripped))
    for required in ("algebra", "action", "omega"):
        if required not in sections:
            raise MmkError(f"missing required section [{required}]")
    return sections


def _statement(ts):
    """Parse 'name = ' or '[ei,ej] = '; the key ('name', name) or
    ('bracket', i, j), with `ts` left after the '='."""
    if ts.accept("["):
        left = ts.take("eb", "expected e<i>", "e<i>")
        ts.expect_sym(",")
        right = ts.take("eb", "expected e<j>", "e<j>")
        ts.expect_sym("]")
        ts.expect_sym("=")
        return ("bracket", left[1], right[1])
    # plain identifiers: algebra, dim, omega, k, max_poly_degree, V<i>
    name = ts.take("name", "expected a statement")
    ts.expect_sym("=")
    return ("name", name[1])


def _written(key):
    """A statement key as the file writes it: 'V1' or '[e1,e2]'."""
    return key[1] if key[0] == "name" else f"[e{key[1]},e{key[2]}]"


def _statements(sections, name):
    """(line, key, token stream after the '=') for each statement of a
    section; a repeated single statement is an error."""
    seen = set()
    for line_no, stmt in sections.get(name, ()):
        ts = _TokenStream(tokenize(stmt, line_no), line_no)
        key = _statement(ts)
        if key in seen:
            raise MmkError(f"duplicate {key[1]} statement", line=line_no)
        if key in _SINGLE:
            seen.add(key)
        yield line_no, key, ts


def parse_problem(text) -> ProblemFile:
    sections = _split_sections(text)
    pf = ProblemFile()

    # ---- algebra ----
    dim = None
    brackets = {}
    bracket_lines = []
    for line_no, key, ts in _statements(sections, "algebra"):
        if key == ("name", "algebra"):
            t = ts.take("string", "expected a quoted catalog name", "string")
            ts.end("trailing input after catalog name")
            if t[1] not in ALGEBRA_CATALOG:
                raise MmkError(f"unknown catalog algebra {t[1]!r} "
                               f"(available: {', '.join(sorted(ALGEBRA_CATALOG))})",
                               line=line_no, col=t[2])
            pf.algebra_ref = t[1]
        elif key == ("name", "dim"):
            dim = ts.integer("expected a positive integer dimension", 1)
            ts.end("trailing input")
        elif key[0] == "bracket":
            bracket_lines.append((line_no, key[1], key[2], ts))
        else:
            raise MmkError(f"unexpected statement {_written(key)!r} in [algebra]",
                           line=line_no)
    if pf.algebra_ref is not None:
        if dim is not None or bracket_lines:
            raise MmkError("catalog reference and inline structure constants "
                           "cannot be mixed in [algebra]")
        pf.algebra = catalog_algebra(pf.algebra_ref)
    else:
        if dim is None:
            raise MmkError("[algebra] needs either algebra = \"<name>\" or dim = <d>")
        for line_no, i, j, ts in bracket_lines:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise MmkError(f"bracket indices [e{i},e{j}] out of range "
                               f"for dim {dim}", line=line_no)
            if i == j:
                raise MmkError(f"bracket [e{i},e{i}] must be zero and cannot "
                               f"be assigned", line=line_no)
            terms = terms_to_algebra_element(parse_expression(ts), dim, line_no)
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            if (i - 1, j - 1) in brackets:
                raise MmkError(f"duplicate bracket [e{i},e{j}]", line=line_no)
            brackets[(i - 1, j - 1)] = {m: sign * c for m, c in terms.items()}
        pf.algebra = LieAlgebra(dim, brackets, name=f"inline{dim}")
        try:
            validate_jacobi(pf.algebra)
        except StructureError as e:
            raise MmkError(f"structure constants fail the Jacobi identity: {e}")

    # ---- action ----
    n = None
    field_stmts = {}
    for line_no, key, ts in _statements(sections, "action"):
        if key == ("name", "dim"):
            n = ts.integer("expected a positive integer dimension", 1)
            ts.end("trailing input")
        elif key[0] == "name" and re.fullmatch(r"V[0-9]+", key[1]):
            idx = int(key[1][1:])
            if n is None:
                raise MmkError("dim = <n> must precede generator statements",
                               line=line_no)
            if idx in field_stmts:
                raise MmkError(f"duplicate generator V{idx}", line=line_no)
            field_stmts[idx] = terms_to_field(parse_expression(ts), n, line_no)
        else:
            raise MmkError(f"unexpected statement {_written(key)!r} in [action]",
                           line=line_no)
    if n is None:
        raise MmkError("[action] needs dim = <n>")
    d = pf.algebra.dim
    missing = [i for i in range(1, d + 1) if i not in field_stmts]
    extra = [i for i in field_stmts if not (1 <= i <= d)]
    if missing or extra:
        raise MmkError(f"[action] needs V1..V{d} exactly"
                       + (f"; missing {missing}" if missing else "")
                       + (f"; out of range {extra}" if extra else ""))
    pf.ambient_dim = n
    pf.fields = [field_stmts[i] for i in range(1, d + 1)]

    # ---- omega ----
    omega = None
    for line_no, key, ts in _statements(sections, "omega"):
        if key != ("name", "omega"):
            raise MmkError("only omega = <form> is allowed in [omega]",
                           line=line_no)
        omega = terms_to_form(parse_expression(ts), n, line_no)
        if omega is None or omega.is_zero():
            raise MmkError("omega must not be the zero form", line=line_no)
    if omega is None:
        raise MmkError("[omega] needs omega = <form>")
    if omega.degree < 2:
        raise MmkError("omega must have degree at least 2")
    pf.omega = omega

    # ---- options ----
    top = omega.degree - 1
    for line_no, key, ts in _statements(sections, "options"):
        if key == ("name", "k"):
            def degree():
                col, k = ts.col(), ts.integer("expected a degree")
                if not 1 <= k <= top:
                    raise MmkError(_degree_range_message(k, top),
                                   line=line_no, col=col)
                return k
            pf.ks = sorted(set(ts.commas(degree)))
            ts.end("trailing input after degree list")
        elif key == ("name", "max_poly_degree"):
            pf.max_poly_degree = ts.integer("expected a nonnegative integer")
            ts.end("trailing input")
        else:
            raise MmkError(f"unknown option {_written(key)!r}", line=line_no)
    return pf


def read_problem_text(path) -> str:
    """A problem file's text, decoded as UTF-8 after an optional byte-order
    mark; MmkError at the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    except UnicodeDecodeError as e:
        # e.object is the input after the mark, valid UTF-8 up to e.start
        lines = (e.object[:e.start].decode("utf-8") + "?").splitlines()
        raise MmkError(f"byte 0x{e.object[e.start]:02x} is not valid UTF-8",
                       line=len(lines), col=len(lines[-1])) from None


def catalog_action(name: str) -> LieAction:
    """The validated action of the bundled problem file `problems/<name>.mmk`
    (abelian_r2, abelian_r3, sl2_r2, so3_r3, so4_r4 or u2_r4)."""
    path = os.path.join(PROBLEMS, f"{name}.mmk")
    action = parse_problem(read_problem_text(path)).build_action()
    action.sign()  # validates the generators
    return action


def _degree_range_message(k, n):
    return f"degree {k} is outside the allowed range 1..{n} (plectic degree n = {n})"


def _format_by_monomial(x, fmt) -> str:
    """`fmt` (format_field or format_form) of x written one monomial term at
    a time, as the parser reads it: no grouped coefficient such as
    '(x1 + x2)*d/dx3'."""
    return format_sum([fmt(type(x).from_terms(x.n, x.degree, [(c, mono, idx)]))
                       for idx in sorted(x.comps)
                       for mono, c in sorted(x.comps[idx].terms.items())])


def serialize_problem(pf: ProblemFile) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    out = ["[algebra]"]
    if pf.algebra_ref is not None:
        out.append(f'algebra = "{pf.algebra_ref}"')
    else:
        out.append(f"dim = {pf.algebra.dim}")
        for i, j in combinations(range(pf.algebra.dim), 2):
            terms = pf.algebra.bracket_basis(i, j)
            if terms:
                mv = {(m,): c for m, c in terms}
                out.append(f"[e{i + 1},e{j + 1}] = {format_multivector(mv)}")
    out.append("")
    out.append("[action]")
    out.append(f"dim = {pf.ambient_dim}")
    for i, v in enumerate(pf.fields):
        out.append(f"V{i + 1} = {_format_by_monomial(v, format_field)}")
    out.append("")
    out.append("[omega]")
    out.append(f"omega = {_format_by_monomial(pf.omega, format_form)}")
    out.append("")
    out.append("[options]")
    if pf.ks is not None:
        out.append("k = " + ",".join(str(k) for k in pf.ks))
    out.append(f"max_poly_degree = {pf.max_poly_degree}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class Report:
    """Collects per-command results; renders text or canonical JSON."""

    def __init__(self, command, problem_name):
        self.data = {"command": command, "problem": problem_name, "sections": []}
        self.moment_map = None
        self.refusal = None

    def section(self, title, payload, lines):
        self.data["sections"].append(
            {"title": title, "data": payload, "text": lines})

    def render(self, fmt):
        if fmt == "machine":
            return json.dumps(self.data, sort_keys=True, indent=2) + "\n"
        out = []
        for sec in self.data["sections"]:
            out.append(f"== {sec['title']} ==")
            out.extend(sec["text"])
            out.append("")
        return "\n".join(out)


def cmd_cohomology(action, args, report):
    betti = list(action.betti())
    kernels = {str(k): action.kernel_dim(k) for k in args.k}
    lines = ["H^k dimensions (trivial coefficients), k = 0.."
             + str(len(betti) - 1) + ":",
             "  (" + ", ".join(str(b) for b in betti) + ")",
             "Lie kernel dimensions:"]
    for k in args.k:
        lines.append(f"  k={k}: {kernels[str(k)]}")
    report.section("Cohomology", {"betti": betti, "kernel_dims": kernels}, lines)
    return 0


def cmd_kernel(action, args, report):
    lines = []
    payload = {}
    for k in args.k:
        names = action.kernel(k).names
        payload[str(k)] = names
        lines.append(f"k={k}: dim {len(names)}")
        for s in names:
            lines.append(f"  {s}")
    report.section("Lie kernel bases", payload, lines)
    return 0


def cmd_check_action(action, args, report):
    ok = True
    payload = {}
    lines = []
    try:
        s = action.sign()
        payload["closes"] = True
        payload["bracket_sign"] = s
        lines.append(f"generators close under the bracket: yes (sign {s:+d})")
    except StructureError as e:
        ok = False
        payload["closes"] = False
        payload["error"] = str(e)
        lines.append(f"generators close under the bracket: NO — {e}")
    msy = action.omega_checks()
    payload.update(msy)
    lines.append(f"omega closed: {'yes' if msy['closed'] else 'NO'}")
    if msy["nondegenerate"] is None:
        verdict = ("not certified (polynomial coefficients; full rank at the "
                   "sample points only)")
    elif msy["nondegenerate"]:
        verdict = "yes"
    else:
        verdict = ("NO — degenerate at x = ("
                   + ", ".join(msy["nondegenerate_witness"]) + ")")
    lines.append(f"omega nondegenerate on constant vectors: {verdict}")
    lines.append(f"plectic degree n = {msy['plectic_degree']}")
    bad = action.omega_failures()
    payload["omega_preserved"] = not bad
    if bad:
        ok = False
        lines.append("omega preserved by all generators: NO — failing: "
                     + ", ".join(f"V{i + 1}" for i in bad))
    else:
        lines.append("omega preserved by all generators: yes")
    if not (msy["closed"] and msy["nondegenerate"] is True):
        ok = False
    report.section("Action checks", payload, lines)
    return 0 if ok else 1


def cmd_invariants(action, args, report):
    action.sign()
    D = args.max_poly_degree
    n = action.plectic_degree()
    payload = {}
    lines = [f"invariant closed forms, coefficient degree <= {D}:"]
    for k in args.k:
        p = n - k
        forms = invariant_closed_forms(action, p, D)
        texts = payload[str(k)] = [format_form(f) for f in forms]
        lines.append(f"k={k} (form degree {p}): dim {len(texts)}")
        lines += [f"  {t}" for t in texts]
    report.section("Invariant closed forms", payload, lines)
    return 0


def cmd_diagnose(action, args, report):
    action.sign()
    diag = existence_diagnostic(action, ks=args.k, max_degree=args.max_poly_degree)
    nondeg = diag["omega_nondegenerate"]
    lines = [f"bracket sign: {diag['bracket_sign']:+d}",
             "H^k (trivial coefficients): ("
             + ", ".join(str(b) for b in diag["betti"]) + ")",
             f"omega closed/nondegenerate/preserved: {diag['omega_closed']}/"
             f"{'not certified' if nondeg is None else nondeg}/"
             f"{diag['omega_preserved']}"]
    for k, e in sorted(diag["degrees"].items()):
        lines.append(
            f"k={k}: kernel dim {e['dim_kernel']}, betti {e['betti_k']}, "
            f"h0(dual kernel) {e['h0_dual_kernel']}")
        lines.append(
            f"      routes: homotopy-operator {'yes' if e['poincare_applies'] else 'no'}, "
            f"exactness {'yes' if e['exactness_applies'] else 'no'}, "
            f"brackets {'yes' if e['brackets_apply'] else 'no'}")
        lines.append(
            f"      truncated Hom module (D<={e['truncation_degree']}): "
            f"dim {e['hom_module_dim']}, h0 = {e['h0_hom']} "
            f"(uniqueness obstruction), h1 = {e['h1_hom']} "
            f"(equivariantization obstruction)")
    report.section("Existence diagnostics",
                   {**diag, "degrees": {str(k): v for k, v in diag["degrees"].items()}},
                   lines)
    return 0


_METHODS = {
    "poincare": construct_poincare,
    "exactness": construct_exactness,
    "brackets": construct_brackets,
}


def _moment_map(action, args, report):
    """The run's moment map by `args.method` at degrees `args.k`, built and
    verified once and kept by the report.  A refused construction adds its
    section once and keeps its message (not the exception, whose traceback
    holds the run's frames); every later asker gets None."""
    if report.moment_map is None and report.refusal is None:
        try:
            report.moment_map = _METHODS[args.method](action, ks=args.k)
        except StructureError as e:
            report.refusal = str(e)
            report.section(f"Moment map ({args.method})", {"error": report.refusal},
                           [f"construction failed: {report.refusal}"])
    return report.moment_map


def cmd_construct(action, args, report):
    action.sign()
    mm = _moment_map(action, args, report)
    if mm is None:
        return 1
    # the map has passed its constructor's defining-equation recheck (moment._checked)
    payload = {}
    lines = []
    for k in mm.degrees():
        entries = payload[str(k)] = [{"p": nm, "f": format_form(f)} for nm, f
                                     in zip(action.kernel(k).names, mm.components[k])]
        lines += [f"f_{k}({e['p']}) = {e['f']}" for e in entries]
    payload["residuals_zero"] = True
    lines.append("defining-equation residuals all zero: yes")
    report.section(f"Moment map ({args.method})", payload, lines)
    return 0


def cmd_equivariance(action, args, report):
    action.sign()
    D = args.max_poly_degree
    mm = _moment_map(action, args, report)
    if mm is None:
        return 1
    ok = True
    for k in args.k:
        payload = {}
        lines = []
        sigma = mm.sigma(k)
        zero = sigma_is_zero(sigma)
        payload["sigma_zero"] = zero
        names = action.kernel(k).names
        if not zero:
            entries = payload["nonzero_entries"] = [
                {"xi": f"e{i + 1}", "p": nm, "value": format_form(sigma[i][a])}
                for i in range(action.algebra.dim) for a, nm in enumerate(names)
                if not sigma[i][a].is_zero()]
            lines += [f"Sigma({e['xi']})({e['p']}) = {e['value']}" for e in entries]
        payload["cocycle"] = check_sigma_cocycle(mm, k)  # a theorem, so no text line
        quotient_ok = check_module_morphism(mm, k)
        payload["morphism_quotient"] = quotient_ok
        payload["morphism_strong"] = zero
        lines.append(f"module morphism up to exact terms: "
                     f"{'yes' if quotient_ok else 'NO'}")
        lines.append(f"strong module morphism (Sigma = 0): "
                     f"{'yes' if zero else 'no'}")
        try:
            _, l_forms, status = make_equivariant(mm, k, D)
        except StructureError as e:  # always, when a Sigma entry is not closed
            status, l_forms = f"failed: {e}", None
            ok = False
        payload["repair"] = status
        lines.append("already equivariant; no repair needed" if zero
                     else f"equivariantization at D<={D}: {status}")
        if l_forms is not None:
            payload["l"] = [{"p": nm, "l": format_form(l_forms[a])}
                            for a, nm in enumerate(names)]
            lines += [f"  l({e['p']}) = {e['l']}" for e in payload["l"]]
        h0 = module_cohomology_dim(action.hom_module(k, D), 0)
        payload["unique_in_truncation"] = h0 == 0
        payload["invariant_hom_dim"] = h0
        lines.append(f"equivariant map unique in truncation: "
                     f"{'yes' if h0 == 0 else 'no'} (invariant Hom dim {h0})")
        report.section(f"Equivariance, k={k}", payload, lines)
    return 0 if ok else 1


def cmd_report(action, args, report):
    return max(cmd(action, args, report) for cmd in (
        cmd_check_action, cmd_cohomology, cmd_kernel, cmd_diagnose,
        cmd_invariants, cmd_construct, cmd_equivariance))


COMMANDS = {
    "cohomology": cmd_cohomology,
    "kernel": cmd_kernel,
    "check-action": cmd_check_action,
    "invariants": cmd_invariants,
    "diagnose": cmd_diagnose,
    "construct": cmd_construct,
    "equivariance": cmd_equivariance,
    "report": cmd_report,
}


def _resolve_path(name):
    if os.path.exists(name):
        return name
    bundled = os.path.join(PROBLEMS, name)
    if os.path.exists(bundled):
        return bundled
    if not name.endswith(".mmk") and os.path.exists(bundled + ".mmk"):
        return bundled + ".mmk"
    return None


def _parse_k_list(text):
    try:
        ks = sorted({int(part) for part in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of degrees")
    return ks


def build_parser():
    ap = argparse.ArgumentParser(
        prog="momentkit",
        description="Exact Lie algebra cohomology and weak moment maps "
                    "for multisymplectic actions on R^n.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("file", help="problem file (path or bundled name, e.g. so4_r4.mmk)")
    ap.add_argument("--k", type=_parse_k_list, default=None,
                    help="degrees to process, e.g. 1,2")
    ap.add_argument("--max-poly-degree", type=int, default=None, dest="max_poly_degree",
                    help="polynomial truncation degree for invariants/repairs")
    ap.add_argument("--method", choices=sorted(_METHODS), default="poincare",
                    help="construction route (construct/equivariance/report)")
    ap.add_argument("--format", choices=("text", "machine"), default="text")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    path = _resolve_path(args.file)
    if path is None:
        print(f"error: cannot find problem file {args.file!r}", file=sys.stderr)
        return 2
    try:
        pf = parse_problem(read_problem_text(path))
    except OSError as e:  # a directory, or a file that cannot be read
        print(f"error: {path}: {e.strerror}", file=sys.stderr)
        return 2
    except MmkError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2
    if args.max_poly_degree is not None and args.max_poly_degree < 0:
        print("error: --max-poly-degree must be >= 0", file=sys.stderr)
        return 2
    n = pf.omega.degree - 1
    bad = [k for k in args.k or () if not 1 <= k <= n]
    if bad:
        print(f"error: --k: {_degree_range_message(bad[0], n)}", file=sys.stderr)
        return 2
    args.k = args.k or pf.ks or list(range(1, n + 1))
    if args.max_poly_degree is None:
        args.max_poly_degree = pf.max_poly_degree
    report = Report(args.command, os.path.basename(path))
    try:
        rc = COMMANDS[args.command](pf.build_action(), args, report)
    except (StructureError, ValueError) as e:
        report.section("Error", {"error": str(e)}, [f"error: {e}"])
        rc = 1
    sys.stdout.write(report.render(args.format))
    return rc


if __name__ == "__main__":
    sys.exit(main())
