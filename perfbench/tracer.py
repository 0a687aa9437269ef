"""Outside-in tracer: wraps public momentkit functions without editing them.

`Tracer.install()` replaces each function listed in TRACED with a wrapper in
every loaded `momentkit` module that holds it (module globals and dict
registries such as `cli.COMMANDS`); for a class the wrapper goes on the
listed method.  Each call records a span (name, start, end, parent, command
id) in memory.  Counts and content keys (for `distinct_ratio`) are taken by
hooks at the same call boundary; the hook time is itself a `trace.hook`
span, so it is not charged to any layer.

A span's self time is its duration minus the part of its interval covered by
its child spans (`self_times`); when the spans nest, the self times add up
to the root spans' time (`unnested_s` measures the excess).
`layer_metrics` turns the spans into the per-layer metrics named in
PER_LAYER.
"""

import functools
import json
import sys
import time
from fractions import Fraction

LAYERS = ("linalg", "lie_core", "gmodule", "polyform", "action", "moment", "cli")

# span name -> (module, attribute); "Class.method" wraps a method in place.
TRACED = {
    "linalg.rank": ("linalg", "rank"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.solve": ("linalg", "solve"),
    "linalg.solve_many": ("linalg", "solve_many"),
    "lie_core.boundary_matrix": ("lie_core", "boundary_matrix"),
    "lie_core.ce_betti": ("lie_core", "ce_betti"),
    "lie_core.lie_kernel_basis": ("lie_core", "lie_kernel_basis"),
    "gmodule.ce_module_differential": ("gmodule", "ce_module_differential"),
    "gmodule.module_cohomology_dim": ("gmodule", "module_cohomology_dim"),
    "gmodule.lie_kernel_module": ("gmodule", "lie_kernel_module"),
    "gmodule.tensor_module": ("gmodule", "tensor_module"),
    "gmodule.invariants_basis": ("gmodule", "invariants_basis"),
    "gmodule.coboundary_solve": ("gmodule", "coboundary_solve"),
    "polyform.wedge": ("polyform", "wedge"),
    "polyform.contract": ("polyform", "contract"),
    "polyform.exterior_d": ("polyform", "exterior_d"),
    "polyform.lie_derivative": ("polyform", "lie_derivative"),
    "polyform.poincare_homotopy": ("polyform", "poincare_homotopy"),
    "polyform.vf_bracket": ("polyform", "vf_bracket"),
    "action.infinitesimal_generator": ("action", "infinitesimal_generator"),
    "action.TruncatedFormModule": ("action", "TruncatedFormModule.__init__"),
    "action.invariant_closed_forms": ("action", "invariant_closed_forms"),
    "action.closed_form_basis": ("action", "closed_form_basis"),
    "action.validate_action": ("action", "validate_action"),
    "action.check_multisymplectic": ("action", "check_multisymplectic"),
    "action.preserves_omega": ("action", "preserves_omega"),
    "moment.construct_poincare": ("moment", "construct_poincare"),
    "moment.construct_exactness": ("moment", "construct_exactness"),
    "moment.check_sigma_cocycle": ("moment", "check_sigma_cocycle"),
    "moment.make_equivariant": ("moment", "make_equivariant"),
    "moment.uniqueness_check": ("moment", "uniqueness_check"),
    "moment.existence_diagnostic": ("moment", "existence_diagnostic"),
    "moment.defining_residuals": ("moment", "defining_residuals"),
    "moment.sigma_cochain": ("moment", "sigma_cochain"),
    "moment.describe_kernel": ("moment", "describe_kernel"),
    "cli.parse_problem": ("cli", "parse_problem"),
    "cli.render": ("cli", "Report.render"),
}
COMMANDS = ("check-action", "cohomology", "kernel", "invariants", "diagnose",
            "construct", "equivariance", "report")
for _cmd in COMMANDS:
    TRACED[f"cli.cmd.{_cmd}"] = ("cli", "cmd_" + _cmd.replace("-", "_"))

CALLS_SELF = ["linalg.rank", "linalg.rref", "linalg.nullspace", "linalg.solve",
              "linalg.solve_many", "lie_core.boundary_matrix", "lie_core.ce_betti",
              "gmodule.ce_module_differential", "gmodule.module_cohomology_dim",
              "polyform.wedge", "polyform.contract", "polyform.exterior_d",
              "polyform.lie_derivative", "polyform.poincare_homotopy",
              "moment.defining_residuals", "moment.sigma_cochain"]
CALLS_SELF_DISTINCT = ["lie_core.lie_kernel_basis", "gmodule.lie_kernel_module",
                       "action.infinitesimal_generator", "action.TruncatedFormModule"]
SELF_ONLY = ["gmodule.tensor_module", "gmodule.invariants_basis",
             "gmodule.coboundary_solve", "polyform.vf_bracket",
             "action.invariant_closed_forms", "action.closed_form_basis",
             "action.validate_action", "action.check_multisymplectic",
             "action.preserves_omega", "moment.construct_poincare",
             "moment.construct_exactness", "moment.check_sigma_cocycle",
             "moment.make_equivariant", "moment.uniqueness_check",
             "moment.existence_diagnostic", "cli.parse_problem", "cli.render"]
COUNTERS = {  # metric -> unit, better
    "linalg.elim.entries": ("count", "lower"),
    "linalg.elim.nnz": ("count", "lower"),
    "linalg.elim.max_entries": ("count", "lower"),
    "linalg.solve_many.rhs_per_elim": ("ratio", "higher"),
    "gmodule.ce_module_differential.entries": ("count", "lower"),
    "polyform.wedge.terms_out": ("count", "lower"),
    "moment.sigma_cochain.distinct_ratio": ("ratio", "higher"),
    "moment.describe_kernel.calls": ("count", "lower"),
}


def per_layer_metrics():
    """[(name, unit, better)] in the order BENCHMARK.json lists them."""
    out = []
    for name in CALLS_SELF + CALLS_SELF_DISTINCT:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for name in CALLS_SELF_DISTINCT:
        out.append((f"{name}.distinct_ratio", "ratio", "higher"))
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    out += [(f"cli.cmd.{cmd}.s", "s", "lower") for cmd in COMMANDS]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("trace.wall_s", "s", "lower"), ("trace.hook_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


PER_LAYER = per_layer_metrics()


# ---------------------------------------------------------------------------
# content keys and counts, taken at the call boundary
# ---------------------------------------------------------------------------

def _poly_key(p):
    return tuple(sorted(p.terms.items()))


def _graded_key(x):
    return (type(x).__name__, x.n, x.degree,
            tuple(sorted((idx, _poly_key(p)) for idx, p in x.comps.items())))


def _nnz(m):
    return sum(1 for row in m.rows for x in row if x)


class Tracer:
    """Spans and call-boundary counts for one traced pass."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, command id)
        # Reference-loop runs (calib.py) arrive from a signal handler, so they
        # go to their own list and never shift the indices of open spans.
        self.calibration = []
        self.stack = []
        self.command = 0
        self.counts = {"elim.entries": 0, "elim.nnz": 0, "elim.max_entries": 0,
                       "solve_many.rhs": 0, "ce_module_differential.entries": 0,
                       "wedge.terms_out": 0}
        self.keys = {}         # span name -> hashes of the call's content key
        self._pinned = {}      # id(obj) -> (obj, key): ids stay unique while pinned
        self.hooks = {
            "linalg.rank": self._elim_input, "linalg.rref": self._elim_input,
            "linalg.solve_many": self._rhs,
            "gmodule.ce_module_differential": self._differential_entries,
            "polyform.wedge": self._wedge_terms,
            "lie_core.lie_kernel_basis": self._algebra_degree_key,
            "gmodule.lie_kernel_module": self._algebra_degree_key,
            "action.infinitesimal_generator": self._generator_key,
            "action.TruncatedFormModule": self._truncation_key,
            "moment.sigma_cochain": self._sigma_key,
        }

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, hook = self.spans, self.stack, self.hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command)
            if hook is not None:
                hook(name, args, result)
                spans.append(("trace.hook", end, clock(), parent, self.command))
            return result

        return functools.wraps(fn)(traced)

    def calibration_span(self, start, end):
        """Record a reference-loop run (calib.py) as a child of the open span."""
        parent = self.stack[-1] if self.stack else -1
        self.calibration.append(("trace.calibration", start, end, parent, self.command))

    def all_spans(self):
        return self.spans + self.calibration

    def install(self):
        """Wrap every TRACED function in all loaded momentkit modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and name.split(".")[0] == "momentkit"}
        replace = {}
        for span_name, (module, attr) in TRACED.items():
            owner = modules[f"momentkit.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(span_name, getattr(cls, method)))
            else:
                fn = getattr(owner, attr)
                replace[id(fn)] = (fn, self.wrap(span_name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replace.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    # -- hooks -------------------------------------------------------------

    def _elim_input(self, name, args, result):
        m = args[0]
        entries = m.nrows * m.ncols
        self.counts["elim.entries"] += entries
        self.counts["elim.nnz"] += _nnz(m)
        self.counts["elim.max_entries"] = max(self.counts["elim.max_entries"], entries)

    def _rhs(self, name, args, result):
        self.counts["solve_many.rhs"] += args[1].ncols

    def _differential_entries(self, name, args, result):
        self.counts["ce_module_differential.entries"] += result.nrows * result.ncols

    def _wedge_terms(self, name, args, result):
        self.counts["wedge.terms_out"] += sum(len(p.terms) for p in result.comps.values())

    def _pinned_key(self, obj, make):
        hit = self._pinned.get(id(obj))
        if hit is None or hit[0] is not obj:
            hit = (obj, make(obj))
            self._pinned[id(obj)] = hit
        return hit[1]

    def _algebra(self, g):
        return self._pinned_key(g, lambda g: (g.dim, tuple(sorted(g.table.items()))))

    def _action(self, action):
        return self._pinned_key(action, lambda a: (
            self._algebra(a.algebra), tuple(_graded_key(v) for v in a.fields),
            _graded_key(a.omega)))

    def _record_key(self, name, key):
        self.keys.setdefault(name, []).append(hash(key))

    def _algebra_degree_key(self, name, args, result):
        self._record_key(name, (self._algebra(args[0]), args[1]))

    def _generator_key(self, name, args, result):
        mv = args[1]
        mv = {mv: Fraction(1)} if isinstance(mv, tuple) else mv
        self._record_key(name, (self._action(args[0]),
                                tuple(sorted((k, v) for k, v in mv.items() if v))))

    def _truncation_key(self, name, args, result):
        _, action, p, max_degree = args
        self._record_key(name, (self._action(action), p, max_degree))

    def _sigma_key(self, name, args, result):
        mm, k = args
        self._record_key(name, (self._action(mm.action), k,
                                tuple(_graded_key(f) for f in mm.components[k])))

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON: a name table and integer-coded rows."""
        spans = self.all_spans()
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "names": names, "spans": rows}, fh)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    children = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def unnested_s(spans):
    """Seconds by which the self times of all spans add up to more than the
    root spans last.  It is 0 when the spans nest (each child inside its
    parent, no two children of one parent overlapping); spans that overlap
    or outrun their parent make it the time they count twice."""
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return sum(self_times(spans)) - roots


def _under(spans, i, ancestor_name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer, traced_wall, overhead_ratio):
    """{metric: value} for every PER_LAYER metric.  `traced_wall` is the
    traced pass as measured; span times are as measured too."""
    spans = tracer.all_spans()
    selfs = self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    counts = tracer.counts
    elims_in_solve_many = sum(1 for i, s in enumerate(spans)
                              if s[0] == "linalg.rref" and _under(spans, i, "linalg.solve_many"))
    values = {
        "linalg.elim.entries": counts["elim.entries"],
        "linalg.elim.nnz": counts["elim.nnz"],
        "linalg.elim.max_entries": counts["elim.max_entries"],
        "linalg.solve_many.rhs_per_elim":
            counts["solve_many.rhs"] / elims_in_solve_many if elims_in_solve_many else 0.0,
        "gmodule.ce_module_differential.entries": counts["ce_module_differential.entries"],
        "polyform.wedge.terms_out": counts["wedge.terms_out"],
        "moment.describe_kernel.calls": calls.get("moment.describe_kernel", 0),
        "trace.wall_s": traced_wall,
        "trace.hook_s": self_s.get("trace.hook", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in CALLS_SELF + CALLS_SELF_DISTINCT:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in CALLS_SELF + CALLS_SELF_DISTINCT + SELF_ONLY:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALLS_SELF_DISTINCT + ["moment.sigma_cochain"]:
        keys = tracer.keys.get(name, [])
        values[f"{name}.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    for cmd in COMMANDS:
        values[f"cli.cmd.{cmd}.s"] = total_s.get(f"cli.cmd.{cmd}", 0.0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            v for name, v in self_s.items() if name.split(".")[0] == layer)
    return values
