"""Span recorder for the traced run.

A span is [name, start, end, parent, op]: perf_counter seconds, the index
of the enclosing span (None at the top) and the op it belongs to.  Spans
are kept in memory and written out when the run ends.  Wrappers record
only while an op is open; outside one, and in untraced ops, they call
straight through.

Spans come from two kinds of wrapper, both installed from here so that
pqlab itself is unchanged:

- linear-algebra entry points in SciPy that the solver calls, installed
  before pqlab is imported so a solver that binds them at import time is
  still counted;
- the public functions of pqlab's layers, patched in every pqlab module
  namespace that holds a reference to them (``from .solver import solve``
  binds the function in harness and cli as well).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from statistics import mean, median

from stats import percentile

LINALG_PREFIX = "linalg."
# Wrapped calls that factor a matrix without solving a system.
FACTORIZATIONS = {"linalg.splu"}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = defaultdict(lambda: defaultdict(float))

    def begin_op(self, op):
        """Open the top-level span of one op and start recording."""
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), None, None, op])

    def end_op(self):
        self.spans[self.stack[0]][2] = time.perf_counter()
        self.stack = []
        self.op = None

    def add(self, name, value):
        self.counters[self.op][name] += value

    def maximum(self, name, value):
        c = self.counters[self.op]
        c[name] = max(c[name], value)

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span called name.  after(recorder, args, kwargs,
        result) runs once the call returns, still inside the op."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            parent = rec.stack[-1]
            span = [name, time.perf_counter(), None, parent, rec.op]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# third-party linear algebra


class _CountedLU:
    """Stands in for a SuperLU factorization so that its solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def instrument_linalg(rec: Recorder) -> None:
    """Wrap the SciPy linear solvers the 1D and 2D steps call or may call:
    banded and tridiagonal LAPACK solves, sparse direct solves and
    factorizations, and conjugate gradients."""
    import scipy.linalg
    import scipy.linalg.lapack
    import scipy.sparse.linalg

    targets = [
        (scipy.linalg, "solve_banded"),
        (scipy.linalg, "solveh_banded"),
        (scipy.sparse.linalg, "spsolve"),
        (scipy.sparse.linalg, "cg"),
    ]
    targets += [(scipy.linalg.lapack, t + k) for t in "sdcz" for k in ("ptsv", "gtsv")]
    for module, attr in targets:
        setattr(module, attr, rec.wrap(LINALG_PREFIX + attr, getattr(module, attr)))

    def counted_lu(splu):
        def factor(*args, **kwargs):
            lu = splu(*args, **kwargs)
            if rec.op is None:
                return lu
            return _CountedLU(lu, rec.wrap(LINALG_PREFIX + "SuperLU.solve", lu.solve))

        return rec.wrap(LINALG_PREFIX + "splu", factor)

    scipy.sparse.linalg.splu = counted_lu(scipy.sparse.linalg.splu)

    get_funcs = scipy.linalg.get_lapack_funcs

    @functools.wraps(get_funcs)
    def get_lapack_funcs(names, *args, **kwargs):
        funcs = get_funcs(names, *args, **kwargs)
        single = not isinstance(funcs, (list, tuple))
        wrapped = [
            rec.wrap(LINALG_PREFIX + f.__name__, f)
            if f.__name__[1:] in ("ptsv", "gtsv") else f
            for f in ([funcs] if single else funcs)
        ]
        return wrapped[0] if single else type(funcs)(wrapped)

    scipy.linalg.get_lapack_funcs = get_lapack_funcs
    scipy.linalg.lapack.get_lapack_funcs = get_lapack_funcs


# ---------------------------------------------------------------------------
# pqlab layers


def _after_solve(rec, args, kwargs, result):
    iterations = result[1].iterations
    rec.add("solver.steps", len(iterations))
    rec.add("solver.nonlinear_iters", sum(iterations))
    rec.maximum("solver.iters_per_step_max", max(iterations, default=0))


def _after_field_write(rec, args, kwargs, result):
    rec.add("grid.field_bytes", os.path.getsize(args[1]))


def _after_emit_reports(rec, args, kwargs, result):
    out_dir = args[1]
    rec.add("harness.report_bytes", sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    ))


# (module, function, after-hook); the span is named "<layer>.<function>".
LAYER_CALLS = (
    ("cli", "main", None),
    ("harness", "load_config", None),
    ("harness", "run_sweep", None),
    ("harness", "emit_reports", _after_emit_reports),
    ("solver", "solve", _after_solve),
    ("solver", "energy_report", None),
    ("solver", "comparison_maps", None),
    ("solver", "variational_gap_curve", None),
    ("degiorgi", "verify_sup_bound", None),
    ("degiorgi", "caccioppoli_sides", None),
    ("degiorgi", "trace", None),
    ("lemmas", "mollify_time", None),
    ("grid", "save_field_dump", _after_field_write),
    ("grid", "save_field_csv", _after_field_write),
)


def instrument_pqlab(rec: Recorder) -> None:
    """Replace each public layer call with a span wrapper in every loaded
    pqlab module that refers to it."""
    modules = [m for name, m in sys.modules.items()
               if name == "pqlab" or name.startswith("pqlab.")]
    for layer, attr, after in LAYER_CALLS:
        original = getattr(sys.modules["pqlab." + layer], attr)
        wrapped = rec.wrap(f"{layer}.{attr}", original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics

# Span name -> metric holding its inclusive time per op.
SPAN_SECONDS = {
    "solver.solve": "solver.solve_s",
    "solver.energy_report": "solver.energy_s",
    "solver.variational_gap_curve": "solver.varsol_s",
    "degiorgi.verify_sup_bound": "degiorgi.sup_bound_s",
    "degiorgi.caccioppoli_sides": "degiorgi.caccioppoli_s",
    "degiorgi.trace": "degiorgi.trace_s",
    "lemmas.mollify_time": "lemmas.mollify_s",
    "grid.save_field_dump": "grid.field_write_s",
    "grid.save_field_csv": "grid.field_write_s",
    "harness.run_sweep": "harness.run_sweep_s",
    "harness.emit_reports": "harness.emit_reports_s",
}

# Metric -> unit, in the order the benchmark reports them.
LAYER_UNITS = {
    "solver.steps": "count",
    "solver.nonlinear_iters": "count",
    "solver.iters_per_step_mean": "iter/step",
    "solver.iters_per_step_max": "iter/step",
    "solver.solve_s": "s",
    "solver.linear_solves": "count",
    "solver.linear_solve_s": "s",
    "solver.linear_solve_ms_p50": "ms",
    "solver.linear_solve_ms_p99": "ms",
    "solver.linear_share": "ratio",
    "solver.iter_self_ms": "ms",
    "solver.energy_s": "s",
    "solver.varsol_s": "s",
    "degiorgi.sup_bound_s": "s",
    "degiorgi.caccioppoli_s": "s",
    "degiorgi.trace_s": "s",
    "lemmas.mollify_s": "s",
    "grid.field_write_s": "s",
    "grid.field_bytes": "B",
    "harness.load_config_s": "s",
    "harness.run_sweep_s": "s",
    "harness.emit_reports_s": "s",
    "harness.report_bytes": "B",
    "trace.overhead": "ratio",
}


def _is_linalg(span) -> bool:
    return span[0].startswith(LINALG_PREFIX)


def layer_metrics(rec: Recorder, ops, traced_s, untraced_s) -> dict:
    """Per-layer metrics over the traced ops.

    Per-op quantities are medians over ops; the linear-solve percentiles
    pool every solve; shares and per-iteration times divide sums.  A
    linear-algebra span nested in another (a SuperLU solve inside cg) counts
    once, as part of the outer one.  traced_s and untraced_s are the op
    times with tracing on and off, which alternate, so their means see the
    same host.
    """
    selfs = self_times(rec.spans)
    per_op = {op: defaultdict(float, rec.counters.get(op, {})) for op in ops}
    solve_self = 0.0
    solve_ms = []
    load_config = []
    spans = rec.spans
    for i, span in enumerate(spans):
        name, start, end, parent, op = span
        if name == "harness.load_config":
            load_config.append(end - start)
        if op not in per_op:
            continue
        m = per_op[op]
        if _is_linalg(span):
            if _is_linalg(spans[parent]):
                continue
            m["solver.linear_solve_s"] += end - start
            if name not in FACTORIZATIONS:
                m["solver.linear_solves"] += 1
                solve_ms.append(1e3 * (end - start))
        elif name in SPAN_SECONDS:
            m[SPAN_SECONDS[name]] += end - start
            if name == "solver.solve":
                solve_self += selfs[i]

    def total(key):
        return sum(m[key] for m in per_op.values())

    out = {key: median(m[key] for m in per_op.values()) for key in LAYER_UNITS}
    iters, steps, solve_s = total("solver.nonlinear_iters"), total("solver.steps"), total("solver.solve_s")
    out["solver.iters_per_step_mean"] = iters / steps if steps else 0.0
    out["solver.iters_per_step_max"] = max(m["solver.iters_per_step_max"] for m in per_op.values())
    out["solver.linear_solve_ms_p50"] = percentile(solve_ms, 50) if solve_ms else 0.0
    out["solver.linear_solve_ms_p99"] = percentile(solve_ms, 99) if solve_ms else 0.0
    out["solver.linear_share"] = total("solver.linear_solve_s") / solve_s if solve_s else 0.0
    out["solver.iter_self_ms"] = 1e3 * solve_self / iters if iters else 0.0
    out["harness.load_config_s"] = median(load_config) if load_config else 0.0
    out["trace.overhead"] = mean(traced_s) / mean(untraced_s) - 1.0
    return out


def span_summary(spans, ops) -> list:
    """(name, calls, total seconds, self seconds) per span name over the
    given ops, largest self time first."""
    selfs = self_times(spans)
    ops = set(ops)
    acc = defaultdict(lambda: [0, 0.0, 0.0])
    for (name, start, end, parent, op), own in zip(spans, selfs):
        if op not in ops:
            continue
        a = acc[name]
        a[0] += 1
        a[1] += end - start
        a[2] += own
    return sorted(((k, *v) for k, v in acc.items()), key=lambda r: -r[3])


def write_spans(spans, path) -> None:
    """Write every span as a CSV row; times in seconds from the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,op,name,start,end,parent,self\n")
        for i, ((name, start, end, parent, op), own) in enumerate(zip(spans, self_times(spans))):
            parent = "" if parent is None else parent
            fh.write(f"{i},{op},{name},{start - t0:.9f},{end - t0:.9f},{parent},{own:.9f}\n")
