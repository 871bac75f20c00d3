"""The benchmark's workloads: seeded inputs, one op each, and the check of
every op's output.

sweep-1d        ``pqlab sweep`` on the acceptance criterion-9 problem: 1D
                degenerate preset, 65x256, 6 eps-levels, 3 targets.  Almost
                all of it is the 1D nonlinear loop (tridiagonal solves).
solve-2d        ``pqlab solve`` on the 2D degenerate preset, 65^2x64, with
                its .pqf dump, .csv field and energy JSON.  Mostly sparse LU;
                the only large field write.
diagnostics-2d  the post-solve check suite on a 2D field solved once in
                set-up at 33^2x32: energy, sup-bound, Caccioppoli and
                De Giorgi trace per target, the variational gap for the six
                comparison maps, and the time mollification.  No solver work.

The seed draws the datum amplitude and the degeneracy centre of a from
small ranges; the default seed gives the presets exactly.  The centre stays
at least a quarter of a half-spacing away from every node and face midpoint
of every grid used, so 1/a is finite where it is sampled.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import struct
import sys
import time
from dataclasses import dataclass

import numpy as np

import pqlab as pq
import pqlab.cli

DEFAULT_SEED = 0
TOLERANCE = 1e-10
# Slack on the comparison principle min g <= u <= max g: the step is solved
# to TOLERANCE, so the computed field may leave the datum's range by a small
# multiple of it.
FIELD_SLACK = 1e-8
# The checker recomputes step residuals in its own arithmetic; allow this
# factor over the tolerance for rounding and for a stopping rule scaled by
# the size of the data.
RESIDUAL_SLACK = 10.0
# Criterion 9: normalized variational gaps may dip this far below zero.
VAR_TOL = 1e-6
# Caccioppoli constant cap, as in ``pqlab check-caccioppoli``.
CACCIOPPOLI_CAP = 1e3
# Reference scalars must match to this tolerance.  A different nonlinear
# solver stopped at the same tolerance agrees with the current one to about
# 3e-9 in the field (datum amplitude 0.8): REF_ABS leaves a factor 30 over
# that, while a wrong answer is off by far more than either bound.
REF_REL = 1e-5
REF_ABS = 1e-7

AMPLITUDE = 0.8
AMPLITUDE_RANGE = (0.78, 0.82)
CENTER = 0.505
CENTER_RANGE = (0.500, 0.510)
# Every grid here has a spacing that divides 1/64, so nodes and face
# midpoints are multiples of 1/128.
_HALF_SPACING = 1.0 / 128

TARGETS = {
    1: (((0.5, 0.12), 0.2), ((0.45, 0.2), 0.15), ((0.55, 0.28), 0.12)),
    2: (((0.5, 0.5, 0.12), 0.2), ((0.45, 0.55, 0.2), 0.15), ((0.55, 0.45, 0.28), 0.12)),
}

OP_FAILURES = (pq.StepFailure, pq.DivergenceError)

_REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass(frozen=True)
class Inputs:
    amplitude: float
    center: tuple


def _off_grid(c: float) -> bool:
    frac = (c / _HALF_SPACING) % 1.0
    return 0.25 <= frac <= 0.75


def draw_inputs(seed: int, n: int) -> Inputs:
    """Datum amplitude and degeneracy centre for a seed."""
    if seed == DEFAULT_SEED:
        return Inputs(AMPLITUDE, (CENTER,) * n)
    rng = np.random.default_rng(seed)
    amplitude = float(rng.uniform(*AMPLITUDE_RANGE))
    center = []
    while len(center) < n:
        c = float(rng.uniform(*CENTER_RANGE))
        if _off_grid(c):
            center.append(c)
    return Inputs(amplitude, tuple(center))


def config_text(inputs: Inputs, n: int, nx: int, nt: int, levels: int | None = None) -> str:
    """Experiment config for the degenerate preset.  Uses no key that the
    roadmap's solver rework removes (no damping, no output seed)."""
    lines = [
        "[structure]",
        f"n = {n}", "p = 2.0", "q = 2.1", "alpha = 20.0", "beta = 20.0",
        "mu = 0.0", "eps = 0.5",
        "",
        "[domain]",
        "box = " + " ".join(["0.0 1.0"] * n),
        "T = 0.3", f"nx = {nx}", f"nt = {nt}",
        "",
        "[coefficients]",
        "a_kind = power",
        "a_center = " + " ".join(repr(c) for c in inputs.center),
        "a_exponent = 0.04",
        "b_kind = constant",
        "b_value = 1.0",
        "",
        "[boundary]",
        "kind = profile", "profile = sin", f"amplitude = {inputs.amplitude!r}",
        "",
    ]
    if levels is not None:
        lines += ["[sweep]", "eps0 = 0.5", f"levels = {levels}", ""]
    lines.append("[targets]")
    for i, (center, rho) in enumerate(TARGETS[n], start=1):
        lines.append(f"cylinder{i} = " + " ".join(repr(v) for v in (*center, rho)))
    lines += ["", "[solver]", f"tolerance = {TOLERANCE!r}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# checks


def _close(problems: list, what: str, got, ref) -> None:
    got, ref = np.atleast_1d(got), np.atleast_1d(ref)
    if got.shape != ref.shape:
        problems.append(f"{what}: {got.size} values, reference has {ref.size}")
        return
    for g, r in zip(got.tolist(), ref.tolist()):
        if not math.isclose(g, r, rel_tol=REF_REL, abs_tol=REF_ABS):
            problems.append(f"{what}: {g!r} differs from reference {r!r}")
            return


def _datum_range(n: int, nx: int, amplitude: float) -> tuple:
    g = amplitude * np.sin(np.pi * np.linspace(0.0, 1.0, nx))
    if n == 2:
        g = np.multiply.outer(g, g / amplitude)
    return float(g.min()), float(g.max())


def field_problems(values: np.ndarray, shape: tuple, inputs: Inputs) -> list:
    """Shape, finiteness and the comparison principle for a solved field."""
    if values.shape != shape:
        return [f"field shape {values.shape}, expected {shape}"]
    if not np.all(np.isfinite(values)):
        return ["field has non-finite values"]
    lo, hi = _datum_range(len(shape) - 1, shape[1], inputs.amplitude)
    u_min, u_max = float(values.min()), float(values.max())
    if u_min < lo - FIELD_SLACK or u_max > hi + FIELD_SLACK:
        return [f"field range [{u_min!r}, {u_max!r}] leaves the datum range [{lo!r}, {hi!r}]"]
    return []


def equation_residual_1d(u, spec) -> float:
    """Largest residual |u_j - u_{j-1} - dt div_h F(D_h u_j)| of the 1D
    implicit Euler steps, recomputed from a stored field: D_h differences
    onto cell faces, F the model flux with coefficients at face midpoints,
    div_h the difference of face fluxes at interior nodes."""
    dom = u.domain
    x = dom.axes[0]
    mid = 0.5 * (x[:-1] + x[1:])
    grads = np.diff(u.values[1:], axis=1) / dom.dx[0]
    fl = pq.flux(grads[None], spec.coeffs.a.at(mid), spec.coeffs.b.at(mid), spec)[0]
    res = u.values[1:, 1:-1] - u.values[:-1, 1:-1] - dom.dt * np.diff(fl, axis=1) / dom.dx[0]
    return float(np.abs(res).max())


def _residual_problems(residuals) -> list:
    worst = max(residuals)
    if not worst < TOLERANCE:
        return [f"step residual {worst!r} is not below the tolerance {TOLERANCE!r}"]
    return []


def load_references() -> dict:
    with open(_REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload at one seed.  Sizes can be shrunk for tests; reference
    scalars apply only at the default seed and the default sizes."""

    name = ""
    n = 1
    default_size = ()

    def __init__(self, seed: int, size: tuple | None = None):
        self.seed = seed
        self.size = tuple(size or self.default_size)
        self.inputs = draw_inputs(seed, self.n)
        self.refs = None
        if seed == DEFAULT_SEED and self.size == self.default_size:
            self.refs = load_references()[self.name]

    def setup(self, workdir: str) -> list:
        """Write and parse the config and prepare the op; returns problems
        found in set-up."""
        self.workdir = workdir
        self.config = os.path.join(workdir, f"{self.name}.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(config_text(self.inputs, self.n, *self.size))
        self.cfg = pq.load_config(self.config)
        self.first = None
        return []

    def op(self, i: int):
        raise NotImplementedError

    def check(self, output) -> list:
        """Problems with one op's output; empty when it is correct.  Every
        op of a run has the same inputs, so its reference scalars must also
        agree with those of the run's first op."""
        try:
            problems = self.invariant_problems(output)
            if problems:
                return problems
            got = self.reference_values(output)
        except (OSError, ValueError, KeyError, struct.error) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        if self.first is None:
            self.first = got
        for key, ref in self.first.items():
            _close(problems, f"{key} (against the first op)", got[key], ref)
        for key, ref in (self.refs or {}).items():
            _close(problems, key, got[key], ref)
        return problems

    def invariant_problems(self, output) -> list:
        raise NotImplementedError

    def reference_values(self, output) -> dict:
        raise NotImplementedError

    def discard(self, output) -> None:
        """Remove what an op left on disk."""

    def _cli(self, *args) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return pq.cli.main(list(args))


@dataclass
class CliOutput:
    rc: int
    path: str


class Sweep1D(Workload):
    name = "sweep-1d"
    n = 1
    default_size = (65, 256, 6)  # nx, nt, levels

    def op(self, i):
        out = os.path.join(self.workdir, f"op{i}")
        return CliOutput(self._cli("sweep", "--config", self.config, "--out", out), out)

    def _read(self, output):
        with open(os.path.join(output.path, "manifest.json"), encoding="ascii") as fh:
            manifest = json.load(fh)
        u = pq.load_field_dump(os.path.join(output.path, "u_final.pqf"))
        return manifest, u

    def invariant_problems(self, output):
        if output.rc != 0:
            return [f"pqlab sweep exited with {output.rc}"]
        manifest, u = self._read(output)
        nx, nt, levels = self.size
        problems = []
        if manifest["failure"] is not None or len(manifest["max_residuals"]) != levels:
            problems.append(f"sweep stopped early: {manifest['failure']}")
        problems += _residual_problems(manifest["max_residuals"])
        problems += field_problems(u.values, (nt + 1, nx), self.inputs)
        residual = equation_residual_1d(u, self.cfg.integrand(manifest["eps_schedule"][-1]))
        if not residual < RESIDUAL_SLACK * TOLERANCE:
            problems.append(f"stored final level solves its step equations only to {residual!r}")
        gap = manifest["min_normalized_gap"]
        if gap is None or gap < -VAR_TOL:
            problems.append(f"min normalized variational gap {gap!r} < -{VAR_TOL}")
        return problems

    def reference_values(self, output):
        manifest, _ = self._read(output)
        return {"ess_sup_K": manifest["ess_sup_K"], "cauchy": manifest["cauchy"]}

    def discard(self, output):
        shutil.rmtree(output.path, ignore_errors=True)


class Solve2D(Workload):
    name = "solve-2d"
    n = 2
    default_size = (65, 64)  # nx, nt

    def op(self, i):
        prefix = os.path.join(self.workdir, f"op{i}", "solution")
        return CliOutput(self._cli("solve", "--config", self.config, "--out", prefix), prefix)

    def _read(self, output):
        with open(output.path + "_manifest.json", encoding="ascii") as fh:
            manifest = json.load(fh)
        with open(output.path + "_energy.json", encoding="ascii") as fh:
            energy = json.load(fh)
        return manifest, energy, pq.load_field_dump(output.path + ".pqf")

    def invariant_problems(self, output):
        if output.rc != 0:
            return [f"pqlab solve exited with {output.rc}"]
        manifest, energy, u = self._read(output)
        nx, nt = self.size
        problems = []
        if len(manifest["iterations"]) != nt:
            problems.append(f"{len(manifest['iterations'])} steps recorded, expected {nt}")
        problems += _residual_problems([manifest["max_residual"]])
        problems += field_problems(u.values, (nt + 1, nx, nx), self.inputs)
        if not all(math.isfinite(v) for v in energy.values() if v is not None):
            problems.append("energy report has non-finite terms")
        _close(problems, "lhs_total of the stored field",
               pq.energy_report(u, self.cfg.solve_config()).lhs_total, energy["lhs_total"])
        problems += self._csv_problems(output.path + ".csv", u)
        return problems

    @staticmethod
    def _csv_problems(path, u):
        """Row count and the last row of the CSV field against the dump."""
        rows = 0
        last = ""
        with open(path, encoding="ascii") as fh:
            next(fh)
            for last in fh:
                rows += 1
        if rows != u.values.size:
            return [f"field CSV has {rows} rows, expected {u.values.size}"]
        dom = u.domain
        expect = [dom.T, dom.box[0][1], dom.box[1][1], float(u.values[-1, -1, -1])]
        if [float(v) for v in last.split(",")] != expect:
            return [f"field CSV last row {last.strip()!r} does not match the dump"]
        return []

    def reference_values(self, output):
        _, energy, u = self._read(output)
        return {"final_slice_max": float(u.values[-1].max()), "lhs_total": energy["lhs_total"]}

    def discard(self, output):
        shutil.rmtree(os.path.dirname(output.path), ignore_errors=True)


class Diagnostics2D(Workload):
    name = "diagnostics-2d"
    n = 2
    default_size = (33, 32)  # nx, nt of the set-up solve
    mollify_h = 0.05

    def setup(self, workdir):
        problems = super().setup(workdir)
        self.scfg = self.cfg.solve_config()
        self.u, stats = pq.solve(self.scfg)
        self.maps = pq.comparison_maps(self.scfg)
        self.targets = self.cfg.target_cylinders()
        nx, nt = self.size
        return (problems + _residual_problems(stats.residuals)
                + field_problems(self.u.values, (nt + 1, nx, nx), self.inputs))

    def op(self, i):
        u, scfg, cfg = self.u, self.scfg, self.cfg
        spec = scfg.spec
        out = {"k_choice": [], "ess_sup": [], "c_min": [], "trace_x0": [],
               "min_gap": [], "min_normalized_gap": []}
        out["lhs_total"] = pq.energy_report(u, scfg).lhs_total
        a = spec.coeffs.a.sample(u.domain)
        b = spec.coeffs.b.sample(u.domain)
        for center, rho, sigma in self.targets:
            rep = pq.verify_sup_bound(u, center, rho, sigma, spec, cfg.c_cal)
            out["k_choice"].append(rep.k_choice)
            out["ess_sup"].append(rep.ess_sup)
            inner = pq.Cylinder(center, rho, sigma)
            outer = pq.Cylinder(center, 2 * rho, 2 * sigma)
            norms = pq.coefficient_norms(a, b, cfg.params.alpha, cfg.params.beta, outer)
            for k in (0.0, 0.5 * rep.k_choice):
                sides = pq.caccioppoli_sides(u, k, inner, outer, norms, spec.d,
                                             mu=cfg.params.mu, eps=spec.eps)
                out["c_min"].append(sides.c_min)
            tr = pq.trace(u, outer, max(rep.k_choice, 1e-12), spec.d)
            out["trace_x0"].append(float(tr.x_i[0]))
        for v in self.maps:
            gaps, scales = pq.variational_gap_curve(u, v, scfg, eps=spec.eps)
            out["min_gap"].append(float(np.min(gaps)))
            out["min_normalized_gap"].append(float(np.min(gaps / np.maximum(scales, 1e-300))))
        out["mollified_max"] = float(np.abs(pq.mollify_time(u, self.mollify_h).values).max())
        return out

    def invariant_problems(self, out):
        problems = []
        values = [v for x in out.values() for v in np.atleast_1d(x).tolist()]
        if not all(math.isfinite(v) for v in values):
            return ["non-finite diagnostic"]
        u_max = float(self.u.values.max())
        if max(out["ess_sup"]) > u_max:
            problems.append(f"ess sup {max(out['ess_sup'])!r} exceeds max u {u_max!r}")
        if max(out["c_min"]) > CACCIOPPOLI_CAP:
            problems.append(f"Caccioppoli constant {max(out['c_min'])!r} > {CACCIOPPOLI_CAP}")
        if min(out["min_normalized_gap"]) < -VAR_TOL:
            problems.append(f"normalized variational gap {min(out['min_normalized_gap'])!r} < -{VAR_TOL}")
        if out["mollified_max"] > float(np.abs(self.u.values).max()) * (1 + 1e-12):
            problems.append("time mollification is not a sup-norm contraction")
        return problems

    def reference_values(self, out):
        return out


WORKLOADS = {w.name: w for w in (Sweep1D, Solve2D, Diagnostics2D)}
# Tiny sizes of each workload, run once in set-up so that lazy imports and
# first-call costs are paid before timing.
WARMUP_SIZES = {"sweep-1d": (17, 64, 2), "solve-2d": (9, 32), "diagnostics-2d": (9, 32)}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class OpLog:
    times: list
    traced: list
    failed: int


def run_ops(workload: Workload, seconds: float, min_ops: int, rec=None,
            between_ops=None, log=sys.stderr) -> OpLog:
    """Run ops back to back until `seconds` have passed and at least
    `min_ops` ops ran.  With a recorder, every second op is traced.  An op
    fails when it raises StepFailure or DivergenceError or its check
    finds a problem.  between_ops() runs after each op's check, untimed."""
    result = OpLog([], [], 0)
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        traced = rec is not None and i % 2 == 1
        if traced:
            rec.begin_op(i)
        t0 = time.perf_counter()
        try:
            output = workload.op(i)
            problems = None
        except OP_FAILURES as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                rec.end_op()
        if problems is None:
            problems = workload.check(output)
            workload.discard(output)
        if problems:
            result.failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=log)
        result.times.append(elapsed)
        result.traced.append(traced)
        i += 1
        if between_ops is not None:
            between_ops()
    return result
