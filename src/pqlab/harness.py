"""Experiment orchestration: config files, regularization sweeps, reports.

The config format is flat key-value text with one level of [section]
headers, full-line # comments, and no nesting.  Unknown sections or keys
are rejected with the offending line number.  The same canonical form is
emitted by emit_config, so load/emit round-trips are byte-identical.

A sweep solves the problem for the schedule eps_i = eps0 * 2**-i,
i = 0..levels-1, all levels in one batched march, evaluates the energy
report and the sup-bound targets for every iterate, tracks the successive
max differences on the target set K (the Cauchy proxy for the
vanishing-regularization limit), records the least index from which every
target's regularization threshold is respected, and checks the
variational inequality of the final iterate against the preset comparison
maps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .degiorgi import BoundReport, verify_sup_bound
from .errors import ConfigError
from .exponents import StructureParams, derive
from .grid import (
    Cylinder,
    Domain,
    SpaceTimeField,
    _resolve,
    cylinder_in_domain,
    save_field_dump,
)
from .model import Coefficient, CoefficientSpec, IntegrandSpec
from .solver import (
    ENERGY_COLUMNS,
    BoundaryDatum,
    EnergyData,
    SolveConfig,
    SolveStats,
    comparison_maps,
    energy_report,
    solve_levels,
    variational_gap_curve,
)

__all__ = [
    "ExperimentConfig",
    "SweepLevel",
    "SweepReport",
    "load_config",
    "emit_config",
    "run_sweep",
    "emit_reports",
]


# ---------------------------------------------------------------------------
# config schema

_COEFF_KEYS = ("kind", "value", "center", "exponent", "floor", "lo", "hi", "width", "origin")

_SCHEMA = {
    "structure": ("n", "p", "q", "alpha", "beta", "mu", "eps"),
    "domain": ("box", "T", "nx", "nt"),
    "coefficients": tuple(f"a_{k}" for k in _COEFF_KEYS) + tuple(f"b_{k}" for k in _COEFF_KEYS),
    "boundary": ("kind", "profile", "amplitude", "mode", "value", "psi"),
    "sweep": ("eps0", "levels"),
    "targets": None,  # cylinder<N> keys
    "calibration": ("c_cal",),
    "solver": ("tolerance", "max_iter"),
    "output": ("directory", "seed"),
}

_REQUIRED = {"structure": ("n", "p", "q"), "domain": ("box", "T", "nx", "nt")}


@dataclass(frozen=True)
class ExperimentConfig:
    params: StructureParams
    domain: Domain
    coeffs: CoefficientSpec
    g: BoundaryDatum
    eps0: float = 0.5
    levels: int = 4
    targets: tuple = ()  # ((center, rho), ...)
    c_cal: float = 1.0
    tolerance: float = 1e-10
    max_iter: int = 60
    out_dir: str = "out"
    seed: int = 0

    def integrand(self, eps: float | None = None) -> IntegrandSpec:
        return IntegrandSpec(self.params, self.coeffs, self.params.eps if eps is None else eps)

    def solve_config(self, eps: float | None = None) -> SolveConfig:
        return SolveConfig(
            self.domain,
            self.integrand(eps),
            self.g,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
        )

    def eps_schedule(self) -> list:
        return [self.eps0 * 2.0**-i for i in range(self.levels)]

    def target_cylinders(self) -> list:
        """Intrinsic target cylinders (center, rho, sigma)."""
        d = derive(self.params)
        return [(center, rho, rho**d.time_exponent) for center, rho in self.targets]


def _parse_lines(text: str):
    section = None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        allowed = _SCHEMA[section]
        if allowed is None:
            if not (key.startswith("cylinder") and key[len("cylinder"):].isdigit()):
                raise ConfigError(
                    f"unknown key {key!r} in [targets] (expected cylinder<N>)", line=lineno
                )
        elif key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line=lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _take(entries, section, key, conv, default=None, required=False):
    if (section, key) not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    value, lineno = entries.pop((section, key))
    try:
        return conv(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno) from exc


def _float(v: str) -> float:
    return float(v)


def _int(v: str) -> int:
    f = float(v)
    if f != int(f):
        raise ValueError(f"{v!r} is not an integer")
    return int(f)


def _floats(v: str) -> tuple:
    return tuple(float(x) for x in v.split())


def _str(v: str) -> str:
    return v


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config; unknown keys are rejected
    with their line number."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = _parse_lines(text)

    params = StructureParams(
        n=_take(entries, "structure", "n", _int, required=True),
        p=_take(entries, "structure", "p", _float, required=True),
        q=_take(entries, "structure", "q", _float, required=True),
        alpha=_take(entries, "structure", "alpha", _float, default=math.inf),
        beta=_take(entries, "structure", "beta", _float, default=math.inf),
        mu=_take(entries, "structure", "mu", _float, default=0.0),
        eps=_take(entries, "structure", "eps", _float, default=0.0),
    )
    d = derive(params)  # raises ParameterError if the gap fails

    box = _take(entries, "domain", "box", _floats, required=True)
    if len(box) != 2 * params.n:
        raise ConfigError(
            f"box needs {2 * params.n} numbers for n = {params.n}, got {len(box)}"
        )
    domain = Domain(
        n=params.n,
        box=tuple((box[2 * i], box[2 * i + 1]) for i in range(params.n)),
        T=_take(entries, "domain", "T", _float, required=True),
        nx=_take(entries, "domain", "nx", _int, required=True),
        nt=_take(entries, "domain", "nt", _int, required=True),
    )

    def coefficient(prefix, default_kind):
        kw = {"kind": _take(entries, "coefficients", f"{prefix}_kind", _str, default=default_kind)}
        for name, conv in (
            ("value", _float), ("exponent", _float), ("floor", _float),
            ("lo", _float), ("hi", _float), ("width", _float), ("origin", _float),
        ):
            got = _take(entries, "coefficients", f"{prefix}_{name}", conv)
            if got is not None:
                kw[name] = got
        center = _take(entries, "coefficients", f"{prefix}_center", _floats)
        if center is not None:
            kw["center"] = center
        return Coefficient(**kw)

    coeffs = CoefficientSpec(a=coefficient("a", "constant"), b=coefficient("b", "constant"))

    psi = _take(entries, "boundary", "psi", _floats, default=(1.0,))
    g = BoundaryDatum(
        kind=_take(entries, "boundary", "kind", _str, default="zero"),
        profile=_take(entries, "boundary", "profile", _str, default="sin"),
        amplitude=_take(entries, "boundary", "amplitude", _float, default=1.0),
        mode=_take(entries, "boundary", "mode", _int, default=1),
        value=_take(entries, "boundary", "value", _float, default=0.0),
        psi=psi,
    )

    targets = []
    target_items = sorted(
        (key, entries.pop(("targets", key)))
        for (sec, key) in list(entries)
        if sec == "targets"
    )
    for key, (value, lineno) in target_items:
        try:
            nums = tuple(float(x) for x in value.split())
        except ValueError as exc:
            raise ConfigError(f"bad target {key!r}: {exc}", line=lineno) from exc
        if len(nums) != params.n + 2:
            raise ConfigError(
                f"target {key!r} needs {params.n + 2} numbers (x{' y' if params.n == 2 else ''} t rho)",
                line=lineno,
            )
        center, rho = nums[:-1], nums[-1]
        sigma = rho**d.time_exponent
        if not cylinder_in_domain(domain, Cylinder(center, 2 * rho, 2 * sigma, intrinsic=False)):
            raise ConfigError(
                f"target {key!r}: doubled cylinder leaves the space-time domain",
                line=lineno,
            )
        targets.append((center, rho))

    cfg = ExperimentConfig(
        params=params,
        domain=domain,
        coeffs=coeffs,
        g=g,
        eps0=_take(entries, "sweep", "eps0", _float, default=0.5),
        levels=_take(entries, "sweep", "levels", _int, default=4),
        targets=tuple(targets),
        c_cal=_take(entries, "calibration", "c_cal", _float, default=1.0),
        tolerance=_take(entries, "solver", "tolerance", _float, default=1e-10),
        max_iter=_take(entries, "solver", "max_iter", _int, default=60),
        out_dir=_take(entries, "output", "directory", _str, default="out"),
        seed=_take(entries, "output", "seed", _int, default=0),
    )
    if entries:
        (section, key), (_, lineno) = next(iter(entries.items()))
        raise ConfigError(f"unconsumed key {key!r} in [{section}]", line=lineno)
    return cfg


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_config(cfg: ExperimentConfig, path) -> None:
    """Write the canonical text form (load(emit(c)) == c, byte-identical on
    re-emit)."""
    p = cfg.params
    lines = [
        "[structure]",
        f"n = {p.n}",
        f"p = {_fmt(p.p)}",
        f"q = {_fmt(p.q)}",
        f"alpha = {_fmt(p.alpha)}",
        f"beta = {_fmt(p.beta)}",
        f"mu = {_fmt(p.mu)}",
        f"eps = {_fmt(p.eps)}",
        "",
        "[domain]",
        "box = " + " ".join(_fmt(v) for pair in cfg.domain.box for v in pair),
        f"T = {_fmt(cfg.domain.T)}",
        f"nx = {cfg.domain.nx}",
        f"nt = {cfg.domain.nt}",
        "",
        "[coefficients]",
    ]
    for prefix, coeff in (("a", cfg.coeffs.a), ("b", cfg.coeffs.b)):
        lines.append(f"{prefix}_kind = {coeff.kind}")
        if coeff.kind == "constant":
            lines.append(f"{prefix}_value = {_fmt(coeff.value)}")
        elif coeff.kind == "power":
            lines.append(f"{prefix}_center = " + " ".join(_fmt(c) for c in coeff.center))
            lines.append(f"{prefix}_exponent = {_fmt(coeff.exponent)}")
            lines.append(f"{prefix}_floor = {_fmt(coeff.floor)}")
        else:
            lines.append(f"{prefix}_lo = {_fmt(coeff.lo)}")
            lines.append(f"{prefix}_hi = {_fmt(coeff.hi)}")
            lines.append(f"{prefix}_width = {_fmt(coeff.width)}")
            lines.append(f"{prefix}_origin = {_fmt(coeff.origin)}")
    lines += [
        "",
        "[boundary]",
        f"kind = {cfg.g.kind}",
        f"profile = {cfg.g.profile}",
        f"amplitude = {_fmt(cfg.g.amplitude)}",
        f"mode = {cfg.g.mode}",
        f"value = {_fmt(cfg.g.value)}",
        "psi = " + " ".join(_fmt(c) for c in cfg.g.psi),
        "",
        "[sweep]",
        f"eps0 = {_fmt(cfg.eps0)}",
        f"levels = {cfg.levels}",
        "",
        "[targets]",
    ]
    for i, (center, rho) in enumerate(cfg.targets, start=1):
        lines.append(f"cylinder{i} = " + " ".join(_fmt(v) for v in (*center, rho)))
    lines += [
        "",
        "[calibration]",
        f"c_cal = {_fmt(cfg.c_cal)}",
        "",
        "[solver]",
        f"tolerance = {_fmt(cfg.tolerance)}",
        f"max_iter = {cfg.max_iter}",
        "",
        "[output]",
        f"directory = {cfg.out_dir}",
        f"seed = {cfg.seed}",
        "",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepLevel:
    index: int
    eps: float
    field: SpaceTimeField
    iterations: list
    max_residual: float
    energy: EnergyData
    bounds: list  # BoundReport per target


@dataclass
class SweepReport:
    config: ExperimentConfig
    levels: list = field(default_factory=list)
    cauchy: list = field(default_factory=list)  # max |u_{i+1} - u_i| on K
    i_o: int | None = None
    varsol: list = field(default_factory=list)  # (name, taus, gaps, scales)
    ess_sup_K: float = 0.0
    bracket: float = 0.0
    theta_emp: float | None = None
    failure: str | None = None  # set when a solve aborted the schedule

    @property
    def all_bounds_pass(self) -> bool:
        return all(b.passed for lv in self.levels for b in lv.bounds)

    @property
    def min_normalized_gap(self) -> float:
        out = math.inf
        for _, _, gaps, scales in self.varsol:
            ref = np.maximum(scales, 1e-300)
            out = min(out, float(np.min(gaps / ref)))
        return out


def _target_mask(cfg: ExperimentConfig):
    """Union of the half target cylinders (the compact verification set K)."""
    masks = None
    for center, rho, sigma in cfg.target_cylinders():
        tm, sm = _resolve(cfg.domain, Cylinder(center, rho, sigma))
        block = tm[:, None] & sm.ravel()[None, :]
        masks = block if masks is None else (masks | block)
    return masks


def target_bounds(cfg: ExperimentConfig, u: SpaceTimeField, eps: float | None = None) -> list:
    """The sup-bound check (verify_sup_bound) of u on every target, for the
    integrand at eps (default: the config's own)."""
    spec = cfg.integrand(eps)
    return [
        verify_sup_bound(u, center, rho, sigma, spec, cfg.c_cal)
        for center, rho, sigma in cfg.target_cylinders()
    ]


def _level_report(cfg: ExperimentConfig, i: int, eps: float, u: SpaceTimeField,
                  stats: SolveStats) -> SweepLevel:
    return SweepLevel(
        index=i,
        eps=eps,
        field=u,
        iterations=list(stats.iterations),
        max_residual=float(max(stats.residuals)) if stats.residuals else 0.0,
        energy=energy_report(u, cfg.solve_config(eps)),
        bounds=target_bounds(cfg, u, eps),
    )


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Solve the full regularization schedule and assemble every check.

    The levels are solved together (solver.solve_levels).  A solve failure
    aborts the schedule from the failing level on; the report then carries
    the completed prefix plus the failure message (partial reports
    persist).
    """
    schedule = cfg.eps_schedule()
    results, failure = solve_levels(cfg.solve_config(), schedule)
    levels = [
        _level_report(cfg, i, eps, u, stats)
        for i, (eps, (u, stats)) in enumerate(zip(schedule, results))
    ]
    report = SweepReport(config=cfg, levels=levels,
                         failure=None if failure is None else str(failure))
    if not levels:
        return report

    mask = _target_mask(cfg)
    for prev, cur in zip(levels, levels[1:]):
        diff = np.abs(cur.field.values - prev.field.values).reshape(mask.shape if mask is not None else (-1,))
        if mask is None:
            report.cauchy.append(float(diff.max()))
        else:
            report.cauchy.append(float(diff[mask].max()))

    for lv in levels:
        if all(b.eps_ok for b in lv.bounds):
            report.i_o = lv.index
            break

    last = levels[-1]
    scfg = cfg.solve_config(last.eps)
    taus = cfg.domain.times[1:]
    for v in comparison_maps(scfg):
        gaps, scales = variational_gap_curve(last.field, v, scfg, eps=0.0)
        report.varsol.append((v.name, taus, gaps, scales))

    if mask is not None:
        flat = np.abs(last.field.values).reshape(mask.shape)
        report.ess_sup_K = float(flat[mask].max())
        dg_term = last.energy.eps_dg_term
        report.bracket = 1.0 + last.energy.m_g + dg_term
        if report.ess_sup_K > 0 and report.bracket > 1.0:
            report.theta_emp = math.log(report.ess_sup_K) / math.log(report.bracket)
    return report


# ---------------------------------------------------------------------------
# report emission


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _bound_row(i: int, b: BoundReport):
    return [
        i, *b.center, b.rho, b.sigma, b.ess_sup, b.k_choice, b.k_theorem,
        b.margin, b.eps, b.eps_threshold, b.passed,
    ]


def bound_csv_header(n: int):
    """Columns of _bound_row in n space dimensions.  The header needs n
    because a sweep that fails at its first level writes it with no rows."""
    return [
        "i", *("center_x", "center_y")[:n], "center_t", "rho", "sigma", "ess_sup",
        "k_choice", "k_theorem", "margin", "eps", "eps_threshold", "pass",
    ]


def emit_reports(report: SweepReport, out_dir) -> None:
    """Persist manifest JSON, bound/energy/varsol/cauchy CSV tables and the
    final field dump.  Deterministic bytes for a fixed config and seed."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = report.config

    emit_config(cfg, os.path.join(out_dir, "config.txt"))

    manifest = {
        "seed": cfg.seed,
        "eps_schedule": [lv.eps for lv in report.levels],
        "iterations": {str(lv.index): lv.iterations for lv in report.levels},
        "max_residuals": [lv.max_residual for lv in report.levels],
        "cauchy": report.cauchy,
        "i_o": report.i_o,
        "ess_sup_K": report.ess_sup_K,
        "bracket": report.bracket,
        "theta_emp": report.theta_emp,
        "all_bounds_pass": report.all_bounds_pass,
        "min_normalized_gap": _json_float(report.min_normalized_gap),
        "failure": report.failure,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = [_bound_row(lv.index, b) for lv in report.levels for b in lv.bounds]
    _write_csv(os.path.join(out_dir, "bounds.csv"), bound_csv_header(cfg.domain.n), rows)

    energy_rows = [[lv.index, lv.eps, *lv.energy.row()] for lv in report.levels]
    _write_csv(os.path.join(out_dir, "energy.csv"), ["i", "eps", *ENERGY_COLUMNS], energy_rows)

    var_rows = []
    for name, taus, gaps, scales in report.varsol:
        for tau, gap, scale in zip(taus, gaps, scales):
            var_rows.append([name, float(tau), float(gap), float(scale)])
    _write_csv(os.path.join(out_dir, "varsol.csv"), ["map", "tau", "gap", "scale"], var_rows)

    cauchy_rows = [
        [i, report.levels[i].eps, diff] for i, diff in enumerate(report.cauchy)
    ]
    _write_csv(os.path.join(out_dir, "cauchy.csv"), ["i", "eps", "max_diff_on_K"], cauchy_rows)

    if report.levels:
        save_field_dump(report.levels[-1].field, os.path.join(out_dir, "u_final.pqf"))


def _json_float(v: float):
    # json has no Infinity literal in strict mode; clamp sentinel values
    if math.isinf(v):
        return None
    return v
