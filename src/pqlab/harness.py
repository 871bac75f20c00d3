"""Experiment orchestration: config files, regularization sweeps, reports.

The config format is flat key-value text with one level of [section]
headers, full-line # comments, and no nesting.  Unknown sections or keys,
and coefficient keys that their kind does not read, are rejected with the
offending line number.  The config dataclasses are the schema (_SCHEMA):
each key is a field of StructureParams, Domain, Coefficient (a_/b_
prefixed), BoundaryDatum or ExperimentConfig, parsed by its annotation and
defaulted from the field; a field with no default is a required key.
emit_config walks the same table to write the canonical form, so
load/emit round-trips are byte-identical.

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

import functools
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .degiorgi import BoundReport, _sup_bound_check
from .errors import ConfigError, ParameterError, RegionError
from .exponents import StructureParams, derive
from .grid import (
    AXES,
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
    comparison_maps,
    energy_reports,
    solve_levels,
    variational_gap_curves,
)


# ---------------------------------------------------------------------------
# config schema


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

    def __post_init__(self):
        if not self.levels >= 1:
            raise ParameterError(f"levels must be at least 1, got {self.levels}")
        if not 0 < self.c_cal < math.inf:
            raise ParameterError(f"c_cal must be positive and finite, got {self.c_cal}")
        self.solve_config(self.eps0)  # the eps, tolerance and max_iter ranges

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


def _fields(cls, *names) -> dict:
    """{name: field} of a dataclass, in declaration order (only the named
    ones if any are given)."""
    return {f.name: f for f in fields(cls) if not names or f.name in names}


# [section] -> {key: dataclass field}; [targets] holds cylinder<N> keys
_SCHEMA = {
    "structure": _fields(StructureParams),
    "domain": _fields(Domain, "box", "T", "nx", "nt"),
    "coefficients": {f"{c}_{name}": f for c in "ab" for name, f in _fields(Coefficient).items()},
    "boundary": _fields(BoundaryDatum),
    "sweep": _fields(ExperimentConfig, "eps0", "levels"),
    "targets": None,
    "calibration": _fields(ExperimentConfig, "c_cal"),
    "solver": _fields(ExperimentConfig, "tolerance", "max_iter"),
    "output": {
        "directory": _fields(ExperimentConfig)["out_dir"],
        **_fields(ExperimentConfig, "seed"),
    },
}

# the coefficient keys each kind reads, after <prefix>_kind
_KIND_KEYS = {
    "constant": ("value",),
    "power": ("center", "exponent", "floor"),
    "checkerboard": ("lo", "hi", "width", "origin"),
}


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


def _int(v: str) -> int:
    f = float(v)
    if f != int(f):
        raise ValueError(f"{v!r} is not an integer")
    return int(f)


def _floats(v: str) -> tuple:
    return tuple(float(x) for x in v.split())


# a field's annotation (a string under postponed evaluation) picks its parser
_PARSERS = {"int": _int, "float": float, "tuple": _floats, "str": str}


def _section(entries, section, prefix="") -> dict:
    """Keyword arguments from the section's keys that start with prefix, by
    field name.  A missing key is left to its field's default; a field with
    no default is a required key."""
    kw = {}
    for key, f in _SCHEMA[section].items():
        if not key.startswith(prefix):
            continue
        if (section, key) not in entries:
            if f.default is MISSING:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            continue
        value, lineno = entries[(section, key)]
        try:
            kw[f.name] = _PARSERS[f.type](value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno) from exc
    return kw


def _build(cls, entries, section, prefix="", **kw):
    """cls from the section's keys that start with prefix, overridden by kw.
    A ParameterError from its range checks becomes a ConfigError naming the
    section (and prefix) at the line of the group's first key."""
    try:
        return cls(**{**_section(entries, section, prefix), **kw})
    except ParameterError as exc:
        line = min((lineno for (sec, key), (_, lineno) in entries.items()
                    if sec == section and key.startswith(prefix)), default=None)
        where = f"[{section}] {prefix}*" if prefix else f"[{section}]"
        raise ConfigError(f"{where}: {exc}", line=line) from exc


def _coefficient(entries, prefix, n) -> Coefficient:
    """The coefficient of the <prefix>_ keys.  A key its kind does not read,
    and a power-law center without n numbers, are rejected."""
    coeff = _build(Coefficient, entries, "coefficients", prefix + "_")
    read = {f"{prefix}_{name}" for name in ("kind", *_KIND_KEYS[coeff.kind])}
    for (section, key), (_, lineno) in entries.items():
        if section == "coefficients" and key.startswith(prefix + "_") and key not in read:
            raise ConfigError(f"{prefix}_kind = {coeff.kind} does not read {key!r}", line=lineno)
    if coeff.kind == "power" and len(coeff.center) != n:
        key = f"{prefix}_center"
        if ("coefficients", key) not in entries:
            raise ConfigError(f"missing key {key!r}: a power law needs a center of n = {n} numbers")
        raise ConfigError(f"{key!r} needs {n} numbers for n = {n}, got {len(coeff.center)}",
                          line=entries[("coefficients", key)][1])
    return coeff


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config; unknown keys are rejected
    with their line number."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entries = _parse_lines(text)

    params = _build(StructureParams, entries, "structure")
    d = derive(params)  # raises ParameterError if the gap fails

    box = _section(entries, "domain")["box"]
    if len(box) != 2 * params.n:
        raise ConfigError(
            f"box needs {2 * params.n} numbers for n = {params.n}, got {len(box)}",
            line=entries[("domain", "box")][1],
        )
    domain = _build(Domain, entries, "domain", n=params.n,
                    box=tuple(zip(box[::2], box[1::2])))

    coeffs = CoefficientSpec(a=_coefficient(entries, "a", params.n),
                             b=_coefficient(entries, "b", params.n))
    g = _build(BoundaryDatum, entries, "boundary")

    targets = []
    target_items = sorted(
        (key, entry) for (sec, key), entry in entries.items() if sec == "targets"
    )
    for key, (value, lineno) in target_items:
        try:
            nums = tuple(float(x) for x in value.split())
        except ValueError as exc:
            raise ConfigError(f"bad target {key!r}: {exc}", line=lineno) from exc
        if len(nums) != params.n + 2:
            raise ConfigError(
                f"target {key!r} needs {params.n + 2} numbers ({' '.join(AXES[:params.n])} t rho)",
                line=lineno,
            )
        center, rho = nums[:-1], nums[-1]
        if not rho > 0:
            raise ConfigError(f"target {key!r} needs a positive radius rho, got {rho}", line=lineno)
        sigma = rho**d.time_exponent
        if not cylinder_in_domain(domain, Cylinder(center, 2 * rho, 2 * sigma)):
            raise ConfigError(
                f"target {key!r}: doubled cylinder leaves the space-time domain",
                line=lineno,
            )
        try:
            _resolve(domain, Cylinder(center, rho, sigma))
        except RegionError as exc:
            raise ConfigError(f"target {key!r}: {exc}", line=lineno) from exc
        targets.append((center, rho))

    # one run section at a time, so a range error names the section at fault
    cfg = ExperimentConfig(params=params, domain=domain, coeffs=coeffs, g=g,
                           targets=tuple(targets))
    for section in ("sweep", "calibration", "solver", "output"):
        cfg = _build(functools.partial(replace, cfg), entries, section)
    if cfg.out_dir == "":
        _, lineno = entries[("output", "directory")]
        raise ConfigError("empty value for 'directory'", line=lineno)
    return cfg


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return " ".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_config(cfg: ExperimentConfig, path) -> None:
    """Write the canonical text form (load(emit(c)) == c, byte-identical on
    re-emit): every section, every key of the schema except the coefficient
    keys another kind reads."""
    owners = {"structure": cfg.params, "domain": cfg.domain, "boundary": cfg.g}
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        if section == "coefficients":
            for prefix, coeff in (("a", cfg.coeffs.a), ("b", cfg.coeffs.b)):
                for name in ("kind", *_KIND_KEYS[coeff.kind]):
                    lines.append(f"{prefix}_{name} = {_fmt(getattr(coeff, name))}")
        elif section == "targets":
            for i, (center, rho) in enumerate(cfg.targets, start=1):
                lines.append(f"cylinder{i} = {_fmt((*center, rho))}")
        else:
            owner = owners.get(section, cfg)
            lines += [f"{key} = {_fmt(getattr(owner, f.name))}" for key, f in keys.items()]
        lines.append("")
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
        """The least gap / scale over every map and time; NaN if any gap is
        NaN, inf with no maps."""
        return float(np.min([np.min(gaps / np.maximum(scales, 1e-300))
                             for _, _, gaps, scales in self.varsol], initial=math.inf))


def _target_checks(cfg: ExperimentConfig) -> tuple:
    """The targets' checks, as degiorgi._sup_bound_check makes them, and the
    node mask (time level, flat space) of the union of their half cylinders,
    the compact verification set K; every node without targets."""
    dom = cfg.domain
    checks, mask = [], np.zeros((dom.nt + 1, dom.nx**dom.n), bool)
    for center, rho, sigma in cfg.target_cylinders():
        check, (tm, sm) = _sup_bound_check(dom, center, rho, sigma, cfg.integrand(), cfg.c_cal)
        checks.append(check)
        mask |= tm[:, None] & sm.ravel()[None, :]
    return checks, mask if cfg.targets else ~mask


def target_bounds(cfg: ExperimentConfig, fields, eps_values=None) -> list:
    """Per field, the BoundReport of verify_sup_bound on every target, at the
    field's eps (default: the config's own).  Each target's cylinder check
    and coefficient norms are taken once, for all the fields."""
    checks, _ = _target_checks(cfg)
    if eps_values is None:
        eps_values = [None] * len(fields)
    if len(eps_values) != len(fields):
        raise ParameterError(f"{len(fields)} fields but {len(eps_values)} eps values")
    specs = map(cfg.integrand, eps_values)
    return [[check(u, spec) for check in checks] for u, spec in zip(fields, specs)]


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Solve the full regularization schedule and assemble every check.

    The levels are solved together (solver.solve_levels), and each
    diagnostic takes all of them in one call, which does its
    level-invariant work once.  A solve failure aborts the schedule from
    the failing level on; the report then carries the completed prefix plus
    the failure message (partial reports persist).
    """
    schedule = cfg.eps_schedule()
    results, failure = solve_levels(cfg.solve_config(), schedule)
    fields, schedule = [u for u, _ in results], schedule[:len(results)]  # the levels solved
    checks, mask = _target_checks(cfg)
    levels = [
        SweepLevel(index=i, eps=eps, field=u, iterations=list(stats.iterations),
                   max_residual=float(max(stats.residuals)), energy=energy,
                   bounds=[check(u, spec) for check in checks])
        for i, (eps, spec, (u, stats), energy) in enumerate(zip(
            schedule, map(cfg.integrand, schedule), results,
            energy_reports(fields, cfg.solve_config(), schedule)))
    ]
    report = SweepReport(config=cfg, levels=levels,
                         failure=None if failure is None else str(failure))
    if not levels:
        return report

    for prev, cur in zip(levels, levels[1:]):
        diff = np.abs(cur.field.values - prev.field.values).reshape(mask.shape)
        report.cauchy.append(float(diff[mask].max()))

    for lv in levels:
        if all(b.eps_ok for b in lv.bounds):
            report.i_o = lv.index
            break

    last = levels[-1]
    scfg = cfg.solve_config(last.eps)
    taus = cfg.domain.times[1:]
    maps = comparison_maps(scfg)
    for v, (gaps, scales) in zip(maps, variational_gap_curves(last.field, maps, scfg, eps=0.0)):
        report.varsol.append((v.name, taus, gaps, scales))

    if cfg.targets:
        flat = np.abs(last.field.values).reshape(mask.shape)
        report.ess_sup_K = float(flat[mask].max())
        dg_term = last.energy.eps_dg_term
        report.bracket = 1.0 + last.energy.m_g + dg_term
        if report.ess_sup_K > 0 and report.bracket > 1.0:
            report.theta_emp = math.log(report.ess_sup_K) / math.log(report.bracket)
    return report


# ---------------------------------------------------------------------------
# report emission


def _write_json(path, record) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """Write header and rows as CSV: a float (np.float64 too) to 17
    significant digits, a bool as true or false and any other cell as str
    writes it.  Each run of rows whose cells have the same types is
    formatted by one % on its row template, repeated per row."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for kinds, run in itertools.groupby(rows, key=lambda row: tuple(map(type, row))):
            run = list(run)
            template = ",".join("%.17g" if issubclass(k, float) else "%s" for k in kinds) + "\n"
            cells = itertools.chain.from_iterable(run)
            if bool in kinds:
                cells = (("true" if v else "false") if type(v) is bool else v for v in cells)
            fh.write((template * len(run)) % tuple(cells))


# bounds.csv columns after the level index and the center: BoundReport
# fields, each headed by its name ("pass" for passed)
_BOUND_FIELDS = ("rho", "sigma", "ess_sup", "k_choice", "k_theorem", "margin", "eps",
                 "eps_threshold", "passed")


def _bound_row(i: int, b: BoundReport):
    return [i, *b.center, *(getattr(b, name) for name in _BOUND_FIELDS)]


def bound_csv_header(n: int):
    """Columns of _bound_row in n space dimensions.  The header needs n
    because a sweep that fails at its first level writes it with no rows."""
    return ["i", *(f"center_{axis}" for axis in AXES[:n] + "t"),
            *("pass" if name == "passed" else name for name in _BOUND_FIELDS)]


def emit_reports(report: SweepReport, out_dir) -> None:
    """Persist manifest JSON, bound/energy/varsol/cauchy CSV tables and the
    final field dump.  Deterministic bytes for a fixed config and seed."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = report.config

    emit_config(cfg, os.path.join(out_dir, "config.txt"))

    _write_json(os.path.join(out_dir, "manifest.json"), {
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
    })

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
    # json has no Infinity or NaN literal in strict mode: write them as null
    return v if math.isfinite(v) else None
