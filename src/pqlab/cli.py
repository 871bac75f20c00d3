"""Command-line entry points.

Subcommands: derive, solve, verify-bound, trace-degiorgi, check-caccioppoli,
check-energy, check-varsol, lemma, sweep.  Exit codes: 0 pass, 1
verification fail, 2 solver failure, 3 config/parameter error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import degiorgi, harness, lemmas
from .errors import ConfigError, DivergenceError, ParameterError, StepFailure
from .exponents import StructureParams, check_gap, derive
from .grid import (
    Cylinder,
    Domain,
    constant_field,
    field_from_function,
    save_field_csv,
    save_field_dump,
)
from .solver import ENERGY_COLUMNS, comparison_maps, energy_report, solve, variational_gap_curves

_VAR_TOL = 1e-6
_CACCIOPPOLI_CAP = 1e3


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# override flag of a config command -> (its type, the ExperimentConfig field)
_OVERRIDES = {"out": (str, "out_dir"), "seed": (int, "seed"), "calibration": (float, "c_cal")}


def _load(args) -> harness.ExperimentConfig:
    """The config file with the command's override flags applied."""
    cfg = harness.load_config(args.config)
    updates = {name: getattr(args, flag) for flag, (_, name) in _OVERRIDES.items()
               if getattr(args, flag, None) not in (None, "")}
    return dataclasses.replace(cfg, **updates)


def _solved(args):
    """(config, solve config, solved field, solve stats) of a config command."""
    cfg = _load(args)
    scfg = cfg.solve_config()
    return cfg, scfg, *solve(scfg)


def _write_table(args, cfg, name, header, rows) -> str:
    """Write a CSV table to --out, else to name in the output directory."""
    out = args.out or os.path.join(cfg.out_dir, name)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    harness._write_csv(out, header, rows)
    return out


def cmd_derive(args) -> int:
    params = StructureParams(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(StructureParams)})
    gap = check_gap(params)
    record = {"params": dataclasses.asdict(params), "gap": dataclasses.asdict(gap)}
    if not gap.ok:
        _print_json(record)
        return 3
    d = derive(params)
    record["exponents"] = {k: v for k, v in dataclasses.asdict(d).items()
                           if k not in record["params"]}
    record["chain"] = {
        "gamma": d.gamma,
        "gamma_over_beta_conj": d.gamma / d.beta_conj,
        "p_alpha_ratio": d.p_alpha / (d.p_alpha + 1.0 - d.q),
        "p_ratio": d.p / (d.p + 1.0 - d.q),
        "q": d.q,
        "lower": 2.0,
    }
    _print_json(record)
    return 0


def _lemma_mollify() -> list:
    dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=256)
    h = 0.5
    ones = constant_field(dom, 1.0)
    m = lemmas.mollify_time(ones, h)
    exact = 1.0 - np.exp(-(dom.T - dom.times) / h)
    err = float(np.abs(m.values - exact[:, None]).max())
    verdicts = [{"case": "mollify-constant", "max_error": err, "pass": err < 1e-10}]

    smooth = lambda x, t: np.sin(np.pi * x) * np.cos(2.0 * t)
    res = []
    for nt in (128, 256):
        dom_j = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=nt)
        res.append(lemmas.mollifier_derivative_residual(field_from_function(dom_j, smooth), h))
    order = math.log2(res[0] / res[1])
    verdicts.append({"case": "mollify-derivative-order", "order": order, "pass": order >= 1.8})
    return verdicts


def _lemma_interp() -> list:
    dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=129, nt=64)
    v = field_from_function(dom, lambda x, t: np.sin(np.pi * x))
    cyl = Cylinder((0.5, 1.0), rho=0.5 + 1e-9, sigma=0.75)
    p_alpha = 1.9
    r1 = lemmas.interpolation_ratio(v, cyl, p_alpha)
    v2 = field_from_function(dom, lambda x, t: 2.0 * np.sin(np.pi * x))
    r2 = lemmas.interpolation_ratio(v2, cyl, p_alpha)
    rel = abs(r2 / r1 - 1.0)
    return [
        {"case": "interp-finite", "ratio": r1, "pass": 0.0 < r1 < math.inf},
        {"case": "interp-scaling-invariance", "rel_change": rel, "pass": rel < 1e-10},
    ]


def _lemma_geom() -> list:
    g = lemmas.GeometricIteration(C=1.0, lam=2.0, kappa=1.0, X0=0.5)
    res = lemmas.geometric_iterate(g, max_iter=60)
    expect = 2.0 ** -(np.arange(len(res.values)) + 1.0)
    expect[0] = 0.5
    err = float(np.abs(res.values - expect).max())
    verdicts = [
        {"case": "geom-exact-trajectory", "max_error": err,
         "pass": err < 1e-14 and res.converged}
    ]
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        c = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(1.2, 4.0))
        kap = float(rng.uniform(0.3, 2.5))
        g = lemmas.GeometricIteration(C=c, lam=lam, kappa=kap, X0=0.0)
        g = dataclasses.replace(g, X0=float(rng.uniform(0.05, 0.95)) * g.threshold)
        ok &= lemmas.geometric_iterate(g, max_iter=200).converged
    diverged = lemmas.geometric_iterate(
        lemmas.GeometricIteration(C=1.0, lam=2.0, kappa=1.0, X0=1.0), max_iter=200
    ).diverged
    verdicts.append({"case": "geom-dichotomy", "pass": bool(ok and diverged)})
    return verdicts


def _lemma_absorb() -> list:
    cases = [
        (lemmas.AbsorptionParams(0.5, 0, 0, 0, 5.0, 2, 1, 0, 0.0, 1.0), 5.0),
        (lemmas.AbsorptionParams(0.5, 1, 2, 3, 4, 3, 2, 1, 0.0, 1.0), 10.0),
        (lemmas.AbsorptionParams(0.5, 1, 0, 0, 0, 2, 1, 0, 0.5, 1.0), 4.0),
    ]
    verdicts = []
    for i, (params, expect) in enumerate(cases):
        got = lemmas.absorption_bound(params)
        verdicts.append(
            {"case": f"absorb-{i}", "value": got, "pass": abs(got - expect) < 1e-12}
        )
    return verdicts


def cmd_lemma(args) -> int:
    runners = {
        "mollify": _lemma_mollify,
        "interp": _lemma_interp,
        "geom": _lemma_geom,
        "absorb": _lemma_absorb,
    }
    verdicts = runners[args.case]()
    _print_json(verdicts)
    return 0 if all(v["pass"] for v in verdicts) else 1


def cmd_solve(args) -> int:
    cfg, scfg, u, stats = _solved(args)
    prefix = args.out or "solution"
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_field_dump(u, prefix + ".pqf")
    save_field_csv(u, prefix + ".csv")
    harness._write_json(prefix + "_manifest.json", {
        "eps": scfg.spec.eps,
        "iterations": stats.iterations,
        "max_residual": float(max(stats.residuals)),
        "total_iterations": stats.total_iterations,
        "nx": cfg.domain.nx,
        "nt": cfg.domain.nt,
    })
    harness._write_json(prefix + "_energy.json",
                        dict(zip(ENERGY_COLUMNS, energy_report(u, scfg).row())))
    print(f"solved: {prefix}.pqf ({stats.total_iterations} nonlinear iterations)")
    return 0


def cmd_verify_bound(args) -> int:
    cfg, _, u, _ = _solved(args)
    reports = harness.target_bounds(cfg, u)
    rows = [harness._bound_row(0, b) for b in reports]
    out = _write_table(args, cfg, "bounds.csv", harness.bound_csv_header(cfg.domain.n), rows)
    print(f"{sum(b.passed for b in reports)}/{len(reports)} targets pass; report: {out}")
    return 0 if all(b.passed for b in reports) else 1


def cmd_trace(args) -> int:
    cfg, scfg, u, _ = _solved(args)
    rows = []
    summaries = []
    monotone = True
    for ti, rep in enumerate(harness.target_bounds(cfg, u)):
        k = max(rep.k_choice, 1e-12)
        tr = degiorgi.trace(u, Cylinder(rep.center, 2 * rep.rho, 2 * rep.sigma), k, scfg.spec.d)
        for i in range(len(tr.x_i)):
            rows.append([
                ti, i, tr.rho_i[i], tr.sigma_i[i], tr.k_i[i], tr.x_i[i],
                tr.c_i[i] if i < len(tr.c_i) else math.nan,
            ])
        monotone &= tr.monotone
        summaries.append({
            "target": ti,
            "level": k,
            "lambda_fit": tr.lambda_fit,
            "c_fit": tr.c_fit,
            "threshold": tr.threshold,
            "threshold_ok": tr.threshold_ok,
            "truncated": tr.truncated,
        })
    _write_table(args, cfg, "trace.csv",
                 ["target", "i", "rho_i", "sigma_i", "k_i", "X_i", "C_i"], rows)
    _print_json(summaries)
    return 0 if monotone else 1


def cmd_check_caccioppoli(args) -> int:
    cfg, scfg, u, _ = _solved(args)
    rows = []
    worst = 0.0
    for ti, rep in enumerate(harness.target_bounds(cfg, u)):
        inner = Cylinder(rep.center, rep.rho, rep.sigma)
        outer = Cylinder(rep.center, 2 * rep.rho, 2 * rep.sigma)
        for k in (0.0, 0.5 * rep.k_choice):
            sides = degiorgi.caccioppoli_sides(
                u, k, inner, outer, rep.norms, scfg.spec.d,
                mu=cfg.params.mu, eps=scfg.spec.eps,
            )
            worst = max(worst, sides.c_min)
            rows.append([ti, k, sides.lhs, *sides.rhs_terms, sides.c_min])
    _write_table(args, cfg, "caccioppoli.csv", ["target", "level", "lhs", "rhs_mu",
                 "rhs_hoelder", "rhs_eps", "rhs_time", "c_min"], rows)
    print(f"worst empirical constant: {worst:.6g} (cap {_CACCIOPPOLI_CAP:g})")
    return 0 if worst <= _CACCIOPPOLI_CAP else 1


def cmd_check_energy(args) -> int:
    _, scfg, u, _ = _solved(args)
    e = energy_report(u, scfg)
    record = dict(zip(ENERGY_COLUMNS, e.row()))
    record["pass"] = bool(math.isfinite(e.empirical_constant))
    _print_json(record)
    return 0 if record["pass"] else 1


def cmd_check_varsol(args) -> int:
    # a single solve is checked against the integrand it actually minimized
    # (its own eps); the unregularized inequality is the sweep's business
    _, scfg, u, _ = _solved(args)
    records = []
    ok = True
    maps = comparison_maps(scfg)
    for v, (gaps, scales) in zip(maps, variational_gap_curves(u, maps, scfg, eps=scfg.spec.eps)):
        normalized = gaps / np.maximum(scales, 1e-300)
        passed = bool(np.min(normalized) >= -_VAR_TOL)
        ok &= passed
        records.append({
            "map": v.name,
            "min_gap": float(np.min(gaps)),
            "min_normalized_gap": float(np.min(normalized)),
            "pass": passed,
        })
    _print_json(records)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    cfg = _load(args)
    report = harness.run_sweep(cfg)
    harness.emit_reports(report, cfg.out_dir)
    if report.failure is not None:
        print(
            f"sweep aborted after {len(report.levels)} levels: {report.failure}; "
            f"partial reports in {cfg.out_dir}",
            file=sys.stderr,
        )
        return 2
    ok = report.all_bounds_pass and report.min_normalized_gap >= -_VAR_TOL
    print(
        f"sweep: {len(report.levels)} levels, i_o = {report.i_o}, "
        f"bounds {'pass' if report.all_bounds_pass else 'FAIL'}, "
        f"min normalized gap {report.min_normalized_gap:.3e}; reports in {cfg.out_dir}"
    )
    return 0 if ok else 1


@functools.cache  # one parser per process: main parses with it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqlab",
        description="Numerical laboratory for degenerate parabolic p,q-growth problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print derived exponents as JSON")  # one flag per field
    for f in dataclasses.fields(StructureParams):
        required = f.default is dataclasses.MISSING
        p.add_argument(f"--{f.name}", type={"int": int, "float": float}[f.type],
                       required=required, default=None if required else f.default)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("lemma", help="run built-in lemma verdict cases")
    p.add_argument("case", choices=["mollify", "interp", "geom", "absorb"])
    p.set_defaults(func=cmd_lemma)

    # each config command takes the override flags it reads
    for name, fn, flags in (
        ("solve", cmd_solve, ("out",)),
        ("verify-bound", cmd_verify_bound, ("out", "calibration")),
        ("trace-degiorgi", cmd_trace, ("out", "calibration")),
        ("check-caccioppoli", cmd_check_caccioppoli, ("out", "calibration")),
        ("check-energy", cmd_check_energy, ()),
        ("check-varsol", cmd_check_varsol, ()),
        ("sweep", cmd_sweep, ("out", "seed", "calibration")),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag in flags:
            p.add_argument(f"--{flag}", type=_OVERRIDES[flag][0], default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 3
    except (StepFailure, DivergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
