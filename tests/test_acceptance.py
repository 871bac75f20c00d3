"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (pytest -s shows them); a failed
assertion is the FAIL line.  Runtime budgets are asserted on wall time.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

import pqlab as pq
from pqlab.harness import emit_reports
from conftest import TARGETS_1D, sample_gap_params


def _report(k, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {k} exceeded budget: {elapsed:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {k}: PASS ({elapsed:.2f}s) {detail}")


def degenerate_config(nx=65, nt=256, eps=0.5):
    params = pq.StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0, mu=0.0, eps=eps)
    coeffs = pq.CoefficientSpec(
        a=pq.Coefficient("power", center=(0.505,), exponent=0.04),
        b=pq.Coefficient("constant", value=1.0),
    )
    spec = pq.IntegrandSpec(params, coeffs, eps=eps)
    dom = pq.Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=nx, nt=nt)
    g = pq.BoundaryDatum(kind="profile", profile="sin", amplitude=0.8)
    return pq.SolveConfig(dom, spec, g)


def test_criterion_1_exponent_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    tol = 1e-12
    for _ in range(1000):
        d = pq.derive(sample_gap_params(rng))
        chain = (
            d.gamma,
            d.gamma / d.beta_conj,
            d.p_alpha / (d.p_alpha + 1.0 - d.q),
            d.p / (d.p + 1.0 - d.q),
            d.q,
            2.0,
        )
        for hi, lo in zip(chain, chain[1:]):
            assert hi >= lo - tol
        assert d.gamma < d.m
        assert d.kappa > (d.q - d.p) / (d.p + 1.0 - d.q) - tol
        assert min(d.theta1, d.theta2, d.theta3) > 0
        assert abs(d.theta3 * (d.m - d.gamma) * (1.0 + d.kappa) - d.kappa) <= tol
    _report(1, time.perf_counter() - start, 1.0, "1000 gap-satisfying tuples: chain, bounds, identity")


def test_criterion_2_reference_tuple():
    start = time.perf_counter()
    d = pq.derive(pq.StructureParams(n=2, p=2.0, q=2.1, alpha=20.0, beta=20.0))
    assert abs(d.p_alpha - 40.0 / 21.0) <= 1e-12
    assert abs(d.q_beta - 42.0 / 19.0) <= 1e-12
    assert abs(d.gamma - 400.0 / 149.0) <= 1e-12
    assert abs(d.m - 80.0 / 21.0) <= 1e-12
    assert abs(d.kappa - 109.0 / 189.0) <= 1e-12
    _report(2, time.perf_counter() - start, 1.0, "p_a=40/21 q_b=42/19 gamma=400/149 m=80/21 kappa=109/189")


def test_criterion_3_mollifier():
    start = time.perf_counter()
    dom = pq.Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=128)
    h = 0.5
    m = pq.mollify_time(pq.constant_field(dom, 1.0), h)
    exact = 1.0 - np.exp(-(dom.T - dom.times) / h)
    assert np.abs(m.values - exact[:, None]).max() <= 1e-10

    d = pq.derive(pq.StructureParams(n=2, p=2.0, q=2.1, alpha=20.0, beta=20.0))
    rng = np.random.default_rng(303)
    for _ in range(100):
        v = pq.SpaceTimeField(dom, rng.uniform(-1.0, 1.0, dom.shape))
        hh = float(rng.uniform(4 * dom.dt, dom.T))
        cap = 1.0 + 5.0 * dom.dt / hh
        mm = pq.mollify_time(v, hh)
        for r in (1.0, 2.0, d.p_alpha, d.q_beta):
            nv = pq.lp_norm(v, r)
            if nv > 0:
                assert pq.lp_norm(mm, r) <= cap * nv

    residuals = []
    for nt in (64, 128, 256):
        dom_j = pq.Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=nt)
        v = pq.field_from_function(dom_j, lambda x, t: np.sin(np.pi * x) * np.cos(2 * t))
        residuals.append(pq.mollifier_derivative_residual(v, h))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    _report(3, time.perf_counter() - start, 10.0,
            f"closed form, contraction on 100 fields, identity order {min(orders):.2f}")


def test_criterion_4_geometric_convergence():
    start = time.perf_counter()
    res = pq.geometric_iterate(pq.GeometricIteration(C=1.0, lam=2.0, kappa=1.0, X0=0.5), 200)
    expect = 0.5 ** (np.arange(len(res.values)) + 1.0)
    assert np.abs(res.values - expect).max() <= 1e-14
    assert res.converged

    rng = np.random.default_rng(404)
    for _ in range(200):
        g = pq.GeometricIteration(
            C=float(rng.uniform(0.1, 10.0)),
            lam=float(rng.uniform(1.2, 4.0)),
            kappa=float(rng.uniform(0.3, 2.5)),
            X0=0.0,
        )
        g = dataclasses.replace(g, X0=float(rng.uniform(0.05, 0.95)) * g.threshold)
        r = pq.geometric_iterate(g, 200)
        assert r.converged and r.values[-1] < 1e-12
    _report(4, time.perf_counter() - start, 5.0, "exact trajectory + 200 below-threshold draws")


def test_criterion_5_solver_oracle():
    start = time.perf_counter()
    params = pq.StructureParams(n=1, p=2.0, q=2.0, mu=0.0, eps=0.0)
    coeffs = pq.CoefficientSpec(
        a=pq.Coefficient("constant", value=0.5), b=pq.Coefficient("constant", value=0.5)
    )
    spec = pq.IntegrandSpec(params, coeffs, eps=0.0)
    g = pq.BoundaryDatum(kind="profile", profile="sin")

    dom = pq.Domain(n=1, box=((0.0, 1.0),), T=0.1, nx=65, nt=400)
    u, _ = pq.solve(pq.SolveConfig(dom, spec, g))
    exact = np.exp(-np.pi**2 * dom.times)[:, None] * np.sin(np.pi * dom.axes[0])[None, :]
    err = float(np.abs(u.values - exact).max())
    assert err < 5e-3

    errs = []
    for nt in (100, 200, 400):
        dom_j = pq.Domain(n=1, box=((0.0, 1.0),), T=0.1, nx=129, nt=nt)
        u_j, _ = pq.solve(pq.SolveConfig(dom_j, spec, g))
        ex = np.exp(-np.pi**2 * dom_j.times)[:, None] * np.sin(np.pi * dom_j.axes[0])[None, :]
        errs.append(float(np.abs(u_j.values - ex).max()))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9
    _report(5, time.perf_counter() - start, 60.0,
            f"65x400 error {err:.2e} < 5e-3, temporal orders {orders[0]:.2f}/{orders[1]:.2f}")


def test_criterion_6_flux_integrand_consistency():
    start = time.perf_counter()
    params = pq.StructureParams(n=2, p=2.0, q=2.05, alpha=8.0, beta=12.0, mu=0.1, eps=0.2)
    spec = pq.IntegrandSpec(
        params,
        pq.CoefficientSpec(a=pq.Coefficient("constant", value=1.0), b=pq.Coefficient("constant", value=1.0)),
        eps=0.2,
    )
    rng = np.random.default_rng(606)
    for _ in range(100):
        xi = rng.normal(size=2) * 10 ** rng.uniform(-2, 2)
        a, b = rng.uniform(0.1, 3.0, 2)
        fl = pq.flux(xi, a, b, spec)
        h = 6e-6 * max(1.0, float(np.linalg.norm(xi)))
        fd = np.zeros(2)
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd[c] = (pq.integrand(xi + e, a, b, spec) - pq.integrand(xi - e, a, b, spec)) / (2 * h)
        assert np.linalg.norm(fd - fl) <= 1e-6 * max(np.linalg.norm(fl), 1e-300)

    p, mu, qb = params.p, params.mu, spec.d.q_beta
    for _ in range(200):
        xi1 = rng.normal(size=2) * 10 ** rng.uniform(-3, 3)
        xi2 = rng.normal(size=2) * 10 ** rng.uniform(-3, 3)
        a, b = rng.uniform(0.0, 3.0, 2)
        dflux = pq.flux(xi1, a, b, spec) - pq.flux(xi2, a, b, spec)
        assert float(np.dot(dflux, xi1 - xi2)) >= -1e-14
        s = float(np.dot(xi1, xi1))
        lower = a * (mu**2 + s) ** ((p - 2) / 2) * s + qb * spec.eps * s ** (qb / 2)
        assert float(np.dot(pq.flux(xi1, a, b, spec), xi1)) - lower >= -1e-14
    _report(6, time.perf_counter() - start, 5.0, "FD gradient 1e-6, monotone, coercive")


def test_criterion_7_caccioppoli_and_sup_bound():
    start = time.perf_counter()
    recorded = []
    worst_cmin = 0.0
    for nx, nt in ((65, 256), (129, 512)):
        cfg = degenerate_config(nx=nx, nt=nt)
        u, _ = pq.solve(cfg)
        d = cfg.spec.d
        a_f = cfg.spec.coeffs.a.sample(cfg.domain)
        b_f = cfg.spec.coeffs.b.sample(cfg.domain)
        needed = 0.0
        for center, rho in TARGETS_1D:
            sigma = rho**d.time_exponent
            rep = pq.verify_sup_bound(u, center, rho, sigma, cfg.spec, c_cal=1.0)

            # threshold bookkeeping must match the explicit formula exactly
            s = d.time_exponent
            independent = (rep.norms.norm_a ** ((d.q - 1.0) / d.p)) ** s * rep.norms.norm_b**s * (
                rep.k_choice / rho
            ) ** (s - d.q_beta)
            assert rep.eps_threshold == pytest.approx(independent, rel=1e-12)
            assert rep.eps_ok == (cfg.spec.eps <= rep.eps_threshold)

            needed = max(needed, rep.ess_sup / rep.k_choice)
            inner = pq.Cylinder(center, rho, sigma)
            outer = pq.Cylinder(center, 2 * rho, 2 * sigma)
            norms = pq.coefficient_norms(a_f, b_f, cfg.spec.params.alpha, cfg.spec.params.beta, outer)
            for level in (0.0, 0.5 * rep.k_choice):
                sides = pq.caccioppoli_sides(
                    u, level, inner, outer, norms, d, mu=cfg.spec.params.mu, eps=cfg.spec.eps
                )
                assert sides.c_min <= 1e3
                worst_cmin = max(worst_cmin, sides.c_min)
        recorded.append(needed)
        # ess sup <= c_cal * k holds with the run-recorded calibration
        for center, rho in TARGETS_1D:
            sigma = rho**d.time_exponent
            rep = pq.verify_sup_bound(u, center, rho, sigma, cfg.spec, c_cal=1.0)
            assert rep.ess_sup <= needed * rep.k_choice * (1.0 + 1e-12)

    drift = max(recorded) / min(recorded)
    assert drift < 10.0
    _report(7, time.perf_counter() - start, 600.0,
            f"c_min<=1e3 (worst {worst_cmin:.3f}), c_cal drift {drift:.3f} < 10, eps bookkeeping exact")


def test_criterion_8_energy_bound():
    start = time.perf_counter()
    data = [
        pq.BoundaryDatum(kind="constant", value=0.7),
        pq.BoundaryDatum(kind="profile", profile="sin", amplitude=0.8),
        pq.BoundaryDatum(kind="profile", profile="bump", amplitude=0.5),
        pq.BoundaryDatum(kind="separable", profile="sin", amplitude=0.6, psi=(1.0, -0.5)),
        pq.BoundaryDatum(kind="separable", profile="bump", amplitude=0.4, psi=(1.0, 0.0, 0.25)),
    ]
    constants = {i: [] for i in range(len(data))}
    for nx, nt in ((33, 64), (65, 128)):
        base = degenerate_config(nx=nx, nt=nt, eps=0.25)
        for i, g in enumerate(data):
            cfg = pq.SolveConfig(base.domain, base.spec, g)
            u, _ = pq.solve(cfg)
            e = pq.energy_report(u, cfg)
            denom = e.m_g + e.eps_dg_term
            assert denom > 0
            c_emp = e.lhs_total / denom
            assert math.isfinite(c_emp)
            constants[i].append(c_emp)
            if not g.time_dependent:
                assert e.dual_term == 0.0
    for i, pair in constants.items():
        drift = max(pair) / max(min(pair), 1e-300)
        assert drift < 10.0, f"datum {i} drifted by {drift}"
    worst = max(max(v) for v in constants.values())
    _report(8, time.perf_counter() - start, 300.0,
            f"5 data, c_emp stable under refinement (max {worst:.3f}), dual=0 for static data")


def test_criterion_9_variational_inequality():
    start = time.perf_counter()
    cfg = degenerate_config(nx=65, nt=256)
    sweep_cfg = pq.ExperimentConfig(
        params=cfg.spec.params,
        domain=cfg.domain,
        coeffs=cfg.spec.coeffs,
        g=cfg.g,
        eps0=0.5,
        levels=6,
        targets=TARGETS_1D,
    )
    report = pq.run_sweep(sweep_cfg)
    last = report.levels[-1]
    scfg = sweep_cfg.solve_config(last.eps)
    maps = pq.comparison_maps(scfg)
    assert len(maps) >= 5
    worst = math.inf
    for v in maps:
        gaps, scales = pq.variational_gap_curve(last.field, v, scfg, eps=0.0)
        normalized = gaps / np.maximum(scales, 1e-300)
        worst = min(worst, float(np.min(normalized)))
        assert np.min(gaps + 1e-6 * scales) >= 0.0
    _report(9, time.perf_counter() - start, 300.0,
            f"{len(maps)} comparison maps, all grid times, min normalized gap {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    cfg = pq.ExperimentConfig(
        params=pq.StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0, mu=0.0, eps=0.25),
        domain=pq.Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=33, nt=32),
        coeffs=pq.CoefficientSpec(
            a=pq.Coefficient("power", center=(0.505,), exponent=0.04),
            b=pq.Coefficient("constant", value=1.0),
        ),
        g=pq.BoundaryDatum(kind="profile", profile="sin", amplitude=0.8),
        eps0=0.25,
        levels=3,
        targets=(((0.5, 0.12), 0.2),),
        seed=99,
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    emit_reports(pq.run_sweep(cfg), out1)
    emit_reports(pq.run_sweep(cfg), out2)
    names = sorted(os.listdir(out1))
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    _report(10, time.perf_counter() - start, 60.0, f"byte-identical reports ({len(names)} files)")
