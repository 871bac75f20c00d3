"""Time mollification, interpolation inequality, geometric convergence,
absorption bound."""

import dataclasses
import math

import numpy as np
import pytest

from pqlab import (
    AbsorptionParams,
    Cylinder,
    Domain,
    GeometricIteration,
    ParameterError,
    PreconditionError,
    SpaceTimeField,
    StructureParams,
    absorption_bound,
    constant_field,
    derive,
    field_from_function,
    geometric_iterate,
    interpolation_ratio,
    lp_norm,
    mollifier_derivative_residual,
    mollify_time,
)

D_REF = derive(StructureParams(n=2, p=2.0, q=2.1, alpha=20.0, beta=20.0))


def unit_domain(nx=9, nt=128, T=1.0):
    return Domain(n=1, box=((0.0, 1.0),), T=T, nx=nx, nt=nt)


class TestMollify:
    def test_zero_field(self):
        dom = unit_domain()
        assert np.all(mollify_time(constant_field(dom, 0.0), 0.3).values == 0.0)

    def test_constant_field_closed_form(self):
        dom = unit_domain(nt=200)
        m = mollify_time(constant_field(dom, 1.0), 0.5)
        exact = 1.0 - np.exp(-(dom.T - dom.times) / 0.5)
        assert np.abs(m.values - exact[:, None]).max() < 1e-13
        assert m.values[0, 0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-13)

    def test_empty_average_at_final_time(self):
        dom = unit_domain()
        m = mollify_time(constant_field(dom, 1.0), 0.5)
        assert np.all(m.values[-1] == 0.0)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ParameterError):
            mollify_time(constant_field(unit_domain(), 1.0), 0.0)

    def test_contraction_random_fields(self, rng):
        dom = unit_domain(nt=96)
        d = D_REF
        for _ in range(30):
            v = SpaceTimeField(dom, rng.uniform(-1.0, 1.0, dom.shape))
            h = float(rng.uniform(4 * dom.dt, dom.T))
            m = mollify_time(v, h)
            cap = 1.0 + 5.0 * dom.dt / h
            for r in (1.0, 2.0, d.p_alpha, d.q_beta):
                nv = lp_norm(v, r)
                if nv > 0:
                    assert lp_norm(m, r) <= cap * nv

    def test_contraction_factor_tightens_under_refinement(self, rng):
        # the admissible inflation 5*dt/h shrinks with dt for fixed h
        h = 0.125
        worst = []
        for nt in (64, 256):
            dom = unit_domain(nt=nt)
            ratios = []
            gen = np.random.default_rng(5)
            for _ in range(20):
                v = SpaceTimeField(dom, gen.uniform(-1.0, 1.0, dom.shape))
                ratios.append(lp_norm(mollify_time(v, h), 2.0) / lp_norm(v, 2.0))
            worst.append(max(ratios))
        assert worst[1] <= max(worst[0], 1.0 + 1e-9)

    def test_convergence_monotone_in_h(self):
        dom = unit_domain(nt=256)
        v = field_from_function(dom, lambda x, t: np.sin(np.pi * x) * np.cos(2 * t) + 0.3 * x * t)
        errs = []
        for j in range(1, 7):
            m = mollify_time(v, 2.0**-j)
            errs.append(lp_norm(SpaceTimeField(dom, m.values - v.values), 2.0))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


class TestDerivativeIdentity:
    def test_zero_field(self):
        assert mollifier_derivative_residual(constant_field(unit_domain(), 0.0), 0.4) == 0.0

    def test_constant_field_second_order(self):
        res = [
            mollifier_derivative_residual(constant_field(unit_domain(nt=nt), 1.0), 0.5)
            for nt in (64, 128, 256)
        ]
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_smooth_field_second_order(self):
        res = []
        for nt in (64, 128, 256):
            dom = unit_domain(nt=nt)
            v = field_from_function(dom, lambda x, t: np.sin(np.pi * x) * np.cos(2 * t))
            res.append(mollifier_derivative_residual(v, 0.5))
        orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestInterpolation:
    def cylinder(self):
        # ball (0,1) with radius 1/2 + fuzz so the boundary nodes count as lateral
        return Cylinder((0.5, 1.0), 0.5 + 1e-9, 0.75)

    def test_zero_field_convention(self):
        dom = unit_domain(nx=33, nt=16)
        assert interpolation_ratio(constant_field(dom, 0.0), self.cylinder(), 1.9) == 0.0

    def test_sine_ratio_independent_of_depth(self):
        dom = unit_domain(nx=129, nt=64)
        v = field_from_function(dom, lambda x, t: np.sin(np.pi * x))
        ratios = [
            interpolation_ratio(v, Cylinder((0.5, 1.0), 0.5 + 1e-9, s), 1.9)
            for s in (0.3, 0.6, 0.9)
        ]
        assert max(ratios) - min(ratios) < 1e-12
        assert 0.0 < ratios[0] < math.inf

    def test_scaling_invariance(self):
        dom = unit_domain(nx=129, nt=32)
        v1 = field_from_function(dom, lambda x, t: np.sin(np.pi * x) * (1 + 0.5 * t))
        v2 = SpaceTimeField(dom, 2.0 * v1.values)
        r1 = interpolation_ratio(v1, self.cylinder(), D_REF.p_alpha)
        r2 = interpolation_ratio(v2, self.cylinder(), D_REF.p_alpha)
        assert abs(r2 / r1 - 1.0) < 1e-10

    def test_lateral_support_precondition(self):
        dom = unit_domain(nx=33, nt=16)
        v = constant_field(dom, 1.0)  # does not vanish at the ball boundary
        with pytest.raises(PreconditionError, match="vanish"):
            interpolation_ratio(v, self.cylinder(), 1.9)

    def test_empirical_constant_stable_under_refinement(self):
        maxima = []
        for nx, nt in ((65, 32), (129, 64)):
            dom = unit_domain(nx=nx, nt=nt)
            gen = np.random.default_rng(17)
            ratios = []
            for _ in range(50):
                coef = gen.normal(size=4)
                tpoly = gen.normal(size=2)

                def fn(x, t, coef=coef, tpoly=tpoly):
                    out = np.zeros_like(x)
                    for k, c in enumerate(coef, start=1):
                        out = out + c * np.sin(k * np.pi * x)
                    return out * (tpoly[0] + tpoly[1] * t)

                v = field_from_function(dom, fn)
                ratios.append(interpolation_ratio(v, Cylinder((0.5, 1.0), 0.5 + 1e-9, 0.7), D_REF.p_alpha))
            maxima.append(max(ratios))
        drift = max(maxima) / min(maxima)
        assert drift < 10.0


class TestGeometric:
    def test_zero_start(self):
        res = geometric_iterate(GeometricIteration(C=2.0, lam=3.0, kappa=0.7, X0=0.0), 10)
        assert res.converged and np.all(res.values == 0.0)

    def test_exact_threshold_trajectory(self):
        res = geometric_iterate(GeometricIteration(C=1.0, lam=2.0, kappa=1.0, X0=0.5), 60)
        expect = 0.5 ** (np.arange(len(res.values)) + 1.0)
        assert np.abs(res.values - expect).max() < 1e-14
        assert res.converged and not res.diverged

    def test_above_threshold_diverges(self):
        res = geometric_iterate(GeometricIteration(C=1.0, lam=2.0, kappa=1.0, X0=1.0), 200)
        assert res.diverged and not res.converged
        assert list(res.values[:4]) == [1.0, 1.0, 2.0, 16.0]

    def test_out_of_iterations_neither_converged_nor_diverged(self):
        # about halving from X0 = 1: 1e-12 lies far beyond 5 steps
        res = geometric_iterate(GeometricIteration(C=0.5, lam=1.01, kappa=0.01, X0=1.0), 5)
        assert not res.converged and not res.diverged
        assert len(res.values) == 6 and 0.0 < res.values[-1] < 1.0

    def test_dichotomy_random_draws(self):
        gen = np.random.default_rng(2024)
        for _ in range(50):
            g = GeometricIteration(
                C=float(gen.uniform(0.1, 10.0)),
                lam=float(gen.uniform(1.2, 4.0)),
                kappa=float(gen.uniform(0.3, 2.5)),
                X0=0.0,
            )
            g = dataclasses.replace(g, X0=float(gen.uniform(0.05, 0.95)) * g.threshold)
            assert geometric_iterate(g, 200).converged

    @pytest.mark.parametrize(
        "kwargs", [dict(C=0.0), dict(lam=1.0), dict(kappa=0.0), dict(X0=-1.0)]
    )
    def test_validation(self, kwargs):
        base = dict(C=1.0, lam=2.0, kappa=1.0, X0=0.5)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            GeometricIteration(**base)


class TestAbsorption:
    def test_pure_constant(self):
        p = AbsorptionParams(0.5, 0.0, 0.0, 0.0, 5.0, 2.0, 1.0, 0.0, 0.0, 1.0)
        assert absorption_bound(p) == 5.0

    def test_unit_gap_sums(self):
        p = AbsorptionParams(0.5, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0, 0.0, 1.0)
        assert absorption_bound(p) == 10.0

    def test_half_gap(self):
        p = AbsorptionParams(0.5, 1.0, 0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.5, 1.0)
        assert absorption_bound(p) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta=1.0),
            dict(A=-1.0),
            dict(a=1.0, b=2.0),
            dict(rho=1.0, sigma=0.5),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(theta=0.5, A=1.0, B=1.0, C=1.0, D=1.0, a=3.0, b=2.0, c=1.0, rho=0.0, sigma=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            AbsorptionParams(**base)

    def test_synthetic_hypothesis_satisfiers_obey_the_bound(self, rng):
        # build the largest f satisfying the hypothesis by backward recursion
        # on a grid, then compare f(rho) against the analytic constant
        for _ in range(5):
            theta = float(rng.uniform(0.1, 0.85))
            nums = rng.uniform(0.0, 5.0, 4)
            exps = np.sort(rng.uniform(0.1, 3.0, 3))[::-1]
            p = AbsorptionParams(theta, *nums, *exps, 0.2, 1.0)
            xs = np.linspace(p.rho, p.sigma, 240)
            gap_terms = lambda g: p.A / g ** p.a + p.B / g ** p.b + p.C / g ** p.c + p.D
            cap = 1e7
            f = np.full(xs.size, cap)
            for i in range(xs.size - 2, -1, -1):
                f[i] = min(cap, np.min(theta * f[i + 1:] + gap_terms(xs[i + 1:] - xs[i])))
            tau = (1.0 + theta ** (1.0 / p.a)) / 2.0
            c_a = (1.0 - tau) ** (-p.a) / (1.0 - theta * tau ** (-p.a))
            c_ref = max(c_a, 1.0 / (1.0 - theta))
            assert f[0] <= c_ref * absorption_bound(p) * (1.0 + 1e-9)
