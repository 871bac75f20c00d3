"""Truncation energy inequality, level formulas, iteration traces and
sup-bound verification."""

import math
import re
import warnings

import numpy as np
import pytest

from pqlab import (
    BoundaryDatum,
    Coefficient,
    CoefficientSpec,
    ComparisonMap,
    Cylinder,
    DeGiorgiTrace,
    Domain,
    ExperimentConfig,
    IntegrandSpec,
    ParameterError,
    RegionError,
    SolveConfig,
    SpaceTimeField,
    StructureParams,
    caccioppoli_sides,
    choose_level_k,
    coefficient_norms,
    constant_field,
    derive,
    field_from_function,
    load_config,
    solve,
    theorem_bound,
    trace,
    variational_gap_curve,
    verify_sup_bound,
)
from pqlab import cli
from pqlab.degiorgi import _level_terms
from pqlab.grid import _resolve

from conftest import TARGETS_1D, TARGETS_2D
from test_harness import SWEEP_CFG
from test_solver import _probe_config_2d, degenerate_config

D_REF = derive(StructureParams(n=2, p=2.0, q=2.1, alpha=20.0, beta=20.0))
D_1D = derive(StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0))
# 1.67e-4 inside the gap limit q < p + 2/(n + 2) = 8/3 of alpha = beta = inf
D_NEAR = derive(StructureParams(n=1, p=2.0, q=2.6665, alpha=math.inf, beta=math.inf))
# q - p = 1e-4: term5's AB**(1/(q-p)) and term3's power have exponents near 1e4
D_CLOSE = derive(StructureParams(n=1, p=2.0, q=2.0001, alpha=20.0, beta=20.0, eps=0.5))


def big_domain(nx=81, nt=80):
    return Domain(n=1, box=((-3.0, 3.0),), T=2.5, nx=nx, nt=nt)


def unit_norms(dom, region):
    a = constant_field(dom, 1.0)
    b = constant_field(dom, 1.0)
    return coefficient_norms(a, b, 20.0, 20.0, region)


class TestCaccioppoli:
    def setup_pair(self, dom):
        inner = Cylinder((0.0, 2.0), 0.8, 0.5)
        outer = Cylinder((0.0, 2.0), 1.6, 1.0)
        return inner, outer

    def test_truncation_vanishes(self):
        dom = big_domain()
        inner, outer = self.setup_pair(dom)
        norms = unit_norms(dom, outer)
        sides = caccioppoli_sides(constant_field(dom, 1.0), 5.0, inner, outer, norms, D_1D)
        assert sides.lhs == 0.0 and sides.rhs == 0.0 and sides.c_min == 0.0

    def test_constant_excess_closed_form(self):
        # u = k + 1: truncation is 1, gradient vanishes; every integral is a
        # region measure, computed here independently from the node masks
        dom = big_domain()
        inner, outer = self.setup_pair(dom)
        norms = unit_norms(dom, outer)
        mu, eps = 0.3, 0.0
        sides = caccioppoli_sides(
            constant_field(dom, 3.0), 2.0, inner, outer, norms, D_1D, mu=mu, eps=eps
        )

        xs, ts = dom.axes[0], dom.times
        ball_in = np.abs(xs - 0.0) < inner.rho
        cell = dom.dx[0] * dom.dt
        meas_out = (
            int(np.sum(np.abs(xs) < outer.rho))
            * int(np.sum((ts > 2.0 - outer.sigma + 1e-12) & (ts <= 2.0 + 1e-12)))
            * cell
        )
        ball_measure = int(ball_in.sum()) * dom.dx[0]

        assert sides.lhs_terms[0] == pytest.approx(ball_measure, rel=1e-12)
        assert sides.lhs_terms[1] == 0.0 and sides.lhs_terms[2] == 0.0
        dr = outer.rho - inner.rho
        t_mu = mu ** (D_1D.q - 1.0) / dr * norms.raw_b * meas_out ** (1.0 / D_1D.beta_conj)
        t_hoe = (
            norms.raw_b * norms.raw_a ** ((D_1D.q - 1.0) / D_1D.p) / dr
            * meas_out ** (1.0 / D_1D.gamma)
        ) ** D_1D.time_exponent
        t_time = meas_out / (outer.sigma - inner.sigma)
        assert sides.rhs_terms[0] == pytest.approx(t_mu, rel=1e-12)
        assert sides.rhs_terms[1] == pytest.approx(t_hoe, rel=1e-12)
        assert sides.rhs_terms[2] == 0.0
        assert sides.rhs_terms[3] == pytest.approx(t_time, rel=1e-12)
        assert sides.c_min == pytest.approx(sides.lhs / sides.rhs, rel=1e-14)

    def test_eps_terms_zero_when_unregularized(self):
        dom = big_domain()
        inner, outer = self.setup_pair(dom)
        norms = unit_norms(dom, outer)
        f = SpaceTimeField(dom, np.random.default_rng(0).uniform(0, 2, dom.shape))
        sides = caccioppoli_sides(f, 0.5, inner, outer, norms, D_1D, eps=0.0)
        assert sides.lhs_terms[2] == 0.0 and sides.rhs_terms[2] == 0.0

    def test_geometry_validation(self):
        dom = big_domain()
        norms = unit_norms(dom, None)
        u = constant_field(dom, 1.0)
        with pytest.raises(ParameterError, match="concentric"):
            caccioppoli_sides(u, 0.0, Cylinder((0.0, 2.0), 0.5, 0.5),
                              Cylinder((0.1, 2.0), 1.0, 1.0), norms, D_1D)
        with pytest.raises(ParameterError, match="contain"):
            caccioppoli_sides(u, 0.0, Cylinder((0.0, 2.0), 1.0, 0.5),
                              Cylinder((0.0, 2.0), 0.9, 1.0), norms, D_1D)
        with pytest.raises(RegionError):
            caccioppoli_sides(u, 0.0, Cylinder((0.0, 0.5), 0.5, 0.4),
                              Cylinder((0.0, 0.5), 4.0, 0.45), norms, D_1D)


class TestLevelFormulas:
    def test_zero_data_unit_inputs(self):
        k = choose_level_k(0.0, 1.0, 1.0, 1.0, 1.0, 0.0, D_REF)
        assert k == 1.0  # max{0, 0, 1, 0, 1}

    def test_unit_data(self):
        for c_cal in (0.5, 1.0, 2.0):
            k = choose_level_k(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, D_REF, c_cal=c_cal)
            assert k == max(c_cal, 1.0)

    def test_homogeneity_of_data_term(self):
        # with a large calibration the first term dominates and scales as
        # the data to the power m*theta3
        base = choose_level_k(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, D_REF, c_cal=100.0)
        scaled = choose_level_k(2.0**D_REF.m, 1.0, 1.0, 1.0, 1.0, 0.0, D_REF, c_cal=100.0)
        assert scaled / base == pytest.approx(2.0 ** (D_REF.m * D_REF.theta3), rel=1e-12)
        assert D_REF.theta3 * (D_REF.m - D_REF.gamma) * (1.0 + D_REF.kappa) == pytest.approx(
            D_REF.kappa, abs=1e-15
        )

    def test_q_equals_p_drops_unit_term(self):
        d = derive(StructureParams(n=2, p=2.0, q=2.0, alpha=20.0, beta=20.0))
        k = choose_level_k(0.0, 2.0, 2.0, 1.0, 1.0, 0.0, d)
        assert math.isfinite(k)

    def test_degenerate_exponent_intrinsic_convention(self):
        # p = q = 2: the inverse-scaling exponent is 1/0; on intrinsic
        # cylinders with unit norms the base is 1 and the term is 1
        d = derive(StructureParams(n=2, p=2.0, q=2.0, alpha=20.0, beta=20.0))
        k = choose_level_k(0.0, 1.0, 1.0, 0.5, 0.25, 0.0, d)
        assert k == 1.0

    def test_mu_term(self):
        k = choose_level_k(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, D_REF)
        assert k >= 1.0  # the mu term contributes rho*mu^{p+1-q}/(AB) = 1

    def test_theorem_bound_zero_data(self):
        d = D_REF
        rho = 1.0
        sigma = rho**d.time_exponent
        assert theorem_bound(0.0, rho, sigma, d) == 1.0  # max{0, 0, 1, rho}
        assert theorem_bound(0.0, 0.5, 0.5**d.time_exponent, d) == 1.0

    def test_theorem_bound_monotone_in_data(self):
        d = D_REF
        vals = [theorem_bound(m, 0.5, 0.5**d.time_exponent, d) for m in (0.0, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_near_the_gap_limit_a_power_past_float_range_is_no_error(self):
        # 1.67e-4 inside the gap limit theta1 = theta3 = 222 and theta2 = 667:
        # at rho = 0.2 the factors (AB/rho**(q-p))**theta2 and
        # rho**(-(q-p) theta2) lie past float range while term1 does not,
        # because mean**theta3 brings it back, or makes it 0 at mean 0
        d = D_NEAR
        rho = 0.2
        sigma = rho**d.time_exponent
        with pytest.raises(OverflowError):
            (1.0 / rho ** (d.q - d.p)) ** d.theta2
        assert _level_terms(0.0, 1.0, 1.0, rho, sigma, 0.0, d, 1.0)[0] == 0.0
        assert theorem_bound(0.0, rho, sigma, d) == 1.0  # max{0, 0, 1, rho}
        mean = 0.1
        log_term1 = (d.theta1 * math.log(sigma * (1.0 / rho) ** d.time_exponent)
                     + d.theta2 * math.log(1.0 / rho ** (d.q - d.p))
                     + d.theta3 * math.log(mean))
        term1 = _level_terms(mean, 1.0, 1.0, rho, sigma, 0.0, d, 1.0)[0]
        assert 0.0 < term1 < math.inf
        assert math.log(term1) == pytest.approx(log_term1, rel=1e-12)
        assert choose_level_k(mean, 1.0, 1.0, rho, sigma, 0.0, d) == term1
        # the norms are 1, so the level's term1 is the theorem's
        assert theorem_bound(mean, rho, sigma, d) == pytest.approx(term1, rel=1e-10)
        # past float range the level is infinite
        assert choose_level_k(1e10, 1.0, 1.0, rho, sigma, 0.0, d) == math.inf
        assert theorem_bound(1e10, rho, sigma, d) == math.inf

    def test_near_q_equals_p_a_power_past_float_range_is_no_error(self):
        # at rho = 0.2 and sigma = 0.04: with AB = 2, AB**1e4 lies past float
        # range (term5 = rho / AB**1e4 is 0) and term3's base 0.25 to the
        # power 5e3 below it (0); with AB = 0.5, AB**1e4 underflows to 0,
        # where term5 is rho AB**-1e4, and term3's base 4 overflows: both inf
        d, rho, sigma = D_CLOSE, 0.2, 0.04
        e = 1.0 / (d.q - d.p)
        with pytest.raises(OverflowError):
            2.0**e
        terms = _level_terms(0.1, 1.0, 2.0, rho, sigma, 0.0, d, 1.0)
        assert terms[2] == terms[4] == 0.0
        assert choose_level_k(0.1, 1.0, 2.0, rho, sigma, 0.0, d) == max(terms[:2]) > 0.0
        terms = _level_terms(0.1, 1.0, 0.5, rho, sigma, 0.0, d, 1.0)
        assert terms[2] == terms[4] == math.inf
        assert choose_level_k(0.1, 1.0, 0.5, rho, sigma, 0.0, d) == math.inf
        # AB = 0.92 at rho = 1e-65: AB**1e4 underflows to 0 but term5 is finite
        term5 = _level_terms(0.1, 1.0, 0.92, 1e-65, sigma, 0.0, d, 1.0)[4]
        assert 0.92**e == 0.0 and 1e290 < term5 < math.inf
        assert math.log(term5) == pytest.approx(math.log(1e-65) - e * math.log(0.92), rel=1e-12)

    @pytest.mark.parametrize("norm_b", [0.5, 0.9, 1.0, 1.3])
    @pytest.mark.parametrize("d", [D_1D, D_REF, D_NEAR], ids=["1d", "2d", "near"])
    def test_finite_terms_are_the_written_formulas(self, d, norm_b):
        # every finite term3 and term5 keeps the bits of its formula
        rho, sigma, norm_a = 0.3, 0.05, 1.1
        ab, s = norm_a * norm_b, d.time_exponent
        terms = _level_terms(0.2, norm_a, norm_b, rho, sigma, 0.1, d, 1.0)
        base = norm_a / sigma * (rho / ab) ** s
        exponent = (d.p + 1.0 - d.q) / (d.p - 2.0 + 2.0 * (d.q - d.p))
        assert repr(terms[2]) == repr(base**exponent)
        assert repr(terms[4]) == repr(rho / ab ** (1.0 / (d.q - d.p)))

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            choose_level_k(-1.0, 1.0, 1.0, 1.0, 1.0, 0.0, D_REF)
        with pytest.raises(ParameterError):
            choose_level_k(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, D_REF)
        with pytest.raises(ParameterError, match="mean integral of u_\\+\\*\\*m must be nonnegative"):
            theorem_bound(-1.0, 1.0, 1.0, D_REF)
        with pytest.raises(ParameterError, match="cylinder extents must be positive"):
            theorem_bound(1.0, 1.0, 0.0, D_REF)


class TestTrace:
    def test_constant_field_closed_form(self):
        dom = big_domain(nx=161, nt=160)
        u = constant_field(dom, 3.0)
        k = 2.0
        q0 = Cylinder((0.0, 2.0), 1.6, 1.0)
        tr = trace(u, q0, k, D_1D, i_max=5)
        expect = (3.0 - tr.k_i) ** D_1D.m
        assert np.allclose(tr.x_i, expect, rtol=1e-12)
        assert np.all(np.diff(tr.x_i) < 0)

    def test_small_field_truncates_to_zero(self):
        dom = big_domain(nx=161, nt=160)
        u = constant_field(dom, 0.4)
        tr = trace(u, Cylinder((0.0, 2.0), 1.6, 1.0), 1.0, D_1D, i_max=5)
        assert tr.x_i[0] > 0  # level k_0 = 0 sees the field
        assert np.all(tr.x_i[1:] == 0.0)  # k_i >= k/2 > max u for i >= 1

    def test_monotone_levels_and_radii(self):
        dom = big_domain(nx=161, nt=160)
        u = constant_field(dom, 3.0)
        tr = trace(u, Cylinder((0.0, 2.0), 1.6, 1.0), 2.0, D_1D, i_max=5)
        assert np.all(np.diff(tr.k_i) > 0)
        assert np.all(np.diff(tr.rho_i) < 0)
        assert np.all(np.diff(tr.sigma_i) < 0)

    def test_preconditions(self):
        u = constant_field(big_domain(), 3.0)
        with pytest.raises(RegionError, match="base cylinder leaves the space-time domain"):
            trace(u, Cylinder((0.0, 0.5), 1.6, 1.0), 2.0, D_1D)
        with pytest.raises(ParameterError, match="level must be positive, got k = 0.0"):
            trace(u, Cylinder((0.0, 2.0), 1.6, 1.0), 0.0, D_1D)
        # an infinite level would make k_0 = inf * (1 - 2^0) NaN
        with pytest.raises(ParameterError, match="level must be finite, got k = inf"):
            trace(u, Cylinder((0.0, 2.0), 1.6, 1.0), math.inf, D_1D)

    @pytest.mark.parametrize("i_max", [-1, 0])
    def test_needs_one_iteration_step(self, i_max):
        # i_max = 0 would certify from X_0 alone: c_fit = 0, threshold = inf
        u = constant_field(big_domain(), 3.0)
        with pytest.raises(ParameterError, match=f"need i_max >= 1 iteration steps, got {i_max}"):
            trace(u, Cylinder((0.0, 2.0), 1.6, 1.0), 2.0, D_1D, i_max=i_max)

    def test_truncation_warning_flag(self):
        dom = big_domain(nx=41, nt=40)
        u = constant_field(dom, 3.0)
        tr = trace(u, Cylinder((0.0, 2.0), 1.6, 1.0), 2.0, D_1D, i_max=12)
        assert tr.truncated

    def test_solved_field_nonincreasing(self):
        params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0)
        spec = IntegrandSpec(
            params,
            CoefficientSpec(a=Coefficient("constant", value=0.5), b=Coefficient("constant", value=0.5)),
            eps=0.0,
        )
        dom = Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=129, nt=128)
        cfg = SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin", amplitude=0.8))
        u, _ = solve(cfg)
        d = spec.d
        rho = 0.2
        q0 = Cylinder((0.5, 0.12), 2 * rho, 2 * rho**d.time_exponent)
        ess = float(u.values.max())
        tr = trace(u, q0, 0.5 * ess, d, i_max=4)
        assert np.all(np.diff(tr.x_i) <= 1e-15)

    def test_level_formula_passes_certificate(self):
        # at the level the formula chooses, the truncation energies collapse
        # and the fitted certificate satisfies the convergence threshold
        params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0)
        spec = IntegrandSpec(
            params,
            CoefficientSpec(a=Coefficient("constant", value=0.5), b=Coefficient("constant", value=0.5)),
            eps=0.0,
        )
        dom = Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=129, nt=128)
        cfg = SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin", amplitude=0.8))
        u, _ = solve(cfg)
        d = spec.d
        rho = 0.2
        sigma = rho**d.time_exponent
        rep = verify_sup_bound(u, (0.5, 0.12), rho, sigma, spec, c_cal=1.0)
        assert rep.passed
        tr = trace(u, Cylinder((0.5, 0.12), 2 * rho, 2 * sigma), rep.k_choice, d, i_max=4)
        assert tr.x_i[0] <= tr.threshold

    def test_fit_is_independent_of_the_scale_of_the_field(self):
        # s u at level s k has X_i scaled by s^m, so the fit takes the same
        # lambda and verdict and C scales by s^(-m kappa).  The fit is made
        # in logarithms: at s = 1e+-60 and beyond, X_i^(1 + kappa) over- or
        # underflows float64
        dom = Domain(n=2, box=((0.0, 1.0),) * 2, T=0.3, nx=33, nt=32)
        u = field_from_function(dom, lambda x, y, t: np.sin(np.pi * x) * np.sin(np.pi * y)
                                * np.exp(-t))
        q0 = Cylinder((0.5, 0.5, 0.24), 0.4, 0.2)
        ref = trace(u, q0, 0.5, D_REF)
        assert 2.1 < ref.lambda_fit < 2.2 and 0.0 < ref.c_fit < math.inf
        # at s = 1, the fit's formulas written out without logarithms
        x, kappa = ref.x_i, D_REF.kappa

        def c_at(lam):
            return [x[i + 1] / (lam**i * x[i] ** (1.0 + kappa)) for i in range(len(x) - 1)]

        lams = np.logspace(0.0, math.log10(64.0), 241)
        demand = [math.log(max(c_at(lam))) / kappa + math.log(lam) / kappa**2 for lam in lams]
        assert ref.lambda_fit == lams[int(np.argmin(demand))]
        assert ref.c_fit == pytest.approx(max(c_at(ref.lambda_fit)), rel=1e-13)
        assert ref.c_i == pytest.approx(c_at(ref.lambda_fit), rel=1e-13)
        assert ref.threshold == pytest.approx(
            ref.c_fit ** (-1.0 / kappa) * ref.lambda_fit ** (-1.0 / kappa**2), rel=1e-13)
        for s in (1e-70, 1e-30, 1.0, 1e30, 1e70):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tr = trace(SpaceTimeField(dom, s * u.values), q0, 0.5 * s, D_REF)
            assert tr.lambda_fit == ref.lambda_fit and tr.threshold_ok == ref.threshold_ok
            if 0.0 < tr.c_fit < math.inf:
                scaled = tr.c_fit * s ** (D_REF.m * D_REF.kappa)
                assert scaled == pytest.approx(ref.c_fit, rel=1e-12)


class TestVerifySupBound:
    def make_spec(self, mu=0.0, eps=0.0):
        params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0, mu=mu, eps=eps)
        coeffs = CoefficientSpec(
            a=Coefficient("constant", value=1.0), b=Coefficient("constant", value=1.0)
        )
        return IntegrandSpec(params, coeffs, eps=eps)

    def test_zero_field_passes(self):
        dom = big_domain()
        spec = self.make_spec()
        rep = verify_sup_bound(constant_field(dom, 0.0), (0.0, 2.0), 0.8, 0.5, spec)
        assert rep.passed and rep.ess_sup == 0.0
        assert rep.margin == math.inf

    def test_constant_field_intrinsic_unit_cylinder(self):
        # unit norms, intrinsic rho = 1: the data term alone reaches the
        # supremum, so the report passes with margin >= 1
        dom = big_domain()
        spec = self.make_spec()
        d = spec.d
        c = 0.6
        rep = verify_sup_bound(constant_field(dom, c), (0.0, 2.4), 1.0, 1.0, spec)
        assert rep.norms.norm_a == pytest.approx(1.0, rel=1e-12)
        assert rep.norms.norm_b == pytest.approx(1.0, rel=1e-12)
        assert rep.mean_um == pytest.approx(c**d.m, rel=1e-12)
        assert rep.k_choice >= c
        assert rep.passed and rep.margin >= 1.0

    def test_spike_field_fails_at_unit_calibration(self):
        dom = big_domain(nx=161, nt=160)
        vals = np.zeros(dom.shape)
        xs, ts = dom.axes[0], dom.times
        ix = int(np.argmin(np.abs(xs - 0.0)))
        it = int(np.argmin(np.abs(ts - 1.9)))
        vals[it, ix] = 50.0
        rep = verify_sup_bound(SpaceTimeField(dom, vals), (0.0, 2.0), 0.8, 0.5, self.make_spec())
        assert not rep.passed
        assert rep.ess_sup == 50.0

    def test_geometry_violation(self):
        dom = big_domain()
        with pytest.raises(RegionError, match=re.escape(
                "cylinder Q(2rho=1.6, 2sigma=1.0) at (0.0, 0.5) leaves the domain")):
            verify_sup_bound(constant_field(dom, 0.0), (0.0, 0.5), 0.8, 0.5, self.make_spec())

    def test_zero_of_a_outside_the_cylinder(self):
        # a vanishes at the node x = 0.125, outside Q(0.2, 0.3) at (0.75, 0.4)
        params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0)
        coeffs = CoefficientSpec(
            a=Coefficient("power", center=(0.125,), exponent=0.5),
            b=Coefficient("constant", value=1.0),
        )
        spec = IntegrandSpec(params, coeffs, eps=0.0)
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=65, nt=32)
        u, _ = solve(SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin")))
        rep = verify_sup_bound(u, (0.75, 0.4), 0.1, 0.15, spec)
        assert math.isfinite(rep.norms.norm_a) and rep.ess_sup > 0

    def test_eps_threshold_flag(self):
        dom = big_domain()
        spec = self.make_spec(eps=1.0)
        rep = verify_sup_bound(constant_field(dom, 1e-6), (0.0, 2.0), 0.8, 0.5, spec)
        # follows the explicit threshold formula; the tiny field gives a
        # small level, and with these exponents the threshold stays above 1
        from pqlab import epsilon_threshold

        expect = epsilon_threshold(rep.k_choice, 0.8, rep.norms.norm_a, rep.norms.norm_b, spec.d)
        assert rep.eps_threshold == pytest.approx(expect, rel=1e-14)
        assert rep.eps_ok == (rep.eps <= rep.eps_threshold)

    def test_spec_dimension_must_match_the_field(self):
        # a 2D spec on a 1D field would report levels from the 2D exponents
        params = StructureParams(n=2, p=2.0, q=2.1, alpha=20.0, beta=20.0)
        spec = IntegrandSpec(params, self.make_spec().coeffs, eps=0.0)
        field = constant_field(big_domain(), 0.0)
        with pytest.raises(ParameterError, match="spec has n = 2 but the field has n = 1"):
            verify_sup_bound(field, (0.0, 2.0), 0.8, 0.5, spec)

    def test_zero_level_has_no_eps_threshold(self):
        # p = q = 2, mu = 0 and a zero datum: the level formula gives k = 0,
        # and sigma > rho^2 leaves it there
        params = StructureParams(n=1, p=2.0, q=2.0, alpha=20.0, beta=20.0)
        spec = IntegrandSpec(params, self.make_spec().coeffs, eps=0.0)
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=33, nt=16)
        u, _ = solve(SolveConfig(dom, spec, BoundaryDatum(kind="zero")))
        rep = verify_sup_bound(u, (0.5, 0.6), 0.2, 0.15, spec)
        assert rep.k_choice == 0.0
        assert rep.eps_threshold == math.inf and rep.eps_ok
        assert rep.margin == math.inf and rep.passed

    def test_mean_um_uses_positive_part(self):
        dom = big_domain()
        spec = self.make_spec()
        u = constant_field(dom, -1.0)
        rep = verify_sup_bound(u, (0.0, 2.0), 0.8, 0.5, spec)
        assert rep.mean_um == 0.0
        assert rep.passed  # ess_sup = -1 <= any positive bound

    @pytest.mark.parametrize("cfg, target", [
        (degenerate_config(amplitude=800.0), ((0.5, 0.12), 0.2)),
        (_probe_config_2d(2.0, 2.1, 80.0, nx=33, nt=32, alpha=20.0), TARGETS_2D[0]),
    ], ids=["1d", "2d"])
    def test_passes_where_the_fields_terms_bind(self, cfg, target):
        # at the benchmark's amplitudes the level is the field-free one (u's
        # mean of u_+^m set to zero), so passing there checks the geometry
        # alone; here u's own terms raise the level above it, and the solved
        # field still passes at c_cal = 1: ess_sup/k_choice = 0.407 with
        # k_choice = 12.51 against 0.584 field-free in 1D, and 0.445 with
        # 0.766 against 0.709 in 2D.  The calibrated term t1 binds: 12.51
        # against t2 = 9.22 and t3 = 0.584 in 1D, 0.766 against t3 = 0.709
        # and t2 = 0.629 in 2D
        (center, rho), d = target, cfg.spec.d
        sigma = rho**d.time_exponent
        u, _ = solve(cfg)
        rep = verify_sup_bound(u, center, rho, sigma, cfg.spec, c_cal=1.0)
        field_free = choose_level_k(0.0, rep.norms.norm_a, rep.norms.norm_b, rho, sigma,
                                    cfg.spec.params.mu, d)
        assert rep.passed and rep.k_choice > field_free
        assert rep.binding == "term1"

    def test_field_free_term_binds_at_the_2d_preset_targets(self, diagnostics_field):
        # on the diagnostics-2d field (amplitude 0.8) the intrinsic scaling
        # term t3, which reads no field, is the level at all three targets:
        # 0.709, 0.668 and 0.637 against ess_sup 0.0157, 7.2e-4 and 6.6e-5
        cfg, u = diagnostics_field
        ecfg = ExperimentConfig(params=cfg.spec.params, domain=cfg.domain,
                                coeffs=cfg.spec.coeffs, g=cfg.g, targets=TARGETS_2D)
        reports = [verify_sup_bound(u, center, rho, sigma, cfg.spec)
                   for center, rho, sigma in ecfg.target_cylinders()]
        assert [rep.binding for rep in reports] == ["term3"] * 3

    @pytest.mark.parametrize("cfg, targets", [
        (degenerate_config(), TARGETS_1D),
        (_probe_config_2d(2.0, 2.1, 0.8, nx=33, nt=32, alpha=20.0), TARGETS_2D),
    ], ids=["1d", "2d"])
    def test_norms_are_those_of_the_sampled_coefficients(self, cfg, targets):
        # pqlab check-caccioppoli took the norms on Q_{2rho,2sigma} from a
        # and b sampled over the whole grid; the report's, taken at that
        # cylinder's nodes alone, are the same bits at every preset target
        spec, d = cfg.spec, cfg.spec.d
        a, b = spec.coeffs.a.sample(cfg.domain), spec.coeffs.b.sample(cfg.domain)
        u = constant_field(cfg.domain, 0.0)
        for center, rho in targets:
            sigma = rho**d.time_exponent
            rep = verify_sup_bound(u, center, rho, sigma, spec)
            outer = Cylinder(center, 2 * rho, 2 * sigma)
            assert rep.norms == coefficient_norms(a, b, spec.params.alpha, spec.params.beta, outer)

    @pytest.mark.parametrize("cfg, positive", [
        (degenerate_config(), [1, 1, 1]),
        (degenerate_config(amplitude=800.0), [2, 2, 1]),
        (_probe_config_2d(2.0, 2.1, 0.8, nx=33, nt=32, alpha=20.0), [1, 1, 1]),
        (_probe_config_2d(2.0, 2.1, 80.0, nx=33, nt=32, alpha=20.0), [2, 1, 1]),
    ], ids=["1d", "1d-800", "2d", "2d-80"])
    def test_trace_fit_runs_where_two_energies_are_positive(self, cfg, positive):
        # the trace of pqlab trace-degiorgi, at k_choice.  At the preset
        # targets (amplitude 0.8) X_1 = 0, so no step is fitted (lambda = 1,
        # C = 0) and the monotone verdict holds by construction: a trace
        # mutant has to sit at a level where the fit runs.  Where term1
        # binds, 1D amplitude 800 and 2D amplitude 80 at target 1, and at the
        # 1D target 2 at amplitude 800 (term3), X_0 and X_1 are positive and
        # the fit runs on that one step.  X_0 is the report's mean of u_+^m,
        # bitwise: both are the base cylinder at level 0
        u, _ = solve(cfg)
        d = cfg.spec.d
        for (center, rho), count in zip(TARGETS_1D if cfg.domain.n == 1 else TARGETS_2D, positive):
            sigma = rho**d.time_exponent
            rep = verify_sup_bound(u, center, rho, sigma, cfg.spec)
            tr = trace(u, Cylinder(center, 2 * rho, 2 * sigma), rep.k_choice, d)
            assert tr.x_i[0] == rep.mean_um
            assert np.count_nonzero(tr.x_i) == count
            assert (tr.c_fit > 0) == (count == 2) and tr.lambda_fit == 1.0


def _raise_node(u: SpaceTimeField, cyl: Cylinder, value: float) -> SpaceTimeField:
    """u with one node of cyl set to value: at its last time level, the
    node of its ball nearest its centre."""
    dom = u.domain
    t_mask, ball, _ = _resolve(dom, cyl)
    coords = np.stack([c.ravel() for c in dom.meshgrid()], axis=1)
    dist = np.linalg.norm(coords - np.asarray(cyl.x), axis=1)
    node = np.unravel_index(np.argmin(np.where(ball.ravel(), dist, np.inf)), ball.shape)
    vals = u.values.copy()
    vals[(np.flatnonzero(t_mask)[-1],) + node] = value
    return SpaceTimeField(dom, vals)


class TestMutants:
    """Fields that an estimate check must reject.  All but the gap's are
    made from the diagnostics-2d field at the benchmark's second 2D target,
    where the field passes with a sup-bound margin of about 930."""

    @staticmethod
    def target(cfg):
        ecfg = ExperimentConfig(params=cfg.spec.params, domain=cfg.domain,
                                coeffs=cfg.spec.coeffs, g=cfg.g, targets=TARGETS_2D)
        center, rho, sigma = ecfg.target_cylinders()[1]
        return Cylinder(center, rho, sigma)

    def test_spike_above_the_level_fails_the_sup_bound(self, diagnostics_field):
        # one node of Q_rho at twice k_choice: ess_sup 1.34 against 0.668
        cfg, u = diagnostics_field
        cyl = self.target(cfg)
        rep = verify_sup_bound(u, cyl.center, cyl.rho, cyl.sigma, cfg.spec)
        assert rep.passed
        mutant = _raise_node(u, cyl, 2.0 * rep.k_choice)
        bad = verify_sup_bound(mutant, cyl.center, cyl.rho, cyl.sigma, cfg.spec)
        assert bad.ess_sup == 2.0 * rep.k_choice
        assert not bad.passed and bad.margin < 0.51

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="on a grid |D_h (u - k)_+| is at most about (u - k)_+ / h, so "
                              "c_min is of order sigma/h^2 + sigma/dt (15 + 1.6 here) at any "
                              "amplitude: the spike reads 11.8 against the cap of 1000")
    def test_steep_small_truncation_fails_caccioppoli(self, diagnostics_field):
        # k is the field's maximum over Q_{2rho,2sigma}, so (u - k)_+ is one
        # node of height 1e-8 and its gradient is 1e-8 / (2h)
        cfg, u = diagnostics_field
        inner = self.target(cfg)
        outer = Cylinder(inner.center, 2.0 * inner.rho, 2.0 * inner.sigma)
        t_out, ball_out, _ = _resolve(u.domain, outer)
        k = float(u.values[t_out][:, ball_out].max())
        spec = cfg.spec
        norms = coefficient_norms(spec.coeffs.a.sample(u.domain), spec.coeffs.b.sample(u.domain),
                                  spec.params.alpha, spec.params.beta, outer)
        sides = caccioppoli_sides(_raise_node(u, inner, k + 1e-8), k, inner, outer, norms,
                                  spec.d, mu=spec.params.mu, eps=spec.eps)
        assert sides.c_min > 1e3  # the cap of pqlab check-caccioppoli

    def test_rising_truncation_energies_fail_the_trace(self, diagnostics_field, tmp_path,
                                                       monkeypatch):
        # one node at 10 max|u|, nearest the centre of the innermost
        # cylinder of the target's trace, lies in every cylinder of it, so
        # X_i rises as the cylinders shrink (3.19, 3.32, 5.17, 5.81)
        cfg, u = diagnostics_field
        text = (SWEEP_CFG.replace("n = 1", "n = 2").replace("eps = 0.25", "eps = 0.5")
                .replace("box = 0.0 1.0", "box = 0.0 1.0 0.0 1.0")
                .replace("a_center = 0.505", "a_center = 0.505 0.505")
                .replace("cylinder1 = 0.5 0.12 0.2", "\n".join(
                    f"cylinder{i} = {' '.join(map(str, c))} {r}"
                    for i, (c, r) in enumerate(TARGETS_2D, 1))))
        path = tmp_path / "diagnostics.cfg"
        path.write_text(text)
        assert load_config(path).solve_config() == cfg
        target = self.target(cfg)
        rep = verify_sup_bound(u, target.center, target.rho, target.sigma, cfg.spec)
        tr = trace(u, Cylinder(target.center, 2 * target.rho, 2 * target.sigma), rep.k_choice,
                   cfg.spec.d)
        innermost = Cylinder(target.center, float(tr.rho_i[-1]), float(tr.sigma_i[-1]))
        mutant = _raise_node(u, innermost, 10.0 * float(np.abs(u.values).max()))
        for field, code in ((u, 0), (mutant, 1)):
            monkeypatch.setattr(cli, "solve", lambda scfg, field=field: (field, None))
            args = ["trace-degiorgi", "--config", str(path), "--out", str(tmp_path / "trace.csv")]
            assert cli.main(args) == code

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_rising_truncation_energies_fail_at_every_scale(self, diagnostics_field, scale):
        # the trace mutant above with the field and the level scaled: the
        # verdict is relative to X_0, so the rise fails at 1e-4 too, where
        # X_i is of order 1e-15
        cfg, u = diagnostics_field
        target = self.target(cfg)
        q0 = Cylinder(target.center, 2 * target.rho, 2 * target.sigma)
        k = verify_sup_bound(u, target.center, target.rho, target.sigma, cfg.spec).k_choice
        tr = trace(u, q0, k, cfg.spec.d)
        innermost = Cylinder(target.center, float(tr.rho_i[-1]), float(tr.sigma_i[-1]))
        mutant = _raise_node(u, innermost, 10.0 * float(np.abs(u.values).max()))
        for field, monotone in ((u, True), (mutant, False)):
            scaled = SpaceTimeField(u.domain, scale * field.values)
            assert trace(scaled, q0, scale * k, cfg.spec.d).monotone is monotone

    def test_trace_from_zero_energy_admits_no_rise(self):
        rest = dict(rho_i=np.ones(3), sigma_i=np.ones(3), k_i=np.ones(3), c_i=np.ones(2),
                    lambda_fit=2.0, c_fit=1.0, threshold=1.0, threshold_ok=True, truncated=False)
        assert DeGiorgiTrace(x_i=np.zeros(3), **rest).monotone
        assert not DeGiorgiTrace(x_i=np.array([0.0, 1e-300, 1e-300]), **rest).monotone

    def test_field_off_the_solution_fails_the_gap(self):
        # u minimizes each step's discrete energy, so the gap against
        # u + delta psi is of order delta^2 (TestVariationalGap); a field
        # moved off u by 1e-2 max|u| psi has a first variation, and its gap
        # against itself + delta psi follows delta's sign: -5.6e-7 at
        # delta = -1e-4, 2.5e-6 of the scale
        params = StructureParams(n=1, p=2.0, q=2.1)
        coeffs = CoefficientSpec(
            a=Coefficient("constant", value=1.0), b=Coefficient("constant", value=1.0)
        )
        dom = Domain(n=1, box=((0.0, 1.0),), T=0.1, nx=65, nt=16)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.0),
                          BoundaryDatum(kind="profile", profile="sin"), tolerance=1e-12)
        u, _ = solve(cfg)
        # a sin^2 bump, zero on the lateral boundary and at t = 0
        psi = (dom.times / dom.T)[:, None] * np.sin(np.pi * dom.axes[0])[None] ** 2
        moved = SpaceTimeField(dom, u.values + 1e-2 * np.abs(u.values).max() * psi)
        worst = {}
        for name, base in (("u", u), ("moved", moved)):
            worst[name] = min(
                gap.min() / scale.max() for gap, scale in (
                    variational_gap_curve(base, ComparisonMap(
                        "psi", SpaceTimeField(dom, base.values + delta * psi)), cfg)
                    for delta in (1e-4, -1e-4)))
        assert worst["u"] >= -1e-10
        assert worst["moved"] < -1e-10
