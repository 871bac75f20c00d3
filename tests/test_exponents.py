"""Exponent arithmetic: gap decisions, derived values, thresholds.

Reference values were recomputed independently in exact rational
arithmetic (sympy) before implementation and are frozen here as exact
fractions.
"""

import numpy as np
import pytest

from pqlab import (
    ParameterError,
    StructureParams,
    check_gap,
    derive,
    epsilon_threshold,
)
from conftest import sample_gap_params

REF = StructureParams(n=2, p=2.0, q=2.1, alpha=20.0, beta=20.0)


class TestGap:
    def test_reference_margin(self):
        gap = check_gap(REF)
        assert gap.ok
        # rhs = 38/21 + 1/2, margin = rhs - 2.1 = 22/105
        assert gap.margin == pytest.approx(22.0 / 105.0, abs=1e-15)
        assert gap.implied_restriction_ok

    def test_infinite_exponents_unit_factors(self):
        gap = check_gap(StructureParams(n=2, p=2.0, q=2.0))
        assert gap.ok and gap.margin == pytest.approx(0.5, abs=0)

    def test_boundary_case_fails_strictly(self):
        # q = p + 2/(n+2) exactly: the strict inequality must fail
        gap = check_gap(StructureParams(n=2, p=2.0, q=2.5))
        assert not gap.ok
        assert gap.margin == 0.0

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(n=2, p=1.5, q=2.0), "p"),
            (dict(n=2, p=2.0, q=1.9), "q"),
            (dict(n=2, p=2.0, q=2.0, alpha=1.0), "alpha"),
            (dict(n=2, p=2.0, q=2.0, beta=0.5), "beta"),
            (dict(n=2, p=2.0, q=2.0, mu=1.5), "mu"),
            (dict(n=2, p=2.0, q=2.0, eps=-0.1), "eps"),
            (dict(n=0, p=2.0, q=2.0), "n"),
        ],
    )
    def test_domain_errors_name_the_bound(self, kwargs, fragment):
        with pytest.raises(ParameterError, match=fragment):
            StructureParams(**kwargs)

    def test_derive_rejects_gap_violation(self):
        with pytest.raises(ParameterError, match="gap"):
            derive(StructureParams(n=2, p=2.0, q=2.5))


class TestDerive:
    def test_reference_tuple_exact(self):
        d = derive(REF)
        assert d.p_alpha == pytest.approx(40.0 / 21.0, abs=1e-14)
        assert d.q_beta == pytest.approx(42.0 / 19.0, abs=1e-14)
        assert d.beta_conj == pytest.approx(20.0 / 19.0, abs=1e-14)
        assert d.gamma == pytest.approx(400.0 / 149.0, abs=1e-13)
        assert d.m == pytest.approx(80.0 / 21.0, abs=1e-14)
        assert d.kappa == pytest.approx(109.0 / 189.0, abs=1e-13)
        assert d.theta1 == pytest.approx(189.0 / 352.0, abs=1e-13)
        assert d.theta2 == pytest.approx(105.0 / 88.0, abs=1e-13)
        assert d.theta3 == pytest.approx(2289.0 / 7040.0, abs=1e-13)
        assert d.p_conj == 2.0
        assert d.p_alpha_conj == pytest.approx(40.0 / 19.0, abs=1e-14)
        assert d.q_beta_conj == pytest.approx(42.0 / 23.0, abs=1e-14)
        assert not d.q_equals_p

    def test_pure_function_bit_identical(self):
        d1, d2 = derive(REF), derive(REF)
        for name in ("p_alpha", "q_beta", "gamma", "m", "kappa", "theta1", "theta2", "theta3"):
            assert getattr(d1, name) == getattr(d2, name)

    def test_cached_per_field_types(self):
        # the two params compare and hash equal, yet p is derived as 2 and as 2.0
        ints, floats = (StructureParams(n=2, p=p, q=2.1, alpha=20.0, beta=20.0) for p in (2, 2.0))
        assert ints == floats and hash(ints) == hash(floats)
        for params in (ints, floats, ints):
            assert repr(derive(params).p) == repr(params.p)

    def test_q_equals_p_collapses_chain_tail(self):
        d = derive(StructureParams(n=2, p=2.0, q=2.0, alpha=20.0, beta=20.0))
        assert d.q_equals_p
        # p/(p+1-q) = 2 = q: the chain ends in equalities
        assert d.p / (d.p + 1.0 - d.q) == pytest.approx(2.0, abs=0)

    def test_infinite_limit_along_powers_of_ten(self):
        for k in range(1, 10):
            a = 10.0**k
            d = derive(StructureParams(n=2, p=2.0, q=2.1, alpha=a, beta=a))
            assert abs(d.p_alpha - 2.0) <= 2.0 / a
            assert abs(d.q_beta - 2.1) <= 3.0 / a
            assert abs(d.beta_conj - 1.0) <= 2.0 / a

    def test_random_gap_params_satisfy_chain(self, rng):
        for _ in range(200):
            params = sample_gap_params(rng)
            d = derive(params)
            tol = 1e-12
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
            assert d.gamma >= max(2.0, d.beta_conj, d.q_beta) - tol
            assert d.gamma < d.m
            assert d.kappa > (d.q - d.p) / (d.p + 1.0 - d.q) - tol
            assert d.theta1 > 0 and d.theta2 > 0 and d.theta3 > 0
            assert np.isfinite([d.theta1, d.theta2, d.theta3]).all()
            assert abs(d.theta3 * (d.m - d.gamma) * (1.0 + d.kappa) - d.kappa) <= tol


class TestEpsilonThreshold:
    def test_reference_exponent(self):
        d = derive(REF)
        # p/(p+1-q) - q_beta = 20/9 - 42/19 = 2/171
        assert d.time_exponent - d.q_beta == pytest.approx(2.0 / 171.0, abs=1e-14)

    def test_unit_inputs(self):
        d = derive(REF)
        assert epsilon_threshold(1.0, 1.0, 1.0, 1.0, d) == pytest.approx(1.0, abs=1e-14)

    def test_q_equals_p_infinite_beta_limit(self):
        # exponent p/(p+1-q) - q_beta = 2 - 2 = 0: threshold = (A^{1/2} B)^2
        d = derive(StructureParams(n=2, p=2.0, q=2.0, alpha=4.0))
        a_norm, b_norm = 3.0, 0.7
        expect = (a_norm**0.5 * b_norm) ** 2
        assert epsilon_threshold(2.0, 0.5, a_norm, b_norm, d) == pytest.approx(expect, rel=1e-14)

    def test_scaling_in_k(self):
        d = derive(REF)
        e = d.time_exponent - d.q_beta
        t1 = epsilon_threshold(1.0, 1.0, 2.0, 3.0, d)
        t2 = epsilon_threshold(4.0, 1.0, 2.0, 3.0, d)
        assert t2 / t1 == pytest.approx(4.0**e, rel=1e-12)

    def test_factor_past_float_range(self):
        # 1.67e-4 inside the gap limit the exponents are s = 6.0 and
        # s - q_beta = 3.33: (A**((q-1)/p) B)**s overflows at A = 1e70 and
        # (k/rho)**(s - q_beta) at the level 2.97e243 of a sweep there; a
        # finite product is taken in logarithms, one past float range is inf
        d = derive(StructureParams(n=1, p=2.0, q=2.6665, alpha=np.inf, beta=np.inf))
        s, e = d.time_exponent, d.time_exponent - d.q_beta
        log_expect = s * (d.q - 1.0) / d.p * np.log(1e70) + e * np.log(1e-30 / 0.2)
        got = epsilon_threshold(1e-30, 0.2, 1e70, 1.0, d)
        assert np.log(got) == pytest.approx(log_expect, rel=1e-12)
        assert epsilon_threshold(2.97e243, 0.2, 1.0, 1.0, d) == np.inf

    @pytest.mark.parametrize("bad", [dict(k=0.0), dict(rho=0.0), dict(norm_a=0.0), dict(norm_b=-1.0)])
    def test_preconditions(self, bad):
        d = derive(REF)
        kwargs = dict(k=1.0, rho=1.0, norm_a=1.0, norm_b=1.0)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            epsilon_threshold(kwargs["k"], kwargs["rho"], kwargs["norm_a"], kwargs["norm_b"], d)
