"""Coefficients, integrand/flux consistency and the structure conditions
that the flux satisfies."""

import numpy as np
import pytest

from pqlab import (
    Coefficient,
    CoefficientSpec,
    Domain,
    IntegrandSpec,
    ParameterError,
    StructureParams,
    flux,
    integrand,
    lp_norm,
)


def const_spec(a=1.0, b=1.0, p=2.0, q=2.1, alpha=20.0, beta=20.0, mu=0.0, eps=0.0, n=1):
    params = StructureParams(n=n, p=p, q=q, alpha=alpha, beta=beta, mu=mu, eps=eps)
    coeffs = CoefficientSpec(a=Coefficient("constant", value=a), b=Coefficient("constant", value=b))
    return IntegrandSpec(params, coeffs, eps=eps)


class TestCoefficients:
    def test_constant(self):
        c = Coefficient("constant", value=2.5)
        assert np.all(c.at(np.linspace(0, 1, 5)) == 2.5)

    def test_power_law(self):
        c = Coefficient("power", center=(0.5,), exponent=0.5)
        x = np.array([0.5, 0.75, 1.0])
        assert np.allclose(c.at(x), np.sqrt(np.abs(x - 0.5)))

    def test_power_law_floor(self):
        c = Coefficient("power", center=(0.5,), exponent=1.0, floor=0.1)
        assert c.at(np.array([0.5]))[0] == pytest.approx(0.1)

    def test_checkerboard(self):
        c = Coefficient("checkerboard", lo=1.0, hi=3.0, width=0.25)
        x = np.array([0.1, 0.3, 0.6, 0.8])
        assert np.allclose(c.at(x), [1.0, 3.0, 1.0, 3.0])

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            Coefficient("gaussian")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(kind="constant", value=-1.0), "constant coefficient must be nonnegative"),
        (dict(kind="power", floor=-0.1), "power-law floor must be nonnegative"),
        (dict(kind="checkerboard", lo=-1.0), "checkerboard needs nonnegative values"),
        (dict(kind="checkerboard", width=0.0), "and positive width"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            Coefficient(**kwargs)

    def test_degenerate_preset_stays_integrable(self):
        # theta * alpha < n keeps 1/a integrable; the discrete norm must be
        # finite and refinement-stable
        alpha = 20.0
        c = Coefficient("power", center=(0.505,), exponent=0.04)
        norms = []
        for nx in (65, 129, 257):
            dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=nx, nt=4)
            a = c.sample(dom)
            inv = 1.0 / a.values
            from pqlab import SpaceTimeField

            norms.append(lp_norm(SpaceTimeField(dom, inv), alpha))
        assert np.isfinite(norms).all()
        assert max(norms) / min(norms) < 1.05

    def test_sample_constant_in_time(self):
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=4)
        f = Coefficient("power", center=(0.3,), exponent=1.0).sample(dom)
        assert np.all(f.values[0] == f.values[-1])


class TestFluxAndIntegrand:
    def test_zero_gradient_zero_flux(self):
        spec = const_spec(mu=0.0)
        assert np.all(flux(np.zeros(1), 1.0, 1.0, spec) == 0.0)

    def test_linear_regime(self):
        spec = const_spec(p=2.0, q=2.0, a=1.0, b=1.0, alpha=np.inf, beta=np.inf)
        xi = np.array([0.3])
        assert flux(xi, 1.0, 1.0, spec) == pytest.approx(2.0 * xi)

    def test_mixed_power_example(self):
        # a-term a*|xi|^{p-2} xi plus b-term b*|xi|^{q-2} xi at |xi| = 1
        spec = const_spec(p=2.0, q=2.05, a=1.0, b=2.0, alpha=np.inf, beta=np.inf, n=2)
        xi = np.array([1.0, 0.0])
        out = flux(xi, 1.0, 2.0, spec)
        assert out == pytest.approx(np.array([3.0, 0.0]), abs=1e-14)

    def test_integrand_values(self):
        spec = const_spec(p=2.0, q=2.0, alpha=np.inf, beta=np.inf)
        assert integrand(np.zeros(1), 1.0, 1.0, spec) == 0.0
        assert integrand(np.array([1.0]), 1.0, 1.0, spec) == pytest.approx(1.0)

    def test_eps_adds_power_term(self):
        spec = const_spec(eps=0.1)
        base = integrand(np.array([1.0]), 1.0, 1.0, spec, eps=0.0)
        assert integrand(np.array([1.0]), 1.0, 1.0, spec) == pytest.approx(base + 0.1)

    def test_finite_difference_gradient(self, rng):
        spec = const_spec(p=2.0, q=2.05, alpha=8.0, beta=12.0, mu=0.1, eps=0.2, n=2)
        worst = 0.0
        for _ in range(100):
            xi = rng.normal(size=2) * 10 ** rng.uniform(-2, 2)
            a, b = rng.uniform(0.1, 3.0, 2)
            fl = flux(xi, a, b, spec)
            h = 6e-6 * max(1.0, float(np.linalg.norm(xi)))
            fd = np.zeros(2)
            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                fd[c] = (integrand(xi + e, a, b, spec) - integrand(xi - e, a, b, spec)) / (2 * h)
            worst = max(worst, float(np.linalg.norm(fd - fl) / max(np.linalg.norm(fl), 1e-300)))
        assert worst <= 1e-6

    def test_monotonicity(self, rng):
        spec = const_spec(p=2.0, q=2.05, alpha=8.0, beta=12.0, mu=0.1, eps=0.2, n=2)
        for _ in range(200):
            xi1 = rng.normal(size=2) * 10 ** rng.uniform(-3, 3)
            xi2 = rng.normal(size=2) * 10 ** rng.uniform(-3, 3)
            a, b = rng.uniform(0.0, 3.0, 2)
            dflux = flux(xi1, a, b, spec) - flux(xi2, a, b, spec)
            assert float(np.dot(dflux, xi1 - xi2)) >= -1e-14

    def test_coercivity_exact(self, rng):
        # both structure conditions with unit constants: the coercivity
        # bound from below and the p,q-growth bound on |flux| from above
        spec = const_spec(p=2.0, q=2.05, alpha=8.0, beta=12.0, mu=0.1, eps=0.2, n=2)
        p, q, mu, qb = spec.params.p, spec.params.q, spec.params.mu, spec.d.q_beta
        for _ in range(200):
            xi = rng.normal(size=2) * 10 ** rng.uniform(-3, 3)
            a, b = rng.uniform(0.0, 3.0, 2)
            s = float(np.dot(xi, xi))
            fl = flux(xi, a, b, spec)
            lower = a * (mu**2 + s) ** ((p - 2) / 2) * s + qb * spec.eps * s ** (qb / 2)
            assert float(np.dot(fl, xi)) - lower >= -1e-14
            upper = (a * (mu**2 + s) ** ((p - 1) / 2) + b * (mu**2 + s) ** ((q - 1) / 2)
                     + qb * spec.eps * s ** ((qb - 1) / 2))
            assert float(np.linalg.norm(fl)) <= upper * (1.0 + 1e-14)

