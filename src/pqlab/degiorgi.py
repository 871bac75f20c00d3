"""Level-set estimate machinery: two-sided evaluation of the truncation
energy inequality, the level formula, shrinking-cylinder traces of the
iteration quantities, and end-to-end sup-bound verification.

All constants that the theory leaves unquantified enter as calibration
inputs with default 1; verification reports empirical margins rather than
asserting an unknown constant.  The recursion rate lambda is fitted from
the measured trace: among lambda >= 1 we pick the one whose minimal
admissible C gives the least demanding convergence threshold
C**(-1/kappa) * lambda**(-1/kappa**2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegionError
from .exponents import DerivedExponents, epsilon_threshold
from .grid import (
    CoefficientNorms,
    Cylinder,
    SpaceTimeField,
    _grad_magnitude,
    _integrate_power,
    coefficient_norms,
    cylinder_in_domain,
    ess_sup,
    mean_integral,
    slice_sup_l2,
    truncate_plus,
)
from .model import IntegrandSpec


@dataclass(frozen=True)
class CaccioppoliSides:
    """Both sides of the truncation energy inequality with unit constants.

    lhs_terms: (sup-slice L2 term, weighted gradient term, eps gradient term)
    rhs_terms: (mu zero-order term, Hoelder term to the power p/(p+1-q),
                eps zero-order term, time term)
    c_min:     lhs / sum(rhs_terms), the smallest admissible constant for
               this instance; 0 when the truncation vanishes.
    """

    lhs_terms: tuple
    rhs_terms: tuple

    @property
    def lhs(self) -> float:
        return float(sum(self.lhs_terms))

    @property
    def rhs(self) -> float:
        return float(sum(self.rhs_terms))

    @property
    def c_min(self) -> float:
        if self.lhs == 0.0:
            return 0.0
        return self.lhs / self.rhs


def caccioppoli_sides(u: SpaceTimeField, k: float, inner: Cylinder, outer: Cylinder,
                      norms: CoefficientNorms, d: DerivedExponents,
                      mu: float = 0.0, eps: float = 0.0) -> CaccioppoliSides:
    """Evaluate both sides of the truncation energy inequality at level k on
    the concentric pair inner = Q_{rho,sigma} strictly inside
    outer = Q_{r,s}.  The coefficient norms are the raw norms (taken over
    whatever region the caller chose, typically the outer cylinder)."""
    if inner.x != outer.x or inner.t != outer.t:
        raise ParameterError("cylinders must be concentric")
    if not (outer.rho > inner.rho and outer.sigma > inner.sigma):
        raise ParameterError(
            "outer cylinder must strictly contain the inner one "
            f"(rho {inner.rho} vs {outer.rho}, sigma {inner.sigma} vs {outer.sigma})"
        )
    if not cylinder_in_domain(u.domain, outer):
        raise RegionError("outer cylinder leaves the space-time domain")

    trunc = truncate_plus(u, k)
    dr = outer.rho - inner.rho
    ds = outer.sigma - inner.sigma
    q, p = d.q, d.p

    sup_term = slice_sup_l2(trunc, inner)
    if sup_term == 0.0 and mean_integral(trunc, 1.0, outer) == 0.0:
        return CaccioppoliSides((0.0,) * 3, (0.0,) * 4)

    dmag = _grad_magnitude(trunc)
    grad_int = _integrate_power(dmag, d.p_alpha, inner)
    alpha_exp = 1.0 if math.isinf(d.alpha) else (d.alpha + 1.0) / d.alpha
    lhs_terms = (
        sup_term,
        grad_int**alpha_exp / norms.raw_a,
        eps * _integrate_power(dmag, d.q_beta, inner),
    )

    t_mu = (
        mu ** (q - 1.0)
        / dr
        * norms.raw_b
        * _integrate_power(trunc, d.beta_conj, outer) ** (1.0 / d.beta_conj)
    )
    t_hoelder = (
        norms.raw_b
        * norms.raw_a ** ((q - 1.0) / p)
        / dr
        * _integrate_power(trunc, d.gamma, outer) ** (1.0 / d.gamma)
    ) ** d.time_exponent
    t_eps = eps / dr**d.q_beta * _integrate_power(trunc, d.q_beta, outer)
    t_time = _integrate_power(trunc, 2.0, outer) / ds
    return CaccioppoliSides(lhs_terms, (t_mu, t_hoelder, t_eps, t_time))


# ---------------------------------------------------------------------------
# level formulas


def choose_level_k(mean_um: float, norm_a: float, norm_b: float, rho: float,
                   sigma: float, mu: float, d: DerivedExponents,
                   c_cal: float = 1.0) -> float:
    """Five-term level formula driving the iteration.

    mean_um is the mean integral of u_+**m over the base cylinder; norm_a,
    norm_b are the mean-integral coefficient norms there.  For q = p the
    term rho/(AB)**(1/(q-p)) degenerates and is dropped, and the rho**(q-p)
    factor collapses to 1.
    """
    if mean_um < 0:
        raise ParameterError("mean integral of u_+**m must be nonnegative")
    if not (norm_a > 0 and norm_b > 0 and rho > 0 and sigma > 0):
        raise ParameterError("norms and cylinder extents must be positive")
    p, q = d.p, d.q
    s = d.time_exponent
    ab = norm_a * norm_b

    term1 = (
        c_cal
        * (sigma / norm_a * (ab / rho) ** s) ** d.theta1
        * (ab / rho ** (q - p)) ** d.theta2
        * mean_um**d.theta3
    )
    term2 = mean_um ** (1.0 / d.m)
    term3 = _inverse_scaling_term(norm_a / sigma * (rho / ab) ** s, p, q)
    term4 = rho * mu ** (p + 1.0 - q) / ab
    if d.q_equals_p:
        return max(term1, term2, term3, term4)
    term5 = rho / ab ** (1.0 / (q - p))
    return max(term1, term2, term3, term4, term5)


def _inverse_scaling_term(base: float, p: float, q: float) -> float:
    """base**((p+1-q)/(p-2+2(q-p))) with the degenerate p = q = 2 exponent
    resolved by continuity: 1 for base 1 (intrinsic cylinders), else the
    0/infinity limit."""
    denom = p - 2.0 + 2.0 * (q - p)
    if denom > 0:
        return base ** ((p + 1.0 - q) / denom)
    if abs(base - 1.0) <= 1e-12:
        return 1.0
    return 0.0 if base < 1.0 else math.inf


def theorem_bound(mean_um: float, rho: float, sigma: float,
                  d: DerivedExponents, c_cal: float = 1.0) -> float:
    """Four-term bound on the half-cylinder supremum (coefficient-free
    form; the calibration constant multiplies the first term)."""
    if mean_um < 0:
        raise ParameterError("mean integral of u_+**m must be nonnegative")
    if not (rho > 0 and sigma > 0):
        raise ParameterError("cylinder extents must be positive")
    s = d.time_exponent
    term1 = (
        c_cal
        * (sigma / rho**s) ** d.theta1
        * rho ** (-(d.q - d.p) * d.theta2)
        * mean_um**d.theta3
    )
    term2 = mean_um ** (1.0 / d.m)
    term3 = _inverse_scaling_term(rho**s / sigma, d.p, d.q)
    return max(term1, term2, term3, rho)


# ---------------------------------------------------------------------------
# iteration trace


@dataclass(frozen=True)
class DeGiorgiTrace:
    """Measured quantities of the shrinking-cylinder iteration on the base
    cylinder Q_{2 rho, 2 sigma}: the radii and levels, the truncation
    energies X_i, the per-step constants at the fitted rate, and the fitted
    certificate (lambda, C) with its convergence threshold."""

    rho_i: np.ndarray
    sigma_i: np.ndarray
    k_i: np.ndarray
    x_i: np.ndarray
    c_i: np.ndarray
    lambda_fit: float
    c_fit: float
    threshold: float
    threshold_ok: bool
    truncated: bool


def trace(u: SpaceTimeField, q0: Cylinder, k: float, d: DerivedExponents,
          i_max: int = 10) -> DeGiorgiTrace:
    """Trace the iteration quantities on Q_0 = Q_{2rho,2sigma}.

    Stops early (truncated = True) once the radius decrement drops below
    half a grid spacing, where further cylinders no longer change node sets.
    """
    if not cylinder_in_domain(u.domain, q0):
        raise RegionError("base cylinder leaves the space-time domain")
    if not k > 0:
        raise ParameterError(f"level must be positive, got k = {k}")
    rho, sigma = 0.5 * q0.rho, 0.5 * q0.sigma
    dom = u.domain
    dx_min = min(dom.dx)
    usable = max(1, int(math.floor(math.log2(max(rho / (0.5 * dx_min), 2.0)))))
    truncated = usable < i_max
    n_steps = min(i_max, usable)

    idx = np.arange(n_steps + 1)
    rho_i = rho * (1.0 + 0.5**idx)
    sigma_i = sigma * (1.0 + 0.5**idx)
    k_i = k * (1.0 - 0.5**idx)
    x_i = np.empty(n_steps + 1)
    for i in range(n_steps + 1):
        cyl = Cylinder(q0.center, float(rho_i[i]), float(sigma_i[i]))
        x_i[i] = mean_integral(truncate_plus(u, float(k_i[i])), d.m, cyl)

    lam, c_fit, c_i = _fit_recursion(x_i, d.kappa)
    if c_fit > 0:
        threshold = c_fit ** (-1.0 / d.kappa) * lam ** (-1.0 / d.kappa**2)
    else:
        threshold = math.inf
    return DeGiorgiTrace(
        rho_i=rho_i,
        sigma_i=sigma_i,
        k_i=k_i,
        x_i=x_i,
        c_i=c_i,
        lambda_fit=lam,
        c_fit=c_fit,
        threshold=threshold,
        threshold_ok=bool(x_i[0] <= threshold),
        truncated=truncated,
    )


def _fit_recursion(x_i: np.ndarray, kappa: float):
    """Fit (lambda, C) with X_{i+1} <= C lambda**i X_i**(1+kappa) over the
    measured steps, choosing lambda >= 1 to make the convergence threshold
    least demanding.  Steps after the sequence hits zero are skipped."""
    steps = [(i, a, b) for i, (a, b) in enumerate(zip(x_i[:-1], x_i[1:])) if a > 0 and b > 0]
    if not steps:
        return 1.0, 0.0, np.zeros(max(len(x_i) - 1, 0))

    lams = np.logspace(0.0, math.log10(64.0), 241)

    def min_c(lam):
        return max(b / (lam**i * a ** (1.0 + kappa)) for i, a, b in steps)

    demands = [
        (1.0 / kappa) * math.log(min_c(lam)) + (1.0 / kappa**2) * math.log(lam)
        for lam in lams
    ]
    best = int(np.argmin(demands))
    lam = float(lams[best])
    c_fit = float(min_c(lam))
    c_i = np.array(
        [
            x_i[i + 1] / (lam**i * x_i[i] ** (1.0 + kappa)) if x_i[i] > 0 else 0.0
            for i in range(len(x_i) - 1)
        ]
    )
    return lam, c_fit, c_i


# ---------------------------------------------------------------------------
# sup-bound verification


@dataclass(frozen=True)
class BoundReport:
    """Measured supremum against the predicted levels on one cylinder pair."""

    center: tuple
    rho: float
    sigma: float
    ess_sup: float
    k_choice: float
    k_theorem: float
    margin: float
    eps: float
    eps_threshold: float
    eps_ok: bool
    norm_a: float
    norm_b: float
    mean_um: float
    passed: bool


def verify_sup_bound(u: SpaceTimeField, z_o: tuple, rho: float, sigma: float,
                     spec: IntegrandSpec, c_cal: float = 1.0) -> BoundReport:
    """Compare the measured half-cylinder supremum with the level formula
    and the coefficient-free bound on Q_{2rho,2sigma}(z_o).

    The regularization strength is checked against its admissible threshold
    and flagged (not rejected) when it exceeds it.
    """
    if spec.params.n != u.domain.n:
        raise ParameterError(
            f"spec has n = {spec.params.n} but the field has n = {u.domain.n}")
    d = spec.d
    q0 = Cylinder(tuple(z_o), 2.0 * rho, 2.0 * sigma)
    if not cylinder_in_domain(u.domain, q0):
        raise RegionError(
            f"cylinder Q(2rho={2 * rho}, 2sigma={2 * sigma}) at {z_o} leaves the domain"
        )
    a = spec.coeffs.a.sample(u.domain)
    b = spec.coeffs.b.sample(u.domain)
    norms = coefficient_norms(a, b, spec.params.alpha, spec.params.beta, q0)
    mean_um = mean_integral(truncate_plus(u, 0.0), d.m, q0)
    mu = spec.params.mu

    k_choice = choose_level_k(mean_um, norms.norm_a, norms.norm_b, rho, sigma, mu, d, c_cal)
    k_thm = theorem_bound(mean_um, rho, sigma, d, c_cal)
    half = Cylinder(tuple(z_o), rho, sigma)
    ess = ess_sup(u, half)
    if k_choice > 0:
        threshold = epsilon_threshold(k_choice, rho, norms.norm_a, norms.norm_b, d)
    else:
        threshold = math.inf
    return BoundReport(
        center=tuple(z_o),
        rho=rho,
        sigma=sigma,
        ess_sup=ess,
        k_choice=k_choice,
        k_theorem=k_thm,
        margin=k_choice / ess if ess > 0 else math.inf,
        eps=spec.eps,
        eps_threshold=threshold,
        eps_ok=spec.eps <= threshold,
        norm_a=norms.norm_a,
        norm_b=norms.norm_b,
        mean_um=mean_um,
        passed=ess <= k_choice,
    )
