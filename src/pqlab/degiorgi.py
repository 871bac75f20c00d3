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
from .exponents import DerivedExponents, _power_product, epsilon_threshold
from .grid import (
    CoefficientNorms,
    Cylinder,
    Domain,
    SpaceTimeField,
    _node_integral,
    _region_norms,
    _resolve,
    _same_grid,
    cylinder_in_domain,
)
from .model import IntegrandSpec
from .scheme import gradient_powers


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

    # (u - k)_+ only at the time levels of the two cylinders, over the whole
    # space so that its gradient is that of the whole field
    dom = u.domain
    t_in, ball_in, _ = _resolve(dom, inner)
    t_out, ball_out, measure = _resolve(dom, outer)
    levels = t_in | t_out
    trunc = np.maximum(u.values[levels] - k, 0.0)
    inner_vals = trunc[t_in[levels]]
    outer_vals = trunc[t_out[levels]][:, ball_out]
    dr = outer.rho - inner.rho
    ds = outer.sigma - inner.sigma
    q, p = d.q, d.p

    sup_term = float((inner_vals[:, ball_in] ** 2).sum(axis=1).max() * dom.cell_volume)
    if sup_term == 0.0 and _node_integral(outer_vals, 1.0, dom) / measure == 0.0:
        return CaccioppoliSides((0.0,) * 3, (0.0,) * 4)

    grad_int, grad_qb = gradient_powers(inner_vals, dom, (d.p_alpha, d.q_beta), ball_in)
    lhs_terms = (sup_term, grad_int**d.grad_exponent / norms.raw_a, eps * grad_qb)

    t_mu = (
        mu ** (q - 1.0)
        / dr
        * norms.raw_b
        * _node_integral(outer_vals, d.beta_conj, dom) ** (1.0 / d.beta_conj)
    )
    t_hoelder = (
        norms.raw_b
        * norms.raw_a ** ((q - 1.0) / p)
        / dr
        * _node_integral(outer_vals, d.gamma, dom) ** (1.0 / d.gamma)
    ) ** d.time_exponent
    t_eps = eps / dr**d.q_beta * _node_integral(outer_vals, d.q_beta, dom)
    t_time = _node_integral(outer_vals, 2.0, dom) / ds
    return CaccioppoliSides(lhs_terms, (t_mu, t_hoelder, t_eps, t_time))


def _truncated_mean(u: SpaceTimeField, k: float, r: float, nodes: tuple) -> float:
    """mean_integral(truncate_plus(u, k), r, cyl), truncating only the
    cylinder's nodes, given as _resolve(u.domain, cyl)."""
    t_mask, ball, measure = nodes
    vals = np.maximum(u.values[t_mask][:, ball] - k, 0.0)
    return _node_integral(vals, r, u.domain) / measure


# ---------------------------------------------------------------------------
# level formulas


def choose_level_k(mean_um: float, norm_a: float, norm_b: float, rho: float,
                   sigma: float, mu: float, d: DerivedExponents,
                   c_cal: float = 1.0) -> float:
    """Five-term level formula driving the iteration: _level_terms' largest."""
    return max(_level_terms(mean_um, norm_a, norm_b, rho, sigma, mu, d, c_cal))


def _level_terms(mean_um, norm_a, norm_b, rho, sigma, mu, d, c_cal) -> tuple:
    """The terms (term1, ..., term5) of the level formula; term1 (with c_cal)
    and term2 read u, through mean_um, and the others do not.

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

    term1 = _power_product(c_cal, (sigma / norm_a * (ab / rho) ** s, d.theta1),
                           (ab / rho ** (q - p), d.theta2), (mean_um, d.theta3))
    term2 = mean_um ** (1.0 / d.m)
    term3 = _inverse_scaling_term(norm_a / sigma * (rho / ab) ** s, p, q)
    term4 = rho * mu ** (p + 1.0 - q) / ab
    if d.q_equals_p:
        return term1, term2, term3, term4
    return term1, term2, term3, term4, rho / ab ** (1.0 / (q - p))


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
    term1 = _power_product(c_cal, (sigma / rho**s, d.theta1),
                           (rho, -(d.q - d.p) * d.theta2), (mean_um, d.theta3))
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

    @property
    def monotone(self) -> bool:
        """Whether X_i never rises by more than 1e-12 X_0 as the cylinders
        shrink, the verdict of pqlab trace-degiorgi; a rise from X_0 = 0 fails."""
        return bool(np.all(np.diff(self.x_i) <= 1e-12 * self.x_i[0]))


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
    if i_max < 1:
        raise ParameterError(f"need i_max >= 1 iteration steps, got {i_max}")
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
        x_i[i] = _truncated_mean(u, float(k_i[i]), d.m, _resolve(dom, cyl))

    lam, log_c, log_c_i = _fit_recursion(x_i, d.kappa)
    # threshold = C^(-1/kappa) lambda^(-1/kappa^2): +inf where C = 0
    log_threshold = -(log_c / d.kappa + math.log(lam) / d.kappa**2)
    with np.errstate(over="ignore"):  # a constant beyond float64 reads inf
        c_fit, threshold = np.exp([log_c, log_threshold]).tolist()
        c_i = np.exp(log_c_i)
    return DeGiorgiTrace(
        rho_i=rho_i,
        sigma_i=sigma_i,
        k_i=k_i,
        x_i=x_i,
        c_i=c_i,
        lambda_fit=lam,
        c_fit=c_fit,
        threshold=threshold,
        threshold_ok=bool(x_i[0] == 0.0 or math.log(x_i[0]) <= log_threshold),
        truncated=truncated,
    )


def _fit_recursion(x_i: np.ndarray, kappa: float):
    """Fit (lambda, C) with X_{i+1} <= C lambda**i X_i**(1+kappa) over the
    measured steps, choosing lambda >= 1 on a grid to make the convergence
    threshold least demanding, in logarithms so that no scale of X_i
    overflows: log C(lambda) = max_i (log X_{i+1} - i log lambda - (1 +
    kappa) log X_i).  Steps where X_i or X_{i+1} is zero are skipped.

    Returns (lambda, log C, log C_i), C_i the steps' constants at lambda;
    a skipped step's log C_i is -inf, and so is log C if every step is."""
    steps = np.flatnonzero((x_i[:-1] > 0) & (x_i[1:] > 0))
    log_c_i = np.full(len(x_i) - 1, -math.inf)
    if not len(steps):
        return 1.0, -math.inf, log_c_i
    lams = np.logspace(0.0, math.log10(64.0), 241)
    log_lams = np.log(lams)
    # log X_{i+1} - (1 + kappa) log X_i, and log C at every lambda of the grid
    log_ratio = np.log(x_i[steps + 1]) - (1.0 + kappa) * np.log(x_i[steps])
    log_c = np.max(log_ratio - np.multiply.outer(log_lams, steps), axis=1)
    best = int(np.argmin(log_c / kappa + log_lams / kappa**2))
    log_c_i[steps] = log_ratio - steps * log_lams[best]
    return float(lams[best]), float(log_c[best]), log_c_i


# ---------------------------------------------------------------------------
# sup-bound verification


@dataclass(frozen=True)
class BoundReport:
    """Measured supremum against the predicted levels on one cylinder pair;
    binding names the level term that attains k_choice ("term1"..."term5"),
    norms the coefficient norms on Q_{2rho,2sigma} that Caccioppoli reads."""

    center: tuple
    rho: float
    sigma: float
    ess_sup: float
    k_choice: float
    binding: str
    k_theorem: float
    margin: float
    eps: float
    eps_threshold: float
    eps_ok: bool
    norms: CoefficientNorms
    mean_um: float
    passed: bool


def verify_sup_bound(u: SpaceTimeField, z_o: tuple, rho: float, sigma: float,
                     spec: IntegrandSpec, c_cal: float = 1.0) -> BoundReport:
    """Compare the measured half-cylinder supremum with the level formula
    and the coefficient-free bound on Q_{2rho,2sigma}(z_o).

    The regularization strength is checked against its admissible threshold
    and flagged (not rejected) when it exceeds it.  This is the one-target
    case of _sup_bound_check, which harness.target_bounds calls once per
    target.
    """
    if spec.params.n != u.domain.n:
        raise ParameterError(
            f"spec has n = {spec.params.n} but the field has n = {u.domain.n}")
    return _sup_bound_check(u.domain, z_o, rho, sigma, spec, c_cal)[0](u, spec)


def _sup_bound_check(domain: Domain, z_o: tuple, rho: float, sigma: float,
                     spec: IntegrandSpec, c_cal: float):
    """The part of verify_sup_bound that reads neither the field nor eps:
    the cylinder check, the nodes of Q_{2rho,2sigma}(z_o) and of its top
    half Q_{rho,sigma}(z_o), and the coefficient norms on the former.
    Returns check(u, spec), the part per field, and the top half's (t_mask, ball)."""
    center = tuple(z_o)
    q0 = Cylinder(center, 2.0 * rho, 2.0 * sigma)
    if not cylinder_in_domain(domain, q0):
        raise RegionError(
            f"cylinder Q(2rho={2 * rho}, 2sigma={2 * sigma}) at {z_o} leaves the domain"
        )
    # a and b at the cylinder's nodes only: they are constant in time
    t_mask, ball, measure = base = _resolve(domain, q0)
    at_ball = [c[ball] for c in domain.meshgrid()]
    shape = (int(t_mask.sum()), len(at_ball[0]))
    norms = _region_norms(*(np.broadcast_to(c.at(*at_ball), shape)
                            for c in (spec.coeffs.a, spec.coeffs.b)),
                          spec.params.alpha, spec.params.beta, domain, q0, measure)
    top_t, top_ball, _ = _resolve(domain, Cylinder(center, rho, sigma))

    def check(u: SpaceTimeField, spec: IntegrandSpec) -> BoundReport:
        _same_grid(domain, u=u)
        d = spec.d
        mean_um = _truncated_mean(u, 0.0, d.m, base)
        terms = _level_terms(mean_um, norms.norm_a, norms.norm_b, rho, sigma,
                             spec.params.mu, d, c_cal)
        k_choice = max(terms)
        k_thm = theorem_bound(mean_um, rho, sigma, d, c_cal)
        ess = float(u.values[top_t][:, top_ball].max())
        threshold = (epsilon_threshold(k_choice, rho, norms.norm_a, norms.norm_b, d)
                     if k_choice > 0 else math.inf)
        return BoundReport(
            center=center,
            rho=rho,
            sigma=sigma,
            ess_sup=ess,
            k_choice=k_choice,
            binding=f"term{terms.index(k_choice) + 1}",
            k_theorem=k_thm,
            margin=k_choice / ess if ess > 0 else math.inf,
            eps=spec.eps,
            eps_threshold=threshold,
            eps_ok=spec.eps <= threshold,
            norms=norms,
            mean_um=mean_um,
            passed=ess <= k_choice,
        )
    return check, (top_t, top_ball)
