"""Exponent arithmetic for parabolic p,q-growth problems.

Holds the raw structure parameters (dimension, growth exponents p <= q,
integrability exponents alpha for 1/a and beta for b, degeneracy parameter
mu, regularization strength eps), the growth-gap condition

    q < p * alpha/(alpha+1) * (beta-1)/beta + 2/(n+2),

and all exponents derived from it: p_alpha, q_beta, the Hoelder exponent
gamma, the interpolation exponent m, the iteration exponent kappa and the
level exponents theta1, theta2, theta3.  Infinite alpha or beta are
first-class values; all formulas then use the limiting factors
alpha/(alpha+1) -> 1 and (beta-1)/beta -> 1.

The gap condition is strict.  It is decided in exact rational arithmetic
(every float is a rational, and the infinite-exponent factors are exactly
one), so no tolerance enters the accept/reject decision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class StructureParams:
    """Raw problem parameters.

    n     spatial dimension (integer >= 1)
    p     lower growth exponent, p >= 2
    q     upper growth exponent, q >= p
    alpha integrability exponent of 1/a  (> 1, may be math.inf)
    beta  integrability exponent of b    (> 1, may be math.inf)
    mu    degeneracy parameter in [0, 1]
    eps   regularization strength in [0, 1]

    Range checks run at construction; the gap condition does not (that is
    what check_gap decides).
    """

    n: int
    p: float
    q: float
    alpha: float = math.inf
    beta: float = math.inf
    mu: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ParameterError(f"n must be an integer >= 1, got {self.n!r}")
        if not self.p >= 2:
            raise ParameterError(f"p must satisfy p >= 2, got p = {self.p}")
        if not self.q >= self.p:
            raise ParameterError(f"q must satisfy q >= p, got q = {self.q} < p = {self.p}")
        if not self.alpha > 1:
            raise ParameterError(f"alpha must satisfy alpha > 1, got alpha = {self.alpha}")
        if not self.beta > 1:
            raise ParameterError(f"beta must satisfy beta > 1, got beta = {self.beta}")
        if not 0.0 <= self.mu <= 1.0:
            raise ParameterError(f"mu must lie in [0, 1], got mu = {self.mu}")
        if not 0.0 <= self.eps <= 1.0:
            raise ParameterError(f"eps must lie in [0, 1], got eps = {self.eps}")


def _rational_factor(value: float, which: str) -> Fraction:
    # exact alpha/(alpha+1) resp. (beta-1)/beta; 1 for the infinite limit
    if math.isinf(value):
        return Fraction(1)
    v = Fraction(value)
    return v / (v + 1) if which == "alpha" else (v - 1) / v


@dataclass(frozen=True)
class GapReport:
    """Outcome of the gap check.

    ok                       strict gap condition holds
    margin                   rhs - q (positive iff ok)
    rhs                      the admissible upper limit for q
    coefficient_product      alpha/(alpha+1) * (beta-1)/beta
    coefficient_floor        1 - 2/(p(n+2))
    implied_restriction_ok   coefficient_product > coefficient_floor
    """

    ok: bool
    margin: float
    rhs: float
    coefficient_product: float
    coefficient_floor: float
    implied_restriction_ok: bool


def check_gap(params: StructureParams) -> GapReport:
    """Decide the strict gap condition and report the diagnostic margin.

    The decision is exact: floats convert to rationals without rounding and
    the comparison is done over the rationals.
    """
    af = _rational_factor(params.alpha, "alpha")
    bf = _rational_factor(params.beta, "beta")
    p = Fraction(params.p)
    q = Fraction(params.q)
    n = params.n

    rhs = p * af * bf + Fraction(2, n + 2)
    margin = rhs - q
    product = af * bf
    floor = 1 - Fraction(2) / (p * (n + 2))
    return GapReport(
        ok=margin > 0,
        margin=float(margin),
        rhs=float(rhs),
        coefficient_product=float(product),
        coefficient_floor=float(floor),
        implied_restriction_ok=product > floor,
    )


@dataclass(frozen=True)
class DerivedExponents:
    """Every exponent derived from a gap-satisfying parameter set.

    Carries copies of the raw parameters so that downstream formulas
    (cylinder scaling, level choice) need no second argument.
    """

    n: int
    p: float
    q: float
    alpha: float
    beta: float
    p_alpha: float
    q_beta: float
    beta_conj: float
    gamma: float
    m: float
    kappa: float
    theta1: float
    theta2: float
    theta3: float
    p_conj: float
    p_alpha_conj: float
    q_beta_conj: float
    q_equals_p: bool

    @property
    def time_exponent(self) -> float:
        """p/(p+1-q): the intrinsic cylinder depth is rho**time_exponent."""
        return self.p / (self.p + 1.0 - self.q)

    @property
    def grad_exponent(self) -> float:
        """(alpha+1)/alpha, read as 1 for infinite alpha: the energy bound and
        the Caccioppoli inequality raise the integral of |Du|**p_alpha to it."""
        return 1.0 if math.isinf(self.alpha) else (self.alpha + 1.0) / self.alpha


def derive(params: StructureParams) -> DerivedExponents:
    """Compute all derived exponents by the closed formulas.

    Requires the gap condition; raises ParameterError otherwise.  Pure:
    identical inputs give bit-identical outputs.
    """
    gap = check_gap(params)
    if not gap.ok:
        raise ParameterError(
            f"gap condition fails: q = {params.q} must be < {gap.rhs} (margin {gap.margin})"
        )

    n, p, q, alpha, beta = params.n, params.p, params.q, params.alpha, params.beta
    # alpha/(alpha+1) and (beta-1)/beta, read as 1 for infinite alpha resp. beta
    af = 1.0 if math.isinf(alpha) else alpha / (alpha + 1.0)
    bf = 1.0 if math.isinf(beta) else (beta - 1.0) / beta

    p_alpha = p * af
    q_beta = q / bf
    beta_conj = 1.0 / bf
    # gamma = beta*p_alpha / ((beta-1)*p_alpha - beta*(q-1)), written via
    # (beta-1)/beta so that the infinite-beta limit is p_alpha/(p_alpha+1-q)
    gamma = p_alpha / (bf * p_alpha - (q - 1.0))
    m = p_alpha * (n + 2.0) / n
    kappa = (1.0 / gamma) * (p / (p + 1.0 - q)) * ((n + p) / n) * af - 1.0
    denom = (m - gamma) * (1.0 + kappa)
    theta1 = p_alpha / (n * denom)
    theta2 = p_alpha / ((p + 1.0 - q) * denom)
    theta3 = kappa / denom

    return DerivedExponents(
        n=n,
        p=p,
        q=q,
        alpha=alpha,
        beta=beta,
        p_alpha=p_alpha,
        q_beta=q_beta,
        beta_conj=beta_conj,
        gamma=gamma,
        m=m,
        kappa=kappa,
        theta1=theta1,
        theta2=theta2,
        theta3=theta3,
        p_conj=p / (p - 1.0),
        p_alpha_conj=p_alpha / (p_alpha - 1.0),
        q_beta_conj=q_beta / (q_beta - 1.0),
        q_equals_p=(q == p),
    )


def epsilon_threshold(k: float, rho: float, norm_a: float, norm_b: float,
                      d: DerivedExponents) -> float:
    """Largest admissible regularization strength for a level k on radius rho.

        (A**((q-1)/p) * B)**(p/(p+1-q)) * (k/rho)**(p/(p+1-q) - q_beta)

    where A, B are the mean-integral norms of 1/a and b on the base cylinder.
    """
    if not k > 0:
        raise ParameterError(f"level k must be positive, got {k}")
    if not rho > 0:
        raise ParameterError(f"radius rho must be positive, got {rho}")
    if not (norm_a > 0 and norm_b > 0):
        raise ParameterError("coefficient norms must be positive")
    s = d.time_exponent
    return _power_product(1.0, (norm_a ** ((d.q - 1.0) / d.p) * norm_b, s),
                          (k / rho, s - d.q_beta))


def _power_product(c: float, *powers) -> float:
    """c times base**exponent over the (base, exponent) pairs, left to right.
    Where a power lies past float range but the product need not (near the
    gap limit mean**theta3 brings a huge factor back), the product is taken
    in logarithms: 0 at a zero base, inf past float range."""
    try:
        return math.prod((base**e for base, e in powers), start=c)
    except OverflowError:
        if not all(base for base, _ in powers):
            return 0.0
        log = math.log(c) + math.fsum(e * math.log(base) for base, e in powers)
        return math.exp(log) if log <= _LOG_MAX else math.inf
