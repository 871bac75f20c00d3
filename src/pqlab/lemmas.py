"""Executable analysis tools: exponential time mollification, a parabolic
interpolation inequality, fast geometric convergence, and the absorption
iteration bound.

The mollification is the forward exponential average

    [v]_h(x, t) = (1/h) * integral_t^T exp((t-s)/h) v(x, s) ds,

computed per spatial node by integrating the exponential kernel exactly
against the piecewise linear interpolant of v in time.  This keeps the
L^r contraction property up to interpolation error and makes the identity
d/dt [v]_h = ([v]_h - v)/h hold to second order in dt.  Note the kernel
runs forward from t to T; for t = T the average is empty and equals zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .grid import (
    Cylinder,
    SpaceTimeField,
    _node_integral,
    _read_only,
    _resolve,
    boundary_frame,
)
from .scheme import gradient_powers


def mollify_time(v: SpaceTimeField, h: float) -> SpaceTimeField:
    """Forward exponential time average of v with memory h > 0.

    Exact for the piecewise-linear interpolant: on each time cell the kernel
    integral has a closed form, and the averages satisfy the backward
    recurrence  M_j = cell_j + exp(-dt/h) * M_{j+1}  with M_nt = 0.
    """
    if not h > 0:
        raise ParameterError(f"mollification scale h must be positive, got {h}")
    dom = v.domain
    dt = dom.dt
    decay = math.exp(-dt / h)
    ramp = (h / dt) * (1.0 - decay) - decay  # weight of the linear part
    out = np.zeros_like(v.values)
    vals = v.values
    for j in range(dom.nt - 1, -1, -1):
        cell = vals[j] * (1.0 - decay) + (vals[j + 1] - vals[j]) * ramp
        out[j] = cell + decay * out[j + 1]
    return SpaceTimeField(dom, _read_only(out))


def mollifier_derivative_residual(v: SpaceTimeField, h: float) -> float:
    """Max over interior nodes of |d/dt [v]_h - ([v]_h - v)/h|, the time
    derivative taken by central differences."""
    m = mollify_time(v, h)
    dt = v.domain.dt
    dm = (m.values[2:] - m.values[:-2]) / (2.0 * dt)
    target = (m.values[1:-1] - v.values[1:-1]) / h
    return float(np.abs(dm - target).max())


def interpolation_ratio(v: SpaceTimeField, cyl: Cylinder, p_alpha: float) -> float:
    """Empirical constant of the parabolic interpolation inequality.

    Returns LHS / RHS with

        LHS = mean integral over the cylinder of |v|**(p_alpha*(n+2)/n),
        RHS = (sup_t mean_B |v|**2)**(p_alpha/n) * r**p_alpha
              * mean integral of |Dv|**p_alpha,

    all constant-free.  Requires v(.,t) to vanish at and outside the lateral
    ball boundary for every time in the cylinder; by convention the ratio of
    the zero field is 0.
    """
    dom = v.domain
    tm, sm, measure = _resolve(dom, cyl)
    n = dom.n

    # lateral support check: nodes at or outside the sphere, plus the box
    # frame (the lateral boundary when the ball covers the whole box)
    lateral = ~sm | boundary_frame(dom)
    levels = v.values[tm]
    vmax = float(np.abs(levels).max())
    boundary_max = float(np.abs(levels[:, lateral]).max())
    if boundary_max > 1e-12 * max(vmax, 1e-300):
        raise PreconditionError(
            f"field does not vanish on the lateral boundary (max {boundary_max:g} "
            f"vs interior max {vmax:g})"
        )

    m_exp = p_alpha * (n + 2.0) / n
    nodes = levels[:, sm]
    lhs = _node_integral(nodes, m_exp, dom) / measure
    if lhs == 0.0:
        return 0.0

    sup_mean_sq = float((nodes**2).sum(axis=1).max()) / int(sm.sum())
    mean_dv = gradient_powers(levels, dom, (p_alpha,), sm)[0] / measure
    rhs = sup_mean_sq ** (p_alpha / n) * cyl.rho**p_alpha * mean_dv
    return lhs / rhs if rhs > 0 else math.inf


@dataclass(frozen=True)
class GeometricIteration:
    """Data of the superlinear recursion X_{i+1} = C * lam**i * X_i**(1+kappa)."""

    C: float
    lam: float
    kappa: float
    X0: float

    def __post_init__(self):
        if not self.C > 0:
            raise ParameterError(f"C must be positive, got {self.C}")
        if not self.lam > 1:
            raise ParameterError(f"lambda must exceed 1, got {self.lam}")
        if not self.kappa > 0:
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not self.X0 >= 0:
            raise ParameterError(f"X0 must be nonnegative, got {self.X0}")

    @property
    def threshold(self) -> float:
        """Largest starting value with guaranteed decay to zero:
        C**(-1/kappa) * lam**(-1/kappa**2)."""
        return self.C ** (-1.0 / self.kappa) * self.lam ** (-1.0 / self.kappa**2)


@dataclass(frozen=True)
class IterationResult:
    values: np.ndarray
    converged: bool
    diverged: bool


_CONVERGED_BELOW = 1e-12
_OVERFLOW_ABOVE = 1e150


def geometric_iterate(g: GeometricIteration, max_iter: int = 200) -> IterationResult:
    """Run the recursion; converged means dropping below 1e-12 within
    max_iter steps, diverged means overflow."""
    xs = [g.X0]
    x = g.X0
    for i in range(max_iter):
        if x < _CONVERGED_BELOW:
            return IterationResult(np.array(xs), True, False)
        x = g.C * g.lam**i * x ** (1.0 + g.kappa)
        if not math.isfinite(x) or x > _OVERFLOW_ABOVE:
            return IterationResult(np.array(xs), False, True)
        xs.append(x)
    return IterationResult(np.array(xs), x < _CONVERGED_BELOW, False)


@dataclass(frozen=True)
class AbsorptionParams:
    """Data of the absorption iteration bound on an interval [rho, sigma]:
    interpolation weight theta in (0,1), numerators A, B, C, D >= 0 and
    ordered exponents a >= b >= c >= 0."""

    theta: float
    A: float
    B: float
    C: float
    D: float
    a: float
    b: float
    c: float
    rho: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise ParameterError(f"theta must lie in (0, 1), got {self.theta}")
        if min(self.A, self.B, self.C, self.D) < 0:
            raise ParameterError("numerators A, B, C, D must be nonnegative")
        if not self.a >= self.b >= self.c >= 0:
            raise ParameterError(f"need a >= b >= c >= 0, got {(self.a, self.b, self.c)}")
        if not self.rho < self.sigma:
            raise ParameterError(
                f"need rho < sigma, got rho = {self.rho}, sigma = {self.sigma}"
            )


def absorption_bound(params: AbsorptionParams) -> float:
    """Conclusion of the absorption bound with unit constant:
    A/(sigma-rho)**a + B/(sigma-rho)**b + C/(sigma-rho)**c + D."""
    gap = params.sigma - params.rho
    return (
        params.A / gap**params.a
        + params.B / gap**params.b
        + params.C / gap**params.c
        + params.D
    )
