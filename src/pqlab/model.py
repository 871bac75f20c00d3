"""Concrete coefficient fields and the double-phase model integrand.

The integrand is

    f(x, t, xi) = a(x,t)/p * (mu^2 + |xi|^2)^(p/2)
                + b(x,t)/q * (mu^2 + |xi|^2)^(q/2),

regularized to f_i = f + eps * |xi|^(q_beta), with flux

    D_xi f_i = a (mu^2+|xi|^2)^((p-2)/2) xi + b (mu^2+|xi|^2)^((q-2)/2) xi
             + eps * q_beta * |xi|^(q_beta-2) xi.

The derivative constant on the eps-terms is exactly q_beta.  Coefficients
come from a small preset family (constants, a power-law degeneracy
|x - x_c|**theta with optional floor, and a checkerboard), all nonnegative
and time-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParameterError
from .exponents import DerivedExponents, StructureParams, derive
from .grid import Domain, SpaceTimeField


@dataclass(frozen=True)
class Coefficient:
    """One nonnegative coefficient function from the preset family.

    kind "constant":     value (the default kind)
    kind "power":        max(|x - center|, floor)**exponent
    kind "checkerboard": lo/hi on a parity pattern of cells with given width
    """

    kind: str = "constant"
    value: float = 1.0
    center: tuple = (0.5,)
    exponent: float = 0.0
    floor: float = 0.0
    lo: float = 1.0
    hi: float = 2.0
    width: float = 0.25
    origin: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "power", "checkerboard"):
            raise ParameterError(f"unknown coefficient kind {self.kind!r}")
        for f in fields(self):
            if f.name != "kind" and not np.all(np.isfinite(getattr(self, f.name))):
                raise ParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.kind == "constant" and self.value < 0:
            raise ParameterError("constant coefficient must be nonnegative")
        if self.kind == "power" and self.floor < 0:
            raise ParameterError("power-law floor must be nonnegative")
        if self.kind == "checkerboard" and (self.lo < 0 or self.hi < 0 or self.width <= 0):
            raise ParameterError("checkerboard needs nonnegative values and positive width")

    def at(self, *coords) -> np.ndarray:
        """Evaluate at spatial coordinate arrays (time-independent)."""
        coords = [np.asarray(c, float) for c in coords]
        if self.kind == "constant":
            return np.full(np.broadcast(*coords).shape, self.value)
        if self.kind == "power":
            if len(self.center) != len(coords):
                raise ParameterError(f"power-law center {self.center} needs {len(coords)} numbers")
            dist = np.sqrt(sum((c - cc) ** 2 for c, cc in zip(coords, self.center)))
            return np.maximum(dist, self.floor) ** self.exponent
        parity = sum(np.floor((c - self.origin) / self.width).astype(int) for c in coords) % 2
        return np.where(parity == 0, self.lo, self.hi)

    def sample(self, domain: Domain) -> SpaceTimeField:
        """Sample on the grid, constant in time."""
        spatial = self.at(*domain.meshgrid())
        return SpaceTimeField(domain, np.broadcast_to(spatial, domain.shape))


@dataclass(frozen=True)
class CoefficientSpec:
    """The pair (a, b) of degenerate / unbounded coefficients."""

    a: Coefficient
    b: Coefficient


@dataclass(frozen=True)
class IntegrandSpec:
    """Structure parameters + coefficients + the regularization strength of
    this instance.  eps overrides params.eps (the sweep varies it)."""

    params: StructureParams
    coeffs: CoefficientSpec
    eps: float
    d: DerivedExponents = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ParameterError(f"eps must lie in [0, 1], got {self.eps}")
        object.__setattr__(self, "d", derive(self.params))


def flux_coefficient(s, a_val, b_val, spec: IntegrandSpec, eps: float | None = None,
                     derivative: bool = False):
    """Scalar G with D_xi f_i(xi) = G(|xi|^2) xi, at s = |xi|^2.

    With derivative=True, returns (G, 2 G'(s)).  Each phase c r^((e-2)/2),
    with r = mu^2 + s (or s for the eps-term), contributes (e-2) c r^((e-2)/2)/r
    to 2 G'; that is 0/0 where r = 0 and is taken as 0, the limit of
    2 G'(s) s there.  So the Newton weight G + 2 G'(s) s of each phase is
    c r^((e-2)/2) (1 + (e-2) s/r).
    """
    if eps is None:
        eps = spec.eps
    mu2 = spec.params.mu**2
    p, q, qb = spec.params.p, spec.params.q, spec.d.q_beta
    r = mu2 + s
    g_a = np.asarray(a_val, float) * r ** ((p - 2.0) / 2.0)
    g_b = np.asarray(b_val, float) * r ** ((q - 2.0) / 2.0)
    g_e = eps * qb * s ** ((qb - 2.0) / 2.0)
    g = g_a + g_b + g_e
    if not derivative:
        return g
    # each phase's (e-2) c r^((e-2)/2), formed in the phase's own array
    g_a *= p - 2.0
    g_b *= q - 2.0
    g_e *= qb - 2.0
    dg = _quotient(g_a + g_b, r)
    dg += _quotient(g_e, s)
    return g, dg


def _quotient(num, den):
    """num / den, with 0 where den = 0 (the numerators above vanish there)."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def flux(xi, a_val, b_val, spec: IntegrandSpec, eps: float | None = None) -> np.ndarray:
    """D_xi f_i at gradient xi (leading axis = components).

    All exponents are nonnegative (p, q, q_beta >= 2), so xi = 0 with mu = 0
    is regular: the convention 0**0 = 1 makes the p = 2 term linear and every
    other term vanish there.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return flux_coefficient(np.sum(xi**2, axis=0), a_val, b_val, spec, eps) * xi


def integrand(xi, a_val, b_val, spec: IntegrandSpec, eps: float | None = None) -> np.ndarray:
    """Value of the regularized integrand f_i; pass eps=0.0 for plain f."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return energy_density(np.sum(xi**2, axis=0), a_val, b_val, spec, eps)


def energy_density(s, a_val, b_val, spec: IntegrandSpec, eps: float | None = None) -> np.ndarray:
    """f_i at s = |xi|^2, as flux_coefficient takes its argument:

        r^(p/2) (a/p) + r^(q/2) (b/q) + s^(q_beta/2) eps,  r = mu^2 + s,

    summed left to right.  The terms are formed in the result and in one
    scratch array, by the operations of the formula written out in the same
    order, so the value is bitwise the written formula's.  For a 0-d s, r
    stays a numpy scalar, whose powers numpy rounds by its scalar arithmetic
    as the written formula does, and a 0-d result is a numpy scalar."""
    if eps is None:
        eps = spec.eps
    s = np.asarray(s, float)
    a, b = np.asarray(a_val, float), np.asarray(b_val, float)
    p, q, qb, mu2 = spec.params.p, spec.params.q, spec.d.q_beta, spec.params.mu**2
    shape = np.broadcast_shapes(s.shape, a.shape, b.shape)
    out, scratch = np.empty(shape), np.empty(shape)
    # the augmented operators act in place on an array and rebind a scalar
    term = np.add(mu2, s, out=out if s.ndim else None)
    term **= p / 2.0
    np.multiply(term, a / p, out=out)
    term = np.add(mu2, s, out=scratch if s.ndim else None)
    term **= q / 2.0
    term *= b / q
    out += term
    np.copyto(scratch, s)
    scratch **= qb / 2.0
    scratch *= eps
    out += scratch
    return out[()]
