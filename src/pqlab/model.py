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

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .exponents import DerivedExponents, StructureParams, derive
from .grid import Domain, SpaceTimeField

__all__ = [
    "Coefficient",
    "CoefficientSpec",
    "IntegrandSpec",
    "StructureReport",
    "flux",
    "flux_coefficient",
    "integrand",
    "check_structure",
]


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
            dist = np.sqrt(sum((c - cc) ** 2 for c, cc in zip(coords, self.center)))
            return np.maximum(dist, self.floor) ** self.exponent
        parity = sum(np.floor((c - self.origin) / self.width).astype(int) for c in coords) % 2
        return np.where(parity == 0, self.lo, self.hi)

    def sample(self, domain: Domain) -> SpaceTimeField:
        """Sample on the grid, constant in time."""
        spatial = self.at(*domain.meshgrid())
        values = np.broadcast_to(spatial, domain.shape)
        return SpaceTimeField(domain, np.array(values))


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


def _as_xi(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        xi = xi[None]
    return xi


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
    dg = _quotient((p - 2.0) * g_a + (q - 2.0) * g_b, r)
    dg += _quotient((qb - 2.0) * g_e, s)
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
    xi = _as_xi(xi)
    return flux_coefficient(np.sum(xi**2, axis=0), a_val, b_val, spec, eps) * xi


def integrand(xi, a_val, b_val, spec: IntegrandSpec, eps: float | None = None) -> np.ndarray:
    """Value of the regularized integrand f_i; pass eps=0.0 for plain f."""
    xi = _as_xi(xi)
    if eps is None:
        eps = spec.eps
    s = np.sum(xi**2, axis=0)
    mu2 = spec.params.mu**2
    p, q, qb = spec.params.p, spec.params.q, spec.d.q_beta
    return (
        np.asarray(a_val, float) / p * (mu2 + s) ** (p / 2.0)
        + np.asarray(b_val, float) / q * (mu2 + s) ** (q / 2.0)
        + eps * s ** (qb / 2.0)
    )


@dataclass(frozen=True)
class StructureReport:
    """Sampled verification of the growth and coercivity conditions.

    upper_constant           smallest C with |D f_i| <= C (b s^((q-1)/2) + q_beta eps |xi|^(q_beta-1))
    upper_violation_measure  measure of the (x,t) node set where that bound
                             needs C > 1 for some sampled xi (for the model
                             this is where the a-term is not dominated by b)
    model_upper_constant     smallest C against the model-forma bound that
                             includes the a-term a s^((p-1)/2); exactly 1 at mu = 0
    coercivity_constant      largest C with <D f_i, xi> >= C (a s^((p-2)/2)|xi|^2
                             + q_beta eps |xi|^q_beta); >= 1 for the model
    coercivity_slack_min     min of LHS - RHS at C = 1 (>= 0 up to roundoff)
    """

    upper_constant: float
    upper_violation_measure: float
    model_upper_constant: float
    coercivity_constant: float
    coercivity_slack_min: float


def _ratio_max(num, den):
    # sup of num/den, ignoring 0/0; positive/0 counts as inf
    num, den = np.asarray(num), np.asarray(den)
    out = np.ones_like(num)
    active = (num > 0) | (den > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(active, num / den, 1.0)
    return float(np.max(out)) if out.size else 1.0


def check_structure(spec: IntegrandSpec, domain: Domain, sample_count: int = 64,
                    n_shells: int = 25, seed: int = 0) -> StructureReport:
    """Sample (x,t) grid nodes and gradients on logarithmic shells
    |xi| in [1e-6, 1e6] and measure the structure constants."""
    rng = np.random.default_rng(seed)
    grids = domain.meshgrid()
    flat = [g.ravel() for g in grids]
    total = flat[0].size
    take = min(sample_count, total)
    idx = rng.choice(total, size=take, replace=False)
    a_vals = spec.coeffs.a.at(*[f[idx] for f in flat])
    b_vals = spec.coeffs.b.at(*[f[idx] for f in flat])

    radii = np.logspace(-6, 6, n_shells)
    if domain.n == 1:
        dirs = np.array([[1.0], [-1.0]]).T  # shape (1, 2)
    else:
        ang = rng.uniform(0.0, 2.0 * np.pi, size=8)
        dirs = np.stack([np.cos(ang), np.sin(ang)])  # shape (2, 8)

    p, q, qb = spec.params.p, spec.params.q, spec.d.q_beta
    mu2 = spec.params.mu**2
    eps = spec.eps

    upper_c = 1.0
    model_c = 1.0
    coer_c = np.inf
    slack_min = np.inf
    violated = np.zeros(take, dtype=bool)

    for r in radii:
        for k in range(dirs.shape[1]):
            xi = (r * dirs[:, k])[:, None] * np.ones(take)[None, :]
            s = r**2
            fl = flux(xi, a_vals, b_vals, spec)
            fmag = np.sqrt(np.sum(fl**2, axis=0))
            pairing = np.sum(fl * xi, axis=0)

            upper_ref = b_vals * (mu2 + s) ** ((q - 1.0) / 2.0) + qb * eps * r ** (qb - 1.0)
            model_ref = a_vals * (mu2 + s) ** ((p - 1.0) / 2.0) + upper_ref
            lower_ref = a_vals * (mu2 + s) ** ((p - 2.0) / 2.0) * s + qb * eps * r**qb

            upper_c = max(upper_c, _ratio_max(fmag, upper_ref))
            model_c = max(model_c, _ratio_max(fmag, model_ref))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(lower_ref > 0, pairing / lower_ref, np.inf)
            coer_c = min(coer_c, float(np.min(ratios)))
            slack_min = min(slack_min, float(np.min(pairing - lower_ref)))
            violated |= fmag > upper_ref * (1.0 + 1e-12)

    sample_measure = domain.space_volume() * domain.T / take
    return StructureReport(
        upper_constant=upper_c,
        upper_violation_measure=float(violated.sum()) * sample_measure,
        model_upper_constant=model_c,
        coercivity_constant=coer_c,
        coercivity_slack_min=slack_min,
    )
