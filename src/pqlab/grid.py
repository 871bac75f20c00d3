"""Space-time fields on uniform grids and the measures taken over them.

A Domain is a box in 1 or 2 space dimensions crossed with a time interval
(0, T], sampled at nx nodes per spatial axis (boundary included) and nt+1
time levels.  A SpaceTimeField is one double per node, time level first.

Regions of integration are either the whole space-time box or a backward
cylinder B_rho(x_o) x (t_o - sigma, t_o].  Whole-box integrals use composite
trapezoid weights in every axis (exact for constants, second order for
smooth integrands).  Cylinder integrals use the node-counting rule: the set
of nodes with |x - x_o| < rho and t_o - sigma < t <= t_o, each weighted by
one cell volume, so that discrete mean integrals and raw integrals are
related by the exact region measure.  Suprema over regions are node maxima.

Binary dump layout (little-endian): magic b"PQF1", uint32 n, uint32 nx,
uint32 nt, per-axis float64 (lo, hi), float64 T, then the field values as
row-major float64.  CSV dumps carry one row per node with columns
t, x[, y], value.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegionError

__all__ = [
    "Domain",
    "SpaceTimeField",
    "Cylinder",
    "CoefficientNorms",
    "field_from_function",
    "constant_field",
    "lp_norm",
    "mean_integral",
    "region_measure",
    "truncate_plus",
    "ess_sup",
    "slice_sup_l2",
    "gradient",
    "boundary_frame",
    "cylinder_in_domain",
    "coefficient_norms",
    "save_field_csv",
    "save_field_dump",
    "load_field_dump",
]

_MAGIC = b"PQF1"

# names of the spatial axes; an n-dimensional domain has the first n
AXES = "xyz"


@dataclass(frozen=True)
class Domain:
    """Uniform grid over a spatial box times (0, T].

    box is a ((lo, hi), ...) tuple with one pair per spatial axis; every
    axis carries nx nodes, so spacings may differ per axis.
    """

    n: int
    box: tuple
    T: float
    nx: int
    nt: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ParameterError(f"fields support n in {{1, 2}}, got n = {self.n}")
        if len(self.box) != self.n:
            raise ParameterError("box must carry one (lo, hi) pair per axis")
        for lo, hi in self.box:
            if not hi > lo:
                raise ParameterError(f"empty axis extent ({lo}, {hi})")
        if not self.T > 0:
            raise ParameterError(f"final time must be positive, got T = {self.T}")
        if self.nx < 3:
            raise ParameterError(f"need nx >= 3 nodes per axis, got {self.nx}")
        if self.nt < 2:
            raise ParameterError(f"need nt >= 2 time steps, got {self.nt}")

    @property
    def dx(self) -> tuple:
        return tuple((hi - lo) / (self.nx - 1) for lo, hi in self.box)

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def axes(self) -> tuple:
        return tuple(np.linspace(lo, hi, self.nx) for lo, hi in self.box)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def shape(self) -> tuple:
        return (self.nt + 1,) + (self.nx,) * self.n

    def space_volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.box]))

    def meshgrid(self):
        """Spatial coordinate arrays of shape (nx,)*n, matrix-indexed."""
        return np.meshgrid(*self.axes, indexing="ij")


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Scalar samples over a Domain; values[j] is the slice at time j*dt."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.domain.shape:
            raise ParameterError(
                f"field shape {v.shape} does not match domain shape {self.domain.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ParameterError("field contains non-finite values")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Cylinder:
    """Backward cylinder B_rho(x_o) x (t_o - sigma, t_o].

    center is (x, t) in 1D or (x, y, t) in 2D.
    """

    center: tuple
    rho: float
    sigma: float

    def __post_init__(self):
        if not (self.rho > 0 and self.sigma > 0):
            raise ParameterError("cylinder needs positive rho and sigma")

    @property
    def x(self) -> tuple:
        return self.center[:-1]

    @property
    def t(self) -> float:
        return self.center[-1]


def field_from_function(domain: Domain, fn) -> SpaceTimeField:
    """Sample fn(x[, y], t) on the grid (vectorized evaluation)."""
    grids = np.meshgrid(domain.times, *domain.axes, indexing="ij")
    tg, spatial = grids[0], grids[1:]
    return SpaceTimeField(domain, np.asarray(fn(*spatial, tg), dtype=float))


def constant_field(domain: Domain, value: float) -> SpaceTimeField:
    return SpaceTimeField(domain, np.full(domain.shape, float(value)))


# ---------------------------------------------------------------------------
# region resolution


def _space_mask(domain: Domain, cyl: Cylinder) -> np.ndarray:
    grids = domain.meshgrid()
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, cyl.x))
    return dist2 < cyl.rho**2


def _time_mask(domain: Domain, cyl: Cylinder) -> np.ndarray:
    t = domain.times
    tol = 1e-12 * max(1.0, abs(cyl.t), cyl.sigma)
    return (t > cyl.t - cyl.sigma + tol) & (t <= cyl.t + tol)


def _resolve(domain: Domain, region) -> tuple:
    """(time_mask, space_mask) node masks for a region (None = everything)."""
    if region is None:
        return np.ones(domain.nt + 1, bool), np.ones((domain.nx,) * domain.n, bool)
    tm, sm = _time_mask(domain, region), _space_mask(domain, region)
    if not tm.any() or not sm.any():
        raise RegionError(
            f"region around {region.center} (rho={region.rho}, sigma={region.sigma}) "
            "contains no grid nodes"
        )
    return tm, sm


def region_measure(domain: Domain, region) -> float:
    """Measure of a region: continuum for the whole box, node count times
    cell volume for cylinders."""
    if region is None:
        return domain.space_volume() * domain.T
    tm, sm = _resolve(domain, region)
    return int(tm.sum()) * int(sm.sum()) * domain.cell_volume * domain.dt


def _trapezoid_weights(domain: Domain, time: bool = True) -> np.ndarray:
    """Composite trapezoid weights at the nodes: the outer product of the
    per-axis weights, time first (space only if time is False)."""
    axes = [(domain.nt + 1, domain.dt)] if time else []
    axes += [(domain.nx, h) for h in domain.dx]
    weights = []
    for nodes, h in axes:
        w = np.full(nodes, h)
        w[0] = w[-1] = 0.5 * h
        weights.append(w)
    return functools.reduce(np.multiply.outer, weights)


def _integrate_power(f: SpaceTimeField, r: float, region) -> float:
    """integral of |f|**r over the region."""
    dom = f.domain
    if region is None:
        return float(np.sum(np.abs(f.values) ** r * _trapezoid_weights(dom)))
    tm, sm = _resolve(dom, region)
    vals = np.abs(f.values[tm][:, sm]) ** r
    return float(vals.sum() * dom.cell_volume * dom.dt)


def lp_norm(f: SpaceTimeField, r: float, region=None) -> float:
    """Discrete L^r norm of f over the region, r >= 1 finite."""
    if not (np.isfinite(r) and r >= 1):
        raise ParameterError(f"lp_norm needs a finite exponent r >= 1, got {r}")
    return _integrate_power(f, r, region) ** (1.0 / r)


def mean_integral(f: SpaceTimeField, r: float, region=None) -> float:
    """Mean of |f|**r over the region; callers take roots themselves."""
    return _integrate_power(f, r, region) / region_measure(f.domain, region)


def truncate_plus(f: SpaceTimeField, k: float) -> SpaceTimeField:
    """Pointwise positive part (f - k)_+."""
    return SpaceTimeField(f.domain, np.maximum(f.values - k, 0.0))


def ess_sup(f: SpaceTimeField, region=None) -> float:
    """Node maximum of f over the region."""
    tm, sm = _resolve(f.domain, region)
    return float(f.values[tm][:, sm].max())


def slice_sup_l2(f: SpaceTimeField, cyl: Cylinder) -> float:
    """sup over cylinder times of the spatial integral of f**2 over the ball."""
    dom = f.domain
    tm, sm = _resolve(dom, cyl)
    slices = f.values[tm][:, sm] ** 2
    return float(slices.sum(axis=1).max() * dom.cell_volume)


def _partial(f: SpaceTimeField, axis: int) -> np.ndarray:
    """d f / d x_axis per node: central differences inside, second-order
    one-sided at the boundary."""
    return np.gradient(f.values, f.domain.dx[axis], axis=1 + axis, edge_order=2)


def gradient(f: SpaceTimeField) -> np.ndarray:
    """Spatial gradient per node, shape (n, nt+1, nx[, nx])."""
    return np.stack([_partial(f, axis) for axis in range(f.domain.n)])


def _grad_magnitude(f: SpaceTimeField) -> SpaceTimeField:
    """|Df| per node.  The squared components are added one axis at a time,
    so no stack of the gradient is held."""
    return SpaceTimeField(f.domain, np.sqrt(sum(_partial(f, axis) ** 2
                                                for axis in range(f.domain.n))))


def boundary_frame(domain: Domain) -> np.ndarray:
    """Spatial mask of the nodes on the boundary of the box, shape (nx,)*n."""
    inner = np.zeros((domain.nx,) * domain.n, bool)
    inner[(slice(1, -1),) * domain.n] = True
    return ~inner


def cylinder_in_domain(domain: Domain, cyl: Cylinder) -> bool:
    """True iff the closed cylinder sits inside the box with its bottom above
    t = 0 (the top may touch T; the final slice is not parabolic boundary)."""
    for (lo, hi), c in zip(domain.box, cyl.x):
        if not (c - cyl.rho > lo and c + cyl.rho < hi):
            return False
    return cyl.t - cyl.sigma > 0 and cyl.t <= domain.T


# ---------------------------------------------------------------------------
# coefficient norms


@dataclass(frozen=True)
class CoefficientNorms:
    """Norms of 1/a and b over a region.

    norm_a, norm_b  mean-integral forms (bold A and B)
    raw_a, raw_b    plain L^alpha norm of 1/a and L^beta norm of b
    """

    norm_a: float
    norm_b: float
    raw_a: float
    raw_b: float


def coefficient_norms(a: SpaceTimeField, b: SpaceTimeField, alpha: float,
                      beta: float, region=None) -> CoefficientNorms:
    """Mean and raw integral norms of 1/a (exponent alpha) and b (exponent
    beta) over a region; infinite exponents give node suprema."""
    measure = region_measure(a.domain, region)
    with np.errstate(divide="ignore"):
        inv_a = SpaceTimeField(a.domain, _finite_or_raise(1.0 / np.maximum(a.values, 0)))
    if np.isinf(alpha):
        raw_a = norm_a = ess_sup(inv_a, region)
    else:
        raw_a = lp_norm(inv_a, alpha, region)
        norm_a = raw_a / measure ** (1.0 / alpha)
    if np.isinf(beta):
        raw_b = norm_b = ess_sup(b, region)
    else:
        raw_b = lp_norm(b, beta, region)
        norm_b = raw_b / measure ** (1.0 / beta)
    return CoefficientNorms(norm_a, norm_b, raw_a, raw_b)


def _finite_or_raise(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ParameterError(
            "coefficient a vanishes at a grid node; 1/a is not integrable on "
            "the discrete region (move the degeneracy off-node or floor it)"
        )
    return values


# ---------------------------------------------------------------------------
# field I/O


def save_field_csv(f: SpaceTimeField, path) -> None:
    """One row t, x[, y], value per node, every number as %.17g.  The rows
    of one time level, coordinate columns filled in, form a template that
    is built once; each level is written with one % against it."""
    dom = f.domain
    spatial = np.meshgrid(*dom.axes, indexing="ij")
    template = "".join(
        "%s" + "".join(f"{c:.17g}," for c in node) + "%.17g\n"
        for node in zip(*(g.ravel().tolist() for g in spatial))
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(["t", *AXES[: dom.n], "value"]) + "\n")
        for t, level in zip(dom.times.tolist(), f.values):
            args = [f"{t:.17g},"] * (2 * level.size)
            args[1::2] = level.ravel().tolist()
            fh.write(template % tuple(args))


def save_field_dump(f: SpaceTimeField, path) -> None:
    dom = f.domain
    header = _MAGIC + struct.pack("<III", dom.n, dom.nx, dom.nt)
    for lo, hi in dom.box:
        header += struct.pack("<dd", lo, hi)
    header += struct.pack("<d", dom.T)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field_dump(path) -> SpaceTimeField:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ParameterError("not a field dump (bad magic)")
    if len(blob) < 16:
        raise ParameterError(f"field dump header needs 16 bytes, got {len(blob)}")
    n, nx, nt = struct.unpack_from("<III", blob, 4)
    off = 16 + 16 * n + 8
    if len(blob) < off:
        raise ParameterError(
            f"field dump header needs {off} bytes for n = {n}, got {len(blob)}"
        )
    box = tuple(struct.unpack_from("<dd", blob, 16 + 16 * k) for k in range(n))
    (T,) = struct.unpack_from("<d", blob, off - 8)
    dom = Domain(n=n, box=box, T=T, nx=nx, nt=nt)
    expected = 8 * int(np.prod(dom.shape))
    if len(blob) - off != expected:
        raise ParameterError(
            f"field dump body: expected {expected} bytes of values, got {len(blob) - off}"
        )
    values = np.frombuffer(blob, dtype="<f8", offset=off).reshape(dom.shape)
    return SpaceTimeField(dom, values.copy())
