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
related by the exact region measure, which comes with the node masks when
a region is resolved.  Suprema over regions are node maxima.

Binary dump layout (little-endian): magic b"PQF1", uint32 n, uint32 nx,
uint32 nt, per-axis float64 (lo, hi), float64 T, then the field values as
row-major float64.  CSV dumps carry one row per node with columns
t, x[, y], value.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegionError

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
            if not math.isfinite(hi - lo):
                raise ParameterError(f"axis extent ({lo}, {hi}) must be finite")
            if not hi > lo:
                raise ParameterError(f"empty axis extent ({lo}, {hi})")
        # float pairs in a tuple, so that grids given as lists compare equal
        object.__setattr__(self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box))
        if not 0 < self.T < math.inf:
            raise ParameterError(f"final time must be positive and finite, got T = {self.T}")
        if self.nx < 3:
            raise ParameterError(f"need nx >= 3 nodes per axis, got {self.nx}")
        if self.nt < 2:
            raise ParameterError(f"need nt >= 2 time steps, got {self.nt}")

    @functools.cached_property
    def dx(self) -> tuple:
        return tuple((hi - lo) / (self.nx - 1) for lo, hi in self.box)

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @functools.cached_property
    def axes(self) -> tuple:
        return tuple(_read_only(np.linspace(lo, hi, self.nx)) for lo, hi in self.box)

    @functools.cached_property
    def times(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.T, self.nt + 1))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @property
    def shape(self) -> tuple:
        return (self.nt + 1,) + (self.nx,) * self.n

    def meshgrid(self):
        """Spatial coordinate arrays of shape (nx,)*n, matrix-indexed."""
        return np.meshgrid(*self.axes, indexing="ij")


def _stored_levels(values: np.ndarray) -> np.ndarray:
    """The time levels that values holds: the first alone when it is one
    level broadcast over time (time stride 0), all of them otherwise."""
    return values[:1] if values.strides[0] == 0 else values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Scalar samples over a Domain; values[j] is the slice at time j*dt.
    values is read-only: a read-only array is kept, a writeable one copied.
    A field constant in time may be one read-only level broadcast over time
    (values.strides[0] == 0), which is kept as it is."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.domain.shape:
            raise ParameterError(
                f"field shape {v.shape} does not match domain shape {self.domain.shape}"
            )
        if not np.all(np.isfinite(_stored_levels(v))):
            raise ParameterError("field contains non-finite values")
        object.__setattr__(self, "values", _read_only(v.copy()) if v.flags.writeable else v)


@dataclass(frozen=True)
class Cylinder:
    """Backward cylinder B_rho(x_o) x (t_o - sigma, t_o].

    center holds n + 1 coordinates: (x, t) in 1D or (x, y, t) in 2D.
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


# The diagnostics that run over the time levels of a field (the energy
# density, gradient norms, weighted powers and the variational gap's
# pairings) take them in blocks of at most this many bytes per array, so a
# call's temporaries are a few blocks whatever the size of the field.  Arrays
# this small come from the heap and are reused from block to block and call
# to call, instead of being mapped afresh and faulted in: glibc's default mmap
# threshold is 128 KiB.  Smaller blocks cost more Python per field.  Every
# per-level result is formed as over the whole field, and sums over the
# whole field still run over the whole array, so blocks change no result.
_BLOCK_BYTES = 96 * 2**10


def _level_blocks(values: np.ndarray) -> list:
    """Slices over the leading axis of values, each holding at most
    _BLOCK_BYTES of its levels (at least one level)."""
    step = max(1, _BLOCK_BYTES // max(1, values[0].nbytes))
    return [slice(lo, min(lo + step, len(values))) for lo in range(0, len(values), step)]


# ---------------------------------------------------------------------------
# region resolution


def _check_center(domain: Domain, cyl: Cylinder) -> None:
    if len(cyl.center) != domain.n + 1:
        raise ParameterError(f"cylinder center {cyl.center} needs n + 1 = {domain.n + 1} "
                             f"coordinates on a grid with n = {domain.n}")


def _box_measure(domain: Domain) -> float:
    """Continuum measure of the whole space-time box."""
    return float(np.prod([hi - lo for lo, hi in domain.box])) * domain.T


def _resolve(domain: Domain, region) -> tuple:
    """(time_mask, space_mask, region_measure) of a region (None = every node):
    t_o - sigma < t <= t_o to 1e-12 max(1, |t_o|, sigma), and
    sum_k (x_k - c_k)^2 < rho^2 as an outer sum over the 1-D axes."""
    if region is None:
        return (np.ones(domain.nt + 1, bool), np.ones((domain.nx,) * domain.n, bool),
                _box_measure(domain))
    _check_center(domain, region)
    t = domain.times
    tol = 1e-12 * max(1.0, abs(region.t), region.sigma)
    tm = (t > region.t - region.sigma + tol) & (t <= region.t + tol)
    dist2 = functools.reduce(np.add.outer, [(ax - c) ** 2 for ax, c in zip(domain.axes, region.x)])
    sm = dist2 < region.rho**2
    if not tm.any() or not sm.any():
        raise RegionError(
            f"region around {region.center} (rho={region.rho}, sigma={region.sigma}) "
            "contains no grid nodes"
        )
    return tm, sm, int(tm.sum()) * int(sm.sum()) * domain.cell_volume * domain.dt


def region_measure(domain: Domain, region) -> float:
    """Measure of a region: continuum for the whole box, node count times
    cell volume for cylinders."""
    return _resolve(domain, region)[2]


def _trapezoid_weights(domain: Domain, time: bool = True, levels=slice(None)) -> np.ndarray:
    """Composite trapezoid weights at the nodes: the outer product of the
    per-axis weights, time first and at the time levels picked by levels
    (space only if time is False)."""
    axes = [(domain.nt + 1, domain.dt)] if time else []
    axes += [(domain.nx, h) for h in domain.dx]
    weights = []
    for nodes, h in axes:
        w = np.full(nodes, h)
        w[0] = w[-1] = 0.5 * h
        weights.append(w)
    if time:
        weights[0] = weights[0][levels]
    return functools.reduce(np.multiply.outer, weights)


def _integrate_power(values: np.ndarray, r: float, domain: Domain) -> float:
    """integral of |values|**r over the whole box, values a field's nodes."""
    vals = np.abs(values)
    vals **= r
    for block in _level_blocks(vals):
        vals[block] *= _trapezoid_weights(domain, levels=block)
    return float(np.sum(vals))


def _node_integral(vals: np.ndarray, r: float, domain: Domain) -> float:
    """integral of |vals|**r, vals the values at a cylinder's nodes (time
    first, then the nodes of its ball), by the node quadrature of cylinders."""
    vals = np.abs(vals) ** r
    return float(vals.sum() * domain.cell_volume * domain.dt)


def lp_norm(f: SpaceTimeField, r: float, region=None) -> float:
    """Discrete L^r norm of f over the region, r >= 1 finite."""
    _check_exponent(r)
    if region is None:
        return _integrate_power(f.values, r, f.domain) ** (1.0 / r)
    tm, sm, _ = _resolve(f.domain, region)
    return _node_integral(f.values[tm][:, sm], r, f.domain) ** (1.0 / r)


def _check_exponent(r: float) -> None:
    if not (np.isfinite(r) and r >= 1):
        raise ParameterError(f"lp_norm needs a finite exponent r >= 1, got {r}")


def mean_integral(f: SpaceTimeField, r: float, region=None) -> float:
    """Mean of |f|**r over the region; callers take roots themselves."""
    if region is None:
        return _integrate_power(f.values, r, f.domain) / _box_measure(f.domain)
    tm, sm, measure = _resolve(f.domain, region)
    return _node_integral(f.values[tm][:, sm], r, f.domain) / measure


def truncate_plus(f: SpaceTimeField, k: float) -> SpaceTimeField:
    """Pointwise positive part (f - k)_+, formed in one array that the field
    keeps."""
    out = f.values - k
    return SpaceTimeField(f.domain, _read_only(np.maximum(out, 0.0, out=out)))


def ess_sup(f: SpaceTimeField, region=None) -> float:
    """Node maximum of f over the region."""
    tm, sm, _ = _resolve(f.domain, region)
    return float(f.values[tm][:, sm].max())


def slice_sup_l2(f: SpaceTimeField, cyl: Cylinder) -> float:
    """sup over cylinder times of the spatial integral of f**2 over the ball."""
    dom = f.domain
    tm, sm, _ = _resolve(dom, cyl)
    slices = f.values[tm][:, sm] ** 2
    return float(slices.sum(axis=1).max() * dom.cell_volume)


def _same_grid(domain: Domain, **named) -> None:
    """Raise ParameterError unless every named field lives on domain."""
    for name, f in named.items():
        if f.domain != domain:
            raise ParameterError(f"{name} lives on a different grid")


def boundary_frame(domain: Domain) -> np.ndarray:
    """Spatial mask of the nodes on the boundary of the box, shape (nx,)*n."""
    inner = np.zeros((domain.nx,) * domain.n, bool)
    inner[(slice(1, -1),) * domain.n] = True
    return ~inner


def cylinder_in_domain(domain: Domain, cyl: Cylinder) -> bool:
    """True iff the closed cylinder sits inside the box with its bottom above
    t = 0 (the top may touch T; the final slice is not parabolic boundary)."""
    _check_center(domain, cyl)
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
    beta) over a region; infinite exponents give node suprema.  1/a is
    taken at the region's nodes only, so a zero of a outside it is no
    error."""
    dom = a.domain
    _same_grid(dom, b=b)
    tm, sm, measure = _resolve(dom, region)
    return _region_norms(a.values[tm][:, sm], b.values[tm][:, sm], alpha, beta, dom,
                         region, measure)


def _region_norms(a_vals, b_vals, alpha: float, beta: float, domain: Domain,
                  region, measure: float) -> CoefficientNorms:
    """coefficient_norms from a and b at the nodes of a region of that measure,
    ordered as f.values[tm][:, sm] orders them for the masks of _resolve."""
    with np.errstate(divide="ignore"):
        inv_a = 1.0 / np.maximum(a_vals, 0)
    if not np.all(np.isfinite(inv_a)):
        raise ParameterError(
            "coefficient a vanishes at a grid node; 1/a is not integrable on "
            "the discrete region (move the degeneracy off-node or floor it)"
        )

    def norms(vals, r):
        """(mean, raw) norm with exponent r of the region's node values vals."""
        if np.isinf(r):
            return (float(vals.max()),) * 2
        _check_exponent(r)
        raw = (_integrate_power(vals.reshape(domain.shape), r, domain) if region is None
               else _node_integral(vals, r, domain)) ** (1.0 / r)
        return raw / measure ** (1.0 / r), raw

    norm_a, raw_a = norms(inv_a, alpha)
    norm_b, raw_b = norms(b_vals, beta)
    return CoefficientNorms(norm_a, norm_b, raw_a, raw_b)


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
        # the array's own buffer: tobytes() would copy the whole field
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


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
    expected = 8 * math.prod(dom.shape)
    if len(blob) - off != expected:
        raise ParameterError(
            f"field dump body: expected {expected} bytes of values, got {len(blob) - off}"
        )
    return SpaceTimeField(dom, np.frombuffer(blob, dtype="<f8", offset=off).reshape(dom.shape))
