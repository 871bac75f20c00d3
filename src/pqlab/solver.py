"""Implicit solver for the regularized Cauchy-Dirichlet problem and the
weak-form, energy and variational diagnostics evaluated on its output.

Each implicit Euler step solves, at the interior nodes,

    R(w) = w - u^j - dt div_h F(x, t_{j+1}, D_h w) = 0,
    w = g(., t_{j+1}) on the lateral boundary,

by Newton's method on the exact Jacobian of R.  A backtracking line search
(Armijo factor 1e-4, halving) on max|R| globalizes it, with no relaxation
factor to tune.
In 1D the Jacobian is the symmetric positive definite tridiagonal
I + dt/dx^2 D^T diag(G + 2G'(s)s) D, solved by LAPACK dptsv.  In 2D the face
flux takes its transverse gradient from centred differences averaged onto
the face, so the Jacobian is a nonsymmetric 9-point stencil, factored by
SuperLU.  Iteration stops once max|R| < tolerance * max(1, |w|_inf,
dt |div_h F|_inf), so the rule does not depend on the scale of the data; a
linear problem converges in one iteration.  Every step keeps its residual
and step-length history.

D_h places gradients on cell faces and div_h is its negative adjoint, which
makes discrete integration by parts exact for test functions vanishing on
the boundary.  In 1D one step is therefore the minimizing movement of the
convex integrand, and the discrete variational inequality holds up to
iteration tolerance.  The averaged transverse gradient of the 2D flux makes
the 2D step minimize no discrete energy exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DivergenceError,
    ParameterError,
    PreconditionError,
    StepFailure,
)
from .grid import Domain, SpaceTimeField, _trapezoid_weights, gradient, lp_norm
from .model import IntegrandSpec, flux_coefficient, integrand

__all__ = [
    "BoundaryDatum",
    "SolveConfig",
    "SolveStats",
    "StepHistory",
    "EnergyData",
    "ComparisonMap",
    "step",
    "solve",
    "face_gradients",
    "face_divergence",
    "weak_residual",
    "energy_report",
    "variational_gap",
    "variational_gap_curve",
    "comparison_maps",
]

# Line search: accept step length t once max|R| has fallen by the factor
# 1 - ARMIJO * t; halve t down to MIN_STEP.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-20


# ---------------------------------------------------------------------------
# boundary data presets


@dataclass(frozen=True)
class BoundaryDatum:
    """Initial/lateral datum from the preset family.

    kind "zero"       g = 0
    kind "constant"   g = value
    kind "profile"    g = amplitude * g0(x), time-independent
    kind "separable"  g = amplitude * g0(x) * psi(t), psi a polynomial
                      (coefficients lowest-order first)

    g0 is "sin" (product of sine modes, vanishing on the lateral boundary)
    or "bump" (polynomial bump 4(x-lo)(hi-x)/L^2 per axis).
    """

    kind: str = "zero"
    profile: str = "sin"
    amplitude: float = 1.0
    mode: int = 1
    value: float = 0.0
    psi: tuple = (1.0,)

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "profile", "separable"):
            raise ParameterError(f"unknown boundary datum kind {self.kind!r}")
        if self.profile not in ("sin", "bump"):
            raise ParameterError(f"unknown boundary profile {self.profile!r}")
        if self.kind == "separable" and len(self.psi) == 0:
            raise ParameterError("separable datum needs polynomial coefficients")

    @property
    def time_dependent(self) -> bool:
        return self.kind == "separable" and any(c != 0.0 for c in self.psi[1:])

    def _g0(self, box, coords):
        if self.kind == "zero":
            return np.zeros(np.broadcast(*coords, 0.0).shape)
        if self.kind == "constant":
            return np.full(np.broadcast(*coords, 0.0).shape, self.value)
        out = np.full(np.broadcast(*coords, 0.0).shape, self.amplitude)
        for (lo, hi), c in zip(box, coords):
            length = hi - lo
            if self.profile == "sin":
                out = out * np.sin(self.mode * np.pi * (c - lo) / length)
            else:
                out = out * 4.0 * (c - lo) * (hi - c) / length**2
        return out

    def _psi(self, t):
        if self.kind != "separable":
            return np.ones_like(np.asarray(t, float))
        return sum(c * np.asarray(t, float) ** j for j, c in enumerate(self.psi))

    def _dpsi(self, t):
        if self.kind != "separable":
            return np.zeros_like(np.asarray(t, float))
        return sum(
            j * c * np.asarray(t, float) ** (j - 1)
            for j, c in enumerate(self.psi)
            if j >= 1
        )

    def at(self, box, coords, t):
        """Value at spatial coordinate arrays and time(s) t."""
        return self._g0(box, coords) * self._psi(t)

    def dt_at(self, box, coords, t):
        """Classical time derivative at spatial coordinates and time(s) t."""
        return self._g0(box, coords) * self._dpsi(t)

    def sample(self, domain: Domain) -> SpaceTimeField:
        g0 = self._g0(domain.box, domain.meshgrid())
        psi = self._psi(domain.times)
        shape = (domain.nt + 1,) + (1,) * domain.n
        return SpaceTimeField(domain, g0[None] * psi.reshape(shape))

    def sample_dt(self, domain: Domain) -> SpaceTimeField:
        g0 = self._g0(domain.box, domain.meshgrid())
        dpsi = self._dpsi(domain.times)
        shape = (domain.nt + 1,) + (1,) * domain.n
        return SpaceTimeField(domain, g0[None] * dpsi.reshape(shape))


@dataclass(frozen=True)
class SolveConfig:
    """One solver run: domain, integrand, datum and iteration controls."""

    domain: Domain
    spec: IntegrandSpec
    g: BoundaryDatum
    tolerance: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")


@dataclass(frozen=True)
class StepHistory:
    """Newton convergence of one implicit step: max|R| after each iteration
    and the step length the line search accepted in it."""

    residuals: tuple
    step_lengths: tuple


@dataclass
class SolveStats:
    iterations: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    histories: list = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations))


# ---------------------------------------------------------------------------
# staggered operators (exact summation-by-parts pair)


def face_gradients(w: np.ndarray, domain: Domain) -> list:
    """Per-axis difference quotients on cell faces.

    1D: shape (nx-1,).  2D: axis 0 faces (nx-1, nx), axis 1 faces (nx, nx-1).
    """
    dx = domain.dx
    if domain.n == 1:
        return [np.diff(w) / dx[0]]
    return [np.diff(w, axis=0) / dx[0], np.diff(w, axis=1) / dx[1]]


def face_divergence(face_fluxes: list, domain: Domain) -> np.ndarray:
    """Negative adjoint of face_gradients; values at interior nodes, zero on
    the boundary frame.  Satisfies sum(div F * phi) dV = -sum(F . D phi) dV
    exactly for phi vanishing on the boundary."""
    dx = domain.dx
    out = np.zeros((domain.nx,) * domain.n)
    if domain.n == 1:
        out[1:-1] = np.diff(face_fluxes[0]) / dx[0]
        return out
    out[1:-1, :] += np.diff(face_fluxes[0], axis=0) / dx[0]
    out[:, 1:-1] += np.diff(face_fluxes[1], axis=1) / dx[1]
    out[0, :] = out[-1, :] = 0.0
    out[:, 0] = out[:, -1] = 0.0
    return out


class _Iterate(NamedTuple):
    """The residual at w, with the face quantities its Jacobian needs.

    Per axis k: grads[k] is the normal difference quotient on the k-faces,
    trans[k] the transverse gradient averaged onto them (2D only) and
    coeffs[k] the pair (G, 2G') at s = grads[k]^2 + trans[k]^2.
    """

    w: np.ndarray
    residual: np.ndarray  # R at the interior nodes
    norm: float  # max|R|
    scale: float  # max(1, |w|_inf, dt |div_h F|_inf)
    grads: list
    trans: list
    coeffs: list


class _Stepper:
    """Per-run cache (face coefficients, interior slice) and the Newton
    iteration of one implicit step."""

    def __init__(self, cfg: SolveConfig):
        self.cfg = cfg
        dom = cfg.domain
        self.dom = dom
        self.dt = dom.dt
        self.dx = dom.dx
        self.coords = dom.meshgrid()
        self.interior = (slice(1, -1),) * dom.n
        axes = dom.axes
        if dom.n == 1:
            mid = 0.5 * (axes[0][:-1] + axes[0][1:])
            self.a_faces = [cfg.spec.coeffs.a.at(mid)]
            self.b_faces = [cfg.spec.coeffs.b.at(mid)]
        else:
            midx = 0.5 * (axes[0][:-1] + axes[0][1:])
            midy = 0.5 * (axes[1][:-1] + axes[1][1:])
            xg, yg = np.meshgrid(midx, axes[1], indexing="ij")
            xg2, yg2 = np.meshgrid(axes[0], midy, indexing="ij")
            self.a_faces = [cfg.spec.coeffs.a.at(xg, yg), cfg.spec.coeffs.a.at(xg2, yg2)]
            self.b_faces = [cfg.spec.coeffs.b.at(xg, yg), cfg.spec.coeffs.b.at(xg2, yg2)]

    def boundary_values(self, t: float) -> np.ndarray:
        return self.cfg.g.at(self.dom.box, self.coords, t)

    def evaluate(self, w: np.ndarray, u_prev: np.ndarray) -> _Iterate:
        """R(w) = w - u_prev - dt div_h F(D_h w), evaluating the face
        coefficients once for both the residual and the Jacobian."""
        dom = self.dom
        spec = self.cfg.spec
        grads = face_gradients(w, dom)
        if dom.n == 1:
            trans = []
            s = [grads[0] ** 2]
        else:
            wx, wy = (np.gradient(w, h, axis=k, edge_order=2) for k, h in enumerate(self.dx))
            trans = [0.5 * (wy[:-1, :] + wy[1:, :]), 0.5 * (wx[:, :-1] + wx[:, 1:])]
            s = [g**2 + t**2 for g, t in zip(grads, trans)]
        coeffs = [
            flux_coefficient(sk, a, b, spec, derivative=True)
            for sk, a, b in zip(s, self.a_faces, self.b_faces)
        ]
        div = face_divergence([c[0] * g for c, g in zip(coeffs, grads)], dom)
        residual = (w - u_prev - self.dt * div)[self.interior]
        scale = max(1.0, float(np.abs(w).max()), self.dt * float(np.abs(div).max()))
        return _Iterate(w, residual, float(np.abs(residual).max()), scale, grads, trans, coeffs)

    def _tridiagonal(self, it: _Iterate):
        """1D Jacobian: diagonal and off-diagonal of I + c D^T diag(H) D."""
        (g,), ((big_g, dg),) = it.grads, it.coeffs
        h = big_g + dg * g**2
        c = self.dt / self.dx[0] ** 2
        return 1.0 + c * (h[1:] + h[:-1]), -c * h[1:-1]

    def _nine_point(self, it: _Iterate):
        """2D Jacobian on the interior nodes, numbered row-major.

        The flux G(s) g on a face has derivative H dg + C dt with
        H = G + 2G' g^2 and C = 2G' g t, where t averages the centred
        transverse difference over the face's two nodes.  H sits on the
        5-point part; C reaches the four diagonal neighbours and the two
        transverse ones.
        """
        dt, (dx, dy) = self.dt, self.dx
        cx, cy = dt / dx**2, dt / dy**2
        kappa = dt / (4.0 * dx * dy)
        (hx, cross_x), (hy, cross_y) = (
            (big_g + dg * g**2, kappa * dg * g * t)
            for g, t, (big_g, dg) in zip(it.grads, it.trans, it.coeffs)
        )
        he, hw = hx[1:, 1:-1], hx[:-1, 1:-1]
        hn, hs = hy[1:-1, 1:], hy[1:-1, :-1]
        ce, cw = cross_x[1:, 1:-1], cross_x[:-1, 1:-1]
        cn, cs = cross_y[1:-1, 1:], cross_y[1:-1, :-1]
        return _stencil_matrix({
            (0, 0): 1.0 + cx * (he + hw) + cy * (hn + hs),
            (1, 0): -cx * he - cn + cs,
            (-1, 0): -cx * hw + cn - cs,
            (0, 1): -cy * hn - ce + cw,
            (0, -1): -cy * hs + ce - cw,
            (1, 1): -(ce + cn),
            (1, -1): ce + cs,
            (-1, 1): cw + cn,
            (-1, -1): -(cw + cs),
        })

    def jacobian(self, it: _Iterate):
        """dR/dw at the interior nodes as a sparse matrix."""
        if self.dom.n == 1:
            diag, off = self._tridiagonal(it)
            return scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
        return self._nine_point(it)

    def newton_direction(self, it: _Iterate) -> np.ndarray:
        """Solve J d = -R."""
        if self.dom.n == 1:
            diag, off = self._tridiagonal(it)
            _, _, d, info = scipy.linalg.lapack.dptsv(diag, off, -it.residual)
            if info != 0:
                raise DivergenceError(f"Newton matrix is not positive definite (info {info})")
            return d
        lu = scipy.sparse.linalg.splu(self.jacobian(it), permc_spec="MMD_AT_PLUS_A")
        return lu.solve(-it.residual.ravel()).reshape(it.residual.shape)

    def step(self, u_prev: np.ndarray, t_next: float):
        """One implicit step from u_prev; returns (field slice, StepHistory)."""
        cfg = self.cfg
        w = u_prev.copy()
        _set_boundary(w, self.boundary_values(t_next), self.dom.n)
        it = self.evaluate(w, u_prev)
        residuals, lengths = [], []

        def failure(why):
            return StepFailure(
                f"{why} at t = {t_next} (residual {it.norm:.3e})",
                t=t_next,
                residual=it.norm,
                history=StepHistory(tuple(residuals), tuple(lengths)),
            )

        for _ in range(cfg.max_iter):
            d = self.newton_direction(it)
            if not np.all(np.isfinite(d)):
                raise DivergenceError(f"Newton step produced non-finite values at t = {t_next}")
            length = 1.0
            while True:
                w = it.w.copy()
                w[self.interior] += length * d
                trial = self.evaluate(w, u_prev)
                if (trial.norm <= (1.0 - _ARMIJO * length) * it.norm
                        or trial.norm < cfg.tolerance * trial.scale):
                    break
                if length <= _MIN_STEP:
                    raise failure("line search found no decrease")
                length *= 0.5
            it = trial
            residuals.append(it.norm)
            lengths.append(length)
            if it.norm < cfg.tolerance * it.scale:
                return it.w, StepHistory(tuple(residuals), tuple(lengths))
        raise failure(f"no convergence within {cfg.max_iter} iterations")


def _stencil_matrix(stencil: dict):
    """Sparse matrix on the m x m interior grid, numbered row-major, from
    {(di, dj): coefficient array (m, m)}.  Entries whose neighbour leaves
    the grid across a row end are zeroed; diags drops those past its ends."""
    m = next(iter(stencil.values())).shape[0]
    size = m * m
    diagonals, offsets = [], []
    for (di, dj), coef in stencil.items():
        coef = np.array(coef, dtype=float)
        if dj == 1:
            coef[:, -1] = 0.0
        elif dj == -1:
            coef[:, 0] = 0.0
        k = di * m + dj
        flat = coef.ravel()
        diagonals.append(flat[: size - k] if k >= 0 else flat[-k:])
        offsets.append(k)
    return scipy.sparse.diags(diagonals, offsets, format="csc")


def _set_boundary(w: np.ndarray, bc: np.ndarray, n: int) -> None:
    if n == 1:
        w[0], w[-1] = bc[0], bc[-1]
    else:
        w[0, :], w[-1, :] = bc[0, :], bc[-1, :]
        w[:, 0], w[:, -1] = bc[:, 0], bc[:, -1]


def step(u_prev: np.ndarray, t_next: float, cfg: SolveConfig):
    """One implicit Euler step; returns (field slice, iterations, residual)."""
    u, history = _Stepper(cfg).step(np.asarray(u_prev, float), t_next)
    return u, len(history.residuals), history.residuals[-1]


def solve(cfg: SolveConfig):
    """March the implicit scheme from u(.,0) = g(.,0).

    Returns (SpaceTimeField, SolveStats); step failures propagate with the
    failing time level and its convergence history attached.
    """
    dom = cfg.domain
    stepper = _Stepper(cfg)
    values = np.empty(dom.shape)
    values[0] = cfg.g.at(dom.box, dom.meshgrid(), 0.0)
    stats = SolveStats()
    u = values[0].copy()
    for j in range(1, dom.nt + 1):
        u, history = stepper.step(u, float(dom.times[j]))
        values[j] = u
        stats.iterations.append(len(history.residuals))
        stats.residuals.append(history.residuals[-1])
        stats.histories.append(history)
    return SpaceTimeField(dom, values), stats


# ---------------------------------------------------------------------------
# weak-form residual


def weak_residual(u: SpaceTimeField, phi: SpaceTimeField, spec: IntegrandSpec) -> float:
    """Quadrature of integral(-u d_t phi + <F(Du), D phi>) for a nonnegative
    test field phi vanishing near the parabolic boundary (and at the final
    time).  Nonpositive up to consistency error for discrete subsolutions."""
    dom = u.domain
    if phi.domain != dom:
        raise ParameterError("test field lives on a different grid")
    pmax = float(np.abs(phi.values).max())
    tol = 1e-12 * max(pmax, 1e-300)
    if float(phi.values.min()) < -tol:
        raise PreconditionError("test field must be nonnegative")
    frame = np.zeros(dom.shape, dtype=bool)
    frame[0] = frame[-1] = True
    if dom.n == 1:
        frame[:, 0] = frame[:, -1] = True
    else:
        frame[:, 0, :] = frame[:, -1, :] = True
        frame[:, :, 0] = frame[:, :, -1] = True
    if pmax > 0 and float(np.abs(phi.values[frame]).max()) > tol:
        raise PreconditionError("test field must vanish near the parabolic boundary")

    a = spec.coeffs.a.sample(dom).values
    b = spec.coeffs.b.sample(dom).values
    du = gradient(u)
    coeff = flux_coefficient(np.sum(du**2, axis=0), a, b, spec)
    dphi = gradient(phi)
    dtphi = np.gradient(phi.values, dom.dt, axis=0, edge_order=2)
    density = -u.values * dtphi + coeff * np.sum(du * dphi, axis=0)
    return float(np.sum(density * _trapezoid_weights(dom)))


# ---------------------------------------------------------------------------
# energy bound


@dataclass(frozen=True)
class EnergyData:
    """Left-hand side of the energy bound and the datum aggregate M_g.

    The dual-norm term is exactly zero for time-independent data; otherwise
    the negative-order norm is approximated from below by testing against
    the first dual_modes sine modes (deterministic).
    """

    sup_l2: float
    grad_term: float
    eps_term: float
    dual_term: float
    wnorm_term: float
    dg_gamma_term: float
    dg_mu_term: float
    g_sup_l2: float
    eps_dg_term: float

    @property
    def lhs_total(self) -> float:
        return self.sup_l2 + self.grad_term + self.eps_term

    @property
    def m_g(self) -> float:
        return (
            self.dual_term
            + self.wnorm_term
            + self.dg_gamma_term
            + self.dg_mu_term
            + self.g_sup_l2
        )

    @property
    def empirical_constant(self) -> float:
        denom = self.m_g + self.eps_dg_term
        if denom == 0.0:
            return 0.0 if self.lhs_total == 0.0 else math.inf
        return self.lhs_total / denom


def _slicewise_l2sq(values: np.ndarray, dom: Domain) -> np.ndarray:
    w = _space_trapz(dom)
    return np.sum(values**2 * w, axis=tuple(range(1, values.ndim)))


def _space_trapz(dom: Domain) -> np.ndarray:
    def axis_w(k):
        w = np.ones(k)
        w[0] = w[-1] = 0.5
        return w

    ws = axis_w(dom.nx)
    if dom.n == 1:
        return ws * dom.dx[0]
    return (ws * dom.dx[0])[:, None] * (ws * dom.dx[1])[None, :]


def _dual_norm(cfg: SolveConfig, dual_modes: int) -> float:
    """L^{p_alpha'}-in-time norm of the negative-order spatial norm of d_t g,
    approximated over a finite sine-mode test family."""
    if not cfg.g.time_dependent:
        return 0.0
    dom = cfg.domain
    d = cfg.spec.d
    dtg = cfg.g.sample_dt(dom).values
    w = _space_trapz(dom)
    if dom.n == 1:
        modes = [(k,) for k in range(1, dual_modes + 1)]
    else:
        side = max(1, int(math.isqrt(dual_modes)))
        modes = [(k1, k2) for k1 in range(1, side + 1) for k2 in range(1, side + 1)]
    grids = dom.meshgrid()
    best = np.zeros(dom.nt + 1)
    for mode in modes:
        phi = np.ones((dom.nx,) * dom.n)
        for (lo, hi), c, k in zip(dom.box, grids, mode):
            phi = phi * np.sin(k * np.pi * (c - lo) / (hi - lo))
        dphi = [
            np.gradient(phi, dom.dx[axis], axis=axis, edge_order=2)
            for axis in range(dom.n)
        ]
        dphi_mag = np.sqrt(sum(g**2 for g in dphi))
        den = float(
            np.sum((np.abs(phi) ** d.p_alpha + dphi_mag**d.p_alpha) * w)
        ) ** (1.0 / d.p_alpha)
        num = np.abs(np.sum(dtg * (phi * w)[None], axis=tuple(range(1, dtg.ndim))))
        best = np.maximum(best, num / den)
    wt = np.ones(dom.nt + 1)
    wt[0] = wt[-1] = 0.5
    integral = float(np.sum(best**d.p_alpha_conj * wt) * dom.dt)
    return integral ** (1.0 / d.p_alpha_conj)


def energy_report(u: SpaceTimeField, cfg: SolveConfig, dual_modes: int = 16) -> EnergyData:
    dom = cfg.domain
    d = cfg.spec.d
    p = cfg.spec.params.p
    mu = cfg.spec.params.mu
    eps = cfg.spec.eps
    alpha = cfg.spec.params.alpha

    du_mag = SpaceTimeField(dom, np.sqrt(np.sum(gradient(u) ** 2, axis=0)))
    grad_int = lp_norm(du_mag, d.p_alpha) ** d.p_alpha
    alpha_exp = 1.0 if math.isinf(alpha) else (alpha + 1.0) / alpha

    g_field = cfg.g.sample(dom)
    dg_mag = SpaceTimeField(dom, np.sqrt(np.sum(gradient(g_field) ** 2, axis=0)))
    wnorm = (
        lp_norm(g_field, d.p_alpha) ** d.p_alpha + lp_norm(dg_mag, d.p_alpha) ** d.p_alpha
    ) ** (1.0 / d.p_alpha)

    return EnergyData(
        sup_l2=float(_slicewise_l2sq(u.values, dom).max()),
        grad_term=grad_int**alpha_exp,
        eps_term=eps * lp_norm(du_mag, d.q_beta) ** d.q_beta,
        dual_term=_dual_norm(cfg, dual_modes) ** d.p_conj,
        wnorm_term=wnorm**p,
        dg_gamma_term=lp_norm(dg_mag, d.gamma) ** d.time_exponent,
        dg_mu_term=mu ** (d.q - 1.0) * lp_norm(dg_mag, d.beta_conj),
        g_sup_l2=float(_slicewise_l2sq(g_field.values, dom).max()),
        eps_dg_term=eps * lp_norm(dg_mag, d.q_beta) ** d.q_beta,
    )


# ---------------------------------------------------------------------------
# variational inequality


@dataclass(frozen=True)
class ComparisonMap:
    """Admissible competitor: matches the datum on the lateral boundary and
    carries its exact classical time derivative."""

    name: str
    field: SpaceTimeField
    dt_field: SpaceTimeField


def comparison_maps(cfg: SolveConfig, amplitude: float | None = None) -> list:
    """Preset competitor family around the datum (lateral values match g)."""
    dom = cfg.domain
    T = dom.T
    g = cfg.g.sample(dom).values
    g_dt = cfg.g.sample_dt(dom).values
    grids = dom.meshgrid()
    bump = np.ones((dom.nx,) * dom.n)
    sin2 = np.ones((dom.nx,) * dom.n)
    for (lo, hi), c in zip(dom.box, grids):
        length = hi - lo
        bump = bump * 4.0 * (c - lo) * (hi - c) / length**2
        sin2 = sin2 * np.sin(2.0 * np.pi * (c - lo) / length)
    if amplitude is None:
        amplitude = 0.3 * (1.0 + float(np.abs(g).max()))
    t = dom.times.reshape((-1,) + (1,) * dom.n)

    def mk(name, extra, extra_dt):
        return ComparisonMap(
            name,
            SpaceTimeField(dom, g + extra),
            SpaceTimeField(dom, g_dt + extra_dt),
        )

    zero = np.zeros(dom.shape)
    return [
        mk("datum", zero, zero),
        mk("bump", amplitude * bump[None] * np.ones_like(t), zero),
        mk("bump-ramp", amplitude * bump[None] * (t / T), amplitude * bump[None] / T),
        mk(
            "bump-decay",
            amplitude * bump[None] * (1.0 - t / T) ** 2,
            -2.0 * amplitude * bump[None] * (1.0 - t / T) / T,
        ),
        mk("mode2-ramp", amplitude * sin2[None] * (t / T), amplitude * sin2[None] / T),
        mk("bump-negative", -amplitude * bump[None] * np.ones_like(t), zero),
    ]


def _cell_integrand(w: np.ndarray, t: float, cfg: SolveConfig, eps: float,
                    cache: dict) -> float:
    """integral of f(x, t, Dw) by cell-centered staggered gradients (the
    quadrature adapted to the scheme, so the discrete variational
    inequality survives with the iteration tolerance)."""
    dom = cfg.domain
    if "coords" not in cache:
        axes = dom.axes
        if dom.n == 1:
            mid = (0.5 * (axes[0][:-1] + axes[0][1:]),)
        else:
            mx = 0.5 * (axes[0][:-1] + axes[0][1:])
            my = 0.5 * (axes[1][:-1] + axes[1][1:])
            mid = tuple(np.meshgrid(mx, my, indexing="ij"))
        cache["coords"] = mid
        cache["a"] = cfg.spec.coeffs.a.at(*mid)
        cache["b"] = cfg.spec.coeffs.b.at(*mid)
    if dom.n == 1:
        xi = (np.diff(w) / dom.dx[0])[None]
    else:
        wx = np.diff(w, axis=0) / dom.dx[0]
        wy = np.diff(w, axis=1) / dom.dx[1]
        xi = np.stack([0.5 * (wx[:, :-1] + wx[:, 1:]), 0.5 * (wy[:-1, :] + wy[1:, :])])
    f_vals = integrand(xi, cache["a"], cache["b"], cfg.spec, eps=eps)
    return float(f_vals.sum() * dom.cell_volume)


def variational_gap_curve(u: SpaceTimeField, v: ComparisonMap, cfg: SolveConfig,
                          eps: float = 0.0):
    """Gap and term scale of the variational inequality at every grid time.

    Returns (gaps, scales), both arrays over time levels 1..nt.  The gap at
    tau is RHS - LHS with the unregularized integrand (pass eps to use a
    regularized one):

        integral f(.,Dv) + integral d_t v (v - u) - 1/2 |(v-u)(tau)|_2^2
        + 1/2 |(v-g)(0)|_2^2 - integral f(.,Du).

    The duality factor d_t v is integrated exactly in time (its antiderivative
    is v itself), paired with (v - u) at the right endpoint.
    """
    dom = u.domain
    g0 = cfg.g.at(dom.box, dom.meshgrid(), 0.0)
    _check_lateral_match(v.field.values, cfg)

    cache = {}
    fv = np.empty(dom.nt + 1)
    fu = np.empty(dom.nt + 1)
    for j, t in enumerate(dom.times):
        fv[j] = _cell_integrand(v.field.values[j], float(t), cfg, eps, cache)
        fu[j] = _cell_integrand(u.values[j], float(t), cfg, eps, cache)

    cell = dom.cell_volume
    diff_vu = v.field.values - u.values
    dv_steps = v.field.values[1:] - v.field.values[:-1]
    dual_steps = np.sum(
        dv_steps * diff_vu[1:], axis=tuple(range(1, dv_steps.ndim))
    ) * cell
    slice_sq = 0.5 * np.sum(diff_vu**2, axis=tuple(range(1, diff_vu.ndim))) * cell
    init_sq = 0.5 * float(np.sum((v.field.values[0] - g0) ** 2)) * cell

    cum_fv = np.cumsum(fv[1:]) * dom.dt
    cum_fu = np.cumsum(fu[1:]) * dom.dt
    cum_dual = np.cumsum(dual_steps)
    gaps = cum_fv + cum_dual - slice_sq[1:] + init_sq - cum_fu
    scales = cum_fv + cum_fu + np.abs(cum_dual) + slice_sq[1:] + init_sq
    return gaps, scales


def variational_gap(u: SpaceTimeField, v: ComparisonMap, tau: float,
                    cfg: SolveConfig, eps: float = 0.0) -> float:
    """Variational-inequality gap at one grid time tau (>= up to tolerance
    for the computed solution)."""
    dom = u.domain
    j = int(round(tau / dom.dt))
    if not (1 <= j <= dom.nt) or abs(tau - j * dom.dt) > 1e-9 * max(dom.T, 1.0):
        raise ParameterError(f"tau = {tau} is not a positive grid time")
    gaps, _ = variational_gap_curve(u, v, cfg, eps=eps)
    return float(gaps[j - 1])


def _check_lateral_match(values: np.ndarray, cfg: SolveConfig) -> None:
    dom = cfg.domain
    g = cfg.g.sample(dom).values
    scale = max(float(np.abs(values).max()), float(np.abs(g).max()), 1e-300)
    if dom.n == 1:
        mismatch = max(
            float(np.abs(values[:, 0] - g[:, 0]).max()),
            float(np.abs(values[:, -1] - g[:, -1]).max()),
        )
    else:
        mismatch = max(
            float(np.abs(values[:, 0, :] - g[:, 0, :]).max()),
            float(np.abs(values[:, -1, :] - g[:, -1, :]).max()),
            float(np.abs(values[:, :, 0] - g[:, :, 0]).max()),
            float(np.abs(values[:, :, -1] - g[:, :, -1]).max()),
        )
    if mismatch > 1e-12 * scale:
        raise PreconditionError(
            f"comparison map does not match the datum on the lateral boundary "
            f"(mismatch {mismatch:g})"
        )
