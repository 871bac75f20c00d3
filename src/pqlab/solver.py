"""Implicit solver for the regularized Cauchy-Dirichlet problem and the
weak-form, energy and variational diagnostics evaluated on its output.

Each implicit Euler step solves, at the interior nodes,

    R(w) = w - u^j - dt div_h F(x, t_{j+1}, D_h w) = 0,
    w = g(., t_{j+1}) on the lateral boundary,

by Newton's method on the exact Jacobian of R.  A backtracking line search
(Armijo factor 1e-4, halving) on max|R| globalizes it, with no relaxation
factor to tune.
The Jacobian is one stencil written over the axes: per axis k the normal
weight G + 2G'(s) g_k^2 of the k-faces on the neighbours +-e_k and the
diagonal, and per transverse axis j the cross weight 2G'(s) g_k t_j, where
the face flux takes its transverse gradient t_j from centred differences
averaged onto the face, on +-e_j and +-e_k +- e_j.  newton_direction picks
the linear solver by dimension: in 1D the stencil is the symmetric
positive definite tridiagonal I + dt/dx^2 D^T diag(G + 2G'(s)s) D, solved
by LAPACK dptsv; in 2D it is a nonsymmetric 9-point matrix, assembled into
a CSC pattern fixed per run and factored with SuperLU.  A 2D member keeps
its factor across time steps: every Newton iteration, the first of a step
included, solves its exact Jacobian system by defect correction with that
factor to relative residual 1e-12, until the factor's correction solves
exceed the flops of one factorization in solve-equivalents (read from the
run's first factor after the first time step, whose factors serve that step
only: 7 at 17^2, 23 at 65^2).  Then, or if the defect falls too slowly, the
factor is released and the member refactors and solves directly.  A
member's factor is freed once it drops.  Iteration stops once
max|R| < tolerance * max(1, |w|_inf, dt |div_h F|_inf), so the rule does
not depend on the scale of the data; a linear problem converges in one
iteration.  Every step keeps its residual and step-length history.

Newton starts from u^j or from the member's extrapolation in time,
whichever has the smaller max|R|; a tie or a non-finite residual keeps
u^j.  The extrapolation uses the accepted levels there are: none at the
first step, 2u^j - u^{j-1} at the second and 3u^j - 3u^{j-1} + u^{j-2}
after that, on the interior nodes only, while the frame takes g(t_{j+1})
in both starts.  While the solution is smooth in time the extrapolation is
O(dt^3) from u^{j+1}, against O(dt) for u^j, which about halves the
iterations of a march; the residual test keeps u^j where the solution turns
faster than dt resolves.  Every member still takes at least one iteration.

The march carries a leading member axis: solve_levels advances L problems
that share the grid, coefficients, datum, tolerance and time steps and
differ only in eps, through one Newton loop; solve is its one-member case.
Each member keeps its own start, line-search length, convergence test and
iteration count, and is frozen once converged, so its iterates are
bitwise those of a lone solve.  In 1D one dptsv call solves the uncoupled
block tridiagonal of all members; in 2D each member is solved in turn,
with its own factor.
A member that fails (StepFailure or DivergenceError) drops itself and
every later member while the earlier ones run to completion, which is the
outcome of solving the members one after another and stopping at the
first failure.

D_h places gradients on cell faces and div_h is its negative adjoint, which
makes discrete integration by parts exact for test functions vanishing on
the boundary.  weak_residual sums the step residual against a test field,
so the discrete weak form of a computed solution holds to the solver
tolerance in 1D and 2D.  In 1D one step is also the minimizing movement of
the convex integrand, and the discrete variational inequality holds up to
iteration tolerance.  The averaged transverse gradient of the 2D flux makes
the 2D step minimize no discrete energy exactly, so in 2D the inequality
holds only up to a first-order error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
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
from .grid import (
    Domain,
    SpaceTimeField,
    _grad_magnitude,
    _partial,
    _same_grid,
    _trapezoid_weights,
    boundary_frame,
    lp_norm,
)
from .model import IntegrandSpec, flux_coefficient, integrand

# Line search: accept step length t once max|R| has fallen by the factor
# 1 - ARMIJO * t; halve t down to MIN_STEP.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-20

# 2D linear solves with a member's kept factor: defect correction on the
# exact Newton matrix, to relative residual _CORRECTION_RTOL within
# _CORRECTIONS corrections.
_CORRECTION_RTOL = 1e-12
_CORRECTIONS = 30

# Size of the sine-mode test family of the energy report's dual norm: 16
# modes in 1D, 4 x 4 in 2D.
_DUAL_MODES = 16


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
        """psi' of a time-dependent datum."""
        return sum(j * c * np.asarray(t, float) ** (j - 1) for j, c in enumerate(self.psi[1:], 1))

    def at(self, box, coords, t):
        """Value at spatial coordinate arrays and time(s) t."""
        return self._g0(box, coords) * self._psi(t)

    def sample(self, domain: Domain) -> SpaceTimeField:
        """at over the grid's nodes and times."""
        t = domain.times.reshape((-1,) + (1,) * domain.n)
        return SpaceTimeField(domain, self.at(domain.box, domain.meshgrid(), t))


@dataclass(frozen=True)
class SolveConfig:
    """One solver run: domain, integrand, datum and iteration controls."""

    domain: Domain
    spec: IntegrandSpec
    g: BoundaryDatum
    tolerance: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if self.spec.params.n != self.domain.n:
            raise ParameterError(
                f"spec has n = {self.spec.params.n} but the grid has n = {self.domain.n}")
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
    """The StepHistory of every time step of one solve."""

    histories: list = field(default_factory=list)

    @property
    def iterations(self) -> list:
        """Newton iterations per time step."""
        return [len(h.residuals) for h in self.histories]

    @property
    def residuals(self) -> list:
        """Final max|R| per time step."""
        return [h.residuals[-1] for h in self.histories]

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations))


# ---------------------------------------------------------------------------
# staggered operators (exact summation-by-parts pair)


def face_gradients(w: np.ndarray, domain: Domain) -> list:
    """Per-axis difference quotients on cell faces, over the last n axes of
    w (leading axes are carried along).

    1D: shape (nx-1,).  2D: axis 0 faces (nx-1, nx), axis 1 faces (nx, nx-1).
    """
    n = domain.n
    return [_diff(w, k - n) / h for k, h in enumerate(domain.dx)]


def face_divergence(face_fluxes: list, domain: Domain) -> np.ndarray:
    """Negative adjoint of face_gradients; values at interior nodes, zero on
    the boundary frame.  Satisfies sum(div F * phi) dV = -sum(F . D phi) dV
    exactly for phi vanishing on the boundary.  Leading axes of the face
    fluxes are carried along."""
    n = domain.n
    lead = face_fluxes[0].shape[: face_fluxes[0].ndim - n]
    out = np.zeros(lead + (domain.nx,) * n)
    inner = (Ellipsis,) + (slice(1, -1),) * n
    for k, (f, h) in enumerate(zip(face_fluxes, domain.dx)):
        across = (Ellipsis,) + tuple(slice(None) if j == k else slice(1, -1) for j in range(n))
        out[inner] += _diff(f[across], k - n) / h
    return out


class _Iterate(NamedTuple):
    """The residual at a stack of iterates w (one per member, leading
    axis), with the face quantities its Jacobian needs.

    Per axis k: grads[k] is the normal difference quotient on the k-faces,
    trans[k] the list of transverse gradients averaged onto them (empty in
    1D) and coeffs[k] the pair (G, 2G') at s = grads[k]^2 + sum trans[k]^2.
    """

    w: np.ndarray
    residual: np.ndarray  # R at the interior nodes
    norm: np.ndarray  # max|R| per member
    scale: np.ndarray  # max(1, |w|_inf, dt |div_h F|_inf) per member
    grads: list
    trans: list
    coeffs: list

    def take(self, rows):
        """The same quantities for a subset of the members."""
        return _Iterate(
            self.w[rows], self.residual[rows], self.norm[rows], self.scale[rows],
            [g[rows] for g in self.grads],
            [[t[rows] for t in tk] for tk in self.trans],
            [(big_g[rows], dg[rows]) for big_g, dg in self.coeffs],
        )


class _Stepper:
    """Per-run cache (face coefficients, interior slice) and the Newton
    iteration of one implicit step, for a stack of members that share
    everything but eps."""

    def __init__(self, cfg: SolveConfig, eps_values):
        self.cfg = cfg
        dom = cfg.domain
        self.dom = dom
        self.dt = dom.dt
        self.dx = dom.dx
        self.frame = boundary_frame(dom)
        self.frame_coords = [c[self.frame] for c in dom.meshgrid()]
        self.eps = np.asarray(eps_values, float).reshape((-1,) + (1,) * dom.n)
        self.spatial = tuple(range(-dom.n, 0))
        self.interior = (slice(None),) + (slice(1, -1),) * dom.n
        n = dom.n
        # Newton stencil geometry: per axis k the unit offsets +-e_k, the
        # k-faces east and west of the interior nodes and dt/h_k^2; per
        # transverse pair (k, j), in the order of _Iterate.trans, the cross
        # factor dt/(4 h_k h_j)
        self.units = [tuple(int(j == k) for j in range(n)) for k in range(n)]
        self.east, self.west = (
            [(slice(None),) + tuple(near if j == k else slice(1, -1) for j in range(n))
             for k in range(n)]
            for near in (slice(1, None), slice(None, -1))
        )
        self.normal = [
            (e, tuple(-a for a in e), self.dt / h**2, east, west)
            for e, h, east, west in zip(self.units, self.dx, self.east, self.west)
        ]
        self.pairs = [
            (k, j, self.dt / (4.0 * self.dx[min(j, k)] * self.dx[max(j, k)]))
            for k in range(n) for j in range(n) if j != k
        ]
        axes = dom.axes
        # per axis k, the coordinates of the k-faces (midpoints along k)
        faces = [
            np.meshgrid(*(0.5 * (ax[:-1] + ax[1:]) if j == k else ax for j, ax in enumerate(axes)),
                        indexing="ij")
            for k in range(dom.n)
        ]
        self.a_faces = [cfg.spec.coeffs.a.at(*c) for c in faces]
        self.b_faces = [cfg.spec.coeffs.b.at(*c) for c in faces]
        # the Newton matrix's CSC pattern on the interior nodes, numbered
        # row-major: per stencil offset (every one with at most two nonzero
        # components) the nodes whose neighbour stays on the grid, and the
        # order that scatters the entries of all offsets into CSC
        m = dom.nx - 2
        node = np.arange(m**n).reshape((m,) * n)
        self.offsets = [off for off in itertools.product((-1, 0, 1), repeat=n)
                        if sum(map(abs, off)) <= 2]
        self.valid, rows, cols = [], [], []
        for off in self.offsets:
            valid = np.ones(node.shape, bool)
            for i, o in zip(np.indices(node.shape), off):
                valid &= (0 <= i + o) & (i + o < m)
            self.valid.append(valid)
            rows.append(node[valid])
            cols.append(node[valid] + sum(o * m ** (n - 1 - j) for j, o in enumerate(off)))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        self.order = np.lexsort((rows, cols)).astype(np.int32)  # by column, then row
        self.indices = rows[self.order].astype(np.int32)
        self.indptr = np.zeros(m**n + 1, np.int32)
        np.cumsum(np.bincount(cols, minlength=m**n), out=self.indptr[1:])
        # 2D Newton factors, kept across time steps: per member None or
        # (SuperLU factor, correction solves it has served), and the budget
        # of such solves per factor, read from the first factor made after
        # the first time step (see step)
        self.slots = [None] * len(self.eps)
        self.budget = None
        self.first_step = True
        # each member's accepted time levels before the one step starts from,
        # newest first and at most two: u_{j-1} and u_{j-2} (see step)
        self.past = []

    def evaluate(self, w: np.ndarray, u_prev: np.ndarray, members) -> _Iterate:
        """R(w) = w - u_prev - dt div_h F(D_h w) for the given members,
        evaluating the face coefficients once for both the residual and the
        Jacobian."""
        dom = self.dom
        n = dom.n
        grads = face_gradients(w, dom)
        trans = [
            [_face_average(_partial(w, dom, j), k - n) for j in range(n) if j != k]
            for k in range(n)
        ]
        s = [g**2 for g in grads]
        for sk, tk in zip(s, trans):
            for t in tk:
                sk += t**2
        eps = self.eps[members]
        coeffs = [
            flux_coefficient(sk, a, b, self.cfg.spec, eps=eps, derivative=True)
            for sk, a, b in zip(s, self.a_faces, self.b_faces)
        ]
        div = face_divergence([c[0] * g for c, g in zip(coeffs, grads)], dom)
        residual = (w - u_prev - self.dt * div)[self.interior]
        scale = np.maximum(
            np.maximum(1.0, np.abs(w).max(axis=self.spatial)),
            self.dt * np.abs(div).max(axis=self.spatial),
        )
        return _Iterate(w, residual, np.abs(residual).max(axis=self.spatial), scale,
                        grads, trans, coeffs)

    def stencil(self, it: _Iterate) -> dict:
        """dR/dw of every member as a stencil on the interior nodes:
        {offset: coefficient per member and node}, offset 0 the diagonal.

        The flux G(s) g on a k-face has derivative H dg + sum_j C_j dt_j with
        H = G + 2G' g^2 and C_j = 2G' g t_j, where t_j averages the centred
        j-difference over the face's two nodes.  H sits on the neighbours
        +-e_k and the diagonal; C_j reaches +-e_j and +-e_k +- e_j.  The
        order of accumulation fixes the rounding of every entry: the normal
        weights of all axes first, then the cross weights in axis order,
        east face before west.
        """
        diag = 1.0
        entries = {}
        for (e, neg, c, east, west), g, (big_g, dg) in zip(self.normal, it.grads, it.coeffs):
            h = big_g + dg * g**2
            diag = diag + c * (h[east] + h[west])
            # one weight per face: the east and west entries are views of it,
            # so nothing below may add into them in place
            weight = -c * h
            entries[e], entries[neg] = weight[east], weight[west]
        entries = {(0,) * self.dom.n: diag, **entries}
        # a k-face on side s of a node enters R with sign -s, and the
        # transverse difference pairs +e_j with +1 and -e_j with -1
        for (k, j, kappa), t in zip(self.pairs, itertools.chain.from_iterable(it.trans)):
            e_k, e_j = self.units[k], self.units[j]
            cross = kappa * it.coeffs[k][1] * it.grads[k] * t
            for side, face in ((1, self.east[k]), (-1, self.west[k])):
                v = cross[face]
                for sign in (1, -1):
                    value = -v if side * sign > 0 else v
                    for off in (tuple(sign * b for b in e_j),
                                tuple(side * a + sign * b for a, b in zip(e_k, e_j))):
                        entries[off] = entries[off] + value if off in entries else value
        return entries

    def matrix(self, stencil: dict, row: int):
        """CSC matrix of member row of a stencil on the fixed pattern; an
        entry that happens to be zero is kept as an explicit zero."""
        data = np.concatenate([stencil[off][row][valid]
                               for off, valid in zip(self.offsets, self.valid)])
        size = len(self.indptr) - 1
        return scipy.sparse.csc_matrix((data[self.order], self.indices, self.indptr),
                                       shape=(size, size))

    def newton_direction(self, it: _Iterate, t: float, members):
        """Solve J d = -R for every member of it, at time level t.

        Returns (d, failure): failure is None, or (pos, DivergenceError) for
        the first member whose Newton matrix is not positive definite or
        whose direction is not finite; d is valid for the members before
        pos.  The linear solver depends on the dimension.  In 1D the matrix
        is tridiagonal (stencil entries 0 and +e_0) and one dptsv call solves
        the block tridiagonal of all members.  Its blocks are uncoupled, so
        each is eliminated exactly as it would be alone; if any block fails,
        or a non-finite value may have spread across blocks, each member is
        solved by itself.

        In 2D each member is solved in turn.  members holds the member
        index of each row of it, which picks its slot: None, or the SuperLU
        factor of one of that member's earlier Newton matrices, from this
        or an earlier time step, with the correction solves it has served.  A
        member without one is factored and solved directly, and the factor
        fills its slot; a member with one solves its exact system
        J(w) d = -R by defect correction with that factor.  Once the factor
        has served more correction solves than the budget, or if correction
        gives up, it is released and the member is refactored at J(w) and
        solved directly.  The budget is one factorization's flops over one
        solve's, read from the first factor made after the stepper's first
        time step, so a factor is replaced once its corrections have cost as
        much as a new one; until it is read, a factor serves without limit.
        """
        rhs = -it.residual
        stencil = self.stencil(it)
        if self.dom.n == 1:
            diag, east = stencil[(0,)], stencil[(1,)]
            coupling = east.copy()
            coupling[:, -1] = 0.0
            _, _, d, info = scipy.linalg.lapack.dptsv(
                diag.ravel(), coupling.ravel()[:-1], rhs.ravel())
            d = d.reshape(rhs.shape)
            if info == 0 and np.all(np.isfinite(d)):
                return d, None

            def solve_member(row):
                _, _, d_row, info = scipy.linalg.lapack.dptsv(diag[row], east[row, :-1], rhs[row])
                if info != 0:
                    raise DivergenceError(f"Newton matrix is not positive definite (info {info})")
                return d_row
        else:
            def solve_member(row):
                matrix, b = self.matrix(stencil, row), rhs[row].ravel()
                m = members[row]
                slot, self.slots[m] = self.slots[m], None
                if slot is not None and (self.budget is None or slot[1] <= self.budget):
                    d_row, solves = _defect_correction(matrix, b, slot[0])
                    if d_row is not None:
                        self.slots[m] = (slot[0], slot[1] + solves)
                        return d_row.reshape(rhs[row].shape)
                slot = None  # release the stale factor before refactoring
                lu = scipy.sparse.linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A")
                if self.budget is None and not self.first_step:
                    self.budget = _solve_equivalents(lu)
                self.slots[m] = (lu, 0)
                return lu.solve(b).reshape(rhs[row].shape)
        d = np.empty_like(rhs)
        for row in range(len(rhs)):
            try:
                d[row] = solve_member(row)
            except DivergenceError as exc:
                return d, (row, exc)
            if not np.all(np.isfinite(d[row])):
                return d, (row, DivergenceError(
                    f"Newton step produced non-finite values at t = {t}"))
        return d, None

    def step(self, u_prev: np.ndarray, t_next: float):
        """One implicit step of every member from u_prev (members first).

        Returns (w, histories, failure).  Each member iterates, line-searches
        and stops on its own and is frozen once converged, so its iterates
        are those of a lone solve.  A member that fails drops itself and
        every later member; w and histories hold the members before the
        first failure and failure is that member's exception (None if every
        member converged).

        Newton starts from u_prev or from the extrapolation in time of u_prev
        and the levels in self.past, of order 0, 1 or 2 as self.past holds
        none, one or two.  Only the interior is extrapolated; both starts
        take g(t_next) on the frame.  Both starts of every member are
        evaluated in one batch and each member takes the one with the
        strictly smaller max|R|, so a tie or a NaN keeps u_prev.  A member's
        start depends only on its own rows, so in a batch it starts as in a
        lone solve.  The step then stores u_prev and the newest level of
        self.past, narrowed to the members that did not fail.
        """
        cfg = self.cfg
        out = u_prev.copy()
        out[:, self.frame] = cfg.g.at(self.dom.box, self.frame_coords, t_next)
        # the members still iterating, ascending, and per row their previous
        # time level and current iterate
        rows, base = np.arange(len(u_prev)), u_prev
        if self.past:
            inner = self.interior
            ext = out.copy()
            if len(self.past) == 1:
                ext[inner] = 2.0 * u_prev[inner] - self.past[0][inner]
            else:
                ext[inner] = 3.0 * (u_prev[inner] - self.past[0][inner]) + self.past[1][inner]
            both = self.evaluate(np.concatenate([out, ext]), np.concatenate([base, base]),
                                 np.concatenate([rows, rows]))
            size = len(rows)
            it = both.take(rows + size * (both.norm[size:] < both.norm[:size]))
        else:
            it = self.evaluate(out, base, rows)
        residuals = [[] for _ in rows]
        lengths = [[] for _ in rows]
        live, failure = len(rows), None

        def keep(sel):
            """Narrow the iterating members to the rows sel."""
            nonlocal rows, base, it
            rows, base, it = rows[sel], base[sel], it.take(sel)

        def fail(pos, exc):
            """Drop the member at row pos and every later one, releasing
            their factors."""
            nonlocal live, failure
            live, failure = int(rows[pos]), exc
            self.slots[live:] = [None] * (len(self.slots) - live)
            sel = np.arange(pos)
            keep(sel)
            return sel

        def step_failure(pos, why):
            m = rows[pos]
            return StepFailure(
                f"{why} at t = {t_next} (residual {it.norm[pos]:.3e})",
                t=t_next,
                residual=float(it.norm[pos]),
                history=StepHistory(tuple(residuals[m]), tuple(lengths[m])),
            )

        for _ in range(cfg.max_iter):
            d, bad = self.newton_direction(it, t_next, rows)
            if bad is not None:
                d = d[fail(*bad)]
            # each round moves every member by its own length; a member's
            # evaluation does not depend on the others in the batch, so an
            # accepted member gets the same bits in every later round
            length = np.ones(len(rows))
            while len(rows):
                w = it.w.copy()
                w[self.interior] += length.reshape((-1,) + (1,) * self.dom.n) * d
                trial = self.evaluate(w, base, rows)
                pending = ~((trial.norm <= (1.0 - _ARMIJO * length) * it.norm)
                            | (trial.norm < cfg.tolerance * trial.scale))
                stuck = pending & (length <= _MIN_STEP)
                if stuck.any():
                    pos = int(np.argmax(stuck))
                    sel = fail(pos, step_failure(pos, "line search found no decrease"))
                    d, length, pending, trial = d[sel], length[sel], pending[sel], trial.take(sel)
                if not pending.any():
                    break
                length[pending] *= 0.5
            if not len(rows):
                break
            it = trial
            for pos, m in enumerate(rows):
                residuals[m].append(float(it.norm[pos]))
                lengths[m].append(float(length[pos]))
            done = it.norm < cfg.tolerance * it.scale
            if done.any():
                out[rows[done]] = it.w[done]
                if done.all():
                    break
                keep(~done)
        else:
            fail(0, step_failure(0, f"no convergence within {cfg.max_iter} iterations"))
        if self.first_step:
            # The first step's factors serve that step only and the budget is
            # read from a later one: reading L and U caches copies of them on
            # the factor (2.5 MB at 65^2), and during the first step the
            # allocator still holds, untrimmed, what ran before the solve.
            self.slots, self.first_step = [None] * len(self.slots), False
        self.past = [v[:live] for v in (u_prev, *self.past[:1])]
        histories = [StepHistory(tuple(r), tuple(t)) for r, t in zip(residuals[:live], lengths[:live])]
        return out[:live], histories, failure


def _solve_equivalents(lu) -> float:
    """Flops of the factorization lu over those of one solve with it.

    Eliminating column k costs l_k divisions and 2 l_k u_k multiply-adds,
    with l_k the entries of L below the diagonal in column k and u_k those
    of U right of the diagonal in row k; a solve costs 2 (nnz L + nnz U).
    Both L and U store their diagonal.
    """
    lower, upper = lu.L, lu.U
    below = np.diff(lower.indptr) - 1.0
    right = np.bincount(upper.indices, minlength=upper.shape[0]) - 1.0
    return float(np.sum(below + 2.0 * below * right)) / (2.0 * (lower.nnz + upper.nnz))


def _defect_correction(matrix, b, lu):
    """Solve matrix x = b by x += lu.solve(b - matrix x) from x = lu.solve(b),
    lu the SuperLU factor of a nearby matrix.

    Returns (x, solves), solves the number of lu.solve calls made; x is None
    unless |b - matrix x| falls at every correction (at a non-finite x it is
    NaN or infinite and never does) and, at the last correction's rate, can
    still reach _CORRECTION_RTOL |b| within _CORRECTIONS."""
    x, last, target = lu.solve(b), math.inf, _CORRECTION_RTOL * np.linalg.norm(b)
    for solves in itertools.count(1):
        defect = b - matrix @ x
        norm = np.linalg.norm(defect)
        if norm <= target:
            return x, solves
        if not norm < last or norm * (norm / last) ** (_CORRECTIONS - solves + 1) > target:
            return None, solves
        x, last = x + lu.solve(defect), norm


def _neighbours(v: np.ndarray, axis: int):
    """Views of v without its last and without its first entry along axis."""
    lo = [slice(None)] * v.ndim
    hi = list(lo)
    lo[axis], hi[axis] = slice(None, -1), slice(1, None)
    return v[tuple(lo)], v[tuple(hi)]


def _diff(v: np.ndarray, axis: int) -> np.ndarray:
    """np.diff's arithmetic without its per-call overhead, which shows in
    the 1D step's thousands of small calls."""
    lo, hi = _neighbours(v, axis)
    return hi - lo


def _face_average(v: np.ndarray, axis: int) -> np.ndarray:
    """Mean of neighbouring node values along axis, on the faces between."""
    lo, hi = _neighbours(v, axis)
    return 0.5 * (lo + hi)


def solve_levels(cfg: SolveConfig, eps_values):
    """March the implicit scheme from u(.,0) = g(.,0) for every eps in
    eps_values at once; cfg.spec.eps is not used.

    Returns (results, failure): results holds (SpaceTimeField, SolveStats)
    for each member before the first one that failed, and failure is that
    member's StepFailure or DivergenceError (None if all completed), with
    the same time, residual and history as when it is solved alone.
    """
    for eps in eps_values:
        if not 0.0 <= eps <= 1.0:
            raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    dom = cfg.domain
    stepper = _Stepper(cfg, eps_values)
    values = np.empty((len(eps_values),) + dom.shape)
    values[:, 0] = cfg.g.at(dom.box, dom.meshgrid(), 0.0)
    stats = [SolveStats() for _ in eps_values]
    u = values[:, 0].copy()
    failure = None
    times = dom.times
    for j in range(1, dom.nt + 1):
        if not len(u):
            break
        u, histories, failed = stepper.step(u, float(times[j]))
        if failed is not None:
            failure = failed
            values, stats = values[: len(u)], stats[: len(u)]
        values[:, j] = u
        for member, history in zip(stats, histories):
            member.histories.append(history)
    return [(SpaceTimeField(dom, v), st) for v, st in zip(values, stats)], failure


def solve(cfg: SolveConfig):
    """March the implicit scheme from u(.,0) = g(.,0): the one-member case
    of solve_levels at cfg.spec.eps.

    Returns (SpaceTimeField, SolveStats); step failures propagate with the
    failing time level and its convergence history attached.
    """
    results, failure = solve_levels(cfg, [cfg.spec.eps])
    if failure is not None:
        raise failure
    return results[0]


# ---------------------------------------------------------------------------
# weak-form residual


def weak_residual(u: SpaceTimeField, phi: SpaceTimeField, cfg: SolveConfig) -> float:
    """The scheme's discrete weak form of u tested with phi,

        sum_{j=1..nt} sum_interior phi_j R_j(u) |cell|,
        R_j(u) = u_j - u_{j-1} - dt div_h F(D_h u_j),

    with R the residual of the implicit step.  phi must be nonnegative and
    vanish near the parabolic boundary and at the final time; summation by
    parts in space and time then makes this the quadrature of
    integral(-u d_t phi + <F(D_h u), D_h phi>), nonpositive for discrete
    subsolutions.  For a field computed by solve with stats,
    |weak_residual| <= max(stats.residuals) sum |phi| |cell| up to rounding.
    """
    dom = cfg.domain
    _same_grid(dom, u=u, phi=phi)
    pmax = float(np.abs(phi.values).max())
    tol = 1e-12 * max(pmax, 1e-300)
    if float(phi.values.min()) < -tol:
        raise PreconditionError("test field must be nonnegative")
    frame = np.broadcast_to(boundary_frame(dom), dom.shape).copy()
    frame[0] = frame[-1] = True
    if pmax > 0 and float(np.abs(phi.values[frame]).max()) > tol:
        raise PreconditionError("test field must vanish near the parabolic boundary")

    stepper = _Stepper(cfg, [cfg.spec.eps])
    it = stepper.evaluate(u.values[1:], u.values[:-1], np.zeros(dom.nt, int))
    return float(np.sum(phi.values[1:][stepper.interior] * it.residual)) * dom.cell_volume


# ---------------------------------------------------------------------------
# energy bound


@dataclass(frozen=True)
class EnergyData:
    """Left-hand side of the energy bound and the datum aggregate M_g.

    The dual-norm term is exactly zero for time-independent data; otherwise
    the negative-order norm is approximated from below by testing against
    16 sine modes, 4 x 4 in 2D (deterministic).
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

    def row(self) -> list:
        """The values of ENERGY_COLUMNS."""
        return [getattr(self, f.name) for f in fields(self)] + [
            self.lhs_total, self.m_g, self.empirical_constant]


# The energy report's columns: the EnergyData terms in field order, then its
# aggregates (c_emp is the empirical constant).
ENERGY_COLUMNS = tuple(f.name for f in fields(EnergyData)) + ("lhs_total", "m_g", "c_emp")


def _slicewise_l2sq(values: np.ndarray, dom: Domain) -> np.ndarray:
    w = _trapezoid_weights(dom, time=False)
    return np.sum(values**2 * w, axis=tuple(range(1, values.ndim)))


def _dual_norm(cfg: SolveConfig) -> float:
    """L^{p_alpha'}-in-time norm of the negative-order spatial norm of d_t g,
    approximated over the products of the first _DUAL_MODES**(1/n) sine
    modes per axis."""
    if not cfg.g.time_dependent:
        return 0.0
    dom = cfg.domain
    d = cfg.spec.d
    grids = dom.meshgrid()
    dtg = cfg.g._g0(dom.box, grids) * cfg.g._dpsi(dom.times).reshape((-1,) + (1,) * dom.n)
    w = _trapezoid_weights(dom, time=False)
    side = round(_DUAL_MODES ** (1.0 / dom.n))
    best = np.zeros(dom.nt + 1)
    for mode in itertools.product(range(1, side + 1), repeat=dom.n):
        phi = np.ones((dom.nx,) * dom.n)
        for (lo, hi), c, k in zip(dom.box, grids, mode):
            phi = phi * np.sin(k * np.pi * (c - lo) / (hi - lo))
        dphi_mag = np.sqrt(sum(_partial(phi, dom, axis) ** 2 for axis in range(dom.n)))
        den = float(
            np.sum((np.abs(phi) ** d.p_alpha + dphi_mag**d.p_alpha) * w)
        ) ** (1.0 / d.p_alpha)
        num = np.abs(np.sum(dtg * (phi * w)[None], axis=tuple(range(1, dtg.ndim))))
        best = np.maximum(best, num / den)
    wt = np.ones(dom.nt + 1)
    wt[0] = wt[-1] = 0.5
    integral = float(np.sum(best**d.p_alpha_conj * wt) * dom.dt)
    return integral ** (1.0 / d.p_alpha_conj)


def energy_report(u: SpaceTimeField, cfg: SolveConfig) -> EnergyData:
    dom = cfg.domain
    _same_grid(dom, u=u)
    d = cfg.spec.d
    p = cfg.spec.params.p
    mu = cfg.spec.params.mu
    eps = cfg.spec.eps
    alpha = cfg.spec.params.alpha

    du_mag = _grad_magnitude(u)
    grad_int = lp_norm(du_mag, d.p_alpha) ** d.p_alpha
    eps_term = eps * lp_norm(du_mag, d.q_beta) ** d.q_beta
    del du_mag  # freed before the datum's gradient is formed: a lower peak
    alpha_exp = 1.0 if math.isinf(alpha) else (alpha + 1.0) / alpha

    g_field = cfg.g.sample(dom)
    dg_mag = _grad_magnitude(g_field)
    wnorm = (
        lp_norm(g_field, d.p_alpha) ** d.p_alpha + lp_norm(dg_mag, d.p_alpha) ** d.p_alpha
    ) ** (1.0 / d.p_alpha)

    return EnergyData(
        sup_l2=float(_slicewise_l2sq(u.values, dom).max()),
        grad_term=grad_int**alpha_exp,
        eps_term=eps_term,
        dual_term=_dual_norm(cfg) ** d.p_conj,
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
    """Admissible competitor: matches the datum on the lateral boundary."""

    name: str
    field: SpaceTimeField


def comparison_maps(cfg: SolveConfig) -> list:
    """Preset competitor family around the datum (lateral values match g),
    with perturbations of amplitude 0.3 (1 + max|g|)."""
    dom = cfg.domain
    T = dom.T
    g = cfg.g.sample(dom).values
    grids = dom.meshgrid()
    bump = BoundaryDatum(kind="profile", profile="bump")._g0(dom.box, grids)
    sin2 = BoundaryDatum(kind="profile", mode=2)._g0(dom.box, grids)
    amplitude = 0.3 * (1.0 + float(np.abs(g).max()))
    t = dom.times.reshape((-1,) + (1,) * dom.n)

    def mk(name, extra):
        return ComparisonMap(name, SpaceTimeField(dom, g + extra))

    return [
        mk("datum", np.zeros(dom.shape)),
        mk("bump", amplitude * bump[None] * np.ones_like(t)),
        mk("bump-ramp", amplitude * bump[None] * (t / T)),
        mk("bump-decay", amplitude * bump[None] * (1.0 - t / T) ** 2),
        mk("mode2-ramp", amplitude * sin2[None] * (t / T)),
        mk("bump-negative", -amplitude * bump[None] * np.ones_like(t)),
    ]


def _cell_integrals(values: np.ndarray, cfg: SolveConfig, eps: float) -> np.ndarray:
    """integral of f(x, Dw) at every time level of values (time first), by
    cell-centred staggered gradients.  In 1D this is the step's own energy,
    so the discrete variational inequality survives with the iteration
    tolerance; in 2D it does not (the strict xfail of
    TestVariationalGap::test_first_variation_vanishes).  The coefficients
    are time-independent."""
    dom = cfg.domain
    n = dom.n
    centres = np.meshgrid(*(0.5 * (ax[:-1] + ax[1:]) for ax in dom.axes), indexing="ij")
    xi = []
    for k, component in enumerate(face_gradients(values, dom)):
        for j in range(n):
            if j != k:
                component = _face_average(component, j - n)
        xi.append(component)
    f_vals = integrand(np.stack(xi), cfg.spec.coeffs.a.at(*centres),
                       cfg.spec.coeffs.b.at(*centres), cfg.spec, eps=eps)
    return f_vals.reshape(len(values), -1).sum(axis=1) * dom.cell_volume


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
    dom = cfg.domain
    _same_grid(dom, u=u, v=v.field)
    g = cfg.g.sample(dom).values
    lateral = boundary_frame(dom)
    mismatch = float(np.abs(v.field.values[:, lateral] - g[:, lateral]).max())
    if mismatch > 1e-12 * max(float(np.abs(v.field.values).max()), float(np.abs(g).max()), 1e-300):
        raise PreconditionError(
            f"comparison map does not match the datum on the lateral boundary "
            f"(mismatch {mismatch:g})")

    fv = _cell_integrals(v.field.values, cfg, eps)
    fu = _cell_integrals(u.values, cfg, eps)

    cell = dom.cell_volume
    diff_vu = v.field.values - u.values
    dv_steps = v.field.values[1:] - v.field.values[:-1]
    dual_steps = np.sum(
        dv_steps * diff_vu[1:], axis=tuple(range(1, dv_steps.ndim))
    ) * cell
    slice_sq = 0.5 * np.sum(diff_vu**2, axis=tuple(range(1, diff_vu.ndim))) * cell
    init_sq = 0.5 * float(np.sum((v.field.values[0] - g[0]) ** 2)) * cell

    cum_fv = np.cumsum(fv[1:]) * dom.dt
    cum_fu = np.cumsum(fu[1:]) * dom.dt
    cum_dual = np.cumsum(dual_steps)
    gaps = cum_fv + cum_dual - slice_sq[1:] + init_sq - cum_fu
    scales = cum_fv + cum_fu + np.abs(cum_dual) + slice_sq[1:] + init_sq
    return gaps, scales

