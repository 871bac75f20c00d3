"""Implicit solver for the regularized Cauchy-Dirichlet problem and the
weak-form, energy and variational diagnostics evaluated on its output.

Each implicit Euler step solves, at the interior nodes,

    R(w) = w - u^j - dt div_h F(x, t_{j+1}, D_h w) = 0,
    w = g(., t_{j+1}) on the lateral boundary,

by Newton's method on the exact Jacobian of R.  R, its Jacobian stencil and
the discrete energy come from the discretization, scheme._Scheme (see
scheme.py).  _Stepper is the Newton driver on one scheme: the members' eps,
the datum on the frame, the start, the stopping rule and the linear solves;
_line_search picks step lengths.  solve_levels builds one stepper per run, and
weak_residual and variational_gap_curves each build one scheme per call.

newton_direction picks the linear solver by dimension: in 1D the stencil
is the symmetric positive definite tridiagonal
I + dt/dx^2 D^T diag(G + 2G'(s)s) D, solved by LAPACK dptsv; in 2D it is a
nonsymmetric 9-point matrix with half-bandwidth nx - 1 in row-major order,
which each member's band.FactorSlot solves (band.py says how) down to the
target the solver sets: max(_CORRECTION_FLOOR * tolerance * scale,
_FORCING * |R|), the stopping floor or the forcing term of inexact Newton.

Newton is globalized, with no relaxation factor to tune, by _line_search:
a backtracking line search (Armijo factor 1e-4, halving) on max|R| that
returns each member's accepted trial and step length, and the first member
whose length fell to 2^-20 without a decrease.  Iteration stops once
max|R| < tolerance * max(1, |w|_inf, dt |div_h F|_inf): relative to the
data above |w|_inf = 1, absolute below it (at amplitude 1e-8 a field stops
1e-4 relative from a tight solve; ROADMAP item 10).  A linear problem
converges in one iteration.  Each step records its residuals and step
lengths in a log with one entry per iteration, whatever the number of
members (_Stepper.step); solve_levels keeps the logs, and a SolveStats
builds its member's StepHistory per step from them when it is read.

Newton starts from u^j or from the member's extrapolation in time,
whichever has the smaller max|R|; a tie or a non-finite residual keeps
u^j.  The extrapolation uses the accepted levels there are: none at the
first step, 2u^j - u^{j-1} at the second and 3u^j - 3u^{j-1} + u^{j-2}
after that, on the interior nodes only, while the frame takes g(t_{j+1})
in both starts.  While the solution is smooth in time the extrapolation is
O(dt^3) from u^{j+1}, against O(dt) for u^j, which about halves the
iterations of a march; the residual test keeps u^j where the solution turns
faster than dt resolves.  Every member still takes at least one iteration.
Where the last step ended every member at one iterate and g is bitwise
the same on the frame, the u^j start is that iterate's restart.  Once
steps end at their first trial for every member, each step's first trial
batch also evaluates the next step's starts, which it takes if that trial
ends its step.  The starts of a batch are blocks of one buffer (_Stepper.starts).

The march carries a leading member axis: solve_levels advances L problems
that share the grid, coefficients, datum, tolerance and time steps and
differ only in eps, through one Newton loop; solve is its one-member case.
Each member keeps its own start, line-search length, convergence test and
iteration count, and is frozen once converged, so its iterates are
bitwise those of a lone solve.  In 1D one dptsv call solves the uncoupled
block tridiagonal of all members; in 2D each member is solved in turn,
with its own factor.  A member that fails (StepFailure or
DivergenceError) drops itself and every later member while the earlier ones
run to completion, which is the outcome of solving the members one after
another and stopping at the first failure.

weak_residual sums the step residual against a test field, so the discrete
weak form of a computed solution holds to the solver tolerance in 1D and
2D; scheme.py states how far the discrete variational inequality holds.

energy_reports takes the datum's terms, products of an integral on one level
and one in time as g = g0(x) psi(t), once for all its fields, and
variational_gap_curves the datum's sample and f(Du)'s integral once for all
its maps; energy_report and variational_gap_curve are the one-field cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack

from .band import FactorSlot
from .errors import (
    DivergenceError,
    ParameterError,
    PreconditionError,
    StepFailure,
)
from .grid import (
    Domain,
    SpaceTimeField,
    _level_blocks,
    _read_only,
    _same_grid,
    _trapezoid_weights,
    boundary_frame,
)
from .model import IntegrandSpec
from .scheme import _grad_norm, _Iterate, _Scheme, gradient_powers

# _line_search's Armijo factor and shortest step length
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-20

# The floor of the 2D Newton target (newton_direction).  A defect r left in
# the direction d is, to first order, the next residual: R(w + d) = -r +
# O(|d|^2).  The stopping rule needs max|R| < tolerance * scale, so a
# defect at the floor, 1e-2 of that threshold (in the 2-norm, which bounds
# the max-norm), moves the next max|R| by at most 1% of it: it changes when
# Newton stops only where an exact direction would land that close to the
# threshold.  With the forcing term off, a floor of 1e-1 moves the 65^2 x 64
# preset's field 9e-13 relative from one 1e-4 times lower, too near the
# 1e-12 that the tests allow, and one of 1 adds an iteration on their p = 4
# probe.
_CORRECTION_FLOOR = 1e-2

# The forcing term of inexact Newton (Dembo, Eisenstat and Steihaug,
# "Inexact Newton methods", SIAM J. Numer. Anal. 19, 1982): far from the
# solution a direction with defect at most _FORCING * |R| (2-norms) keeps
# Newton's convergence, and the floor's further corrections would be
# discarded by the next iteration.  On the 65^2 x 64 preset (p = 2, q = 2.1,
# alpha = 20) the constant 1e-4 takes 107 Newton iterations, 8
# factorizations and 260 factor solves, against 104, 12 and 414 at the floor
# alone, and its field lies within 1.64e-10 of max|u| of the floor's.
# Eisenstat and Walker's choice 2 ("Choosing the forcing terms in an inexact
# Newton method", SIAM J. Sci. Comput. 17, 1996: eta_k = gamma (|R_k| /
# |R_{k-1}|)^alpha, gamma = 0.9, alpha = 2, first eta 1e-2 to 1e-4) took
# 107-131 iterations, 9 factorizations and 280-297 solves there, so the
# constant is the one rule.
_FORCING = 1e-4

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
        for name in ("amplitude", "value", "psi"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")

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
        return SpaceTimeField(domain, _read_only(self.at(domain.box, domain.meshgrid(), t)))


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
        if not 0 < self.tolerance < math.inf:
            raise ParameterError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be at least 1")


class StepHistory(NamedTuple):
    """Newton convergence of one implicit step: max|R| after each iteration
    and the step length the line search accepted in it."""

    residuals: tuple
    step_lengths: tuple


def _member_history(log: list, m: int) -> StepHistory:
    """Member m's StepHistory in a step's log (see _Stepper.step)."""
    entries = [(norm[pos], length[pos]) for rows, norm, length in log
               for pos in np.flatnonzero(rows == m)]
    return StepHistory(tuple(float(r) for r, _ in entries), tuple(float(t) for _, t in entries))


@dataclass(frozen=True)
class SolveStats:
    """Newton iterations and final max|R| per time step of one solve, and its
    StepHistory per step, built from the march's step logs when it is read."""

    iterations: list
    residuals: list
    logs: list = field(repr=False, compare=False)
    member: int = field(repr=False, compare=False)

    @property
    def histories(self) -> list:
        return [_member_history(log, self.member) for log in self.logs]

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iterations))


class _Stepper:
    """The Newton driver of the implicit step on one scheme, for a stack of
    members that share everything but eps: the members' eps, the frame's
    datum profile, the 2D factor slots, the levels the extrapolated start
    reads and the starts carried to the next step."""

    def __init__(self, cfg: SolveConfig, eps_values):
        self.cfg = cfg
        dom = cfg.domain
        self.scheme = _Scheme(dom, cfg.spec)
        self.frame = boundary_frame(dom)
        # g = g0(x) psi(t): the frame's profile g0, which each step scales
        self.frame_g0 = cfg.g._g0(dom.box, [c[self.frame] for c in dom.meshgrid()])
        self.eps = np.asarray(eps_values, float).reshape((-1,) + (1,) * dom.n)
        self.members = np.arange(len(self.eps))
        # each member's 2D Newton factor, kept across time steps
        self.slots = [FactorSlot() for _ in self.eps]
        # each member's accepted time levels before the one step starts from,
        # newest first and at most two: u_{j-1} and u_{j-2} (see step)
        self.past = []
        # whether the last step ended at its first trial for every member; the
        # iterate it ended them all at, and the next step's start made with it
        self.swift, self.level, self.carry = False, None, None

    def newton_direction(self, it: _Iterate, t: float, members):
        """Solve J d = -R for every member of it, at time level t.

        Returns (d, failure): failure is None, or (pos, DivergenceError) for
        the first member whose Newton matrix is not positive definite (1D) or
        singular (2D) or whose direction is not finite; d is valid for the
        members before pos.  The n == 1 branch is a selection by dimension,
        with a benchmark workload on each side: a band LU per member costs
        sweep-1d's six members 200-380 us per direction against 8-11 us for
        one batched dptsv, +0.05-0.1 s on a 0.09 s op.  In 1D the matrix is
        tridiagonal (stencil entries 0 and +e_0), and one dptsv call solves
        the block tridiagonal of all members in place of their coupling and
        right-hand side.  Its blocks are uncoupled, so each is eliminated as
        it would be alone; if any block fails, or a non-finite value may have
        spread across blocks, each member is solved by itself.

        In 2D each member's slot (members holds the member of each row of
        it) solves in turn down to max(_CORRECTION_FLOOR * tolerance * scale,
        _FORCING * |R|), |R| the 2-norm of its residual (band.py says how); a
        singular matrix fails its member with DivergenceError.
        """
        rhs = -it.residual
        stencil = self.scheme.stencil(it)
        if self.cfg.domain.n == 1:
            diag, east = stencil[(0,)], stencil[(1,)]
            coupling = east.copy()
            coupling[:, -1] = 0.0
            _, _, d, info = scipy.linalg.lapack.dptsv(
                diag.ravel(), coupling.ravel()[:-1], rhs.ravel(), overwrite_e=1, overwrite_b=1)
            if info == 0 and np.isfinite(d).all():
                return d.reshape(rhs.shape), None
            rhs = -it.residual  # the batched solve overwrote the first

            def solve_member(row):
                _, _, d_row, info = scipy.linalg.lapack.dptsv(diag[row], east[row, :-1], rhs[row])
                if info != 0:
                    raise DivergenceError(f"Newton matrix is not positive definite (info {info})")
                return d_row
        else:
            def solve_member(row):
                b = rhs[row].ravel()
                target = max(_CORRECTION_FLOOR * self.cfg.tolerance * it.scale[row],
                             _FORCING * scipy.linalg.blas.dnrm2(b))
                slot = self.slots[members[row]]
                return slot.direction(stencil, row, b, target).reshape(rhs[row].shape)
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

    def starts(self, u: np.ndarray, t: float, past: list, base=None, known=False):
        """(w, u_prev, eps, fresh): the batch that evaluates the starts of the
        step from u (members first) to t, a block of members per start along a
        new leading axis: u, unless known (the caller has u's evaluation) and
        u's frame (every member's) is g(t) already (then fresh is False), and,
        if past (newest first) holds a level, its extrapolation of order
        len(past) on the interior (2u - past[0] or 3(u - past[0]) + past[1]);
        both take g(t) on the frame.  Given base, the level u is a trial from,
        u leads the batch as that trial.  The blocks follow base (or u) in one
        buffer, each block's u_prev the one before it (read inside only)."""
        edge, lead = self.frame_g0 * self.cfg.g._psi(t), int(base is not None)
        fresh = not known or u[0][self.frame].tobytes() != edge.tobytes()
        x = np.empty((1 + lead + fresh + bool(past),) + u.shape)
        x[lead:] = u
        if lead:
            x[0] = base
        x[lead + 1:, :, self.frame] = edge
        inner = self.scheme.interior
        if len(past) == 1:
            x[-1][inner] = 2.0 * u[inner] - past[0][inner]
        elif past:
            x[-1][inner] = 3.0 * (u[inner] - past[0][inner]) + past[1][inner]
        return x[1:], x[:-1], self.eps[:len(u)], fresh

    def pick(self, both: _Iterate, first: int = 0, start: _Iterate | None = None) -> _Iterate:
        """The members' starts from u (block first of a batch that starts made,
        or start) and from the extrapolation (the next block, if any): the
        latter where its max|R| is strictly smaller (a tie or NaN keeps u)."""
        if start is None:
            start, first = both.take(first), first + 1
        ext = both.take(first) if len(both.w) > first else start
        better = ext.norm < start.norm
        if better.all() or not better.any():
            return ext if better[0] else start

        def stacked(*parts):  # np.stack over the matching arrays of nested lists
            if isinstance(parts[0], np.ndarray):
                return np.stack(parts)
            return type(parts[0])(stacked(*p) for p in zip(*parts))
        return _Iterate(*stacked(tuple(start), tuple(ext))).take(
            (0 + better, self.members[:len(better)]))

    def _drop(self, why, t: float, it: _Iterate, rows, pos: int, log: list):
        """Drop the member at row pos of it and rows and every later one, whose 2D factors go, for
        why (an exception or a reason): returns the failure and the number of members kept."""
        del self.slots[rows[pos]:]
        return why if isinstance(why, Exception) else StepFailure(
            f"{why} at t = {t} (residual {it.norm[pos]:.3e})", t=t, residual=float(it.norm[pos]),
            history=_member_history(log, rows[pos])), int(rows[pos])

    def step(self, u_prev: np.ndarray, t_next: float, t_after: float | None = None):
        """One implicit step of every member from u_prev (members first).

        Returns (w, log, failure): w holds the members before the first that
        failed, failure is that member's exception (None if all converged),
        and log has an entry per Newton iteration, whatever the number of
        members: the members still iterating (ascending), their max|R| and
        the step lengths they accepted.  self.past then takes u_prev, narrowed
        to the members kept.  Each member starts Newton from the better of its
        starts (see starts and pick), evaluated in one batch but for a u start
        that is self.level's restart; a start reads only its own rows.
        t_after is the next step's time, None at the last step.  After a step
        that ended at its first trial for every member, that trial's batch
        also evaluates the next step's starts; if it ends this step too, they
        are carried (self.carry) to the call whose t_next is t_after and whose
        u_prev is bitwise that trial: the rows it would evaluate, so every
        result is the same.
        """
        cfg, scheme = self.cfg, self.scheme
        level, carry, self.level, self.carry = self.level, self.carry, None, None
        same = level is not None and level.w.tobytes() == u_prev.tobytes()
        if same and carry is not None and carry[0] == t_next:
            it = carry[1]
        else:
            *batch, fresh = self.starts(u_prev, t_next, self.past, known=same and bool(self.past))
            it = self.pick(scheme.evaluate(*batch), start=None if fresh else level.restart())
        # the members still iterating, ascending, with their previous levels
        # and eps; the members kept; and the accepted levels once a member ends
        rows, base, eps = self.members[:len(u_prev)], u_prev, self.eps[:len(u_prev)]
        live, out, failure, log = len(u_prev), None, None, []
        # whether the first trial also evaluates the next step's starts: ahead
        look, ahead = t_after is not None and self.swift, None
        for _ in range(cfg.max_iter):
            d, bad = self.newton_direction(it, t_next, rows)
            if bad is not None:
                pos = bad[0]
                failure, live = self._drop(bad[1], t_next, it, rows, pos, log)
                rows, base, eps, d = rows[:pos], base[:pos], eps[:pos], d[:pos]
                it, look = it.take(slice(pos)), False
            trial = None
            if look:
                w = it.w.copy()
                w[scheme.interior] += d
                *batch, moved = self.starts(w, t_after, [base, *self.past[:1]], base, known=True)
                ahead = scheme.evaluate(*batch)
                trial, look = ahead.take(0), False
            trial, length, stuck = _line_search(scheme, it, d, base, eps, cfg.tolerance, trial)
            if stuck is not None:
                failure, live = self._drop("line search found no decrease", t_next, it, rows,
                                           stuck, log)
                rows, base, eps = rows[:stuck], base[:stuck], eps[:stuck]
            if not len(rows):
                break
            it = trial
            log.append((rows, it.norm, length))
            done = it.norm < cfg.tolerance * it.scale
            if out is None and done.all():
                out = it.w  # every member ends at once: rows are u_prev's up to live
                break
            if done.any():
                if out is None:
                    out = np.empty_like(u_prev)
                out[rows[done]] = it.w[done]
                if done.all():
                    break
                rows, base, eps, it = rows[~done], base[~done], eps[~done], it.take(~done)
        else:
            failure, live = self._drop(f"no convergence within {cfg.max_iter} iterations",
                                       t_next, it, rows, 0, log)
        self.swift = failure is None and len(log) == 1 and bool((log[0][2] == 1.0).all())
        self.level = it if out is it.w else None  # every member ended at it
        if self.swift and ahead is not None:
            self.carry = (t_after, self.pick(ahead, 1, None if moved else it.restart()))
        self.past = [v[:live] for v in (u_prev, *self.past[:1])]
        return (u_prev[:0] if out is None else out[:live]), log, failure


def _line_search(scheme: _Scheme, it: _Iterate, d, base, eps, tolerance: float, trial=None):
    """Backtracking line search from the members' iterates it along their
    Newton directions d, base and eps the members' previous levels and
    regularizations, and trial their evaluation at length 1 if the caller
    made it.  Each member's length t starts at 1 and halves until max|R|
    falls by the factor 1 - _ARMIJO t or meets the stopping rule.  Each
    round evaluates all members in one batch; no member's evaluation depends
    on the others, so an accepted member keeps its bits.  A member pending
    at _MIN_STEP is stuck: it and every later member are dropped.  Returns
    (trial, length, stuck): the accepted evaluation and length of each
    member before the first stuck one, and its position or None."""
    length, stuck = np.ones(len(d)), None
    while len(length):
        if trial is None:
            w = it.w.copy()
            w[scheme.interior] += length.reshape((-1,) + (1,) * scheme.dom.n) * d
            trial = scheme.evaluate(w, base, eps)
        pending = ~((trial.norm <= (1.0 - _ARMIJO * length) * it.norm)
                    | (trial.norm < tolerance * trial.scale))
        hit = pending & (length <= _MIN_STEP)
        if hit.any():
            stuck = int(np.argmax(hit))
            it, trial = it.take(slice(stuck)), trial.take(slice(stuck))
            d, base, eps, length, pending = (x[:stuck] for x in (d, base, eps, length, pending))
        if not pending.any():
            break
        length[pending] *= 0.5
        trial = None
    return trial, length, stuck


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
    # per time step and member: Newton iterations and final max|R|
    iterations = np.zeros((dom.nt, len(values)), int)
    residuals = np.empty((dom.nt, len(values)))
    logs = []
    u = values[:, 0].copy()
    failure = None
    times = dom.times
    for j in range(1, dom.nt + 1):
        if not len(u):
            break
        u, log, failed = stepper.step(
            u, float(times[j]), float(times[j + 1]) if j < dom.nt else None)
        if failed is not None:
            failure = failed
            values = values[: len(u)]
        values[:, j] = u
        logs.append(log)
        # a member's last entry holds its final max|R|; the rows of members
        # dropped in this step are written but never reported
        for rows, norm, _ in log:
            iterations[j - 1][rows] += 1
            residuals[j - 1][rows] = norm
    return [(SpaceTimeField(dom, v), SolveStats(n.tolist(), r.tolist(), logs, m))
            for m, (v, n, r) in enumerate(zip(_read_only(values), iterations.T, residuals.T))], failure


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

    scheme = _Scheme(dom, cfg.spec)
    it = scheme.evaluate(u.values[1:], u.values[:-1], np.full((1,) * (dom.n + 1), cfg.spec.eps))
    return float(np.sum(phi.values[1:][scheme.interior] * it.residual)) * dom.cell_volume


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
    """The trapezoid integral of values^2 at every time level."""
    w = _trapezoid_weights(dom, time=False)
    out = np.empty(len(values))
    for block in _level_blocks(values):
        sq = values[block] ** 2
        sq *= w
        out[block] = np.sum(sq, axis=tuple(range(1, values.ndim)))
    return out


def _dual_norm(cfg: SolveConfig, g0, w, wt) -> float:
    """L^{p_alpha'} norm in time of the negative-order norm of d_t g = g0 psi':
    that of psi' (time weights wt) times the best |sum g0 phi w| / |phi| over
    the products phi of the first _DUAL_MODES**(1/n) sine modes per axis."""
    if not cfg.g.time_dependent:
        return 0.0
    dom, d = cfg.domain, cfg.spec.d
    grids, side, best = dom.meshgrid(), round(_DUAL_MODES ** (1.0 / dom.n)), 0.0
    for mode in itertools.product(range(1, side + 1), repeat=dom.n):
        phi = np.ones((dom.nx,) * dom.n)
        for (lo, hi), c, k in zip(dom.box, grids, mode):
            phi = phi * np.sin(k * np.pi * (c - lo) / (hi - lo))
        dphi = _grad_norm(phi[None], dom)[0]
        norm = float(np.sum((np.abs(phi) ** d.p_alpha + dphi**d.p_alpha) * w)) ** (1.0 / d.p_alpha)
        best = max(best, abs(float(np.sum(g0 * (phi * w)))) / norm)
    dpsi = np.abs(cfg.g._dpsi(dom.times))
    return float(np.sum(dpsi**d.p_alpha_conj * wt)) ** (1.0 / d.p_alpha_conj) * best


def energy_report(u: SpaceTimeField, cfg: SolveConfig) -> EnergyData:
    """The energy bound's terms for u: energy_reports of u alone at cfg.spec.eps."""
    return energy_reports([u], cfg, [cfg.spec.eps])[0]


def energy_reports(fields, cfg: SolveConfig, eps_values) -> list:
    """EnergyData of each field at its eps (cfg.spec.eps is not used).  The
    datum's terms are the same for every field and are computed once; its
    eps-term is eps times one shared norm.  g = g0(x) psi(t) makes each of
    them a product: an integral on one level times one of psi or psi'."""
    dom = cfg.domain
    if len(fields) != len(eps_values):
        raise ParameterError(f"{len(fields)} fields but {len(eps_values)} eps values")
    for u in fields:
        _same_grid(dom, u=u)
    d = cfg.spec.d
    w, wt = _trapezoid_weights(dom, time=False), np.full(dom.nt + 1, dom.dt)
    wt[0] = wt[-1] = 0.5 * dom.dt
    g0, psi = cfg.g._g0(dom.box, dom.meshgrid()), np.abs(cfg.g._psi(dom.times))
    dg0 = _grad_norm(g0[None], dom)[0]

    def integral(level, r):
        """The space-time integral of (|level| |psi|)^r."""
        return float(np.sum(psi**r * wt)) * float(np.sum(np.abs(level) ** r * w))

    dg_pa, dg_gamma, dg_bc, dg_qb = [
        integral(dg0, r) for r in (d.p_alpha, d.gamma, d.beta_conj, d.q_beta)]
    wnorm = (integral(g0, d.p_alpha) + dg_pa) ** (1.0 / d.p_alpha)
    datum = dict(
        dual_term=_dual_norm(cfg, g0, w, wt) ** d.p_conj,
        wnorm_term=wnorm**d.p,
        dg_gamma_term=(dg_gamma ** (1.0 / d.gamma)) ** d.time_exponent,
        dg_mu_term=cfg.spec.params.mu ** (d.q - 1.0) * dg_bc ** (1.0 / d.beta_conj),
        g_sup_l2=float(np.max(psi**2)) * float(np.sum(g0**2 * w)),
    )
    reports = []
    for u, eps in zip(fields, eps_values):
        du_pa, du_qb = gradient_powers(u.values, dom, (d.p_alpha, d.q_beta))
        reports.append(EnergyData(
            sup_l2=float(_slicewise_l2sq(u.values, dom).max()),
            grad_term=du_pa**d.grad_exponent,
            eps_term=eps * du_qb,
            eps_dg_term=eps * dg_qb,
            **datum,
        ))
    return reports


# ---------------------------------------------------------------------------
# variational inequality


@dataclass(frozen=True)
class ComparisonMap:
    """Admissible competitor: matches the datum on the lateral boundary."""

    name: str
    field: SpaceTimeField


def comparison_maps(cfg: SolveConfig) -> list:
    """Preset competitor family around the datum (lateral values match g),
    with perturbations of amplitude 0.3 (1 + max|g|).

    A field constant in time may be stored as one read-only level broadcast
    over time.  When the datum is constant in time, a map whose extra term
    has no time factor (datum, bump, bump-negative) is stored so: its one
    level g + extra, with time stride 0.  Every other map holds all its
    levels.  Each map is formed in the one array its field keeps, handed
    over read-only, so no field copies it."""
    dom = cfg.domain
    T = dom.T
    t = dom.times.reshape((-1,) + (1,) * dom.n)
    # the times of the datum and of a term without a time factor: one level
    # stands for all when the datum is constant in time
    times = t[:1] if not cfg.g.time_dependent else t
    ones = np.ones_like(times)
    g = cfg.g.at(dom.box, dom.meshgrid(), times)
    bump = BoundaryDatum(kind="profile", profile="bump")._g0(dom.box, dom.meshgrid())
    sin2 = BoundaryDatum(kind="profile", mode=2)._g0(dom.box, dom.meshgrid())
    amplitude = 0.3 * (1.0 + float(np.abs(g).max()))

    def mk(name, profile, factor):
        # g + profile * factor on the levels of factor, formed in the one
        # array that the field keeps
        values = np.empty((len(factor),) + profile.shape)
        values[...] = factor
        values *= profile
        values += g
        return ComparisonMap(name, SpaceTimeField(dom, np.broadcast_to(values, dom.shape)))

    return [
        mk("datum", np.zeros_like(bump), ones),
        mk("bump", amplitude * bump, ones),
        mk("bump-ramp", amplitude * bump, t / T),
        mk("bump-decay", amplitude * bump, (1.0 - t / T) ** 2),
        mk("mode2-ramp", amplitude * sin2, t / T),
        mk("bump-negative", -amplitude * bump, ones),
    ]


def variational_gap_curve(u: SpaceTimeField, v: ComparisonMap, cfg: SolveConfig,
                          eps: float = 0.0):
    """Gap and term scale of the variational inequality at every grid time:
    the one-map case of variational_gap_curves.

    Returns (gaps, scales), both arrays over time levels 1..nt.  The gap at
    tau is RHS - LHS with the unregularized integrand (pass eps to use a
    regularized one):

        integral f(.,Dv) + integral d_t v (v - u) - 1/2 |(v-u)(tau)|_2^2
        + 1/2 |(v-g)(0)|_2^2 - integral f(.,Du).

    The duality factor d_t v is integrated exactly in time (its antiderivative
    is v itself), paired with (v - u) at the right endpoint.
    """
    return variational_gap_curves(u, [v], cfg, eps)[0]


def variational_gap_curves(u: SpaceTimeField, maps, cfg: SolveConfig, eps: float = 0.0) -> list:
    """variational_gap_curve of u against every comparison map, as a list of
    (gaps, scales).  The datum is sampled and f(Du) integrated once."""
    dom = cfg.domain
    _same_grid(dom, u=u)
    for v in maps:
        _same_grid(dom, v=v.field)
    # the datum only on the lateral frame and at t = 0, which is all the gap
    # reads of it; g_max is max|g0| max|psi|, which by monotone rounding is
    # the largest |g| over the grid
    lateral, psi = boundary_frame(dom), cfg.g._psi(dom.times)
    g0 = cfg.g._g0(dom.box, dom.meshgrid())
    g_lateral, g_init = g0[lateral] * psi[:, None], g0 * psi[0]
    g_max = float(np.abs(g0).max() * np.abs(psi).max())
    scheme = _Scheme(dom, cfg.spec)
    cum_fu = np.cumsum(scheme.cell_energy(u.values, eps)[1:]) * dom.dt
    cell, spatial = dom.cell_volume, tuple(range(1, dom.n + 1))
    curves = []
    for v in maps:
        vals = v.field.values
        mismatch = float(np.abs(vals[:, lateral] - g_lateral).max())
        if mismatch > 1e-12 * max(float(vals.max()), -float(vals.min()), g_max, 1e-300):
            raise PreconditionError(
                f"comparison map does not match the datum on the lateral boundary "
                f"(mismatch {mismatch:g})")
        cum_fv = np.cumsum(scheme.cell_energy(vals, eps)[1:]) * dom.dt
        # per level j: sum (v_j - v_{j-1})(v_j - u_j) from j = 1 and
        # sum (v_j - u_j)^2, a block of levels at a time
        dual_steps, slice_sq = np.zeros(len(vals)), np.empty(len(vals))
        for block in _level_blocks(vals):
            diff = vals[block] - u.values[block]
            lo, hi = max(block.start, 1), block.stop
            steps = (vals[lo:hi] - vals[lo - 1:hi - 1]) * diff[lo - block.start:]
            dual_steps[lo:hi] = np.sum(steps, axis=spatial)
            slice_sq[block] = np.sum(diff**2, axis=spatial)
        dual_steps = dual_steps[1:] * cell
        slice_sq = 0.5 * slice_sq * cell
        init_sq = 0.5 * float(np.sum((vals[0] - g_init) ** 2)) * cell

        cum_dual = np.cumsum(dual_steps)
        gaps = cum_fv + cum_dual - slice_sq[1:] + init_sq - cum_fu
        scales = cum_fv + cum_fu + np.abs(cum_dual) + slice_sq[1:] + init_sq
        curves.append((gaps, scales))
    return curves
