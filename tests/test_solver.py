"""Implicit stepping, weak residuals, energy data, variational gaps."""

import dataclasses
import functools
import itertools
import json
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_gap_params

from pqlab import (
    BoundaryDatum,
    Coefficient,
    CoefficientSpec,
    ComparisonMap,
    DivergenceError,
    Domain,
    IntegrandSpec,
    ParameterError,
    PreconditionError,
    SolveConfig,
    SpaceTimeField,
    StepFailure,
    StepHistory,
    StructureParams,
    comparison_maps,
    constant_field,
    energy_report,
    energy_reports,
    field_from_function,
    flux,
    lp_norm,
    solve,
    solve_levels,
    variational_gap_curve,
    variational_gap_curves,
    weak_residual,
)
from pqlab import band, solver
from pqlab.band import band_storage, stencil_product
from pqlab.grid import _trapezoid_weights
from pqlab.model import flux_coefficient
from pqlab.scheme import _grad_norm, _Iterate, _Scheme
from pqlab.solver import _member_history, _Stepper


def heat_config(nx=65, nt=400, T=0.1, n=1, g=None):
    params = StructureParams(n=n, p=2.0, q=2.0, mu=0.0, eps=0.0)
    coeffs = CoefficientSpec(
        a=Coefficient("constant", value=0.5), b=Coefficient("constant", value=0.5)
    )
    spec = IntegrandSpec(params, coeffs, eps=0.0)
    dom = Domain(n=n, box=((0.0, 1.0),) * n, T=T, nx=nx, nt=nt)
    datum = g if g is not None else BoundaryDatum(kind="profile", profile="sin")
    return SolveConfig(dom, spec, datum)


def nonlinear_config(nx=65, nt=128, T=1.0, eps=0.25, amplitude=0.8, mu=0.0):
    params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0, mu=mu, eps=eps)
    coeffs = CoefficientSpec(
        a=Coefficient("constant", value=1.0), b=Coefficient("constant", value=1.0)
    )
    spec = IntegrandSpec(params, coeffs, eps=eps)
    dom = Domain(n=1, box=((0.0, 1.0),), T=T, nx=nx, nt=nt)
    return SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin", amplitude=amplitude))


class TestStep:
    """One implicit step of a lone member."""

    def test_zero_fixed_point_one_iteration(self):
        cfg = heat_config(g=BoundaryDatum(kind="zero"))
        (u,), log, failure = _Stepper(cfg, [cfg.spec.eps]).step(np.zeros((1, 65)), cfg.domain.dt)
        assert failure is None
        assert np.all(u == 0.0) and len(_member_history(log, 0).residuals) == 1

    def test_constant_preserved(self):
        cfg = heat_config(g=BoundaryDatum(kind="constant", value=3.0))
        (u,), log, failure = _Stepper(cfg, [cfg.spec.eps]).step(
            np.full((1, 65), 3.0), cfg.domain.dt)
        assert failure is None
        assert np.abs(u - 3.0).max() < 1e-14 and len(_member_history(log, 0).residuals) == 1

    def test_one_step_matches_decaying_mode(self):
        for nx, nt in ((65, 400), (129, 800)):
            cfg = heat_config(nx=nx, nt=nt, g=BoundaryDatum(kind="zero"))
            dom = cfg.domain
            x = dom.axes[0]
            (u1,), _, failure = _Stepper(cfg, [cfg.spec.eps]).step(np.sin(np.pi * x)[None], dom.dt)
            assert failure is None
            exact = math.exp(-math.pi**2 * dom.dt) * np.sin(np.pi * x)
            err = np.abs(u1 - exact).max()
            assert err <= 60.0 * (dom.dt**2 + dom.dt * dom.dx[0] ** 2)

    def test_step_failure_carries_diagnostics(self):
        cfg = nonlinear_config()
        cfg = SolveConfig(cfg.domain, cfg.spec, cfg.g, tolerance=1e-14, max_iter=2)
        u, log, failure = _Stepper(cfg, [cfg.spec.eps]).step(
            0.8 * np.sin(np.pi * cfg.domain.axes[0])[None], cfg.domain.dt)
        assert len(u) == 0 and failure.history == _member_history(log, 0)
        assert isinstance(failure, StepFailure)
        assert failure.t == cfg.domain.dt
        assert failure.residual is not None
        hist = failure.history
        assert 1 <= len(hist.residuals) <= 2
        assert len(hist.step_lengths) == len(hist.residuals)
        assert hist.residuals[-1] == failure.residual


def degenerate_config(amplitude=0.8, p=2.0, q=2.1, alpha=20.0, beta=20.0):
    """The 1D degenerate preset (65x256): a = |x - 0.505|^0.04, b = 1, sine datum."""
    params = StructureParams(n=1, p=p, q=q, alpha=alpha, beta=beta, mu=0.0, eps=0.5)
    coeffs = CoefficientSpec(
        a=Coefficient("power", center=(0.505,), exponent=0.04),
        b=Coefficient("constant", value=1.0),
    )
    spec = IntegrandSpec(params, coeffs, eps=0.5)
    dom = Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=65, nt=256)
    return SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin", amplitude=amplitude))


class TestNewton:
    @pytest.mark.parametrize("n", [1, 2])
    def test_jacobian_matches_finite_differences(self, n, rng):
        # p = 3, q = 3.2, eps > 0 and a power-law a: every face weight is
        # nonlinear, so a wrong stencil entry shows up here directly
        params = StructureParams(n=n, p=3.0, q=3.2, alpha=1e4, beta=1e4, mu=0.0, eps=0.3)
        coeffs = CoefficientSpec(
            a=Coefficient("power", center=(0.43,) * n, exponent=0.5),
            b=Coefficient("constant", value=0.7),
        )
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=0.1, nx=17 if n == 1 else 9, nt=8)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.3),
                          BoundaryDatum(kind="profile", profile="sin"))
        stepper = _Stepper(cfg, [0.3])
        scheme, eps = stepper.scheme, stepper.eps
        shape = (1,) + (dom.nx,) * n
        u_prev = rng.normal(size=shape)
        w = u_prev + rng.normal(size=shape)
        v = np.zeros(shape)
        v[scheme.interior] = rng.normal(size=(1,) + (dom.nx - 2,) * n)
        it = scheme.evaluate(w, u_prev, eps)
        jac = _dense_operator(scheme.stencil(it), 0)
        jv = jac @ v[scheme.interior].ravel()
        h = 1e-6
        fd = (scheme.evaluate(w + h * v, u_prev, eps).residual
              - scheme.evaluate(w - h * v, u_prev, eps).residual) / (2 * h)
        assert np.abs(jv - fd.ravel()).max() <= 1e-6 * np.abs(jv).max()
        # the Newton direction solves J d = -R: directly by dptsv in 1D, and
        # in 2D by defect correction down to newton_direction's target
        d, bad = stepper.newton_direction(it, dom.dt, [0])
        assert bad is None
        defect = jac @ d.ravel() + it.residual.ravel()
        if n == 1:
            assert np.abs(defect).max() <= 1e-10
        else:
            assert np.linalg.norm(defect) <= _correction_target(cfg, it, 0)

    @pytest.mark.parametrize("p,q", [(3.0, 3.2), (4.0, 4.3)])
    def test_strongly_degenerate_phases_converge(self, p, q):
        cfg = degenerate_config(amplitude=5.0, p=p, q=q, alpha=1e4, beta=1e4)
        _, stats = solve(cfg)
        assert len(stats.iterations) == cfg.domain.nt
        assert max(stats.iterations) <= 10

    def test_stopping_rule_scales_with_the_data(self):
        # the residual floors near 1e-9 at this amplitude, above the
        # absolute tolerance 1e-10; the scaled rule stops there
        amplitude = 1e5
        cfg = degenerate_config(amplitude=amplitude)
        u, stats = solve(cfg)
        assert u.values.min() >= -1e-10 * amplitude
        assert u.values.max() <= amplitude * (1 + 1e-10)
        # the recorded residuals are raw max|R|, not divided by the scale
        dom, spec = cfg.domain, cfg.spec
        mid = 0.5 * (dom.axes[0][:-1] + dom.axes[0][1:])
        grads = np.diff(u.values[1:], axis=1) / dom.dx[0]
        fl = flux(grads[None], spec.coeffs.a.at(mid), spec.coeffs.b.at(mid), spec)[0]
        res = u.values[1:, 1:-1] - u.values[:-1, 1:-1] - dom.dt * np.diff(fl, axis=1) / dom.dx[0]
        recomputed = np.abs(res).max(axis=1)
        assert max(stats.residuals) > cfg.tolerance
        assert np.allclose(recomputed, stats.residuals, rtol=1e-2, atol=1e-12 * amplitude)


def _scale_probe(n, p, q, amplitude, tolerance=1e-10):
    """a = |x - 0.5037| (no node on the degeneracy), b = 1, mu = eps = 0 and
    a sine datum of the given amplitude; 65x16 in 1D, 17^2x8 in 2D."""
    params = StructureParams(n=n, p=p, q=q, mu=0.0, eps=0.0)
    coeffs = CoefficientSpec(a=Coefficient("power", center=(0.5037,) * n, exponent=1.0),
                             b=Coefficient("constant", value=1.0))
    dom = Domain(n=n, box=((0.0, 1.0),) * n, T=0.3, nx=65 if n == 1 else 17,
                 nt=16 if n == 1 else 8)
    return SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.0),
                       BoundaryDatum(kind="profile", profile="sin", amplitude=amplitude),
                       tolerance=tolerance)


class TestScaleOfTheData:
    """Newton's globalization and stopping rule across the scale of the
    data.  Both ends fail today; ROADMAP item 10 is the mend."""

    @pytest.mark.xfail(strict=True, raises=StepFailure,
                       reason="the Armijo test on max|R| only halves, and Newton stalls at "
                              "large data (ROADMAP item 10)")
    @pytest.mark.parametrize("n", [1, 2])
    def test_large_data_converge(self, n):
        # no convergence within 60 iterations at the first step
        solve(_scale_probe(n, 4.4, 4.5, 1e12))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the 1 in max(1, |w|_inf, dt |div F|_inf) makes the tolerance "
                              "absolute below |w|_inf = 1 (ROADMAP item 10)")
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_data_stop_at_relative_tolerance(self, n):
        # 1.4e-4 relative in 1D and 6.7e-4 in 2D
        amplitude = 1e-8
        u, _ = solve(_scale_probe(n, 2.0, 2.1, amplitude))
        ref, _ = solve(_scale_probe(n, 2.0, 2.1, amplitude, tolerance=1e-13 * amplitude))
        assert np.abs(u.values - ref.values).max() <= 1e-8 * np.abs(ref.values).max()


def _reference_tridiagonal(scheme, it):
    """Per-dimension 1D Newton matrix: diagonal and off-diagonal of
    I + c D^T diag(H) D per member."""
    (g,), ((big_g, dg),) = it.grads, it.coeffs
    h = big_g + dg * g**2
    c = scheme.dt / scheme.dx[0] ** 2
    return 1.0 + c * (h[:, 1:] + h[:, :-1]), -c * h[:, 1:-1]


def _reference_nine_point(scheme, it, row):
    """Per-dimension 2D Newton matrix of one member, row-major."""
    dt, (dx, dy) = scheme.dt, scheme.dx
    cx, cy = dt / dx**2, dt / dy**2
    kappa = dt / (4.0 * dx * dy)
    (hx, cross_x), (hy, cross_y) = (
        (big_g[row] + dg[row] * g[row] ** 2, kappa * dg[row] * g[row] * t[row])
        for g, (t,), (big_g, dg) in zip(it.grads, it.trans, it.coeffs)
    )
    # the face quantities cover the faces beside the interior nodes only
    he, hw = hx[1:], hx[:-1]
    hn, hs = hy[:, 1:], hy[:, :-1]
    ce, cw = cross_x[1:], cross_x[:-1]
    cn, cs = cross_y[:, 1:], cross_y[:, :-1]
    stencil = {
        (0, 0): 1.0 + cx * (he + hw) + cy * (hn + hs),
        (1, 0): -cx * he - cn + cs,
        (-1, 0): -cx * hw + cn - cs,
        (0, 1): -cy * hn - ce + cw,
        (0, -1): -cy * hs + ce - cw,
        (1, 1): -(ce + cn),
        (1, -1): ce + cs,
        (-1, 1): cw + cn,
        (-1, -1): -(cw + cs),
    }
    m = he.shape[0]
    diagonals, offsets = [], []
    for (di, dj), coef in stencil.items():
        coef = np.array(coef, dtype=float)
        if dj == 1:
            coef[:, -1] = 0.0
        elif dj == -1:
            coef[:, 0] = 0.0
        k = di * m + dj
        flat = coef.ravel()
        diagonals.append(flat[: m * m - k] if k >= 0 else flat[-k:])
        offsets.append(k)
    return scipy.sparse.diags(diagonals, offsets, format="csc")


def _full_row_evaluation(scheme, w, u_prev, eps):
    """A 2D step's residual, max|R| and scale formed on every face row, as
    _Scheme.evaluate once did: np.gradient's transverse terms averaged onto
    all the faces, a zero-padded divergence, then its interior.  Also the
    face quantities (normal differences, transverse gradients, (G, 2G'))."""
    spec, dt = scheme.spec, scheme.dt
    (hx, hy), (x, y) = scheme.dx, scheme.dom.axes
    faces = (np.meshgrid(0.5 * (x[:-1] + x[1:]), y, indexing="ij"),
             np.meshgrid(x, 0.5 * (y[:-1] + y[1:]), indexing="ij"))
    grads = [(w[:, 1:, :] - w[:, :-1, :]) / hx, (w[:, :, 1:] - w[:, :, :-1]) / hy]
    dx_w = np.gradient(w, hx, axis=-2, edge_order=2)
    dy_w = np.gradient(w, hy, axis=-1, edge_order=2)
    trans = [0.5 * (dy_w[:, :-1, :] + dy_w[:, 1:, :]), 0.5 * (dx_w[:, :, :-1] + dx_w[:, :, 1:])]
    coeffs = []
    for g, t, c in zip(grads, trans, faces):
        s = g**2
        s += t**2
        coeffs.append(flux_coefficient(s, spec.coeffs.a.at(*c), spec.coeffs.b.at(*c), spec,
                                       eps=eps, derivative=True))
    fx, fy = (big_g * g for (big_g, _), g in zip(coeffs, grads))
    div = np.zeros(w.shape)
    div[:, 1:-1, 1:-1] += (fx[:, 1:, 1:-1] - fx[:, :-1, 1:-1]) / hx
    div[:, 1:-1, 1:-1] += (fy[:, 1:-1, 1:] - fy[:, 1:-1, :-1]) / hy
    residual = (w - u_prev - dt * div)[:, 1:-1, 1:-1]
    scale = np.maximum(np.maximum(1.0, np.abs(w).max(axis=(1, 2))),
                       dt * np.abs(div).max(axis=(1, 2)))
    return (residual, np.abs(residual).max(axis=(1, 2)), scale), (grads, trans, coeffs)


@pytest.mark.parametrize("nx", [9, 17])
def test_evaluate_matches_the_full_row_evaluation(nx, rng):
    # the residual reads only the k-faces beside the interior nodes, and
    # there the centred transverse difference is np.gradient's: forming the
    # face quantities on those rows alone changes no bit
    params = StructureParams(n=2, p=3.0, q=3.2, alpha=1e4, beta=1e4, mu=0.0, eps=0.3)
    coeffs = CoefficientSpec(a=Coefficient("power", center=(0.43, 0.43), exponent=0.5),
                             b=Coefficient("constant", value=0.7))
    dom = Domain(n=2, box=((0.0, 1.0), (0.0, 0.7)), T=0.1, nx=nx, nt=8)
    cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.3),
                      BoundaryDatum(kind="profile", profile="sin"))
    stepper = _Stepper(cfg, [0.3, 0.1])
    u_prev = rng.normal(size=(2, nx, nx))
    w = u_prev + rng.normal(size=(2, nx, nx))
    it = stepper.scheme.evaluate(w, u_prev, stepper.eps)
    steps, (grads, trans, coeffs) = _full_row_evaluation(stepper.scheme, w, u_prev, stepper.eps)
    for got, ref in zip((it.residual, it.norm, it.scale), steps):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    # the face quantities: on the x-faces the rows inside along y, and so on
    rows = ((Ellipsis, slice(1, -1)), (Ellipsis, slice(1, -1), slice(None)))
    for k, row in enumerate(rows):
        assert it.grads[k].shape == (2,) + tuple(nx - 1 if j == k else nx - 2 for j in range(2))
        pairs = [(it.grads[k], grads[k]), (it.trans[k][0], trans[k]),
                 *zip(it.coeffs[k], coeffs[k])]
        for got, ref in pairs:
            assert got.shape == ref[row].shape and got.tobytes() == ref[row].tobytes()


@pytest.mark.parametrize("box", [((0.0, 1.0),), ((0.0, 1.0),) * 2, ((0.0, 1.0), (0.0, 0.7))])
def test_stencil_matches_per_dimension_matrices(box, rng):
    # the finite-difference problem of TestNewton with two members; the
    # axis-generic stencil must give exactly the per-dimension matrices
    n = len(box)
    params = StructureParams(n=n, p=3.0, q=3.2, alpha=1e4, beta=1e4, mu=0.0, eps=0.3)
    coeffs = CoefficientSpec(
        a=Coefficient("power", center=(0.43,) * n, exponent=0.5),
        b=Coefficient("constant", value=0.7),
    )
    dom = Domain(n=n, box=box, T=0.1, nx=17 if n == 1 else 9, nt=8)
    cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.3),
                      BoundaryDatum(kind="profile", profile="sin"))
    stepper = _Stepper(cfg, [0.3, 0.1])
    shape = (2,) + (dom.nx,) * n
    u_prev = rng.normal(size=shape)
    it = stepper.scheme.evaluate(u_prev + rng.normal(size=shape), u_prev, stepper.eps)
    stencil = stepper.scheme.stencil(it)
    if n == 1:
        diag, off = _reference_tridiagonal(stepper.scheme, it)
        assert np.array_equal(stencil[(0,)], diag)
        assert np.array_equal(stencil[(1,)][:, :-1], off)
        assert np.array_equal(stencil[(-1,)][:, 1:], off)
        refs = [scipy.sparse.diags([off[row], diag[row], off[row]], [-1, 0, 1]).toarray()
                for row in (0, 1)]
    else:
        refs = [_reference_nine_point(stepper.scheme, it, row).toarray() for row in (0, 1)]
    # band storage holds each row divided by its diagonal entry, with
    # kl = 1 sub- and superdiagonals in 1D and nx - 1 in 2D
    kl = 1 if n == 1 else dom.nx - 1
    for row, ref in enumerate(refs):
        for dtype in (np.float32, np.float64):
            ab = band_storage(stencil, row, dtype)
            assert len(ab) == 3 * kl + 1
            assert np.array_equal(_unpack_band(ab, kl), _row_scaled(ref, dtype))


def _dense_operator(stencil, row):
    """Member row's Newton matrix assembled node by node from a stencil:
    every offset's entry at every node whose neighbour there is interior,
    nodes numbered row-major."""
    shape = stencil[(0,) * len(next(iter(stencil)))].shape[1:]
    dense = np.zeros((math.prod(shape),) * 2)
    for node in np.ndindex(*shape):
        for off, entries in stencil.items():
            nb = tuple(c + o for c, o in zip(node, off))
            if all(0 <= c < m for c, m in zip(nb, shape)):
                dense[np.ravel_multi_index(node, shape),
                      np.ravel_multi_index(nb, shape)] = entries[row][node]
    return dense


def _row_scaled(dense, dtype=np.float32):
    """A matrix with each row divided by its diagonal entry, cast to dtype:
    what band_storage writes."""
    return (dense / np.diag(dense)[:, None]).astype(dtype)


def _unpack_band(ab, kl):
    """Dense matrix of LAPACK general band storage with kl sub- and
    superdiagonals below kl rows of fill."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for i in range(size):
        for j in range(max(0, i - kl), min(size, i + kl + 1)):
            dense[i, j] = ab[2 * kl + i - j, j]
    return dense


class TestBandLU:
    """The 2D Newton matrix in band storage, its product by stencil and its
    band LU: float32 by default, refined in float64 by defect correction."""

    @staticmethod
    def stencil(nx, rng, members=2, smooth=False):
        # the finite-difference problem of TestNewton: every face weight and
        # cross term is nonzero.  At random states the cross terms are large
        # enough that the rows divided by their diagonal need interchanges;
        # smooth takes the Newton matrix at the datum and 1.3 times it, which
        # like every Newton matrix of the solver's problems needs none
        params = StructureParams(n=2, p=3.0, q=3.2, alpha=1e4, beta=1e4, mu=0.0, eps=0.3)
        coeffs = CoefficientSpec(
            a=Coefficient("power", center=(0.43, 0.43), exponent=0.5),
            b=Coefficient("constant", value=0.7),
        )
        dom = Domain(n=2, box=((0.0, 1.0),) * 2, T=0.1, nx=nx, nt=8)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.3),
                          BoundaryDatum(kind="profile", profile="sin"))
        stepper = _Stepper(cfg, [0.3, 0.1][:members])
        shape = (members, nx, nx)
        u_prev = rng.normal(size=shape)
        w = u_prev + rng.normal(size=shape)
        if smooth:
            u_prev = np.broadcast_to(cfg.g.sample(dom).values[0], shape)
            w = 1.3 * u_prev
        it = stepper.scheme.evaluate(w, u_prev, stepper.eps)
        return stepper, stepper.scheme.stencil(it)

    @pytest.mark.parametrize("nx", [9, 17])
    def test_band_is_the_node_by_node_operator(self, nx, rng):
        stepper, stencil = self.stencil(nx, rng)
        m, kl = nx - 2, nx - 1
        for row in (0, 1):
            dense = _dense_operator(stencil, row)
            ab = band_storage(stencil, row)
            assert ab.shape == (3 * kl + 1, m * m) and ab.flags.f_contiguous
            assert ab.dtype == np.float32
            assert not ab[:kl].any()  # the rows kept for the fill
            assert np.array_equal(_unpack_band(ab, kl), _row_scaled(dense))
            assert np.all(ab[2 * kl] == 1.0)
            # an offset that leaves the grid across the last or first column
            # would couple across a wrap of the numbering: the stencil holds
            # an entry there, the band holds 0
            last, first = np.arange(m - 1, m * m, m), np.arange(0, m * m, m)
            for off, nodes in [((0, 1), last), ((0, -1), first), ((1, 1), last),
                               ((-1, -1), first), ((-1, 1), last), ((1, -1), first)]:
                cols = nodes + off[0] * m + off[1]
                inside = (0 <= cols) & (cols < m * m)
                nodes, cols = nodes[inside], cols[inside]
                assert np.all(stencil[off][row].ravel()[nodes] != 0.0)
                assert np.all(ab[2 * kl + nodes - cols, cols] == 0.0)

    @pytest.mark.parametrize("nx", [9, 17])
    def test_stencil_product_is_the_dense_product(self, nx, rng):
        stepper, stencil = self.stencil(nx, rng)
        x = rng.normal(size=(nx - 2) ** 2)
        for row in (0, 1):
            ref = _dense_operator(stencil, row) @ x
            got = stencil_product(stencil, row, x)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("pivoting", [False, True])
    def test_factor_solves(self, pivoting, rng):
        # the Newton matrix needs no row interchanges and is solved by the
        # two triangles; one with a small diagonal needs them, and is solved
        # by gbtrs.  A float64 factor solves to float64 rounding, a float32
        # one to float32 rounding, and defect correction takes that to a
        # floor of relative defect 1e-12
        _, stencil = self.stencil(9, rng, members=1, smooth=True)
        if pivoting:
            stencil = {**stencil, (0, 0): 1e-3 * stencil[(0, 0)]}
        dense = _dense_operator(stencil, 0)
        b = rng.normal(size=len(dense))
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-4)):
            lu = band.BandLU(stencil, 0, dtype)
            assert (lu.lu is not None) == pivoting
            x = lu.solve(b)
            assert x.dtype == np.float64
            assert np.abs(dense @ x - b).max() <= rtol * np.abs(b).max()
        floor = 1e-12 * np.linalg.norm(b)
        first = lu.solves
        x = band.defect_correction(dense.__matmul__, b, lu, floor)
        assert 1 < lu.solves - first <= 4
        assert np.linalg.norm(dense @ x - b) <= floor

    @pytest.mark.parametrize("b_scale,j_scale", [
        (1e300, 1.0), (1e300, 1e30), (1e-300, 1.0), (1e-300, 1e-30), (1.0, 1e30), (1.0, 1e-30),
    ])
    def test_no_scale_of_the_data_overflows(self, b_scale, j_scale, rng):
        # rows divided by the diagonal and b by its largest entry: what is
        # cast to float32 lies in [-1, 1] at any scale whose solution float64
        # can hold, and defect correction reaches the float64 answer; the
        # floor's norm is dnrm2's, which |b| = 1e+-300 neither overflows nor
        # underflows as np.linalg.norm's sum of squares would
        _, stencil = self.stencil(9, rng, members=1)
        stencil = {off: j_scale * entries for off, entries in stencil.items()}
        dense = _dense_operator(stencil, 0)
        b = b_scale * rng.normal(size=len(dense))
        ref = np.linalg.solve(dense, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lu = band.BandLU(stencil, 0)
            assert np.all(np.isfinite(lu.solve(b)))
            x = band.defect_correction(
                functools.partial(stencil_product, stencil, 0), b, lu,
                1e-12 * scipy.linalg.blas.dnrm2(b))
        assert x is not None and lu.solves - 1 <= 4  # less the finiteness check's solve
        assert np.abs(x - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_singular_matrix_is_a_divergence(self):
        # two equal rows: [[1, 1], [1, 1]]
        stencil = {(0,): np.ones((1, 2)), (1,): np.ones((1, 2)), (-1,): np.ones((1, 2))}
        for dtype in (np.float32, np.float64):
            with pytest.raises(DivergenceError, match="singular"):
                band.BandLU(stencil, 0, dtype)


def _at_eps(cfg, eps):
    return dataclasses.replace(cfg, spec=dataclasses.replace(cfg.spec, eps=eps))


class TestSolveLevels:
    @pytest.mark.parametrize("n, schedule", [
        pytest.param(n, schedule, id=f"{n}{label}") for label, schedule in
        (("", [0.5, 0.25, 0.0]), ("-eps-rising", [0.0, 0.25, 0.5])) for n in (1, 2)])
    def test_matches_lone_solves(self, n, schedule):
        # the first steps of the p = 4 degenerate preset at amplitude 5: the
        # levels need different iteration counts (members freeze at
        # different iterations; eps = 0 first, so in the second schedule
        # the members still iterating are not the first ones) and in 1D they
        # backtrack to different step lengths
        params = StructureParams(n=n, p=4.0, q=4.3, alpha=1e4, beta=1e4, mu=0.0, eps=0.5)
        coeffs = CoefficientSpec(
            a=Coefficient("power", center=(0.505,) * n, exponent=0.04),
            b=Coefficient("constant", value=1.0),
        )
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=0.3 / 64, nx=65 if n == 1 else 17, nt=4)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.5),
                          BoundaryDatum(kind="profile", profile="sin", amplitude=5.0))
        results, failure = solve_levels(cfg, schedule)
        assert failure is None and len(results) == len(schedule)
        counts, lengths = set(), set()
        for eps, (u, stats) in zip(schedule, results):
            lone_u, lone_stats = solve(_at_eps(cfg, eps))
            assert np.array_equal(u.values, lone_u.values)
            assert stats.iterations == lone_stats.iterations
            assert stats.residuals == lone_stats.residuals
            assert stats.histories == lone_stats.histories
            counts.add(tuple(stats.iterations))
            lengths.add(stats.histories[0].step_lengths[0])
        assert len(counts) > 1
        if n == 1:
            assert lengths == {0.5, 0.25}

    def test_later_member_fails_alone(self):
        # at max_iter = 2 the eps = 0.5 level fails on its one step that
        # needs 3 iterations; the eps = 1/64 level needs 2 on every step
        cfg = dataclasses.replace(degenerate_config(), max_iter=2)
        results, failure = solve_levels(cfg, [0.015625, 0.5])
        (u, stats), = results
        lone_u, lone_stats = solve(_at_eps(cfg, 0.015625))
        assert np.array_equal(u.values, lone_u.values)
        assert stats.iterations == lone_stats.iterations
        with pytest.raises(StepFailure) as lone:
            solve(_at_eps(cfg, 0.5))
        assert isinstance(failure, StepFailure)
        assert str(failure) == str(lone.value)
        assert failure.t == lone.value.t
        assert failure.residual == lone.value.residual
        assert failure.history == lone.value.history

    def test_first_member_failure_drops_the_rest(self):
        cfg = dataclasses.replace(degenerate_config(), max_iter=2)
        results, failure = solve_levels(cfg, [0.5, 0.015625])
        assert results == []
        with pytest.raises(StepFailure) as lone:
            solve(_at_eps(cfg, 0.5))
        assert (failure.t, failure.residual, failure.history) == (
            lone.value.t, lone.value.residual, lone.value.history)

    def test_direction_failure_names_its_member(self):
        # uncoupled blocks in one dptsv call: a failing block must not
        # change the directions of the members before it
        cfg = nonlinear_config(nx=17, nt=4)
        stepper = _Stepper(cfg, [0.25, 0.125, 0.0])
        rows = np.arange(3)
        u_prev = np.tile(0.8 * np.sin(np.pi * cfg.domain.axes[0]), (3, 1))
        it = stepper.scheme.evaluate(u_prev, 0.9 * u_prev, stepper.eps[rows])
        alone, bad = stepper.newton_direction(it, 0.1, rows)
        assert bad is None
        (big_g, dg), = it.coeffs
        big_g = big_g.copy()
        big_g[1] = -1e6
        d, bad = stepper.newton_direction(it._replace(coeffs=[(big_g, dg)]), 0.1, rows)
        assert bad[0] == 1 and "not positive definite" in str(bad[1])
        assert np.array_equal(d[0], alone[0])
        residual = it.residual.copy()
        residual[2, 3] = np.nan
        d, bad = stepper.newton_direction(it._replace(residual=residual), 0.1, rows)
        assert bad[0] == 2 and "non-finite values at t = 0.1" in str(bad[1])
        assert np.array_equal(d[:2], alone[:2])

    @pytest.mark.parametrize("broken", [0.5, 0.25])
    def test_direction_failure_inside_a_step_drops_its_member(self, broken, monkeypatch):
        # the member at eps = broken gets a Newton matrix that is not
        # positive definite, in the batch and when it is solved alone
        cfg = nonlinear_config(nx=17, nt=4)
        schedule = [0.5, 0.25, 0.125]
        direction = _Stepper.newton_direction

        def indefinite(self, it, t, members):
            (big_g, dg), = it.coeffs
            hit = self.eps[members] == broken
            return direction(self, it._replace(coeffs=[(np.where(hit, -1e6, big_g), dg)]),
                             t, members)

        monkeypatch.setattr(_Stepper, "newton_direction", indefinite)
        results, failure = solve_levels(cfg, schedule)
        with pytest.raises(DivergenceError) as lone:
            solve(_at_eps(cfg, broken))
        assert type(failure) is DivergenceError
        assert str(failure) == str(lone.value)
        assert "not positive definite" in str(failure)
        assert len(results) == schedule.index(broken)
        for eps, (u, stats) in zip(schedule, results):
            lone_u, lone_stats = solve(_at_eps(cfg, eps))
            assert np.array_equal(u.values, lone_u.values)
            assert stats == lone_stats  # iterations and final residuals per step
            assert stats.histories == lone_stats.histories

    @pytest.mark.parametrize("n", [1, 2])
    def test_line_search_failure_drops_its_member(self, n, monkeypatch):
        # member 1 (eps = 0.25) reads max|R| = 1 at every trial and never
        # meets the tolerance, so its line search halves down to the minimum
        # length
        cfg = degenerate_config() if n == 1 else _probe_config_2d(2.0, 2.1, 0.8, alpha=20.0)
        cfg = dataclasses.replace(cfg, domain=Domain(
            n=n, box=((0.0, 1.0),) * n, T=0.3, nx=17 if n == 1 else 9, nt=4))
        evaluate = _Scheme.evaluate

        def stuck(self, w, u_prev, eps):
            it = evaluate(self, w, u_prev, eps)
            hit = eps.reshape(len(eps)) == 0.25
            return it._replace(norm=np.where(hit, 1.0, it.norm),
                               scale=np.where(hit, 1e-300, it.scale))

        monkeypatch.setattr(_Scheme, "evaluate", stuck)
        results, failure = solve_levels(cfg, [0.5, 0.25, 0.125])
        monkeypatch.undo()
        assert isinstance(failure, StepFailure)
        assert str(failure).startswith("line search found no decrease")
        assert failure.t == cfg.domain.dt
        assert failure.residual == 1.0
        assert failure.history == StepHistory((), ())
        (u, stats), = results
        lone_u, lone_stats = solve(_at_eps(cfg, 0.5))
        assert np.array_equal(u.values, lone_u.values)
        assert stats.iterations == lone_stats.iterations

    def test_eps_validated(self):
        with pytest.raises(ParameterError, match="eps"):
            solve_levels(nonlinear_config(nx=9, nt=2), [0.5, 1.5])


class TestLineSearch:
    """solver._line_search alone, on the first Newton iteration of a 17-node
    1D step with three members."""

    @staticmethod
    def first_iteration():
        """(scheme, it, d, base, eps, tolerance) of the step's first iteration."""
        cfg = nonlinear_config(nx=17, nt=4)
        stepper = _Stepper(cfg, [0.5, 0.25, 0.0])
        rows = np.arange(3)
        base = np.tile(0.8 * np.sin(np.pi * cfg.domain.axes[0]), (3, 1))
        it = stepper.scheme.evaluate(base, base, stepper.eps)
        d, bad = stepper.newton_direction(it, cfg.domain.dt, rows)
        assert bad is None
        return stepper.scheme, it, d, base, stepper.eps, cfg.tolerance

    def test_newton_direction_accepted_at_length_one(self):
        scheme, it, d, base, eps, tol = self.first_iteration()
        trial, length, stuck = solver._line_search(scheme, it, d, base, eps, tol)
        assert stuck is None and length.tolist() == [1.0, 1.0, 1.0]
        assert np.all(trial.norm < 0.1 * it.norm)  # a full Newton step, 16-38x here

    def test_negated_direction_is_stuck_at_the_minimum_step(self, monkeypatch):
        # members 1 and 2 climb along -d at every length: the search
        # evaluates lengths 1, 1/2, ..., _MIN_STEP, the earlier stuck member
        # is reported, and member 0 keeps its trial
        scheme, it, d, base, eps, tol = self.first_iteration()
        ref, _, _ = solver._line_search(scheme, it, d, base, eps, tol)
        d[1:] *= -1.0
        counts = _count_evaluations(monkeypatch)
        trial, length, stuck = solver._line_search(scheme, it, d, base, eps, tol)
        assert stuck == 1
        assert counts["calls"] == 1 - math.log2(solver._MIN_STEP)
        assert length.tolist() == [1.0] and len(trial.w) == 1
        assert np.array_equal(trial.w[0], ref.w[0]) and trial.norm[0] == ref.norm[0]

    def test_member_alone_matches_the_batch(self):
        # member 2 along 8d backtracks while the others accept at length 1,
        # so the batch re-evaluates them in later rounds
        scheme, it, d, base, eps, tol = self.first_iteration()
        d[2] *= 8.0
        trial, length, stuck = solver._line_search(scheme, it, d, base, eps, tol)
        assert stuck is None and length[0] == length[1] == 1.0 and length[2] < 1.0
        for m in range(3):
            one = [m]
            alone, one_length, _ = solver._line_search(scheme, it.take(one), d[one], base[one],
                                                       eps[one], tol)
            assert one_length.tolist() == [length[m]]
            for got, ref in ((alone.w, trial.w), (alone.residual, trial.residual),
                             (alone.norm, trial.norm), (alone.scale, trial.scale)):
                assert np.array_equal(got[0], ref[m])

    def test_carried_first_trial_is_used(self, monkeypatch):
        # a first trial passed in replaces the search's first evaluation
        scheme, it, d, base, eps, tol = self.first_iteration()
        ref, _, _ = solver._line_search(scheme, it, d, base, eps, tol)
        counts = _count_evaluations(monkeypatch)
        trial, length, stuck = solver._line_search(scheme, it, d, base, eps, tol, ref)
        assert counts["calls"] == 0 and trial is ref and stuck is None


def _probe_config_2d(p, q, amplitude, nx=33, nt=32, alpha=1e4):
    """The 2D degenerate preset: a = |x - (0.505, 0.505)|^0.04, b = 1, sine datum."""
    params = StructureParams(n=2, p=p, q=q, alpha=alpha, beta=alpha, mu=0.0, eps=0.5)
    coeffs = CoefficientSpec(
        a=Coefficient("power", center=(0.505, 0.505), exponent=0.04),
        b=Coefficient("constant", value=1.0),
    )
    dom = Domain(n=2, box=((0.0, 1.0),) * 2, T=0.3, nx=nx, nt=nt)
    return SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.5),
                       BoundaryDatum(kind="profile", profile="sin", amplitude=amplitude))


def _correction_target(cfg, it, row):
    """newton_direction's 2D defect target for row of it: the floor of the
    stopping rule or the forcing term times |R|, whichever is larger."""
    return max(solver._CORRECTION_FLOOR * cfg.tolerance * it.scale[row],
               solver._FORCING * scipy.linalg.blas.dnrm2(it.residual[row].ravel()))


def _factor_every_iteration(stepper, it, t, members=None):
    """Reference 2D Newton directions: every member factored afresh in
    float64 and solved directly, whatever factors its slots hold."""
    d, stencil = np.empty_like(it.residual), stepper.scheme.stencil(it)
    for row in range(len(d)):
        lu = band.BandLU(stencil, row, np.float64)
        d[row] = lu.solve(-it.residual[row].ravel()).reshape(d[row].shape)
    return d, None


# (p, q, amplitude) of the 33^2 x 32 factor-reuse probes
_REUSE_PROBES = [(3.0, 3.2, 5.0), (4.0, 4.3, 5.0), (2.0, 2.1, 1e5)]


class _ContractingFactor:
    """A stale factor of the matrix diag(d) that leaves exactly the fraction
    rate of every defect: its solve is the exact one scaled by 1 - rate."""

    def __init__(self, d, rate):
        self.d, self.rate, self.solves = d, rate, 0

    def solve(self, b):
        self.solves += 1
        return (1.0 - self.rate) * b / self.d


def _first_power_below(rate, bound):
    """Smallest k >= 1 with rate^k <= bound."""
    k = 1
    while rate**k > bound:
        k += 1
    return k


def _count_factor_work(monkeypatch):
    """Count the band factorizations from then on (a singular one too), the
    float64 ones among them, their solves and the defect-correction solves
    among those: returns the dict {"factorizations", "float64", "solves",
    "corrections"}."""
    counts = dict.fromkeys(("factorizations", "float64", "solves", "corrections"), 0)

    class Counted(band.BandLU):
        def __init__(self, *args):
            counts["factorizations"] += 1
            super().__init__(*args)
            counts["float64"] += self.dtype == np.float64

        def solve(self, b):
            counts["solves"] += 1
            return super().solve(b)

    defect_correction = band.defect_correction

    def counted_correction(apply, b, lu, target):
        first = lu.solves
        x = defect_correction(apply, b, lu, target)
        counts["corrections"] += lu.solves - first
        return x

    monkeypatch.setattr(band, "BandLU", Counted)
    monkeypatch.setattr(band, "defect_correction", counted_correction)
    return counts


def _one_factor_per_slot(monkeypatch):
    """Check at every band factorization that the slot making it holds no
    other living factor: its previous one, carried or given up, is dead
    before the next is made.  Returns (last, made): the weak reference to
    each slot's last factor, which a caller sets for a factor of its own,
    and per factorization (whether the slot had a factor before, whether
    that one had spent its budget when the direction began)."""
    last, making, made = weakref.WeakKeyDictionary(), [], []
    direction = band.FactorSlot.direction

    def tracked_direction(self, *args):
        spent = self.lu is not None and self.lu.solves > band.solve_budget(self.lu.kl)
        making.append((self, spent))
        try:
            return direction(self, *args)
        finally:
            making.pop()

    class Tracked(band.BandLU):
        def __init__(self, *args):
            slot, spent = making[-1]
            previous = last.get(slot)
            assert previous is None or previous() is None, "a slot holds two factors"
            made.append((previous is not None, spent))
            super().__init__(*args)
            last[slot] = weakref.ref(self)

    monkeypatch.setattr(band.FactorSlot, "direction", tracked_direction)
    monkeypatch.setattr(band, "BandLU", Tracked)
    return last, made


class TestDefectCorrection:
    """defect_correction stops at the first defect under the floor."""

    @staticmethod
    def system(rng, rate):
        d = rng.uniform(1.0, 4.0, size=40)
        return np.diag(d), rng.normal(size=40), _ContractingFactor(d, rate)

    def test_stops_at_the_first_defect_under_the_floor(self, rng):
        matrix, b, lu = self.system(rng, 0.2)
        floor = 1e-5 * np.linalg.norm(b)
        x = band.defect_correction(matrix.__matmul__, b, lu, floor)
        # the defect after k solves is 0.2^k |b|: 0.2^7 = 1.3e-5, 0.2^8 = 2.6e-6
        assert lu.solves == _first_power_below(0.2, 1e-5) == 8
        assert np.linalg.norm(b - matrix @ x) <= floor
        # a floor 1e-4 times lower costs the solves down to it: 0.2^13 = 1.2e-9
        lower = _ContractingFactor(lu.d, 0.2)
        x = band.defect_correction(matrix.__matmul__, b, lower, 1e-4 * floor)
        assert lower.solves == _first_power_below(0.2, 1e-9) == 13
        assert np.linalg.norm(b - matrix @ x) <= 1e-4 * floor

    @pytest.mark.parametrize("rate", [0.05, 0.3, 0.35, 0.45, 0.6, 0.9, 1.5])
    def test_never_gives_up_where_floor_zero_converges(self, rate, rng):
        # nor where any lower floor converges.  Floor 0 itself gives up at
        # the second defect: no defect of an inexact factor reaches 0, and
        # at the second one's rate none of the 29 corrections left would
        matrix, b, lu = self.system(rng, rate)
        lower = band.defect_correction(matrix.__matmul__, b, lu, 0.0), lu.solves
        assert lower == (None, 2)
        for relative in (1e-11, 1e-8, 1e-5, 1e-2, 0.1):
            factor = _ContractingFactor(lu.d, rate)
            x = band.defect_correction(matrix.__matmul__, b, factor, relative * np.linalg.norm(b))
            if lower[0] is not None:
                assert x is not None and factor.solves <= lower[1]
            # the stall rule predicts rate^31 |b| after the 30 corrections
            # and gives up only if that misses the floor
            assert (x is not None) == (rate**31 <= relative)
            lower = x, factor.solves


class TestFactorReuse:
    """In 2D a member's Newton factor serves defect correction on its later
    iterations, across time steps, until its solves have cost one
    factorization."""

    @pytest.mark.parametrize("p,q,amplitude", _REUSE_PROBES)
    def test_matches_factoring_every_iteration(self, p, q, amplitude, monkeypatch):
        # inexact directions may take other iterations than exact ones, and
        # stop each step within the tolerance of the same solution
        cfg = _probe_config_2d(p, q, amplitude)
        u, _ = solve(cfg)
        monkeypatch.setattr(_Stepper, "newton_direction", _factor_every_iteration)
        ref_u, _ = solve(cfg)
        scale = max(1.0, np.abs(ref_u.values).max())
        assert np.abs(u.values - ref_u.values).max() <= 10 * cfg.tolerance * scale

    @pytest.mark.parametrize("p,q,amplitude", _REUSE_PROBES)
    def test_floor_saves_solves(self, p, q, amplitude, monkeypatch):
        # stopping each correction at the forcing term, where it lies above
        # the floor, takes fewer solves and factorizations than the floor
        # alone, for a field within the tolerance of the floor's.  With the
        # forcing term off, stopping at the floor leaves the Newton
        # iterations as they are and the field within rounding of
        # corrections run to a floor 1e-4 times lower, for fewer solves
        cfg = _probe_config_2d(p, q, amplitude)
        counts = _count_factor_work(monkeypatch)

        def run():
            counts.update(dict.fromkeys(counts, 0))
            u, stats = solve(cfg)
            return u.values, stats.iterations, dict(counts)

        u, _, forced = run()
        monkeypatch.setattr(solver, "_FORCING", 0.0)
        floor_u, iterations, floored = run()
        monkeypatch.setattr(solver, "_CORRECTION_FLOOR", 1e-4 * solver._CORRECTION_FLOOR)
        ref_u, ref_iterations, ref = run()
        scale = max(1.0, np.abs(floor_u).max())
        assert np.abs(u - floor_u).max() <= 10 * cfg.tolerance * scale
        assert forced["solves"] < floored["solves"]
        assert forced["factorizations"] < floored["factorizations"]
        assert iterations == ref_iterations
        assert np.abs(floor_u - ref_u).max() <= 1e-12 * np.abs(ref_u).max()
        assert floored["solves"] < ref["solves"]
        assert floored["factorizations"] <= ref["factorizations"]

    @staticmethod
    def probe(rng):
        """A stepper of two members at 9^2 and the iterate of member 1 at a
        random state."""
        cfg = _probe_config_2d(3.0, 3.2, 5.0, nx=9, nt=4)
        stepper = _Stepper(cfg, [0.5, 0.25])
        shape = (1,) + (cfg.domain.nx,) * 2
        u_prev = rng.normal(size=shape)
        members = np.array([1])
        it = stepper.scheme.evaluate(u_prev + rng.normal(size=shape), u_prev, stepper.eps[members])
        return stepper, it, members

    @pytest.mark.parametrize("stale,scale,factor_solves", [
        ("growth", 0.25, 2), ("slow", 10.0, 2), ("non-finite", 0.25, 1),
    ], ids=["growth", "slow", "non-finite"])
    def test_failed_correction_falls_back_to_direct_solve(self, stale, scale, factor_solves, rng):
        # a carried factor that gives up is released, and the member takes
        # the correction of a fresh float32 factor down to the target
        stepper, it, members = self.probe(rng)
        stepper.newton_direction(it, 0.1, members)  # fills member 1's slot

        # a factor of 0.25 J makes the first correction triple the defect; one
        # of 10 J shrinks it by 0.9 per correction, which cannot reach the
        # tolerance within the budget
        stencil = stepper.scheme.stencil(it)
        lu = band.BandLU({off: scale * entries for off, entries in stencil.items()}, 0)
        solves = []

        class StaleFactor:
            kl, solves = lu.kl, 0

            def solve(self, b):
                solves.append(b)
                return np.full_like(b, np.nan) if stale == "non-finite" else lu.solve(b)

        stepper.slots[1].lu = old = StaleFactor()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d, bad = stepper.newton_direction(it, 0.1, members)
        assert bad is None
        target = _correction_target(stepper.cfg, it, 0)
        fresh = band.defect_correction(
            functools.partial(stencil_product, stencil, 0), -it.residual[0].ravel(),
            fresh_lu := band.BandLU(stencil, 0), target)
        assert np.array_equal(d[0].ravel(), fresh)
        assert np.linalg.norm(_dense_operator(stencil, 0) @ fresh + it.residual[0].ravel()) <= target
        assert stepper.slots[0].lu is None
        held = stepper.slots[1].lu
        assert held is not old and held.solves == fresh_lu.solves and held.dtype == np.float32
        # given up at the first growth or the first observed contraction, or
        # at once for a non-finite x
        assert len(solves) == factor_solves

    def test_fresh_float32_factor_falls_back_to_float64(self, rng, monkeypatch):
        # a float32 factor that solves 4 J triples the defect at its first
        # correction: the member is refactored in float64, whose direct
        # solve is the direction and the factor's one solve so far
        stepper, it, members = self.probe(rng)
        made = []

        class Float32Fails(band.BandLU):
            def __init__(self, stencil, row, dtype=np.float32):
                made.append(dtype)
                super().__init__(stencil, row, dtype)

            def solve(self, b):
                return (4.0 if self.dtype == np.float32 else 1.0) * super().solve(b)

        monkeypatch.setattr(band, "BandLU", Float32Fails)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d, bad = stepper.newton_direction(it, 0.1, members)
        monkeypatch.undo()
        assert bad is None and made == [np.float32, np.float64]
        direct, _ = _factor_every_iteration(stepper, it, 0.1)
        assert np.array_equal(d, direct)
        lu = stepper.slots[1].lu
        assert lu.dtype == np.float64 and lu.solves == 1

    def test_no_factor_corrects_a_high_contrast_matrix(self, monkeypatch):
        # face weights 1e8 on an island of 3^2 nodes and 1 elsewhere, at
        # 7^2 interior nodes: the rows divided by their diagonal have
        # condition 3e8, and scale 0 makes the floor 0, so the float32
        # correction gives up; the member factors in float64 and takes that
        # factor's one direct solve, as dsgesv does
        m, weight = 7, 1e8
        kx, ky = np.ones((m + 1, m)), np.ones((m, m + 1))  # faces across axis 0, 1
        kx[3:5, 2:5] = weight
        ky[2:5, 3:5] = weight
        zero = np.zeros((1, m, m))
        stencil = {(0, 0): (1.0 + kx[1:] + kx[:-1] + ky[:, 1:] + ky[:, :-1])[None],
                   (1, 0): -kx[1:][None], (-1, 0): -kx[:-1][None],
                   (0, 1): -ky[:, 1:][None], (0, -1): -ky[:, :-1][None],
                   (1, 1): zero, (1, -1): zero, (-1, 1): zero, (-1, -1): zero}
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=m + 2, nt=4)
        stepper = _Stepper(cfg, [0.5])
        b = np.random.default_rng(7).normal(size=(1, m, m))
        g = cfg.g.sample(cfg.domain).values[:1]
        it = stepper.scheme.evaluate(g, g, stepper.eps)._replace(residual=-b, scale=np.zeros(1))
        monkeypatch.setattr(stepper.scheme, "stencil", lambda it: stencil)
        work = _count_factor_work(monkeypatch)
        dtypes, solved = [], []
        defect_correction, band_solve = band.defect_correction, band.BandLU.solve

        def counted_correction(apply, b, lu, floor):
            dtypes.append(lu.dtype)
            x = defect_correction(apply, b, lu, floor)
            assert x is None
            return x

        def typed_solve(self, b):
            solved.append(self.dtype)
            return band_solve(self, b)

        monkeypatch.setattr(band, "defect_correction", counted_correction)
        monkeypatch.setattr(band.BandLU, "solve", typed_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d, bad = stepper.newton_direction(it, 0.1, np.array([0]))
        assert bad is None and dtypes == [np.float32]
        assert work["factorizations"] == 2 and solved.count(np.float64) == 1
        monkeypatch.undo()
        direct = band.BandLU(stencil, 0, np.float64).solve(b[0].ravel())
        assert np.array_equal(d[0].ravel(), direct)
        assert stepper.slots[0].lu.dtype == np.float64

    def test_factor_serves_across_time_steps(self, monkeypatch):
        # at 17^2 the budget of about 8 solves is spent within each step and
        # a factor serves little more than one step; at 33^2 it is about 16
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nt=32, alpha=20.0)
        factorizations, corrected = [], []
        defect_correction = band.defect_correction

        class Counted(band.BandLU):
            def __init__(self, *args):
                factorizations.append(1)
                super().__init__(*args)

        def counted_correction(*args):
            x = defect_correction(*args)
            corrected.append(x is not None)
            return x

        monkeypatch.setattr(band, "BandLU", Counted)
        monkeypatch.setattr(band, "defect_correction", counted_correction)
        results, failure = solve_levels(cfg, [0.5, 0.125])
        assert failure is None
        iterations = sum(stats.total_iterations for _, stats in results)
        # every direction is one correction, with a fresh factor or with a
        # factor carried from an earlier iteration or step
        assert len(factorizations) < cfg.domain.nt * 2
        assert len(corrected) == iterations > len(factorizations)
        assert all(corrected)

    def test_budget_grows_with_the_band(self):
        # a wider band costs a factorization more flops per node than a
        # solve, so a factor may serve more solves before it is replaced;
        # the first step's factor stays in its slot for the next step
        budgets = []
        for nx in (17, 33):
            cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=nx, nt=4, alpha=20.0)
            stepper = _Stepper(cfg, [0.5])
            stepper.step(cfg.g.sample(cfg.domain).values[:1], cfg.domain.dt)
            assert stepper.slots[0].lu is not None
            budgets.append(band.solve_budget(stepper.slots[0].lu.kl))
        assert 1.0 < budgets[0] < budgets[1]

    def test_factors_held_only_in_live_slots(self, monkeypatch):
        # member 1 (eps = 0.125) finds no decrease from the third step on,
        # which drops it and member 2 while they hold factors from earlier
        # steps
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=17, nt=8, alpha=20.0)
        newton_direction, evaluate = _Stepper.newton_direction, _Scheme.evaluate
        stuck_from = 3 * cfg.domain.dt
        factors_made = []  # a weak reference to every factor
        calls = []  # per call: t, its members, living factors, members with a factor
        now = [0.0]

        class Tracked(band.BandLU):
            def __init__(self, *args):
                super().__init__(*args)
                factors_made.append(weakref.ref(self))

        def recorded(self, it, t, members):
            now[0] = t
            calls.append((t, list(members), sum(ref() is not None for ref in factors_made),
                          [m for m, slot in enumerate(self.slots) if slot.lu is not None]))
            return newton_direction(self, it, t, members)

        def stuck(self, w, u_prev, eps):
            it = evaluate(self, w, u_prev, eps)
            if now[0] < stuck_from:
                return it
            hit = eps.reshape(len(eps)) == 0.125
            return it._replace(norm=np.where(hit, 1.0, it.norm),
                               scale=np.where(hit, 1e-300, it.scale))

        monkeypatch.setattr(band, "BandLU", Tracked)
        monkeypatch.setattr(_Stepper, "newton_direction", recorded)
        monkeypatch.setattr(_Scheme, "evaluate", stuck)
        results, failure = solve_levels(cfg, [0.5, 0.125, 0.0])
        assert isinstance(failure, StepFailure) and failure.t == stuck_from
        assert len(results) == 1
        # the dropped members held factors into the step they failed in
        assert any(t == stuck_from and held == [0, 1, 2] for t, _, _, held in calls)
        # every living factor sits in one slot, one per live member; after
        # the failure only member 0 is live
        for t, members, alive, held in calls:
            assert alive == len(held) <= 3
            if t > failure.t or (t == failure.t and max(members) == 0):
                assert held in ([], [0])
        assert all(ref() is None for ref in factors_made)

    # A factor still referenced after its slot let it go, in the slot or in
    # a caller's frame, would be alive while the member's next factor is
    # made: these check the release at every factorization, on each path
    # that replaces a factor.

    def test_spent_factor_is_released_before_refactoring(self, monkeypatch):
        # 9 of the 10 factorizations of the 33^2 x 32 problem replace a
        # factor whose budget is spent
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=33, nt=32, alpha=20.0)
        _, made = _one_factor_per_slot(monkeypatch)
        solve(cfg)
        assert made == [(False, False)] + [(True, True)] * 9

    def test_given_up_factor_is_released_before_refactoring(self, rng, monkeypatch):
        # the growth probe of test_failed_correction_falls_back_to_direct_solve:
        # a carried factor of 0.25 J triples the defect and is given up
        stepper, it, members = self.probe(rng)
        stepper.newton_direction(it, 0.1, members)
        stencil = stepper.scheme.stencil(it)
        stale = band.BandLU({off: 0.25 * entries for off, entries in stencil.items()}, 0)

        class Growth:
            kl, solves = stale.kl, 0

            def solve(self, b):
                return stale.solve(b)

        last, made = _one_factor_per_slot(monkeypatch)
        stepper.slots[1].lu = Growth()
        last[stepper.slots[1]] = weakref.ref(stepper.slots[1].lu)
        d, bad = stepper.newton_direction(it, 0.1, members)
        assert bad is None and made == [(True, False)]
        assert stepper.slots[1].lu.dtype == np.float32

    def test_float32_factor_is_released_before_float64(self, rng, monkeypatch):
        # the probe of test_fresh_float32_factor_falls_back_to_float64
        stepper, it, members = self.probe(rng)
        _, made = _one_factor_per_slot(monkeypatch)

        class Float32Fails(band.BandLU):
            def solve(self, b):
                return (4.0 if self.dtype == np.float32 else 1.0) * super().solve(b)

        monkeypatch.setattr(band, "BandLU", Float32Fails)
        d, bad = stepper.newton_direction(it, 0.1, members)
        assert bad is None and made == [(False, False), (True, False)]
        assert stepper.slots[1].lu.dtype == np.float64


_step = _Stepper.step


def _start_from_u_j(stepper, u_prev, t_next, t_after=None):
    """Reference step: every member starts Newton from u_j, whatever levels
    the stepper has stored or starts it has carried."""
    stepper.past, stepper.carry = [], None
    return _step(stepper, u_prev, t_next, t_after)


class _LiftedDatum(BoundaryDatum):
    """A preset datum lifted by one, (g0 + 1) psi(t): nonzero on the frame,
    where every preset profile vanishes."""

    def _g0(self, box, coords):
        return super()._g0(box, coords) + 1.0


class TestExtrapolatedStart:
    """Each step starts Newton from u_j or from the extrapolation in time of
    the member's stored levels, whichever has the smaller max|R|."""

    @pytest.mark.parametrize("stored", ["worse", "non-finite"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [1, 2])
    def test_safeguard_starts_from_u_j(self, n, order, stored):
        cfg = degenerate_config() if n == 1 else _probe_config_2d(3.0, 3.2, 5.0, nx=9, nt=4)
        dom = cfg.domain
        u_prev = cfg.g.sample(dom).values[:1]
        bump = np.ones((dom.nx,) * n)
        for c in dom.meshgrid():
            bump = bump * np.sin(3 * np.pi * c)
        # stored levels u_j + k bump extrapolate to u_j - bump at either order
        past = [u_prev + k * bump for k in range(1, order + 1)]
        if stored == "non-finite":
            past[0][(0,) + (dom.nx // 2,) * n] = np.nan
        stepper = _Stepper(cfg, [cfg.spec.eps])
        stepper.past = past
        fresh = _Stepper(cfg, [cfg.spec.eps])
        start = u_prev.copy()
        start[:, stepper.frame] = cfg.g.at(dom.box, [c[stepper.frame] for c in dom.meshgrid()],
                                           dom.dt)
        ext = start.copy()
        inner = fresh.scheme.interior
        ext[inner] = (u_prev - bump)[inner]
        if stored == "non-finite":
            ext[(0,) + (dom.nx // 2,) * n] = np.nan
        ext_norm = fresh.scheme.evaluate(ext, u_prev, fresh.eps).norm[0]
        u_j_norm = fresh.scheme.evaluate(start, u_prev, fresh.eps).norm[0]
        assert not ext_norm <= u_j_norm  # larger, or NaN
        u, log, failure = stepper.step(u_prev, dom.dt)
        ref_u, ref_log, ref_failure = fresh.step(u_prev, dom.dt)
        assert failure is None and ref_failure is None
        assert np.array_equal(u, ref_u)
        assert _member_history(log, 0) == _member_history(ref_log, 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_starting_from_u_j(self, n, monkeypatch):
        cfg = degenerate_config() if n == 1 else _probe_config_2d(3.0, 3.2, 5.0, nx=17, nt=16)
        schedule = [0.5, 0.125, 0.0]
        results, failure = solve_levels(cfg, schedule)
        monkeypatch.setattr(_Stepper, "step", _start_from_u_j)
        ref_results, ref_failure = solve_levels(cfg, schedule)
        assert failure is None and ref_failure is None
        for (u, stats), (ref_u, ref_stats) in zip(results, ref_results):
            scale = np.abs(ref_u.values).max()
            assert np.abs(u.values - ref_u.values).max() <= 1e-9 * scale
            assert stats.total_iterations <= ref_stats.total_iterations
            assert stats.histories != ref_stats.histories

    def test_mixed_starts_match_lone_solves(self, monkeypatch):
        # at eps 1 and 0 on the 33 x 16 nonlinear problem, five steps start
        # one member from its extrapolation and the other from u_j: pick takes
        # their rows by an integer index, where every other take of the march
        # is a slice, a block or a mask
        cfg, schedule = nonlinear_config(nx=33, nt=16), [1.0, 0.0]
        take, mixed = _Iterate.take, []

        def recorded(self, rows):
            if not isinstance(rows, (slice, int)) and np.asarray(rows).dtype.kind in "iu":
                mixed.append(rows)
            return take(self, rows)

        monkeypatch.setattr(_Iterate, "take", recorded)
        results, failure = solve_levels(cfg, schedule)
        monkeypatch.undo()
        assert failure is None and len(mixed) == 5
        for (u, stats), eps in zip(results, schedule):
            lone_u, lone_stats = solve(_at_eps(cfg, eps))
            assert u.values.tobytes() == lone_u.values.tobytes()
            assert repr(stats.histories) == repr(lone_stats.histories)

    def test_frame_takes_the_datum(self):
        # a cubic in time: the extrapolation of the frame would miss
        # g(t_{j+1}), and a frame left at the profile would miss psi(t_{j+1})
        g = _LiftedDatum(kind="separable", psi=(1.0, 0.0, 0.0, 100.0))
        cfg = heat_config(nx=17, nt=16, g=g)
        u, _ = solve(cfg)
        frame = solver.boundary_frame(cfg.domain)
        expected = g.sample(cfg.domain).values[:, frame]
        assert np.abs(u.values[:, frame] - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_heat_error_does_not_grow(self, monkeypatch):
        cfg = heat_config()
        dom = cfg.domain
        exact = np.exp(-np.pi**2 * dom.times)[:, None] * np.sin(np.pi * dom.axes[0])[None, :]
        u, _ = solve(cfg)
        monkeypatch.setattr(_Stepper, "step", _start_from_u_j)
        ref_u, _ = solve(cfg)
        assert np.abs(u.values - exact).max() <= np.abs(ref_u.values - exact).max() + 1e-12

    def test_iteration_count(self):
        # 513 iterations when every step starts from u_j
        _, stats = solve(degenerate_config())
        assert stats.total_iterations <= 300

    def test_batched_matches_lone_after_a_member_drops(self, monkeypatch):
        # member 1 (eps = 0.125) finds no decrease from the fourth step on;
        # member 0 goes on alone and starts its last steps from the
        # extrapolation
        cfg = _probe_config_2d(3.0, 3.2, 5.0, nx=17, nt=8)
        evaluate, newton_direction = _Scheme.evaluate, _Stepper.newton_direction
        stuck_from = 4 * cfg.domain.dt
        now = [0.0]
        steppers = []

        def recorded(self, it, t, members):
            now[0] = t
            return newton_direction(self, it, t, members)

        def stuck(self, w, u_prev, eps):
            it = evaluate(self, w, u_prev, eps)
            if now[0] < stuck_from:
                return it
            hit = eps.reshape(len(eps)) == 0.125
            return it._replace(norm=np.where(hit, 1.0, it.norm),
                               scale=np.where(hit, 1e-300, it.scale))

        def kept(self, u_prev, t_next, t_after=None):
            steppers.append(self)
            return _step(self, u_prev, t_next, t_after)

        monkeypatch.setattr(_Stepper, "newton_direction", recorded)
        monkeypatch.setattr(_Scheme, "evaluate", stuck)
        monkeypatch.setattr(_Stepper, "step", kept)
        results, failure = solve_levels(cfg, [0.5, 0.125, 0.0])
        monkeypatch.undo()
        assert isinstance(failure, StepFailure) and failure.t == stuck_from
        (u, stats), = results
        lone_u, lone_stats = solve(_at_eps(cfg, 0.5))
        assert np.array_equal(u.values, lone_u.values)
        assert stats == lone_stats  # iterations and final residuals per step
        assert stats.histories == lone_stats.histories
        assert [len(level) for level in steppers[-1].past] == [1, 1]
        monkeypatch.setattr(_Stepper, "step", _start_from_u_j)
        _, ref_stats = solve(_at_eps(cfg, 0.5))
        assert stats.histories[4:] != ref_stats.histories[4:]


def _without_carry(stepper, u_prev, t_next, t_after=None):
    """Reference step: no start of the next step is evaluated ahead or
    carried, so every step evaluates its own starts."""
    return _step(stepper, u_prev, t_next)


def _count_evaluations(monkeypatch):
    """Count every _Scheme.evaluate call and the member rows it evaluates
    from then on, over all the leading axes of w (a batch of starts holds a
    block of members per start): returns the dict {"calls", "rows"}."""
    evaluate, counts = _Scheme.evaluate, {"calls": 0, "rows": 0}

    def counted(self, w, u_prev, eps):
        counts["calls"] += 1
        counts["rows"] += w[(Ellipsis,) + (0,) * self.dom.n].size
        return evaluate(self, w, u_prev, eps)

    monkeypatch.setattr(_Scheme, "evaluate", counted)
    return counts


def _assert_same_march(got, ref):
    """Two solve_levels outcomes agree bit for bit: fields, histories and
    failure (repr round-trips a double and tells -0.0 from 0.0)."""
    (results, failure), (ref_results, ref_failure) = got, ref
    assert len(results) == len(ref_results)
    for (u, stats), (ref_u, ref_stats) in zip(results, ref_results):
        assert u.values.tobytes() == ref_u.values.tobytes()
        assert repr(stats.histories) == repr(ref_stats.histories)
    assert type(failure) is type(ref_failure) and str(failure) == str(ref_failure)
    if isinstance(failure, StepFailure):
        assert repr((failure.t, failure.residual, failure.history)) == repr(
            (ref_failure.t, ref_failure.residual, ref_failure.history))


def _carry_probe(n):
    """Marches whose later steps end at their first trial for every member
    of [0.5, 0.25, 0.125]: in 1D from the 11th step on (the degenerate preset
    over T = 0.075 at 65 x 64), in 2D from the 39th (9^2 x 64, p = 2)."""
    if n == 1:
        cfg = degenerate_config()
        return dataclasses.replace(cfg, domain=dataclasses.replace(cfg.domain, T=0.075, nt=64))
    return _probe_config_2d(2.0, 2.1, 0.8, nx=9, nt=64, alpha=20.0)


class TestCarriedStart:
    """A step that ends at its first trial for every member, after a step
    that did too, has evaluated the next step's starts in that trial's
    batch; the next step takes them, with bitwise the same results."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_calls_for_the_same_rows(self, n, monkeypatch):
        # 1D: the sweep-1d problem, 525 calls without carried starts
        if n == 1:
            cfg, schedule = degenerate_config(), [0.5 / 2**k for k in range(6)]
        else:
            cfg, schedule = _carry_probe(2), [0.5, 0.25]
        counts = _count_evaluations(monkeypatch)
        got = solve_levels(cfg, schedule)
        carried = dict(counts)
        counts.update(calls=0, rows=0)
        monkeypatch.setattr(_Stepper, "step", _without_carry)
        _assert_same_march(got, solve_levels(cfg, schedule))
        assert carried["rows"] == counts["rows"]
        assert carried["calls"] < counts["calls"]
        if n == 1:
            assert carried["calls"] <= 290

    @given(seed=st.integers(0, 2**32 - 1), members=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_matches_evaluating_every_start(self, seed, members):
        rng = np.random.default_rng(seed)
        params = sample_gap_params(rng)
        while params.n > 2:
            params = sample_gap_params(rng)
        n = params.n
        # nx - 1 is not a multiple of 8
        nx = int(rng.choice([12, 20, 28, 30, 36] if n == 1 else [6, 7, 8, 11, 12]))
        params = dataclasses.replace(params, mu=float(rng.uniform(0.0, 1.0)), eps=0.5)
        coeffs = CoefficientSpec(
            a=Coefficient("power", center=(0.43,) * n, exponent=float(rng.uniform(0.0, 1.0))),
            b=Coefficient("constant", value=float(rng.uniform(0.1, 2.0))),
        )
        psi = (1.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
               float(rng.uniform(-2.0, 2.0)))
        g = BoundaryDatum(kind="separable", amplitude=float(10.0 ** rng.uniform(-2.0, 1.0)),
                          psi=psi)
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=float(rng.uniform(0.05, 1.0)), nx=nx, nt=16)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.5), g)
        schedule = sorted(rng.uniform(0.0, 1.0, members).tolist(), reverse=True)
        got = solve_levels(cfg, schedule)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Stepper, "step", _without_carry)
            _assert_same_march(got, solve_levels(cfg, schedule))

    @pytest.mark.parametrize("n", [1, 2])
    def test_backtrack_at_the_first_trial(self, n, monkeypatch):
        # member 1 (eps = 0.25) reads max|R| = inf at the first trial of the
        # 48th step, after a step that ended at its first trial: it halves
        # its length once, and the starts made with that trial are dropped
        cfg, schedule = _carry_probe(n), [0.5, 0.25, 0.125]
        spoiled = float(cfg.domain.times[48])
        evaluate, newton_direction = _Scheme.evaluate, _Stepper.newton_direction
        now = [None, False]  # time of the last direction, first trial pending

        def recorded(self, it, t, members):
            now[:] = t, t == spoiled and now[0] != t
            return newton_direction(self, it, t, members)

        def spoil(self, w, u_prev, eps):
            it = evaluate(self, w, u_prev, eps)
            if not now[1]:
                return it
            now[1] = False
            return it._replace(norm=np.where(eps.reshape(len(eps)) == 0.25, np.inf, it.norm))

        monkeypatch.setattr(_Stepper, "newton_direction", recorded)
        monkeypatch.setattr(_Scheme, "evaluate", spoil)
        got = solve_levels(cfg, schedule)
        monkeypatch.setattr(_Stepper, "step", _without_carry)
        _assert_same_march(got, solve_levels(cfg, schedule))
        results, failure = got
        assert failure is None
        assert all(stats.histories[46].step_lengths == (1.0,) for _, stats in results)
        assert [stats.histories[47].step_lengths[0] for _, stats in results] == [1.0, 0.5, 1.0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_member_fails_mid_march(self, n, monkeypatch):
        # the stuck member of TestSolveLevels, from the 48th step on: it and
        # the member after it drop after a run of carried starts, and
        # member 0 goes on alone (the 17^2 x 8 probe of
        # test_batched_matches_lone_after_a_member_drops has no step that
        # ends at its first trial, so nothing would be carried there)
        cfg, schedule = _carry_probe(n), [0.5, 0.25, 0.125]
        stuck_from = float(cfg.domain.times[48])
        evaluate, newton_direction = _Scheme.evaluate, _Stepper.newton_direction
        now = [0.0]

        def recorded(self, it, t, members):
            now[0] = t
            return newton_direction(self, it, t, members)

        def stuck(self, w, u_prev, eps):
            it = evaluate(self, w, u_prev, eps)
            if now[0] < stuck_from:
                return it
            hit = eps.reshape(len(eps)) == 0.25
            return it._replace(norm=np.where(hit, 1.0, it.norm),
                               scale=np.where(hit, 1e-300, it.scale))

        monkeypatch.setattr(_Stepper, "newton_direction", recorded)
        monkeypatch.setattr(_Scheme, "evaluate", stuck)
        got = solve_levels(cfg, schedule)
        now[0] = 0.0
        monkeypatch.setattr(_Stepper, "step", _without_carry)
        _assert_same_march(got, solve_levels(cfg, schedule))
        results, failure = got
        assert isinstance(failure, StepFailure) and failure.t == stuck_from
        assert len(results) == 1

    @pytest.mark.parametrize("change", ["none", "one ulp", "sign of zero", "time"])
    def test_direct_call_with_other_inputs(self, change, monkeypatch):
        # a carried start serves only the call whose t_next and u_prev are
        # bitwise those it was made for; it saves that call one evaluation
        cfg = _carry_probe(1)
        times = cfg.domain.times
        carrying, plain = _Stepper(cfg, [0.5, 0.25]), _Stepper(cfg, [0.5, 0.25])
        u = ref = np.repeat(cfg.g.sample(cfg.domain).values[:1], 2, axis=0)
        for j in range(1, 40):
            u, _, _ = carrying.step(u, float(times[j]), float(times[j + 1]))
            ref, _, _ = plain.step(ref, float(times[j]))
        assert carrying.carry is not None and u.tobytes() == ref.tobytes()
        t = float(times[40])
        u = u.copy()
        if change == "one ulp":
            u[1, 30] = np.nextafter(u[1, 30], np.inf)
        elif change == "sign of zero":
            assert u[0, 0] == 0.0 and not np.signbit(u[0, 0])
            u[0, 0] = -0.0
        elif change == "time":
            t = float(np.nextafter(t, 0.0))
        counts = _count_evaluations(monkeypatch)
        got = carrying.step(u, t, float(times[41]))
        carried = counts["calls"]
        counts["calls"] = 0
        want = plain.step(u.copy(), t)
        assert got[0].tobytes() == want[0].tobytes()
        assert repr([_member_history(got[1], m) for m in range(2)] + [got[2]]) == repr(
            [_member_history(want[1], m) for m in range(2)] + [want[2]])
        assert carried == counts["calls"] - (change == "none")

    def test_last_step_carries_nothing(self, monkeypatch):
        cfg, schedule = _carry_probe(1), [0.5, 0.25]
        calls = []  # per step: t_after and whether a start was carried in

        def kept(self, u_prev, t_next, t_after=None):
            calls.append((t_after, self.carry is not None))
            result = _step(self, u_prev, t_next, t_after)
            calls[-1] += (self.carry is not None,)
            return result

        monkeypatch.setattr(_Stepper, "step", kept)
        got = solve_levels(cfg, schedule)
        # the last step takes the start carried in, and carries none out
        assert calls[-1] == (None, True, False)
        assert calls[-2] == (float(cfg.domain.times[-1]), True, True)
        monkeypatch.setattr(_Stepper, "step", _without_carry)
        _assert_same_march(got, solve_levels(cfg, schedule))


class TestSolve:
    def test_spec_dimension_must_match_the_grid(self):
        # a 2D spec on a 1D grid would march with the 2D exponents
        spec = heat_config(n=2).spec
        dom = heat_config().domain
        with pytest.raises(ParameterError, match="spec has n = 2 but the grid has n = 1"):
            SolveConfig(dom, spec, BoundaryDatum(kind="zero"))

    def test_zero_datum_zero_solution(self):
        cfg = heat_config(nx=17, nt=16, g=BoundaryDatum(kind="zero"))
        u, stats = solve(cfg)
        assert np.all(u.values == 0.0)
        assert stats.iterations == [1] * 16

    def test_heat_oracle(self):
        cfg = heat_config()
        u, _ = solve(cfg)
        dom = cfg.domain
        exact = np.exp(-np.pi**2 * dom.times)[:, None] * np.sin(np.pi * dom.axes[0])[None, :]
        assert np.abs(u.values - exact).max() < 5e-3

    def test_temporal_order(self):
        errs = []
        for nt in (100, 200, 400):
            cfg = heat_config(nx=129, nt=nt)
            u, _ = solve(cfg)
            dom = cfg.domain
            exact = np.exp(-np.pi**2 * dom.times)[:, None] * np.sin(np.pi * dom.axes[0])[None, :]
            errs.append(np.abs(u.values - exact).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9

    def test_heat_2d(self):
        cfg = heat_config(nx=33, nt=100, T=0.05, n=2)
        u, _ = solve(cfg)
        dom = cfg.domain
        x = dom.axes[0]
        exact = (
            np.exp(-2 * np.pi**2 * dom.times)[:, None, None]
            * np.sin(np.pi * x)[None, :, None]
            * np.sin(np.pi * x)[None, None, :]
        )
        assert np.abs(u.values - exact).max() < 5e-3

    def test_comparison_principle(self):
        cfg = nonlinear_config()
        u, _ = solve(cfg)
        assert u.values.min() >= -1e-10
        assert u.values.max() <= 0.8 + 1e-10

    def test_records_iteration_counts(self):
        cfg = nonlinear_config(nx=33, nt=16)
        _, stats = solve(cfg)
        assert len(stats.iterations) == 16
        assert all(k >= 1 for k in stats.iterations)
        assert max(stats.residuals) < cfg.tolerance
        assert len(stats.histories) == 16
        for iters, res, hist in zip(stats.iterations, stats.residuals, stats.histories):
            assert len(hist.residuals) == len(hist.step_lengths) == iters
            assert hist.residuals[-1] == res
            assert all(0.0 < t <= 1.0 for t in hist.step_lengths)

    def test_stats_hold_python_numbers(self):
        # the manifests serialize the iterations and final residuals as JSON;
        # two members whose steps take one or more iterations
        results, failure = solve_levels(nonlinear_config(nx=33, nt=16), [0.25, 0.0])
        assert failure is None
        for _, stats in results:
            assert {type(k) for k in stats.iterations} == {int}
            assert {type(r) for r in stats.residuals} == {float}
            histories = stats.histories
            assert {type(x) for h in histories for x in h.residuals + h.step_lengths} == {float}
            assert max(stats.iterations) > 1
            assert json.loads(json.dumps(stats.iterations + stats.residuals)) == (
                stats.iterations + stats.residuals)


# The Barenblatt solution of u_t = div(|Du|^(p-2) Du) (Barenblatt 1952;
# DiBenedetto, Degenerate Parabolic Equations, 1993), taken from s = t0 to
# t0 + T: with these constants its support stays inside the box (-1, 1)^n
_BARENBLATT_C, _BARENBLATT_T0, _BARENBLATT_T = 0.1, 0.01, 0.02


def _barenblatt_exponents(p, n):
    """(k, gamma, support radius at s = 1) of the Barenblatt solution."""
    k = 1.0 / (p - 2.0 + p / n)
    gamma = (p - 2.0) / p * (k / n) ** (1.0 / (p - 1.0))
    return k, gamma, (_BARENBLATT_C / gamma) ** ((p - 1.0) / p)


def _barenblatt(p, coords, s):
    """B(x, s) = s^-k [C - gamma (|x| s^(-k/n))^(p/(p-1))]_+^((p-1)/(p-2))."""
    n = len(coords)
    k, gamma, _ = _barenblatt_exponents(p, n)
    r = np.sqrt(sum(c**2 for c in coords))
    core = _BARENBLATT_C - gamma * (r * s ** (-k / n)) ** (p / (p - 1.0))
    return s**-k * np.maximum(core, 0.0) ** ((p - 1.0) / (p - 2.0))


@dataclasses.dataclass(frozen=True)
class _BarenblattDatum(BoundaryDatum):
    """B(x, t0) at every time: the initial value, and on the frame the zero
    that the Barenblatt solution takes there while its support is inside."""

    p: float = 3.0

    def _g0(self, box, coords):
        return _barenblatt(self.p, coords, _BARENBLATT_T0)


class TestBarenblattOracle:
    """p = q, mu = eps = 0 and a = b = 1/2 make the equation the degenerate
    u_t = Delta_p u.  Its Barenblatt solution B(x, t + t0) is the oracle: the
    error at T falls at every refinement (h halved, dt quartered), and the
    march keeps the mass of the field up to its step residuals, since the
    flux through the frame vanishes while the support stays off it."""

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("n, sizes", [(1, [(33, 16), (65, 64), (129, 256)]),
                                          (2, [(17, 16), (33, 64)])], ids=["1d", "2d"])
    def test_error_falls_and_mass_is_kept(self, p, n, sizes):
        k, _, radius = _barenblatt_exponents(p, n)
        assert radius * (_BARENBLATT_T0 + _BARENBLATT_T) ** (k / n) < 0.5
        half = Coefficient("constant", value=0.5)
        spec = IntegrandSpec(StructureParams(n=n, p=p, q=p), CoefficientSpec(a=half, b=half),
                             eps=0.0)
        errors = []
        for nx, nt in sizes:
            dom = Domain(n=n, box=((-1.0, 1.0),) * n, T=_BARENBLATT_T, nx=nx, nt=nt)
            u, stats = solve(SolveConfig(dom, spec, _BarenblattDatum(kind="profile", p=p)))
            exact = _barenblatt(p, dom.meshgrid(), _BARENBLATT_T0 + _BARENBLATT_T)
            errors.append(np.abs(u.values[-1] - exact).max())
            drift = abs(u.values[-1].sum() - u.values[0].sum()) * dom.cell_volume
            assert drift <= sum(stats.residuals) * (nx - 2) ** n * dom.cell_volume
        assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), errors


class TestDiscreteCalculus:
    @pytest.mark.parametrize("n", [1, 2])
    def test_integration_by_parts_exact(self, n, rng):
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=1.0, nx=17, nt=4)
        shape = (dom.nx,) * n
        phi = rng.normal(size=shape)
        # the fluxes on the k-faces beside the interior nodes, where the
        # divergence reads them
        if n == 1:
            phi[0] = phi[-1] = 0.0
            fluxes = [rng.normal(size=(dom.nx - 1,))]
        else:
            phi[0, :] = phi[-1, :] = phi[:, 0] = phi[:, -1] = 0.0
            fluxes = [rng.normal(size=(dom.nx - 1, dom.nx - 2)),
                      rng.normal(size=(dom.nx - 2, dom.nx - 1))]
        scheme = _Scheme(dom, heat_config(n=n).spec)
        div = scheme.face_divergence(fluxes)
        grads = [g[rows] for g, rows in zip(scheme.face_gradients(phi), scheme.rows)]
        lhs = float(np.sum(div * phi[scheme.interior])) * dom.cell_volume
        rhs = -sum(float(np.sum(f * g)) for f, g in zip(fluxes, grads)) * dom.cell_volume
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestCoefficientSampling:
    """Each caller samples a and b where it reads them, once per call: the
    stepper and the weak residual on the cell faces, the variational gap at
    the cell centres.  In 1D the faces are the cell centres, so there only
    the number of samplings tells them apart."""

    @staticmethod
    def config(n):
        cfg = degenerate_config() if n == 1 else _probe_config_2d(2.0, 2.1, 0.8, alpha=20.0)
        return dataclasses.replace(cfg, domain=Domain(
            n=n, box=((0.0, 1.0),) * n, T=0.3, nx=17 if n == 1 else 9, nt=4))

    @staticmethod
    def counted(monkeypatch):
        """The shape of every Coefficient.at sample taken from now on."""
        at, shapes = Coefficient.at, []

        def recorded(self, *coords):
            value = at(self, *coords)
            shapes.append(value.shape)
            return value

        monkeypatch.setattr(Coefficient, "at", recorded)
        return shapes

    @staticmethod
    def faces(dom):
        """The shapes of the a and b samples on every face set the residual
        reads: the k-faces beside the interior nodes."""
        return sorted(2 * [tuple(dom.nx - 1 if j == k else dom.nx - 2 for j in range(dom.n))
                           for k in range(dom.n)])

    @pytest.mark.parametrize("n", [1, 2])
    def test_solve_levels_samples_each_face_set_once(self, n, monkeypatch):
        cfg = self.config(n)
        shapes = self.counted(monkeypatch)
        _, failure = solve_levels(cfg, [0.5, 0.25, 0.125])
        assert failure is None
        assert sorted(shapes) == self.faces(cfg.domain)

    @pytest.mark.parametrize("n", [1, 2])
    def test_weak_residual_samples_on_the_faces(self, n, monkeypatch):
        cfg = self.config(n)
        u, _ = solve(cfg)
        shapes = self.counted(monkeypatch)
        weak_residual(u, constant_field(cfg.domain, 0.0), cfg)
        assert sorted(shapes) == self.faces(cfg.domain)

    @pytest.mark.parametrize("n", [1, 2])
    def test_gap_samples_the_centres_once(self, n, monkeypatch):
        cfg = self.config(n)
        u, _ = solve(cfg)
        maps = comparison_maps(cfg)
        shapes = self.counted(monkeypatch)
        curves = variational_gap_curves(u, maps, cfg)
        assert len(curves) == 6
        assert shapes == [(cfg.domain.nx - 1,) * n] * 2


class TestWeakResidual:
    def bump(self, dom):
        return field_from_function(
            dom, lambda x, t: np.sin(np.pi * x) ** 2 * np.sin(np.pi * t / dom.T) ** 2
        )

    def test_constant_solution(self):
        cfg = heat_config(nx=33, nt=64)
        u = constant_field(cfg.domain, 2.0)
        r = weak_residual(u, self.bump(cfg.domain), cfg)
        assert abs(r) < 1e-12

    def test_zero_test_function(self):
        cfg = heat_config(nx=33, nt=64)
        u = constant_field(cfg.domain, 2.0)
        assert weak_residual(u, constant_field(cfg.domain, 0.0), cfg) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (2.0, 2.1), (3.0, 3.2)])
    def test_computed_solution_within_step_residual_bound(self, n, p, q):
        # the weak form sums phi times the step's own residual, so the
        # stopping rule bounds it for a computed field in every dimension
        params = StructureParams(n=n, p=p, q=q)
        coeffs = CoefficientSpec(
            a=Coefficient("constant", value=1.0), b=Coefficient("constant", value=1.0)
        )
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=0.1, nx=65 if n == 1 else 17, nt=16)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.0),
                          BoundaryDatum(kind="profile", profile="sin"), tolerance=1e-8)
        u, stats = solve(cfg)
        phi = np.sin(np.pi * dom.times / dom.T).reshape((-1,) + (1,) * n) ** 2
        for x in dom.meshgrid():
            phi = phi * np.sin(np.pi * x) ** 2
        phi = SpaceTimeField(dom, phi)
        bound = 2.0 * max(stats.residuals) * float(np.abs(phi.values).sum()) * dom.cell_volume
        assert abs(weak_residual(u, phi, cfg)) <= bound

    def test_subsolution_sign_for_exact_solutions(self):
        cfg = heat_config()
        u, _ = solve(cfg)
        r = weak_residual(u, self.bump(cfg.domain), cfg)
        assert r <= 1e-3

    def test_preconditions(self):
        cfg = heat_config(nx=17, nt=8)
        u = constant_field(cfg.domain, 1.0)
        negative = SpaceTimeField(cfg.domain, -np.ones(cfg.domain.shape))
        with pytest.raises(PreconditionError, match="nonnegative"):
            weak_residual(u, negative, cfg)
        with pytest.raises(PreconditionError, match="boundary"):
            weak_residual(u, constant_field(cfg.domain, 1.0), cfg)
        other = heat_config(nx=17, nt=16).domain
        with pytest.raises(ParameterError, match="phi lives on a different grid"):
            weak_residual(u, constant_field(other, 0.0), cfg)


def _batch_config(n):
    """Three eps-levels of a small degenerate problem with a time-dependent
    datum, so that every datum term of the energy report is nonzero."""
    cfg = degenerate_config() if n == 1 else _probe_config_2d(2.0, 2.1, 0.8, nx=9, nt=8)
    dom = dataclasses.replace(cfg.domain, nx=33, nt=16) if n == 1 else cfg.domain
    g = BoundaryDatum(kind="separable", amplitude=0.8, psi=(1.0, -0.5, 0.25))
    cfg = dataclasses.replace(cfg, domain=dom, g=g)
    results, failure = solve_levels(cfg, [0.5, 0.125, 0.0])
    assert failure is None
    return cfg, [0.5, 0.125, 0.0], [u for u, _ in results]


def _bits(record) -> str:
    """repr of a dataclass's values: equal strings mean bitwise-equal floats
    (repr round-trips a double exactly and tells -0.0 from 0.0)."""
    return repr(dataclasses.astuple(record))


class TestEnergyReport:
    @pytest.mark.parametrize("n", [1, 2])
    def test_batched_rows_equal_lone_reports(self, n):
        cfg, schedule, fields = _batch_config(n)
        reports = energy_reports(fields, cfg, schedule)
        assert len(reports) == len(fields)
        assert reports[0].dual_term > 0.0 and reports[0].eps_dg_term > 0.0
        for u, eps, report in zip(fields, schedule, reports):
            assert _bits(report) == _bits(energy_report(u, _at_eps(cfg, eps)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_terms_match_the_norm_formulas(self, n):
        # the report forms the gradient terms from the integrals of |D.|^r
        # and the datum's terms from its factors g0(x) psi(t); formed over
        # the space-time grid, from lp_norm of the gradient fields, slice
        # sums of the datum's sample and the pairing of d_t g with each sine
        # mode at every level, they agree to 1e-15 relative
        cfg, schedule, fields = _batch_config(n)
        d, dom, mu = cfg.spec.d, cfg.domain, cfg.spec.params.mu
        g = cfg.g.sample(dom)
        dg = SpaceTimeField(dom, _grad_norm(g.values, dom))
        alpha_exp = 1.0 if math.isinf(d.alpha) else (d.alpha + 1.0) / d.alpha
        wnorm = (lp_norm(g, d.p_alpha) ** d.p_alpha
                 + lp_norm(dg, d.p_alpha) ** d.p_alpha) ** (1.0 / d.p_alpha)
        w, spatial = _trapezoid_weights(dom, time=False), tuple(range(1, dom.n + 1))
        grids, side = dom.meshgrid(), round(solver._DUAL_MODES ** (1.0 / n))
        dtg = cfg.g._g0(dom.box, grids) * cfg.g._dpsi(dom.times).reshape((-1,) + (1,) * dom.n)
        best = np.zeros(dom.nt + 1)
        for mode in itertools.product(range(1, side + 1), repeat=n):
            phi = functools.reduce(np.multiply, [np.sin(k * np.pi * (c - lo) / (hi - lo))
                                                 for (lo, hi), c, k in zip(dom.box, grids, mode)])
            dphi = _grad_norm(phi[None], dom)[0]
            den = float(np.sum((np.abs(phi) ** d.p_alpha + dphi**d.p_alpha) * w))
            best = np.maximum(best, np.abs(np.sum(dtg * (phi * w)[None], axis=spatial))
                              / den ** (1.0 / d.p_alpha))
        wt = np.full(dom.nt + 1, dom.dt)
        wt[0] = wt[-1] = 0.5 * dom.dt
        dual = float(np.sum(best**d.p_alpha_conj * wt)) ** (1.0 / d.p_alpha_conj)
        for u, eps, report in zip(fields, schedule, energy_reports(fields, cfg, schedule)):
            du = SpaceTimeField(dom, _grad_norm(u.values, dom))
            expected = dict(
                dataclasses.asdict(report),
                grad_term=(lp_norm(du, d.p_alpha) ** d.p_alpha) ** alpha_exp,
                eps_term=eps * lp_norm(du, d.q_beta) ** d.q_beta,
                eps_dg_term=eps * lp_norm(dg, d.q_beta) ** d.q_beta,
                wnorm_term=wnorm**d.p,
                dg_gamma_term=lp_norm(dg, d.gamma) ** d.time_exponent,
                dg_mu_term=mu ** (d.q - 1.0) * lp_norm(dg, d.beta_conj),
                g_sup_l2=float(np.sum(g.values**2 * w[None], axis=spatial).max()),
                dual_term=dual**d.p_conj,
            )
            assert report.grad_term > 0.0 and report.dg_gamma_term > 0.0
            assert report.g_sup_l2 > 0.0 and report.dual_term > 0.0
            assert dataclasses.asdict(report) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_datum_read_through_its_factors(self, n):
        # the report reads the datum's factors g0 and psi alone: a datum that
        # cannot be sampled gives bitwise the same reports
        class FactorsOnly(BoundaryDatum):
            def at(self, *args):
                raise AssertionError("the datum was sampled")

            sample = at

        cfg, schedule, fields = _batch_config(n)
        factors = dataclasses.replace(cfg, g=FactorsOnly(**dataclasses.asdict(cfg.g)))
        assert ([_bits(r) for r in energy_reports(fields, factors, schedule)]
                == [_bits(r) for r in energy_reports(fields, cfg, schedule)])

    def test_batched_rejects_a_field_on_another_grid(self):
        cfg, schedule, fields = _batch_config(1)
        other = constant_field(dataclasses.replace(cfg.domain, nt=8), 0.0)
        with pytest.raises(ParameterError, match="u lives on a different grid"):
            energy_reports([fields[0], other], cfg, schedule[:2])

    def test_batched_rejects_eps_values_of_another_length(self):
        # zip dropped the fields without an eps: two fields gave one report
        cfg, schedule, fields = _batch_config(1)
        with pytest.raises(ParameterError, match="2 fields but 1 eps values"):
            energy_reports([fields[0], fields[0]], cfg, schedule[:1])
        with pytest.raises(ParameterError, match="1 fields but 2 eps values"):
            energy_reports(fields[:1], cfg, schedule[:2])

    def test_zero_datum_all_zero(self):
        cfg = heat_config(nx=17, nt=16, g=BoundaryDatum(kind="zero"))
        u, _ = solve(cfg)
        e = energy_report(u, cfg)
        assert e.lhs_total == 0.0 and e.m_g == 0.0
        assert e.empirical_constant == 0.0

    def test_time_independent_dual_term_exactly_zero(self):
        cfg = nonlinear_config(nx=33, nt=32)
        u, _ = solve(cfg)
        e = energy_report(u, cfg)
        assert e.dual_term == 0.0

    def test_separable_dual_term_positive(self):
        params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0)
        spec = IntegrandSpec(
            params,
            CoefficientSpec(a=Coefficient("constant", value=1.0), b=Coefficient("constant", value=1.0)),
            eps=0.1,
        )
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=33, nt=32)
        g = BoundaryDatum(kind="separable", profile="sin", amplitude=0.5, psi=(1.0, -0.5))
        cfg = SolveConfig(dom, spec, g)
        u, _ = solve(cfg)
        e = energy_report(u, cfg)
        assert e.dual_term > 0.0

    def test_heat_energy_decay(self):
        cfg = heat_config(nx=65, nt=100)
        u, _ = solve(cfg)
        sq = np.sum(u.values**2, axis=1) * cfg.domain.dx[0]
        assert sq.argmax() == 0  # supremum attained at the initial slice

    def test_empirical_constant_bounded_for_constant_datum(self):
        cfg = heat_config(nx=33, nt=32, g=BoundaryDatum(kind="constant", value=0.7))
        u, _ = solve(cfg)
        e = energy_report(u, cfg)
        assert 0.0 < e.empirical_constant <= 1.0


class TestVariationalGap:
    @pytest.mark.parametrize("eps", [0.0, 0.125])
    @pytest.mark.parametrize("n", [1, 2])
    def test_batched_curves_equal_lone_curves(self, n, eps):
        cfg, _, fields = _batch_config(n)
        u = fields[-1]
        maps = comparison_maps(cfg) + [ComparisonMap("solution", fields[0])]
        curves = variational_gap_curves(u, maps, cfg, eps=eps)
        assert len(curves) == len(maps)
        for v, (gaps, scales) in zip(maps, curves):
            lone_gaps, lone_scales = variational_gap_curve(u, v, cfg, eps=eps)
            assert gaps.tobytes() == lone_gaps.tobytes()
            assert scales.tobytes() == lone_scales.tobytes()

    def test_batched_rejects_a_bad_map_among_good_ones(self):
        cfg, _, fields = _batch_config(1)
        maps = comparison_maps(cfg)
        bad = ComparisonMap("bad", constant_field(cfg.domain, 1.0))
        with pytest.raises(PreconditionError, match="lateral"):
            variational_gap_curves(fields[-1], maps + [bad], cfg)
        moved = ComparisonMap("moved", constant_field(dataclasses.replace(cfg.domain, nt=8), 0.0))
        with pytest.raises(ParameterError, match="v lives on a different grid"):
            variational_gap_curves(fields[-1], [*maps, moved], cfg)

    def test_gap_zero_for_v_equal_u(self):
        cfg = nonlinear_config(nx=33, nt=32)
        u, _ = solve(cfg)
        v = ComparisonMap("solution", u)
        gaps, _ = variational_gap_curve(u, v, cfg, eps=cfg.spec.eps)
        assert np.abs(gaps).max() == 0.0

    def test_trivial_constant_instance(self):
        cfg = heat_config(nx=17, nt=8, g=BoundaryDatum(kind="constant", value=2.0))
        u, _ = solve(cfg)
        v = comparison_maps(cfg)[0]  # the datum itself
        gaps, scales = variational_gap_curve(u, v, cfg)
        assert np.abs(gaps).max() < 1e-12
        assert np.all(scales >= 0.0)

    def test_heat_gap_against_zero_competitor_closed_form(self):
        cfg = heat_config(nx=129, nt=400)
        u, _ = solve(cfg)
        zero = ComparisonMap("zero", constant_field(cfg.domain, 0.0))
        tau = cfg.domain.T
        gaps, _ = variational_gap_curve(u, zero, cfg)
        got = gaps[-1]  # the gap at the final time tau
        expect = (1.0 - math.exp(-2.0 * math.pi**2 * tau)) / 8.0
        assert got == pytest.approx(expect, rel=5e-2)

    def test_nonnegative_for_solved_field_all_maps_all_times(self):
        cfg = nonlinear_config(nx=65, nt=64)
        u, _ = solve(cfg)
        for v in comparison_maps(cfg):
            gaps, scales = variational_gap_curve(u, v, cfg, eps=cfg.spec.eps)
            assert np.min(gaps / np.maximum(scales, 1e-300)) >= -1e-6

    @pytest.mark.parametrize("n", [1, pytest.param(2, marks=pytest.mark.xfail(
        strict=True, reason="the 2D step averages transverse gradients onto faces and "
                            "minimizes no discrete energy (ROADMAP item 1)"))])
    def test_first_variation_vanishes(self, n):
        # u minimizes each step's discrete energy, so against
        # v = u + delta (t/T) psi the gap is nonnegative and of order delta^2:
        # no first-order term, whose sign would follow delta's
        params = StructureParams(n=n, p=2.0, q=2.1)
        coeffs = CoefficientSpec(
            a=Coefficient("constant", value=1.0), b=Coefficient("constant", value=1.0)
        )
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=0.1, nx=65 if n == 1 else 17, nt=16)
        cfg = SolveConfig(dom, IntegrandSpec(params, coeffs, eps=0.0),
                          BoundaryDatum(kind="profile", profile="sin"), tolerance=1e-12)
        u, _ = solve(cfg)
        psi = np.ones(dom.shape[1:])
        for k, x in enumerate(dom.meshgrid()):  # asymmetric, zero on the boundary
            psi = psi * (1 + k) * x * (1 - x) ** 2
        ramp = (dom.times / dom.T).reshape((-1,) + (1,) * n)
        for sign in (1, -1):
            gaps = []
            for delta in (sign * 1e-3, sign * 1e-4):
                v = SpaceTimeField(dom, u.values + delta * ramp * psi[None])
                gap, scale = variational_gap_curve(u, ComparisonMap("psi", v), cfg)
                assert gap.min() >= -1e-10 * scale.max()
                gaps.append(gap)
            ratio = gaps[0] / gaps[1]
            assert np.all((50 <= ratio) & (ratio <= 200))

    def test_lateral_mismatch_rejected(self):
        cfg = nonlinear_config(nx=17, nt=8)
        u, _ = solve(cfg)
        bad = ComparisonMap("bad", constant_field(cfg.domain, 1.0))
        with pytest.raises(PreconditionError, match="lateral"):
            variational_gap_curve(u, bad, cfg)


class TestSteadyMaps:
    """A datum constant in time makes each comparison map without a time
    factor one read-only level broadcast over time; the cell energy and the
    gaps read such a map bitwise as they read its levels written out."""

    STEADY = {"datum", "bump", "bump-negative"}

    @staticmethod
    def _config(n, g):
        cfg = degenerate_config() if n == 1 else _probe_config_2d(2.0, 2.1, 0.8, nx=9, nt=8)
        dom = dataclasses.replace(cfg.domain, nx=33, nt=16) if n == 1 else cfg.domain
        return dataclasses.replace(cfg, domain=dom, g=g)

    @pytest.mark.parametrize("g", [
        BoundaryDatum(kind="profile", profile="sin", amplitude=0.8),
        BoundaryDatum(kind="separable", profile="bump", amplitude=-0.8, psi=(0.75, 0.0)),
        BoundaryDatum(kind="constant", value=2.0),
    ], ids=["profile", "separable", "constant"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_maps_without_a_time_factor_are_one_level(self, n, g):
        maps = comparison_maps(self._config(n, g))
        assert {v.name for v in maps} >= self.STEADY
        for v in maps:
            values = v.field.values
            assert not values.flags.writeable
            assert (values.strides[0] == 0) == (v.name in self.STEADY), v.name

    @pytest.mark.parametrize("n", [1, 2])
    def test_time_dependent_datum_stores_every_level(self, n):
        g = BoundaryDatum(kind="separable", amplitude=0.8, psi=(1.0, -0.5, 0.25))
        for v in comparison_maps(self._config(n, g)):
            assert not v.field.values.flags.writeable
            assert v.field.values.strides[0] != 0, v.name

    @pytest.mark.parametrize("psi", [(1.0,), (1.0, -0.5, 0.25)], ids=["steady", "time-dependent"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_maps_read_as_their_levels_written_out(self, n, psi):
        cfg = self._config(n, BoundaryDatum(kind="separable", amplitude=0.8, psi=psi))
        u, _ = solve(cfg)
        maps = comparison_maps(cfg)
        written = [ComparisonMap(v.name, SpaceTimeField(cfg.domain, np.array(v.field.values)))
                   for v in maps]
        scheme = _Scheme(cfg.domain, cfg.spec)
        for eps in (0.0, 0.5):
            for v, w in zip(maps, written):
                assert w.field.values.strides[0] != 0
                assert (scheme.cell_energy(v.field.values, eps).tobytes()
                        == scheme.cell_energy(w.field.values, eps).tobytes()), v.name
            for v, curve, curve_written in zip(maps, variational_gap_curves(u, maps, cfg, eps),
                                               variational_gap_curves(u, written, cfg, eps)):
                assert [a.tobytes() for a in curve] == [a.tobytes() for a in curve_written], v.name


class TestGridMismatch:
    """A diagnostic given a field on another grid than its config's raises.
    Without the check, a config on the box (0, 2) instead of (0, 1), at the
    same nx and nt, reads lhs_total 0.7377 against 0.4177, a bump gap of
    -0.0351 against +0.0476 and a weak residual of -0.0710 against 1.1e-12."""

    @pytest.fixture(scope="class")
    def solved(self):
        params = StructureParams(n=1, p=2.0, q=2.1, alpha=20.0, beta=20.0, eps=0.5)
        coeffs = CoefficientSpec(a=Coefficient("power", center=(0.505,), exponent=0.04),
                                 b=Coefficient("constant", value=1.0))
        spec = IntegrandSpec(params, coeffs, eps=0.5)
        dom = Domain(n=1, box=((0.0, 1.0),), T=0.3, nx=33, nt=16)
        cfg = SolveConfig(dom, spec, BoundaryDatum(kind="profile", profile="sin", amplitude=0.8))
        u, _ = solve(cfg)
        other = dataclasses.replace(cfg, domain=dataclasses.replace(dom, box=((0.0, 2.0),)))
        return cfg, other, u

    def test_energy_report(self, solved):
        cfg, other, u = solved
        with pytest.raises(ParameterError, match="u lives on a different grid"):
            energy_report(u, other)

    def test_variational_gap_curve(self, solved):
        cfg, other, u = solved
        bump = next(v for v in comparison_maps(cfg) if v.name == "bump")
        with pytest.raises(ParameterError, match="u lives on a different grid"):
            variational_gap_curve(u, bump, other)
        # the competitor too: u on cfg's grid, v on the other
        moved = ComparisonMap("moved", SpaceTimeField(other.domain, bump.field.values))
        with pytest.raises(ParameterError, match="v lives on a different grid"):
            variational_gap_curve(u, moved, cfg)

    def test_weak_residual(self, solved):
        cfg, other, u = solved
        dom = cfg.domain
        phi = field_from_function(
            dom, lambda x, t: np.sin(np.pi * x) ** 2 * np.sin(np.pi * t / dom.T) ** 2)
        with pytest.raises(ParameterError, match="u lives on a different grid"):
            weak_residual(u, phi, other)


class TestBoundaryDatum:
    def test_separable_values_and_derivative(self):
        dom = Domain(n=1, box=((0.0, 1.0),), T=2.0, nx=9, nt=4)
        g = BoundaryDatum(kind="separable", profile="sin", amplitude=2.0, psi=(1.0, 0.5, -0.25))
        f = g.sample(dom)
        # d_t g as the energy report's dual norm builds it
        dtg = g._g0(dom.box, dom.meshgrid()) * g._dpsi(dom.times)[:, None]
        x, t = dom.axes[0][3], dom.times[2]
        expect = 2.0 * math.sin(math.pi * x) * (1.0 + 0.5 * t - 0.25 * t**2)
        expect_dt = 2.0 * math.sin(math.pi * x) * (0.5 - 0.5 * t)
        assert f.values[2, 3] == pytest.approx(expect, rel=1e-12)
        assert dtg[2, 3] == pytest.approx(expect_dt, rel=1e-12)

    def test_time_dependence_flag(self):
        assert not BoundaryDatum(kind="profile").time_dependent
        assert not BoundaryDatum(kind="separable", psi=(2.0,)).time_dependent
        assert BoundaryDatum(kind="separable", psi=(1.0, 1.0)).time_dependent

    def test_validation(self):
        with pytest.raises(ParameterError, match="unknown boundary datum kind 'wavelet'"):
            BoundaryDatum(kind="wavelet")
        with pytest.raises(ParameterError, match="unknown boundary profile 'gauss'"):
            BoundaryDatum(kind="profile", profile="gauss")
        with pytest.raises(ParameterError, match="separable datum needs polynomial coefficients"):
            BoundaryDatum(kind="separable", psi=())
        with pytest.raises(ParameterError):
            SolveConfig(
                Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=4),
                nonlinear_config().spec,
                BoundaryDatum(kind="zero"),
                tolerance=0.0,
            )
