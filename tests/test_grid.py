"""Fields, quadrature, cylinders, norms and I/O."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqlab import (
    Cylinder,
    Domain,
    ParameterError,
    RegionError,
    SpaceTimeField,
    coefficient_norms,
    constant_field,
    cylinder_in_domain,
    ess_sup,
    field_from_function,
    load_field_dump,
    lp_norm,
    mean_integral,
    region_measure,
    save_field_csv,
    save_field_dump,
    slice_sup_l2,
    truncate_plus,
)
from pqlab.grid import _grad_magnitude, _partial, _resolve, _trapezoid_weights, boundary_frame


def unit_domain(nx=65, nt=32, T=1.0):
    return Domain(n=1, box=((0.0, 1.0),), T=T, nx=nx, nt=nt)


class TestDomainAndField:
    def test_spacing(self):
        dom = unit_domain(nx=11, nt=10, T=2.0)
        assert dom.dx == (0.1,)
        assert dom.dt == 0.2
        assert dom.shape == (11, 11)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=3, box=((0, 1),) * 3, T=1.0, nx=5, nt=4),
            dict(n=1, box=((0.0, 1.0),), T=0.0, nx=5, nt=4),
            dict(n=1, box=((0.0, 1.0),), T=1.0, nx=2, nt=4),
            dict(n=1, box=((0.0, 1.0),), T=1.0, nx=5, nt=1),
            dict(n=1, box=((1.0, 0.0),), T=1.0, nx=5, nt=4),
        ],
    )
    def test_domain_validation(self, kwargs):
        with pytest.raises(ParameterError):
            Domain(**kwargs)

    def test_box_needs_one_pair_per_axis(self):
        with pytest.raises(ParameterError, match="box must carry one \\(lo, hi\\) pair per axis"):
            Domain(n=2, box=((0.0, 1.0),), T=1.0, nx=5, nt=4)

    def test_field_shape_and_finiteness(self):
        dom = unit_domain(nx=5, nt=4)
        with pytest.raises(ParameterError, match="shape"):
            SpaceTimeField(dom, np.zeros((3, 5)))
        bad = np.zeros(dom.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            SpaceTimeField(dom, bad)

    def test_values_immutable(self):
        f = constant_field(unit_domain(nx=5, nt=4), 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


class TestQuadrature:
    def test_zero_field(self):
        assert lp_norm(constant_field(unit_domain(), 0.0), 2.0) == 0.0

    def test_constant_field_exact(self):
        dom = Domain(n=1, box=((0.0, 2.0),), T=3.0, nx=21, nt=12)
        c = constant_field(dom, 1.5)
        assert lp_norm(c, 2.0) ** 2 == pytest.approx(1.5**2 * 6.0, rel=1e-14)
        assert mean_integral(c, 2.0) == pytest.approx(1.5**2, rel=1e-14)

    def test_sine_closed_form(self):
        dom = unit_domain(nx=201, nt=8, T=2.0)
        f = field_from_function(dom, lambda x, t: np.sin(np.pi * x))
        # integral of sin^2 over (0,1) is 1/2, times T = 2
        assert lp_norm(f, 2.0) ** 2 == pytest.approx(1.0, abs=1e-4)

    def test_refinement_order_at_least_two(self):
        errs = []
        for nx in (33, 65, 129, 257):
            dom = unit_domain(nx=nx, nt=8, T=1.0)
            f = field_from_function(dom, lambda x, t: np.sin(np.pi * x) + 0.2 * np.cos(t))
            exact = 0.5 + 0.2 * 2 * (2 / np.pi) * 0.0  # placeholder, use fine reference below
            errs.append(lp_norm(f, 2.0))
        # measured convergence rate of the norm itself against the finest
        diffs = [abs(e - errs[-1]) for e in errs[:-1]]
        rates = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
        assert min(rates) >= 1.8

    def test_constant_mean_on_cylinder(self):
        dom = unit_domain(nx=41, nt=40)
        c = constant_field(dom, 2.0)
        cyl = Cylinder((0.5, 0.8), 0.25, 0.3)
        assert mean_integral(c, 3.0, cyl) == pytest.approx(8.0, rel=1e-14)

    def test_cylinder_measure_is_node_count_times_cell(self):
        dom = unit_domain(nx=41, nt=40)
        cyl = Cylinder((0.5, 0.8), 0.25, 0.3)
        xs, ts = dom.axes[0], dom.times
        count_x = int(np.sum(np.abs(xs - 0.5) < 0.25))
        count_t = int(np.sum((ts > 0.5 + 1e-12) & (ts <= 0.8 + 1e-12)))
        expect = count_x * count_t * dom.dx[0] * dom.dt
        assert region_measure(dom, cyl) == pytest.approx(expect, rel=1e-14)

    def test_empty_region_raises(self):
        dom = unit_domain(nx=5, nt=4)
        with pytest.raises(RegionError):
            lp_norm(constant_field(dom, 1.0), 2.0, Cylinder((0.51, 0.51), 1e-6, 1e-6))

    def test_lp_norm_exponent_validation(self):
        with pytest.raises(ParameterError):
            lp_norm(constant_field(unit_domain(nx=5, nt=4), 1.0), 0.5)


class TestTruncation:
    def test_examples(self):
        dom = unit_domain(nx=5, nt=4)
        assert np.all(truncate_plus(constant_field(dom, 5.0), 7.0).values == 0.0)
        assert np.all(truncate_plus(constant_field(dom, 5.0), 3.0).values == 2.0)
        ramp = field_from_function(dom, lambda x, t: x)
        top = truncate_plus(ramp, 0.5)
        assert top.values.max() == pytest.approx(0.5)
        assert np.all(top.values >= 0.0)

    @given(k1=st.floats(-3, 3), k2=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_level(self, k1, k2):
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=9, nt=4)
        f = field_from_function(dom, lambda x, t: np.sin(7 * x + t))
        lo, hi = min(k1, k2), max(k1, k2)
        assert np.all(truncate_plus(f, hi).values <= truncate_plus(f, lo).values)

    def test_truncation_at_min_shifts(self):
        dom = unit_domain(nx=9, nt=4)
        f = field_from_function(dom, lambda x, t: np.cos(3 * x) + t)
        fmin = float(f.values.min())
        assert np.allclose(truncate_plus(f, fmin).values, f.values - fmin)


class TestSupsAndGradient:
    def test_ess_sup_constant(self):
        assert ess_sup(constant_field(unit_domain(nx=5, nt=4), 3.5)) == 3.5

    def test_ess_sup_time_ramp_hits_cylinder_top(self):
        dom = unit_domain(nx=9, nt=100)
        f = field_from_function(dom, lambda x, t: t)
        cyl = Cylinder((0.5, 0.7), 0.3, 0.2)
        assert ess_sup(f, cyl) == pytest.approx(0.7, abs=1e-12)

    def test_slice_sup_l2_constant(self):
        dom = unit_domain(nx=41, nt=10)
        cyl = Cylinder((0.5, 1.0), 0.25, 0.5)
        count = int(np.sum(np.abs(dom.axes[0] - 0.5) < 0.25))
        expect = 4.0 * count * dom.dx[0]
        assert slice_sup_l2(constant_field(dom, 2.0), cyl) == pytest.approx(expect, rel=1e-14)

    def test_gradient_exact_for_linear(self):
        dom = unit_domain(nx=17, nt=4)
        f = field_from_function(dom, lambda x, t: 3.0 * x - 1.0)
        g = _partial(f, 0)
        assert g.shape == (5, 17)
        assert np.allclose(g, 3.0, atol=1e-12)
        assert np.allclose(_partial(constant_field(dom, 4.0), 0), 0.0)

    def test_gradient_second_order(self):
        errs = []
        for nx in (33, 65, 129):
            dom = unit_domain(nx=nx, nt=4)
            f = field_from_function(dom, lambda x, t: np.sin(np.pi * x))
            exact = np.pi * np.cos(np.pi * dom.axes[0])
            errs.append(np.abs(_partial(f, 0) - exact[None, :]).max())
        rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(rates) >= 1.8

    def test_gradient_2d_components(self):
        dom = Domain(n=2, box=((0.0, 1.0), (0.0, 2.0)), T=1.0, nx=9, nt=3)
        f = field_from_function(dom, lambda x, y, t: 2.0 * x + 5.0 * y)
        assert np.allclose(_partial(f, 0), 2.0) and np.allclose(_partial(f, 1), 5.0)


class TestPQGeometry:
    def test_containment(self):
        dom = unit_domain()
        assert cylinder_in_domain(dom, Cylinder((0.5, 0.9), 0.2, 0.3))
        assert not cylinder_in_domain(dom, Cylinder((0.5, 0.2), 0.2, 0.3))  # dips below t=0
        assert not cylinder_in_domain(dom, Cylinder((0.1, 0.9), 0.2, 0.3))  # leaves the box
        assert cylinder_in_domain(dom, Cylinder((0.5, 1.0), 0.2, 0.3))  # may touch t = T

    def test_short_center_rejected(self):
        # (x, t) on a 2D grid once read as the slab 0.05 < x < 0.15
        dom = Domain(n=2, box=((0.0, 1.0), (0.0, 1.0)), T=1.0, nx=21, nt=8)
        f = field_from_function(dom, lambda x, y, t: x + y + t)
        cyl = Cylinder((0.1, 0.2), 0.05, 0.1)
        with pytest.raises(ParameterError, match="needs n \\+ 1 = 3 coordinates"):
            ess_sup(f, cyl)
        with pytest.raises(ParameterError, match="needs n \\+ 1 = 3 coordinates"):
            cylinder_in_domain(dom, cyl)

    @pytest.mark.parametrize("rho, sigma", [(0.0, 0.3), (0.2, -0.3)])
    def test_nonpositive_extent_rejected(self, rho, sigma):
        with pytest.raises(ParameterError, match="cylinder needs positive rho and sigma"):
            Cylinder((0.5, 0.9), rho, sigma)

    @pytest.mark.parametrize("n,center", [(1, (0.5, 0.5, 0.9)), (2, (0.5, 0.5, 0.5, 0.9))])
    def test_long_center_rejected(self, n, center):
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=1.0, nx=9, nt=8)
        cyl = Cylinder(center, 0.2, 0.3)
        with pytest.raises(ParameterError, match=f"needs n \\+ 1 = {n + 1} coordinates"):
            region_measure(dom, cyl)
        with pytest.raises(ParameterError, match=f"needs n \\+ 1 = {n + 1} coordinates"):
            cylinder_in_domain(dom, cyl)


def _brute_force_masks(dom: Domain, cyl: Cylinder):
    """The node masks of a cylinder by a loop over the nodes: the time levels
    in (t - sigma, t] to the tolerance 1e-12 max(1, |t|, sigma), and the
    nodes with sum over the axes of (x_k - c_k)^2 below rho^2."""
    tol = 1e-12 * max(1.0, abs(cyl.t), cyl.sigma)
    tm = np.array([cyl.t - cyl.sigma + tol < t <= cyl.t + tol for t in dom.times.tolist()])
    axes = [ax.tolist() for ax in dom.axes]
    sm = np.zeros((dom.nx,) * dom.n, bool)
    for node in itertools.product(range(dom.nx), repeat=dom.n):
        dist2 = 0.0
        for ax, i, c in zip(axes, node, cyl.x):
            dist2 += (ax[i] - c) * (ax[i] - c)
        sm[node] = dist2 < cyl.rho * cyl.rho
    return tm, sm


def _resolver_cylinders(dom: Domain, rng):
    """Random cylinders, and cylinders whose radius is the distance to a node
    and whose time window ends on a grid time."""
    cylinders = []
    for _ in range(20):
        x = rng.uniform(-0.1, 1.1, dom.n)
        cylinders.append(Cylinder((*x, rng.uniform(0.2, 1.2)), rng.uniform(0.05, 0.8),
                                  rng.uniform(0.05, 0.8)))
    axes = dom.axes
    for _ in range(10):
        centre = [axes[k][rng.integers(dom.nx)] for k in range(dom.n)]
        node = [axes[k][rng.integers(dom.nx)] for k in range(dom.n)]
        rho = math.sqrt(sum((a - c) ** 2 for a, c in zip(node, centre))) or dom.dx[0]
        j = int(rng.integers(2, dom.nt + 1))
        cylinders.append(Cylinder((*centre, float(dom.times[j])), rho,
                                  float(rng.integers(1, j + 1)) * dom.dt))
    return cylinders


@pytest.mark.parametrize("n", [1, 2])
def test_resolver_matches_brute_force(n, rng):
    dom = Domain(n=n, box=((0.0, 1.0), (-0.5, 1.5))[:n], T=1.0, nx=17, nt=10)
    for cyl in _resolver_cylinders(dom, rng):
        tm, sm = _brute_force_masks(dom, cyl)
        if not tm.any() or not sm.any():
            with pytest.raises(RegionError):
                _resolve(dom, cyl)
            continue
        got_tm, got_sm = _resolve(dom, cyl)
        assert np.array_equal(got_tm, tm) and np.array_equal(got_sm, sm)
        assert region_measure(dom, cyl) == int(tm.sum()) * int(sm.sum()) * dom.cell_volume * dom.dt


class TestCoefficientNorms:
    def test_mean_raw_identity(self):
        dom = unit_domain(nx=41, nt=40)
        a = field_from_function(dom, lambda x, t: 1.0 + x)
        b = field_from_function(dom, lambda x, t: 2.0 - x)
        for region in (Cylinder((0.5, 0.9), 0.3, 0.4), Cylinder((0.4, 0.5), 0.2, 0.2)):
            norms = coefficient_norms(a, b, 7.0, 3.0, region)
            measure = region_measure(dom, region)
            assert norms.norm_a == pytest.approx(norms.raw_a / measure ** (1.0 / 7.0), rel=1e-12)
            assert norms.norm_b == pytest.approx(norms.raw_b / measure ** (1.0 / 3.0), rel=1e-12)

    def test_infinite_exponents_are_suprema(self):
        dom = unit_domain(nx=41, nt=10)
        a = field_from_function(dom, lambda x, t: 1.0 + x)
        b = field_from_function(dom, lambda x, t: 2.0 + x)
        norms = coefficient_norms(a, b, math.inf, math.inf)
        assert norms.norm_a == pytest.approx(1.0, rel=1e-12)  # sup of 1/(1+x)
        assert norms.norm_b == pytest.approx(3.0, rel=1e-12)

    def test_vanishing_a_rejected(self):
        dom = unit_domain(nx=5, nt=4)
        a = field_from_function(dom, lambda x, t: x)  # zero at the node x=0
        b = constant_field(dom, 1.0)
        with pytest.raises(ParameterError, match="vanishes"):
            coefficient_norms(a, b, 2.0, 2.0)

    @pytest.mark.parametrize("alpha", [2.0, math.inf])
    def test_zero_of_a_outside_the_region_ignored(self, alpha):
        # a vanishes at the node x = 0.125, which the region leaves out; the
        # norms are those of a field without that zero, bit for bit
        dom = unit_domain(nx=65, nt=32)
        a = field_from_function(dom, lambda x, t: np.abs(x - 0.125) ** 0.5)
        b = constant_field(dom, 1.0)
        region = Cylinder((0.75, 0.4), 0.1, 0.2)
        lifted = SpaceTimeField(dom, np.maximum(a.values, 0.5))
        assert coefficient_norms(a, b, alpha, 3.0, region) == coefficient_norms(
            lifted, b, alpha, 3.0, region)
        with pytest.raises(ParameterError, match="vanishes"):
            coefficient_norms(a, b, alpha, 3.0, Cylinder((0.125, 0.4), 0.1, 0.2))


class TestFieldIO:
    @staticmethod
    def _read_csv(f: SpaceTimeField, path):
        """Parse a field CSV and check its header and coordinate columns
        against f's domain; return the value column on the domain's shape."""
        dom = f.domain
        with open(path, encoding="ascii") as fh:
            assert fh.readline().rstrip("\n").split(",") == ["t", "x", "y"][: 1 + dom.n] + ["value"]
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        grids = np.meshgrid(dom.times, *dom.axes, indexing="ij")
        for col, g in enumerate(grids):
            assert np.array_equal(table[:, col], g.ravel())
        return table[:, -1].reshape(dom.shape)

    def test_csv_roundtrip(self, tmp_path):
        dom = Domain(n=1, box=((0.25, 1.25),), T=0.5, nx=9, nt=6)
        f = field_from_function(dom, lambda x, t: np.sin(3 * x) * (1 + t))
        path = tmp_path / "field.csv"
        save_field_csv(f, path)
        assert np.array_equal(self._read_csv(f, path), f.values)

    def test_csv_roundtrip_2d(self, tmp_path):
        dom = Domain(n=2, box=((0.0, 1.0), (0.0, 2.0)), T=0.5, nx=5, nt=3)
        f = field_from_function(dom, lambda x, y, t: x + 2 * y + t)
        path = tmp_path / "field2.csv"
        save_field_csv(f, path)
        assert np.array_equal(self._read_csv(f, path), f.values)

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        dom = Domain(n=2, box=((0.0, 1.0), (-1.0, 1.0)), T=2.0, nx=7, nt=4)
        rng = np.random.default_rng(1)
        f = SpaceTimeField(dom, rng.normal(size=dom.shape))
        path = tmp_path / "field.pqf"
        save_field_dump(f, path)
        g = load_field_dump(path)
        assert g.domain == f.domain
        assert np.array_equal(g.values, f.values)

    def test_dump_magic_checked(self, tmp_path):
        path = tmp_path / "junk.pqf"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(ParameterError, match="magic"):
            load_field_dump(path)

    @staticmethod
    def _dump_bytes(tmp_path):
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=5, nt=3)
        path = tmp_path / "field.pqf"
        save_field_dump(constant_field(dom, 2.0), path)
        return path, path.read_bytes()

    def test_dump_truncated_header_rejected(self, tmp_path):
        path, blob = self._dump_bytes(tmp_path)
        path.write_bytes(blob[:10])
        with pytest.raises(ParameterError, match="header"):
            load_field_dump(path)

    def test_dump_header_short_for_its_n_rejected(self, tmp_path):
        # n is read, but the box and T it calls for are cut short
        path, blob = self._dump_bytes(tmp_path)
        path.write_bytes(blob[:30])
        with pytest.raises(ParameterError, match="header needs 40 bytes for n = 1, got 30"):
            load_field_dump(path)

    def test_dump_short_body_rejected(self, tmp_path):
        path, blob = self._dump_bytes(tmp_path)
        path.write_bytes(blob[:-8])
        with pytest.raises(ParameterError, match="expected 160 bytes of values, got 152"):
            load_field_dump(path)

    def test_dump_size_beyond_int64_rejected(self, tmp_path):
        # 4 * 2**31 * 2**31 values wrap to 0 in int64, which an empty body matched
        path = tmp_path / "huge.pqf"
        path.write_bytes(b"PQF1" + struct.pack("<III", 2, 2**31, 3)
                         + struct.pack("<ddddd", 0.0, 1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ParameterError, match="expected 147573952589676412928 bytes"):
            load_field_dump(path)

    def test_dump_long_body_rejected(self, tmp_path):
        path, blob = self._dump_bytes(tmp_path)
        path.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(ParameterError, match="expected 160 bytes of values, got 168"):
            load_field_dump(path)


def _reference_csv(f: SpaceTimeField, path) -> None:
    """Row-at-a-time writer that save_field_csv must reproduce byte for byte."""
    dom = f.domain
    cols = ["t", "x", "y"][: 1 + dom.n] + ["value"]
    grids = np.meshgrid(dom.times, *dom.axes, indexing="ij")
    flat = [g.ravel() for g in grids] + [f.values.ravel()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*flat):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@pytest.mark.parametrize("n", [1, 2])
def test_field_csv_matches_row_writer(n, tmp_path, rng):
    dom = Domain(n=n, box=((-0.3, 1.7), (0.1, 2.0))[:n], T=0.7, nx=6, nt=5)
    signs = rng.choice([-1.0, 1.0], size=dom.shape)
    values = signs * 10.0 ** rng.uniform(-300, 300, size=dom.shape)
    values.flat[:3] = (0.0, -0.0, 1.0)
    f = SpaceTimeField(dom, values)
    save_field_csv(f, tmp_path / "fast.csv")
    _reference_csv(f, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n", [1, 2])
def test_grad_magnitude_matches_stacked_gradient(n, rng):
    # adding the squared components axis by axis rounds as the sum over the
    # stacked gradient does
    dom = Domain(n=n, box=((0.0, 1.0), (0.0, 2.0))[:n], T=1.0, nx=9, nt=3)
    f = SpaceTimeField(dom, rng.normal(size=dom.shape) * 10.0 ** rng.uniform(-5, 5, dom.shape))
    stacked = np.sqrt(np.sum(np.stack([_partial(f, k) for k in range(n)]) ** 2, axis=0))
    assert np.array_equal(_grad_magnitude(f).values, stacked)


def _reference_weights(dom: Domain):
    """Space-time and space trapezoid weights as per-dimension broadcasts,
    the formulas _trapezoid_weights must reproduce bit for bit."""
    def axis_w(k):
        w = np.ones(k)
        w[0] = w[-1] = 0.5
        return w

    wt = axis_w(dom.nt + 1) * dom.dt
    ws = axis_w(dom.nx)
    if dom.n == 1:
        return wt[:, None] * (ws * dom.dx[0])[None, :], ws * dom.dx[0]
    return (
        wt[:, None, None] * (ws * dom.dx[0])[None, :, None] * (ws * dom.dx[1])[None, None, :],
        (ws * dom.dx[0])[:, None] * (ws * dom.dx[1])[None, :],
    )


@pytest.mark.parametrize("n", [1, 2])
def test_trapezoid_weights_match_broadcast_formulas(n):
    # on this 2D grid the product time x (space weights) rounds differently
    dom = Domain(n=n, box=((0.1, 0.73), (-0.2, 0.9))[:n], T=0.37, nx=6, nt=5)
    space_time, space = _reference_weights(dom)
    assert np.array_equal(_trapezoid_weights(dom), space_time)
    assert np.array_equal(_trapezoid_weights(dom, time=False), space)


def test_boundary_frame_is_the_box_boundary():
    one = np.zeros(6, bool)
    one[0] = one[-1] = True
    two = np.zeros((6, 6), bool)
    two[0, :] = two[-1, :] = two[:, 0] = two[:, -1] = True
    for n, expect in ((1, one), (2, two)):
        dom = Domain(n=n, box=((0.0, 1.0),) * n, T=1.0, nx=6, nt=2)
        assert np.array_equal(boundary_frame(dom), expect)
