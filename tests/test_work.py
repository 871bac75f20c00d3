"""The solver's work at the benchmark's sizes, the working memory of the
diagnostics, and how often they resolve a cylinder.

The work ledger counts what the solver does on the problems of the
benchmark's three workloads: the solve-2d and sweep-1d solves and the
diagnostics-2d set-up solve.  Counts are deterministic where timings are
not, so they are the first evidence of a performance change.  Each bound is
today's count plus about 3%: NumPy and SciPy versions round differently and
may move a count by one.  A change that lowers a count tightens its bound;
one that raises a count says so and why.
"""

import tracemalloc

import numpy as np
import pytest

from pqlab import (
    Cylinder,
    Domain,
    ExperimentConfig,
    band,
    caccioppoli_sides,
    coefficient_norms,
    comparison_maps,
    degiorgi,
    energy_report,
    field_from_function,
    grid,
    harness,
    interpolation_ratio,
    lemmas,
    load_field_dump,
    mean_integral,
    save_field_dump,
    solve,
    solve_levels,
    trace,
    truncate_plus,
    variational_gap_curves,
)
from pqlab.scheme import _Scheme
from pqlab.solver import _Stepper

from conftest import TARGETS_2D
from test_harness import SWEEP_CFG
from test_solver import _count_evaluations, _probe_config_2d, degenerate_config


def _count_linear_work(monkeypatch):
    """Count the band factorizations, the float64 ones among them, their
    solves and the defect-correction solves among those from then on:
    returns the dict {"factorizations", "float64", "solves", "corrections"}."""
    counts = {"factorizations": 0, "float64": 0, "solves": 0, "corrections": 0}

    class Counted(band.BandLU):
        def __init__(self, *args):
            super().__init__(*args)
            counts["factorizations"] += 1
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


class TestWorkLedger:
    """Every 2D Newton direction is a defect correction with a float32
    factor, fresh or carried, down to the target max(floor, 1e-4 |R|) of
    inexact Newton, so every factor solve is a correction solve; a fresh
    factor takes one solve or more.  A float64 factor is made only where a
    fresh float32 one cannot correct, and its one direct solve is then the
    direction; that happens on none of these problems.  Before float32
    factors each fresh factor took exactly one direct solve: 407 solves on
    solve-2d and 272 on the diagnostics-2d set-up, with 12 and 14
    factorizations.  While every correction ran down to the floor, they
    took 104 and 70 Newton iterations, 12 and 15 factorizations and 414 and
    283 solves, and solve-2d evaluated 231 member rows: the forcing term
    costs 3 iterations and 5 rows for 35-40% fewer solves."""

    def test_solve_2d(self, monkeypatch):
        # p = 2, q = 2.1, alpha = beta = 20 at 65^2 x 64: 107 Newton
        # iterations, 8 band factorizations, 260 factor solves and 236
        # member rows evaluated
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=65, nt=64, alpha=20.0)
        counts = _count_linear_work(monkeypatch)
        evaluations = _count_evaluations(monkeypatch)
        _, stats = solve(cfg)
        assert stats.total_iterations <= 107
        assert counts["factorizations"] <= 9
        assert counts["float64"] == 0
        assert counts["solves"] == counts["corrections"] <= 268
        assert evaluations["rows"] <= 238

    def test_diagnostics_2d_setup(self, monkeypatch):
        # the diagnostics-2d set-up solve, the same problem at 33^2 x 32: 73
        # Newton iterations, 10 band factorizations and 179 factor solves
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=33, nt=32, alpha=20.0)
        counts = _count_linear_work(monkeypatch)
        _, stats = solve(cfg)
        assert stats.total_iterations <= 75
        assert counts["factorizations"] <= 11
        assert counts["float64"] == 0
        assert counts["solves"] == counts["corrections"] <= 185

    def test_two_members_17(self, monkeypatch):
        # the same problem at 17^2 x 8 with eps 0.5 and 0.25, solved
        # together: 27 and 26 Newton iterations, 14 band factorizations and
        # 131 factor solves, against 26 and 25, 18 and 202 at the floor,
        # where a step's second iteration took 8-12 correction solves
        cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=17, nt=8, alpha=20.0)
        counts = _count_linear_work(monkeypatch)
        results, failure = solve_levels(cfg, [0.5, 0.25])
        assert failure is None and len(results) == 2
        assert sum(stats.total_iterations for _, stats in results) <= 55
        assert counts["factorizations"] <= 15
        assert counts["float64"] == 0
        assert counts["solves"] == counts["corrections"] <= 135

    def test_sweep_1d(self, monkeypatch):
        # the degenerate 1D preset at 65 x 256 and six eps-levels, solved
        # together: 269 batched Newton iterations, one tridiagonal solve
        # each, and 281 evaluations of the residual over 4662 member rows
        directions = []
        newton_direction = _Stepper.newton_direction

        def counted(self, it, t, members):
            directions.append(len(members))
            return newton_direction(self, it, t, members)

        monkeypatch.setattr(_Stepper, "newton_direction", counted)
        evaluations = _count_evaluations(monkeypatch)
        results, failure = solve_levels(degenerate_config(), [0.5 / 2**k for k in range(6)])
        assert failure is None and len(results) == 6
        assert len(directions) <= 277
        assert evaluations["calls"] <= 290
        assert evaluations["rows"] <= 4802


def _cylinders():
    center = (0.5, 0.5, 0.12)
    return Cylinder(center, 0.2, 0.05), Cylinder(center, 0.4, 0.1)


def _peak_bytes(fn):
    """Peak traced memory of a call above what was traced before it, after
    one untraced call that pays for lazy caches."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """The diagnostics' temporaries are blocks of time levels, not copies of
    the field (287,496 bytes here).  The peaks before blocking were
    2,841,881 bytes for the six gap curves, 1,293,784 for the energy report
    and 1,266,880 for the Caccioppoli sides; now they are about 860,000,
    837,000 and 432,000.  The gap curves' peak holds one block's energy
    density, formed in one output and one scratch array; it was about
    979,000 while each term of the formula took a new array and every map
    held all its levels."""

    def test_gap_curves(self, diagnostics_field):
        cfg, u = diagnostics_field
        maps = comparison_maps(cfg)
        assert len(maps) == 6
        assert _peak_bytes(lambda: variational_gap_curves(u, maps, cfg, eps=0.5)) < 880 * 1024

    def test_fields_made_for_a_result(self, diagnostics_field):
        # each result is formed in the array its field keeps: the maps
        # returned hold three fields here (three maps are one level each),
        # and the peak adds the one being formed, numpy's broadcast buffers
        # and the validity mask; it was 9.14 fields while each map was copied
        # from g + extra.  A truncation or a mollification adds its validity
        # mask to its field; each was about 2 fields with the copy
        cfg, u = diagnostics_field
        size = u.values.nbytes
        assert _peak_bytes(lambda: comparison_maps(cfg)) < 3.5 * size
        assert _peak_bytes(lambda: truncate_plus(u, 0.1)) < 1.25 * size
        assert _peak_bytes(lambda: lemmas.mollify_time(u, 0.05)) < 1.25 * size

    def test_energy_report(self, diagnostics_field):
        # the datum's terms are taken on one level, so the peak is the
        # field's: its gradient norm, one weighted power of that and one
        # block's temporaries, about 2.91 fields here, against 3.45 while
        # the datum and its gradient norm were sampled over the grid
        cfg, u = diagnostics_field
        assert _peak_bytes(lambda: energy_report(u, cfg)) < 3.0 * u.values.nbytes

    def test_caccioppoli_sides(self, diagnostics_field):
        cfg, u = diagnostics_field
        spec = cfg.spec
        inner, outer = _cylinders()
        norms = coefficient_norms(spec.coeffs.a.sample(u.domain), spec.coeffs.b.sample(u.domain),
                                  20.0, 20.0, outer)
        assert _peak_bytes(lambda: caccioppoli_sides(
            u, 0.0, inner, outer, norms, spec.d, mu=0.0, eps=0.5)) < 512 * 1024

    def test_field_dump(self, diagnostics_field, tmp_path):
        # the dump writes the field's own buffer: no copy of the values
        _, u = diagnostics_field
        path = tmp_path / "u.pqf"
        assert _peak_bytes(lambda: save_field_dump(u, path)) < 0.05 * u.values.nbytes
        assert path.read_bytes()[-u.values.nbytes:] == u.values.astype("<f8").tobytes()

    def test_fields_keep_the_arrays_made_for_them(self, diagnostics_field, tmp_path):
        # a loaded dump keeps the bytes read from the file, and a march its
        # stack of levels: neither copies them into its fields.  The dump's
        # peak adds the finiteness mask (1/8 field), and the march's its
        # Newton histories (about 0.6 stacks); a copy added one more
        _, u = diagnostics_field
        path = tmp_path / "u.pqf"
        save_field_dump(u, path)
        assert _peak_bytes(lambda: load_field_dump(path)) < 1.25 * u.values.nbytes
        cfg, schedule = degenerate_config(), [0.5, 0.25, 0.125]
        stack = sum(f.values.nbytes for f, _ in solve_levels(cfg, schedule)[0])
        assert _peak_bytes(lambda: solve_levels(cfg, schedule)) < 1.8 * stack

    @pytest.mark.parametrize("block_bytes", [1, 2**40], ids=["one-level", "one-block"])
    def test_blocks_change_no_result(self, block_bytes, diagnostics_field, monkeypatch):
        # 33 levels take three blocks; blocks of one level and a single block
        # give bitwise the same gaps, energy and Caccioppoli sides
        cfg, u = diagnostics_field
        spec = cfg.spec
        inner, outer = _cylinders()
        norms = coefficient_norms(spec.coeffs.a.sample(u.domain), spec.coeffs.b.sample(u.domain),
                                  20.0, 20.0, outer)
        maps = comparison_maps(cfg)

        def outputs():
            return (b"".join(a.tobytes() for curve in variational_gap_curves(u, maps, cfg, eps=0.5)
                             for a in curve),
                    repr(energy_report(u, cfg)),
                    repr(_Scheme(u.domain, spec).cell_energy(u.values, 0.5).tolist()),
                    repr(caccioppoli_sides(u, 0.0, inner, outer, norms, spec.d, mu=0.0, eps=0.5)))

        assert len(grid._level_blocks(u.values)) > 1
        blocked = outputs()
        monkeypatch.setattr(grid, "_BLOCK_BYTES", block_bytes)
        assert outputs() == blocked


def _count_resolves(monkeypatch):
    """The region of every grid._resolve call from then on, through each
    module that imports it."""
    regions = []
    resolve = grid._resolve

    def counted(domain, region):
        regions.append(region)
        return resolve(domain, region)

    for module in (grid, degiorgi, lemmas, harness):
        monkeypatch.setattr(module, "_resolve", counted)
    return regions


class TestEachCylinderResolvedOnce:
    """A cylinder's node masks and measure come from one _resolve call, so a
    diagnostic resolves each cylinder it reads once per call.  Before, the
    measure was a second call: 58 calls per diagnostics-2d op and 66 per
    sweep-1d op, now 32 and 9."""

    def test_caccioppoli_sides(self, diagnostics_field, monkeypatch):
        # a level above the field's maximum takes the early return, which
        # also reads the outer cylinder's measure
        cfg, u = diagnostics_field
        spec = cfg.spec
        inner, outer = _cylinders()
        norms = coefficient_norms(spec.coeffs.a.sample(u.domain), spec.coeffs.b.sample(u.domain),
                                  20.0, 20.0, outer)
        regions = _count_resolves(monkeypatch)
        for k in (0.0, 0.4, 2.0):
            regions.clear()
            caccioppoli_sides(u, k, inner, outer, norms, spec.d, mu=0.0, eps=0.5)
            assert regions == [inner, outer]

    def test_trace(self, diagnostics_field, monkeypatch):
        cfg, u = diagnostics_field
        regions = _count_resolves(monkeypatch)
        tr = trace(u, _cylinders()[1], 0.3, cfg.spec.d)
        assert len(tr.x_i) > 2
        assert len(regions) == len(set(regions)) == len(tr.x_i)

    def test_interpolation_ratio_and_mean(self, monkeypatch):
        dom = Domain(n=1, box=((0.0, 1.0),), T=1.0, nx=129, nt=32)
        v = field_from_function(dom, lambda x, t: np.sin(np.pi * x) * (1 + 0.5 * t))
        cyl = Cylinder((0.5, 1.0), 0.5 + 1e-9, 0.6)
        regions = _count_resolves(monkeypatch)
        assert 0.0 < interpolation_ratio(v, cyl, 1.9) < float("inf")
        assert regions == [cyl]
        regions.clear()
        mean_integral(v, 2.0, cyl)
        assert regions == [cyl]

    def test_whole_box_mean_resolves_nothing(self, monkeypatch):
        # the box's measure is read from its lengths: no node masks
        dom = Domain(n=2, box=((0.0, 1.0), (0.0, 0.7)), T=0.5, nx=9, nt=4)
        v = field_from_function(dom, lambda x, y, t: np.sin(np.pi * x) * y * (1 + t))
        through_masks = grid._integrate_power(v.values, 2.0, dom) / grid.region_measure(dom, None)
        regions = _count_resolves(monkeypatch)
        assert mean_integral(v, 2.0) == through_masks
        assert regions == []

    @pytest.mark.parametrize("n_fields", [1, 3])
    def test_target_bounds(self, n_fields, diagnostics_field, monkeypatch):
        # the base cylinder and its top half, once per target for all fields
        cfg, u = diagnostics_field
        ecfg = ExperimentConfig(params=cfg.spec.params, domain=cfg.domain,
                                coeffs=cfg.spec.coeffs, g=cfg.g, targets=TARGETS_2D)
        regions = _count_resolves(monkeypatch)
        reports = harness.target_bounds(ecfg, [u] * n_fields)
        assert len(reports) == n_fields and all(len(r) == len(TARGETS_2D) for r in reports)
        assert len(regions) == len(set(regions)) == 2 * len(TARGETS_2D)

    def test_sweep(self, tmp_path, monkeypatch):
        # a sweep-1d op on its three targets: each half cylinder is resolved
        # at load, where an empty one names its config line, and in
        # run_sweep with its base cylinder for the sup-bound check, whose
        # nodes also make the Cauchy set K; building K resolved them again,
        # 12 calls in all
        path = tmp_path / "sweep.cfg"
        path.write_text(SWEEP_CFG.replace("nt = 32", "nt = 64").replace(
            "cylinder1 = 0.5 0.12 0.2",
            "cylinder1 = 0.5 0.12 0.2\ncylinder2 = 0.45 0.2 0.15\ncylinder3 = 0.55 0.28 0.12"))
        regions = _count_resolves(monkeypatch)
        cfg = harness.load_config(path)
        assert len(regions) == len(cfg.targets) == 3
        report = harness.run_sweep(cfg)
        assert report.failure is None and len(report.cauchy) == 2
        assert len(regions) == 9
