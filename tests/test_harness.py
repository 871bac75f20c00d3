"""Config ingestion, sweeps, report emission, CLI entry points."""

import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from pqlab import (
    ConfigError,
    ParameterError,
    StepFailure,
    SweepReport,
    comparison_maps,
    emit_config,
    energy_report,
    load_config,
    run_sweep,
    solve,
    variational_gap_curve,
    verify_sup_bound,
)
from pqlab import harness
from pqlab.cli import main as cli_main
from pqlab.harness import bound_csv_header, emit_reports

MINIMAL = """\
[structure]
n = 1
p = 2.0
q = 2.1
alpha = 20.0
beta = 20.0

[domain]
box = 0.0 1.0
T = 0.3
nx = 33
nt = 32
"""

SWEEP_CFG = """\
[structure]
n = 1
p = 2.0
q = 2.1
alpha = 20.0
beta = 20.0
mu = 0.0
eps = 0.25

[domain]
box = 0.0 1.0
T = 0.3
nx = 33
nt = 32

[coefficients]
a_kind = power
a_center = 0.505
a_exponent = 0.04
b_kind = constant
b_value = 1.0

[boundary]
kind = profile
profile = sin
amplitude = 0.8

[sweep]
eps0 = 0.25
levels = 3

[targets]
cylinder1 = 0.5 0.12 0.2

[output]
directory = out
seed = 11
"""

# SWEEP_CFG with two targets, and its 2D form on a coarser grid
TWO_TARGETS = SWEEP_CFG.replace("cylinder1 = 0.5 0.12 0.2",
                                "cylinder1 = 0.5 0.12 0.2\ncylinder2 = 0.45 0.2 0.15")
TWO_TARGETS_2D = (
    TWO_TARGETS.replace("n = 1", "n = 2").replace("box = 0.0 1.0", "box = 0.0 1.0 0.0 1.0")
    .replace("a_center = 0.505", "a_center = 0.505 0.505")
    .replace("nx = 33", "nx = 17").replace("nt = 32", "nt = 16").replace("levels = 3", "levels = 2")
    .replace("cylinder1 = 0.5 0.12", "cylinder1 = 0.5 0.5 0.12")
    .replace("cylinder2 = 0.45 0.2", "cylinder2 = 0.45 0.55 0.2")
)

# every section and every kind of key, written out of canonical order and
# with non-canonical numerals; EVERY_KEY_CANONICAL is what emit_config makes
# of it
EVERY_KEY = """\
# a 2D problem with every section
[output]
seed = 7
directory = every_out

[structure]
n = 2
q = 2.1
p = 2
alpha = inf
beta = 2e1
mu = 0.25
eps = 0.125

[domain]
box = 0 1 -0.5 0.5
T = 0.3
nx = 17
nt = 16

[coefficients]
b_kind = power
b_center = 0.505 0.01
b_exponent = 0.5
b_floor = 1e-3
a_kind = checkerboard
a_lo = 0.5
a_hi = 3
a_width = 0.125
a_origin = 0.0625

[boundary]
kind = separable
profile = bump
amplitude = 0.8
mode = 2
psi = 1 -0.5 0.25

[sweep]
eps0 = 0.25
levels = 3

[targets]
cylinder2 = 0.45 0.05 0.25 0.15
cylinder1 = 0.5 0.0 0.2 0.2

[calibration]
c_cal = 2.5

[solver]
tolerance = 1e-9
max_iter = 40
"""

EVERY_KEY_CANONICAL = """\
[structure]
n = 2
p = 2.0
q = 2.1
alpha = inf
beta = 20.0
mu = 0.25
eps = 0.125

[domain]
box = 0.0 1.0 -0.5 0.5
T = 0.3
nx = 17
nt = 16

[coefficients]
a_kind = checkerboard
a_lo = 0.5
a_hi = 3.0
a_width = 0.125
a_origin = 0.0625
b_kind = power
b_center = 0.505 0.01
b_exponent = 0.5
b_floor = 0.001

[boundary]
kind = separable
profile = bump
amplitude = 0.8
mode = 2
value = 0.0
psi = 1.0 -0.5 0.25

[sweep]
eps0 = 0.25
levels = 3

[targets]
cylinder1 = 0.5 0.0 0.2 0.2
cylinder2 = 0.45 0.05 0.25 0.15

[calibration]
c_cal = 2.5

[solver]
tolerance = 1e-09
max_iter = 40

[output]
directory = every_out
seed = 7
"""

# `pqlab derive --n 2 --p 2 --q 2.1 --alpha 20 --beta 20`
DERIVE_REFERENCE = """\
{
  "chain": {
    "gamma": 2.6845637583892628,
    "gamma_over_beta_conj": 2.5503355704698,
    "lower": 2.0,
    "p_alpha_ratio": 2.3668639053254443,
    "p_ratio": 2.2222222222222223,
    "q": 2.1
  },
  "exponents": {
    "beta_conj": 1.0526315789473684,
    "gamma": 2.6845637583892628,
    "kappa": 0.5767195767195763,
    "m": 3.8095238095238093,
    "p_alpha": 1.9047619047619047,
    "p_alpha_conj": 2.105263157894737,
    "p_conj": 2.0,
    "q_beta": 2.210526315789474,
    "q_beta_conj": 1.826086956521739,
    "q_equals_p": false,
    "theta1": 0.5369318181818189,
    "theta2": 1.19318181818182,
    "theta3": 0.32514204545454567
  },
  "gap": {
    "coefficient_floor": 0.75,
    "coefficient_product": 0.9047619047619048,
    "implied_restriction_ok": true,
    "margin": 0.20952380952380945,
    "ok": true,
    "rhs": 2.3095238095238093
  },
  "params": {
    "alpha": 20.0,
    "beta": 20.0,
    "eps": 0.0,
    "mu": 0.0,
    "n": 2,
    "p": 2.0,
    "q": 2.1
  }
}
"""

# nt = 16 puts no time node in (0.2 - sigma, 0.2] for rho = 0.1
MINIMAL_2D = MINIMAL.replace("n = 1", "n = 2").replace("box = 0.0 1.0", "box = 0.0 1.0 0.0 1.0")

NODELESS_TARGET = MINIMAL.replace("alpha = 20.0\nbeta = 20.0\n", "").replace(
    "nx = 33\nnt = 32\n", "nx = 17\nnt = 16\n\n[targets]\ncylinder1 = 0.5 0.2 0.1\n"
)


def readme_config() -> str:
    """The ini block of the README's "Config format" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"^```ini\n(.*?)^```", readme, re.S | re.M).group(1)


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfig:
    def test_minimal_parses_with_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.params.q == 2.1
        assert cfg.g.kind == "zero"
        assert cfg.levels == 4 and cfg.c_cal == 1.0

    def test_missing_required_key_named(self, tmp_path):
        broken = MINIMAL.replace("q = 2.1\n", "")
        with pytest.raises(ConfigError, match="'q'"):
            load_config(write(tmp_path, broken))

    def test_unknown_key_reports_line(self, tmp_path):
        broken = MINIMAL + "\n[solver]\nvelocity = 3\n"
        with pytest.raises(ConfigError, match="line 15.*velocity"):
            load_config(write(tmp_path, broken))

    def test_unknown_section_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            load_config(write(tmp_path, "[warp]\nfactor = 9\n"))

    def test_bad_value_reports_line(self, tmp_path):
        broken = MINIMAL.replace("nx = 33", "nx = thirty")
        with pytest.raises(ConfigError, match="line 11.*nx"):
            load_config(write(tmp_path, broken))

    @pytest.mark.parametrize("text,line,message", [
        (MINIMAL + "nx 65\n", 13, "expected 'key = value', got 'nx 65'"),
        ("n = 1\n" + MINIMAL, 1, "key outside of any [section]"),
        (MINIMAL + "\n[targets]\nzone1 = 0.5 0.12 0.2\n", 15,
         "unknown key 'zone1' in [targets] (expected cylinder<N>)"),
        (MINIMAL.replace("nx = 33", "nx = 33.5"), 11, "bad value for 'nx': '33.5' is not an integer"),
        (MINIMAL + "\n[targets]\ncylinder1 = 0.5 early 0.2\n", 15,
         "bad target 'cylinder1': could not convert string to float: 'early'"),
        (MINIMAL + "\n[targets]\ncylinder1 = 0.5 0.12\n", 15,
         "target 'cylinder1' needs 3 numbers (x t rho)"),
    ], ids=["no-equals", "no-section", "targets-key", "non-integer", "non-numeric-target",
            "target-length"])
    def test_malformed_line_named(self, text, line, message, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write(tmp_path, text))
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"

    def test_duplicate_key_rejected(self, tmp_path):
        broken = MINIMAL + "nt = 64\n"
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write(tmp_path, broken))

    def test_gap_violation_rejected(self, tmp_path):
        broken = MINIMAL.replace("q = 2.1", "q = 2.5")
        with pytest.raises(ParameterError, match="gap"):
            load_config(write(tmp_path, broken))

    def test_target_outside_domain_rejected(self, tmp_path):
        broken = SWEEP_CFG.replace("cylinder1 = 0.5 0.12 0.2", "cylinder1 = 0.5 0.02 0.2")
        with pytest.raises(ConfigError, match="cylinder1"):
            load_config(write(tmp_path, broken))

    def test_target_without_nodes_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="line 13: target 'cylinder1'.*no grid node"):
            load_config(write(tmp_path, NODELESS_TARGET))

    @pytest.mark.parametrize("rho", ["0", "-0.2"])
    def test_nonpositive_target_radius_names_key_and_line(self, rho, tmp_path):
        text = MINIMAL_2D + f"\n[targets]\ncylinder1 = 0.5 0.5 0.12 {rho}\n"  # line 15
        with pytest.raises(ConfigError, match="line 15: target 'cylinder1'.*radius"):
            load_config(write(tmp_path, text))

    def test_box_of_wrong_length_reports_line(self, tmp_path):
        text = MINIMAL_2D.replace("box = 0.0 1.0 0.0 1.0", "box = 0.0 1.0 0.0")
        with pytest.raises(ConfigError, match="line 9: box needs 4 numbers for n = 2, got 3"):
            load_config(write(tmp_path, text))

    def test_empty_output_directory_rejected(self, tmp_path):
        broken = MINIMAL + "\n[output]\ndirectory =\n"
        with pytest.raises(ConfigError, match="line 15: .*'directory'"):
            load_config(write(tmp_path, broken))

    @pytest.mark.parametrize("block,key,line", [
        ("b_kind = constant\nb_value = 1.0\nb_exponent = 3.0\n", "b_exponent", 22),
        ("b_kind = power\nb_center = 0.5\nb_value = 2.0\n", "b_value", 22),
        ("b_kind = checkerboard\nb_center = 0.5\n", "b_center", 21),
    ])
    def test_coefficient_key_its_kind_does_not_read_rejected(self, block, key, line, tmp_path):
        broken = SWEEP_CFG.replace("b_kind = constant\nb_value = 1.0\n", block)
        with pytest.raises(ConfigError, match=f"line {line}: .*'{key}'"):
            load_config(write(tmp_path, broken))

    def test_power_center_needs_n_numbers(self, tmp_path):
        text = MINIMAL_2D + "\n[coefficients]\na_kind = power\na_exponent = 0.04\n"
        with pytest.raises(ConfigError, match="'a_center'"):
            load_config(write(tmp_path, text))
        short = text + "a_center = 0.505\n"  # line 17
        with pytest.raises(ConfigError, match="line 17: .*'a_center'.*2 numbers"):
            load_config(write(tmp_path, short))
        cfg = load_config(write(tmp_path, text + "a_center = 0.505 0.505\n"))
        assert cfg.coeffs.a.center == (0.505, 0.505)

    @pytest.mark.parametrize("old,new,message", [
        ("b_value = 1.0", "b_value = -1",
         r"line 20: \[coefficients\] b_\*: constant coefficient must be nonnegative"),
        ("a_kind = power", "a_kind =",
         r"line 17: \[coefficients\] a_\*: unknown coefficient kind ''"),
        ("nx = 33", "nx = 2", r"line 11: \[domain\]: need nx >= 3 nodes per axis, got 2"),
        ("b_value = 1.0", "b_value = nan",
         r"line 20: \[coefficients\] b_\*: value must be finite, got nan"),
        ("a_exponent = 0.04", "a_exponent = nan",
         r"line 17: \[coefficients\] a_\*: exponent must be finite, got nan"),
        ("a_center = 0.505", "a_center = nan",
         r"line 17: \[coefficients\] a_\*: center must be finite, got \(nan,\)"),
        ("amplitude = 0.8", "amplitude = inf",
         r"line 24: \[boundary\]: amplitude must be finite, got inf"),
        ("kind = profile", "kind = separable\npsi = 1.0 inf",
         r"line 24: \[boundary\]: psi must be finite, got \(1.0, inf\)"),
    ], ids=["b_value", "a_kind", "nx", "b_value-nan", "a_exponent-nan", "a_center-nan",
            "amplitude-inf", "psi-inf"])
    def test_range_error_names_section_and_line(self, old, new, message, tmp_path):
        # the line is that of the group's first key: b_kind, a_kind, box
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, SWEEP_CFG.replace(old, new)))

    @pytest.mark.parametrize("old,new,message", [
        ("levels = 3", "levels = 0", r"line 29: \[sweep\]: levels must be at least 1, got 0"),
        ("levels = 3", "levels = -3", r"line 29: \[sweep\]: levels must be at least 1, got -3"),
        ("eps0 = 0.25", "eps0 = 2", r"line 29: \[sweep\]: eps must lie in \[0, 1\], got 2.0"),
        ("seed = 11\n", "seed = 11\n\n[calibration]\nc_cal = -5\n",
         r"line 40: \[calibration\]: c_cal must be positive and finite, got -5.0"),
        ("seed = 11\n", "seed = 11\n\n[solver]\ntolerance = -1\n",
         r"line 40: \[solver\]: tolerance must be positive and finite, got -1.0"),
        ("seed = 11\n", "seed = 11\n\n[solver]\nmax_iter = 0\n",
         r"line 40: \[solver\]: max_iter must be at least 1"),
        ("seed = 11\n", "seed = 11\n\n[calibration]\nc_cal = inf\n",
         r"line 40: \[calibration\]: c_cal must be positive and finite, got inf"),
        ("seed = 11\n", "seed = 11\n\n[solver]\ntolerance = inf\n",
         r"line 40: \[solver\]: tolerance must be positive and finite, got inf"),
        ("seed = 11\n", "seed = 11\n\n[solver]\ntolerance = nan\n",
         r"line 40: \[solver\]: tolerance must be positive and finite, got nan"),
    ], ids=["levels-0", "levels-negative", "eps0", "c_cal", "tolerance", "max_iter", "c_cal-inf",
            "tolerance-inf", "tolerance-nan"])
    def test_run_range_error_names_section_and_line(self, old, new, message, tmp_path):
        with pytest.raises(ConfigError, match=message):
            load_config(write(tmp_path, SWEEP_CFG.replace(old, new)))

    def test_readme_example_parses(self, tmp_path):
        cfg = load_config(write(tmp_path, readme_config()))
        assert cfg.coeffs.a.kind == "power" and cfg.g.kind == "profile"
        assert cfg.levels == 6 and cfg.seed == 1234

    def test_canonical_emission_of_every_key(self, tmp_path):
        cfg = load_config(write(tmp_path, EVERY_KEY))
        emit_config(cfg, tmp_path / "echo.cfg")
        assert (tmp_path / "echo.cfg").read_text(encoding="utf-8") == EVERY_KEY_CANONICAL
        assert load_config(tmp_path / "echo.cfg") == cfg

    def test_roundtrip_byte_identical(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        p1, p2 = tmp_path / "echo1.cfg", tmp_path / "echo2.cfg"
        emit_config(cfg, p1)
        emit_config(load_config(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_infinite_exponents_roundtrip(self, tmp_path):
        text = MINIMAL.replace("alpha = 20.0", "alpha = inf").replace("beta = 20.0", "beta = inf")
        cfg = load_config(write(tmp_path, text))
        assert math.isinf(cfg.params.alpha)
        p1 = tmp_path / "echo.cfg"
        emit_config(cfg, p1)
        assert math.isinf(load_config(p1).params.alpha)


class TestSweep:
    def test_sweep_report_contents(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        report = run_sweep(cfg)
        assert len(report.levels) == 3
        assert [lv.eps for lv in report.levels] == [0.25, 0.125, 0.0625]
        assert len(report.cauchy) == 2
        assert report.cauchy[1] < report.cauchy[0]
        assert report.i_o == 0
        assert report.all_bounds_pass
        assert report.min_normalized_gap >= -1e-6
        assert report.ess_sup_K > 0

    def test_zero_datum_trivial(self, tmp_path):
        text = SWEEP_CFG.replace("kind = profile", "kind = zero")
        cfg = load_config(write(tmp_path, text))
        report = run_sweep(cfg)
        assert all(np.all(lv.field.values == 0.0) for lv in report.levels)
        assert report.all_bounds_pass
        assert report.cauchy == [0.0, 0.0]

    def test_levels_match_lone_solves(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        report = run_sweep(cfg)
        assert len(report.levels) == cfg.levels
        for lv in report.levels:
            u, stats = solve(cfg.solve_config(lv.eps))
            assert np.array_equal(lv.field.values, u.values)
            assert lv.iterations == stats.iterations

    def test_emitted_reports_deterministic(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        emit_reports(run_sweep(cfg), out1)
        emit_reports(run_sweep(cfg), out2)
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("text", [TWO_TARGETS, TWO_TARGETS_2D], ids=["1d", "2d"])
    def test_batched_diagnostics_equal_the_one_field_forms(self, text, tmp_path):
        # the sweep takes each diagnostic of all its levels or maps in one
        # call; every report is bitwise the one-field form's
        cfg = load_config(write(tmp_path, text))
        report = run_sweep(cfg)
        assert len(report.levels) == cfg.levels and len(cfg.targets) == 2

        def bits(record):
            return repr(dataclasses.astuple(record))

        for lv in report.levels:
            scfg = cfg.solve_config(lv.eps)
            assert bits(lv.energy) == bits(energy_report(lv.field, scfg))
            lone = [verify_sup_bound(lv.field, center, rho, sigma, scfg.spec, cfg.c_cal)
                    for center, rho, sigma in cfg.target_cylinders()]
            assert [bits(b) for b in lv.bounds] == [bits(b) for b in lone]
        last = report.levels[-1]
        scfg = cfg.solve_config(last.eps)
        maps = comparison_maps(scfg)
        assert [name for name, *_ in report.varsol] == [v.name for v in maps]
        for (_, _, gaps, scales), v in zip(report.varsol, maps):
            lone_gaps, lone_scales = variational_gap_curve(last.field, v, scfg, eps=0.0)
            assert gaps.tobytes() == lone_gaps.tobytes()
            assert scales.tobytes() == lone_scales.tobytes()

    def test_nan_gap_is_the_minimum_and_written_as_null(self, tmp_path):
        # min(inf, nan) is inf in Python, so a NaN gap used to vanish from
        # the minimum and criterion 9 passed without it
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        taus = np.array([0.1, 0.2])

        def curve(name, gaps):
            return (name, taus, np.array(gaps), np.ones(2))

        report = SweepReport(config=cfg, varsol=[curve("a", [0.1, np.nan]), curve("b", [0.2, 0.3])])
        assert math.isnan(report.min_normalized_gap)
        report.varsol.reverse()
        assert math.isnan(report.min_normalized_gap)
        emit_reports(report, tmp_path / "out")

        def bare(constant):
            raise AssertionError(f"manifest.json holds a bare {constant}, which is not JSON")

        text = (tmp_path / "out" / "manifest.json").read_text()
        assert json.loads(text, parse_constant=bare)["min_normalized_gap"] is None
        assert SweepReport(config=cfg, varsol=[curve("b", [0.2, 0.3]), curve("c", [0.5, -0.1])]
                           ).min_normalized_gap == -0.1
        assert SweepReport(config=cfg).min_normalized_gap == math.inf

    def test_failed_level_keeps_the_solved_ones(self, tmp_path, monkeypatch):
        # a level that fails ends the schedule: the diagnostics take the
        # levels before it, at their own eps
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        solve_levels = harness.solve_levels

        def fail_at_third(scfg, schedule):
            results, _ = solve_levels(scfg, schedule[:2])
            return results, StepFailure("stalled", t=0.1)

        monkeypatch.setattr(harness, "solve_levels", fail_at_third)
        report = run_sweep(cfg)
        assert report.failure == "stalled"
        assert [lv.eps for lv in report.levels] == [0.25, 0.125]
        for lv in report.levels:
            assert lv.energy == energy_report(lv.field, cfg.solve_config(lv.eps))

    def test_i_o_matches_thresholds(self, tmp_path):
        cfg = load_config(write(tmp_path, SWEEP_CFG))
        report = run_sweep(cfg)
        expected = None
        for lv in report.levels:
            if all(b.eps <= b.eps_threshold for b in lv.bounds):
                expected = lv.index
                break
        assert report.i_o == expected


class TestCLI:
    def test_derive_json(self, capsys):
        assert cli_main(["derive", "--n", "2", "--p", "2", "--q", "2.1",
                         "--alpha", "20", "--beta", "20"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["gap"]["ok"]
        assert record["exponents"]["kappa"] == pytest.approx(109.0 / 189.0, abs=1e-13)

    def test_derive_output_text(self, capsys):
        assert cli_main(["derive", "--n", "2", "--p", "2", "--q", "2.1",
                         "--alpha", "20", "--beta", "20"]) == 0
        assert capsys.readouterr().out == DERIVE_REFERENCE

    def test_derive_gap_failure_exit_code(self, capsys):
        assert cli_main(["derive", "--n", "2", "--p", "2", "--q", "2.5"]) == 3
        record = json.loads(capsys.readouterr().out)
        assert not record["gap"]["ok"]

    def test_derive_bad_params_exit_code(self, capsys):
        assert cli_main(["derive", "--n", "2", "--p", "1.0", "--q", "2.0"]) == 3

    def test_derive_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal
        with pytest.raises(SystemExit):
            cli_main(["derive", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert usage == ("usage: pqlab derive [-h] --n N --p P --q Q [--alpha ALPHA] [--beta BETA]\n"
                         "                    [--mu MU] [--eps EPS]")

    @pytest.mark.parametrize("case", ["mollify", "interp", "geom", "absorb"])
    def test_lemma_verdicts(self, case, capsys):
        assert cli_main(["lemma", case]) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert all(v["pass"] for v in verdicts)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "[nope]\n")
        assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("command", ["sweep", "verify-bound", "trace-degiorgi",
                                         "check-caccioppoli"])
    def test_nodeless_target_exit_code(self, command, tmp_path, capsys):
        path = write(tmp_path, NODELESS_TARGET)
        out = str(tmp_path / "x")
        assert cli_main([command, "--config", str(path), "--out", out]) == 3
        assert "cylinder1" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        ("T = 0.3", "T = inf", "domain"), ("box = 0.0 1.0", "box = 0.0 inf", "domain"),
        ("box = 0.0 1.0", "box = -inf 1.0", "domain"),
        ("amplitude = 0.8", "amplitude = nan", "boundary"),
        ("amplitude = 0.8", "amplitude = inf", "boundary"),
        ("kind = profile", "kind = separable\npsi = 1.0 inf", "boundary"),
        ("b_value = 1.0", "b_value = nan", "coefficients"),
        ("b_value = 1.0", "b_value = inf", "coefficients"),
        ("a_exponent = 0.04", "a_exponent = nan", "coefficients"),
        ("a_center = 0.505", "a_center = nan", "coefficients"),
        ("seed = 11\n", "seed = 11\n[solver]\ntolerance = inf\n", "solver"),
        ("seed = 11\n", "seed = 11\n[calibration]\nc_cal = inf\n", "calibration"),
    ])
    def test_non_finite_grid_exit_code(self, edit, tmp_path, capsys):
        # inf passed hi > lo and T > 0: T = inf made the solve exit 2, and an
        # infinite box made it exit 0 with NaN in its reports.  A non-finite
        # datum or coefficient made a run stop on a non-finite Newton step or
        # a numpy warning, tolerance = inf passed every target with no step
        # converged, and c_cal = inf passed every target at k = inf
        old, new, section = edit
        path = write(tmp_path, SWEEP_CFG.replace(old, new))
        assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert f"[{section}]" in err and "finite" in err and "line " in err

    def test_nonpositive_target_radius_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL_2D + "\n[targets]\ncylinder1 = 0.5 0.5 0.12 -0.2\n")
        assert cli_main(["verify-bound", "--config", str(path), "--out", str(tmp_path / "x")]) == 3
        assert "line 15: target 'cylinder1'" in capsys.readouterr().err

    def test_solve_and_verify_bound(self, tmp_path, capsys):
        path = write(tmp_path, SWEEP_CFG)
        prefix = str(tmp_path / "run")
        assert cli_main(["solve", "--config", str(path), "--out", prefix]) == 0
        assert os.path.exists(prefix + ".pqf")
        assert os.path.exists(prefix + "_manifest.json")
        assert os.path.exists(prefix + "_energy.json")
        out_csv = str(tmp_path / "bounds.csv")
        assert cli_main(["verify-bound", "--config", str(path), "--out", out_csv]) == 0
        header = Path(out_csv).read_text().splitlines()[0].split(",")
        assert header == ["i", "center_x", "center_t", "rho", "sigma", "ess_sup",
                          "k_choice", "k_theorem", "margin", "eps", "eps_threshold", "pass"]

    def test_bound_csv_header(self):
        assert bound_csv_header(1) == [
            "i", "center_x", "center_t", "rho", "sigma", "ess_sup", "k_choice",
            "k_theorem", "margin", "eps", "eps_threshold", "pass"]
        assert bound_csv_header(2) == [
            "i", "center_x", "center_y", "center_t", "rho", "sigma", "ess_sup",
            "k_choice", "k_theorem", "margin", "eps", "eps_threshold", "pass"]

    def test_csv_cells_of_every_type(self, tmp_path):
        # each cell as str() writes it, but a float (np.float64 too) to 17
        # significant digits and a bool as true/false, whichever rows share
        # their cell types
        def cell(v):  # the reference: one cell at a time
            if isinstance(v, bool):
                return "true" if v else "false"
            return f"{v:.17g}" if isinstance(v, float) else str(v)

        rows = [
            [True, 3, "datum", 0.1, np.float64(1.0) / 3.0, math.inf],
            [False, -7, "bump", -2.5e-300, np.float64(-0.0), -math.inf],
            [True, 10**20, "mode2-ramp", 1e22, np.float64(7.0), math.nan],
            [1, 2.0, np.float32(0.1), np.bool_(True), None, "x,y"],
            [False],
        ]
        path = tmp_path / "cells.csv"
        harness._write_csv(path, ["a", "b"], rows)
        assert path.read_bytes() == (
            b"a,b\n"
            b"true,3,datum,0.10000000000000001,0.33333333333333331,inf\n"
            b"false,-7,bump,-2.5e-300,-0,-inf\n"
            b"true,100000000000000000000,mode2-ramp,1e+22,7,nan\n"
            b"1,2,0.1,True,None,x,y\n"
            b"false\n")
        assert path.read_text() == "a,b\n" + "".join(
            ",".join(map(cell, row)) + "\n" for row in rows)

    @pytest.mark.parametrize("command,flag", [
        ("solve", "--seed"), ("check-energy", "--calibration"), ("check-varsol", "--seed"),
    ])
    def test_flag_the_command_does_not_read_rejected(self, command, flag, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a solve that takes the flag writes
        path = write(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_verify_bound_calibration(self, tmp_path, capsys):
        path = write(tmp_path, SWEEP_CFG)
        k_choice = []
        for c_cal in ("1", "100"):
            out = tmp_path / f"bounds{c_cal}.csv"
            cli_main(["verify-bound", "--config", str(path), "--out", str(out),
                      "--calibration", c_cal])
            header, row = out.read_text().splitlines()
            k_choice.append(float(row.split(",")[header.split(",").index("k_choice")]))
        assert k_choice[1] > k_choice[0]

    def test_sweep_cli(self, tmp_path, capsys):
        path = write(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "sweepout")
        assert cli_main(["sweep", "--config", str(path), "--out", out, "--seed", "5"]) == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["all_bounds_pass"]
        for name in ("bounds.csv", "energy.csv", "varsol.csv", "cauchy.csv",
                     "u_final.pqf", "config.txt"):
            assert os.path.exists(os.path.join(out, name))

    def test_sweep_nonpositive_calibration_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, SWEEP_CFG)
        out = str(tmp_path / "sweepout")
        assert cli_main(["sweep", "--config", str(path), "--out", out, "--calibration", "-5"]) == 3
        assert "c_cal must be positive" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_check_subcommands(self, tmp_path, capsys):
        path = write(tmp_path, SWEEP_CFG)
        assert cli_main(["check-energy", "--config", str(path)]) == 0
        assert cli_main(["check-varsol", "--config", str(path)]) == 0
        assert cli_main(["check-caccioppoli", "--config", str(path),
                         "--out", str(tmp_path / "cacc.csv")]) == 0
        assert cli_main(["trace-degiorgi", "--config", str(path),
                         "--out", str(tmp_path / "trace.csv")]) == 0

    def test_commands_near_the_gap_limit_exit_with_their_verdicts(self, tmp_path, capsys):
        # q = 2.6665 and alpha = beta = inf lie 1.67e-4 inside the gap limit,
        # where theta2 = 667: with a = b = 1 a factor of the level formula's
        # term1 lies past float range at rho = 0.2, and each command died of
        # OverflowError with exit 1, the code of a failed verification.  The
        # level reads 1.639e83 at eps = 0, and the sweep's unregularized gap,
        # -9.1e-4 of its scale at eps = 0.0625, fails criterion 9's tolerance
        text = (SWEEP_CFG.replace("q = 2.1", "q = 2.6665").replace("eps = 0.25", "eps = 0.0")
                .replace("alpha = 20.0", "alpha = inf").replace("beta = 20.0", "beta = inf")
                .replace("T = 0.3", "T = 0.001")
                .replace("a_kind = power\na_center = 0.505\na_exponent = 0.04",
                         "a_kind = constant\na_value = 1.0")
                .replace("cylinder1 = 0.5 0.12 0.2", "cylinder1 = 0.5 0.0008 0.2"))
        path = str(write(tmp_path, text))
        out = tmp_path / "bounds.csv"
        assert cli_main(["verify-bound", "--config", path, "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("k_choice")]) == pytest.approx(
            1.639e83, rel=1e-3)
        assert cli_main(["check-caccioppoli", "--config", path,
                         "--out", str(tmp_path / "cacc.csv")]) == 0
        assert cli_main(["trace-degiorgi", "--config", path,
                         "--out", str(tmp_path / "trace.csv")]) == 0
        assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "sweep")]) == 1
        manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert manifest["all_bounds_pass"] and manifest["min_normalized_gap"] < -1e-6

    def test_commands_near_q_equals_p_exit_with_their_verdicts(self, tmp_path, capsys):
        # q - p = 1e-4: with b = 2, AB**(1/(q-p)) of the level formula's term5
        # lay past float range, and each command died of OverflowError with
        # exit 1; the level is finite.  With b = 0.5 term3's power lies past
        # float range: the level is inf, which verify-bound reports and
        # trace-degiorgi rejects, as the NaN its first level would read
        for b, level in (("2.0", 0.2096), ("0.5", math.inf)):
            text = SWEEP_CFG.replace("q = 2.1", "q = 2.0001").replace(
                "b_value = 1.0", f"b_value = {b}")
            path = str(write(tmp_path, text))
            out = tmp_path / f"bounds{b}.csv"
            assert cli_main(["verify-bound", "--config", path, "--out", str(out)]) == 0
            header, row = out.read_text().splitlines()
            assert float(row.split(",")[header.split(",").index("k_choice")]) == pytest.approx(
                level, rel=1e-3)
            assert cli_main(["check-caccioppoli", "--config", path,
                             "--out", str(tmp_path / "cacc.csv")]) == 0
            rc = cli_main(["trace-degiorgi", "--config", path, "--out", str(tmp_path / "trace.csv")])
            assert rc == (3 if level == math.inf else 0)
            assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / f"sweep{b}")]) == 0
        assert "parameter error: level must be finite, got k = inf" in capsys.readouterr().err

    def test_check_energy_time_dependent_datum(self, tmp_path, capsys):
        # psi' != 0, so the energy report's dual norm of d_t g is taken
        text = SWEEP_CFG.replace("kind = profile", "kind = separable\npsi = 1.0 -0.5")
        path = write(tmp_path, text)
        assert cli_main(["check-energy", "--config", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["dual_term"] > 0 and record["pass"]

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # an unreachable tolerance makes the first step fail
        text = SWEEP_CFG + "\n[solver]\ntolerance = 1e-30\nmax_iter = 2\n"
        path = write(tmp_path, text)
        assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "r")]) == 2

    def test_sweep_failure_persists_partial_reports(self, tmp_path, capsys):
        text = SWEEP_CFG + "\n[solver]\ntolerance = 1e-30\nmax_iter = 2\n"
        text = text.replace("directory = out", f"directory = {tmp_path / 'partial'}")
        path = write(tmp_path, text)
        assert cli_main(["sweep", "--config", str(path)]) == 2
        manifest = json.loads((tmp_path / "partial" / "manifest.json").read_text())
        assert manifest["failure"]
        assert os.path.exists(tmp_path / "partial" / "bounds.csv")
