"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests
"""

import math

import numpy as np
import pytest

import hostspeed
import pqlab as pq
import spans
import stats
import workloads


def test_self_time_subtracts_children_once():
    # op [0, 10] > a [1, 4] > b [2, 3]; op > c [5, 9]; d [8, 12] overlaps c
    # and runs past the end of op.
    s = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["d", 8.0, 12.0, 0, 0],
    ]
    assert spans.self_times(s) == pytest.approx([10 - 3 - 5, 3 - 1, 1, 4, 4])


def test_recorder_nests_spans_and_passes_through_outside_ops():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert rec.spans == []
    rec.begin_op(7)
    assert outer(1) == 4
    rec.end_op()
    names = [(name, parent, op) for name, _, _, parent, op in rec.spans]
    assert names == [("op", None, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert all(end >= start for _, start, end, _, _ in rec.spans)


def test_layer_metrics_count_outer_linear_solves_only():
    rec = spans.Recorder()
    rec.spans = [
        ["op", 0.0, 10.0, None, 1],
        ["solver.solve", 1.0, 9.0, 0, 1],
        ["linalg.cg", 2.0, 6.0, 1, 1],
        ["linalg.SuperLU.solve", 3.0, 4.0, 2, 1],
        ["linalg.splu", 6.0, 7.0, 1, 1],
    ]
    rec.counters[1].update({"solver.steps": 2, "solver.nonlinear_iters": 4})
    m = spans.layer_metrics(rec, [1], [2.0], [1.0])
    assert m["solver.linear_solves"] == 1
    assert m["solver.linear_solve_s"] == pytest.approx(5.0)
    assert m["solver.linear_share"] == pytest.approx(5.0 / 8.0)
    assert m["solver.iter_self_ms"] == pytest.approx(1e3 * 3.0 / 4)
    assert m["solver.iters_per_step_mean"] == 2.0
    assert m["trace.overhead"] == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 100) == 10
    assert stats.percentile([5.0], 50) == 5.0


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_rule_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(n, expected) >= 10


def test_default_seed_gives_presets_and_others_stay_in_range():
    assert workloads.draw_inputs(0, 2) == workloads.Inputs(0.8, (0.505, 0.505))
    for seed in range(1, 40):
        inputs = workloads.draw_inputs(seed, 2)
        assert inputs == workloads.draw_inputs(seed, 2)
        lo, hi = workloads.AMPLITUDE_RANGE
        assert lo <= inputs.amplitude <= hi
        for c in inputs.center:
            # at least 1/512 from every node and face midpoint of a 65-node grid
            assert abs(c * 128 - round(c * 128)) >= 0.25


def test_config_uses_only_surviving_keys():
    text = workloads.config_text(workloads.draw_inputs(5, 1), 1, 65, 256, 6)
    assert "damping" not in text and "[output]" not in text and "seed" not in text


def _small_sweep(tmp_path):
    w = workloads.Sweep1D(seed=3, size=(17, 64, 2))
    assert w.setup(str(tmp_path)) == []
    return w


def test_check_rejects_a_perturbed_field(tmp_path):
    w = _small_sweep(tmp_path)
    out = w.op(0)
    assert w.check(out) == []
    path = str(tmp_path / "op0" / "u_final.pqf")
    u = pq.load_field_dump(path)
    bumped = u.values.copy()
    bumped[-1, 8] += 0.5
    pq.save_field_dump(pq.SpaceTimeField(u.domain, bumped), path)
    problems = w.check(out)
    assert len(problems) == 1 and "step equations" in problems[0]


def test_missing_output_is_a_problem(tmp_path):
    w = _small_sweep(tmp_path)
    problems = w.check(workloads.CliOutput(0, str(tmp_path / "nothing")))
    assert len(problems) == 1 and "unreadable output" in problems[0]


def test_reference_mismatch_is_a_problem():
    problems = []
    workloads._close(problems, "x", [1.0, 2.0], [1.0, 2.0 * (1 + 1e-4)])
    assert problems
    problems = []
    workloads._close(problems, "x", [1.0, 0.0], [1.0 + 1e-9, 0.0])
    assert problems == []


def test_failed_check_counts_the_op_as_failed(tmp_path):
    class Perturbed(workloads.Sweep1D):
        def op(self, i):
            out = super().op(i)
            path = f"{out.path}/u_final.pqf"
            u = pq.load_field_dump(path)
            pq.save_field_dump(pq.SpaceTimeField(u.domain, -u.values), path)
            return out

    w = Perturbed(seed=3, size=(17, 64, 2))
    w.setup(str(tmp_path))
    log = workloads.run_ops(w, seconds=0.0, min_ops=2, log=open("/dev/null", "w"))
    assert len(log.times) == 2 and log.failed == 2


def test_solver_failure_counts_the_op_as_failed(tmp_path):
    class Failing(workloads.Sweep1D):
        def op(self, i):
            raise pq.StepFailure("no convergence", t=0.1, residual=1.0)

    w = Failing(seed=3, size=(17, 64, 2))
    w.setup(str(tmp_path))
    log = workloads.run_ops(w, seconds=0.0, min_ops=1, log=open("/dev/null", "w"))
    assert log.failed == 1 and math.isfinite(log.times[0])


def test_host_slowdown_is_mean_reference_time_over_nominal():
    host = hostspeed.HostSpeed()
    host.samples = [hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S, 3 * hostspeed.NOMINAL_S]
    assert host.slowdown() == pytest.approx(2.0)
    host.sample(loops=1)
    assert len(host.samples) == 4 and host.samples[-1] > 0
    host.between_ops()  # sampled just now: no new sample yet
    assert len(host.samples) == 4
