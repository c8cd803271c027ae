import pytest

import hostspeed
import measure


def test_no_p90_under_100_samples():
    pct = measure.op_percentiles({"a": [float(i) for i in range(99)]})
    assert "op_p90_s" not in pct


def test_p90_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    pct = measure.op_percentiles({"a": samples[:50], "b": samples[50:]})
    assert pct["op_p90_s"] == 89.0
    assert sum(s > pct["op_p90_s"] for s in samples) == 10


def test_p50_is_the_median_over_kinds_of_kind_medians():
    pct = measure.op_percentiles({"fast": [1.0, 2.0, 9.0], "mid": [4.0, 6.0],
                                  "slow": [20.0, 30.0]})
    assert pct["op_p50_s"] == 5.0


class FakeSpeed(hostspeed.HostSpeed):
    """The reference kernel advances the fake clock by a fixed time."""

    def __init__(self, now, kernel_s):
        def kernel():
            now[0] += kernel_s
        super().__init__(kernel, clock=lambda: now[0])


def _one_second_op(now):
    def run(op):
        now[0] += 1.0
        return measure.OpResult(op, 0, 1.0, 0, [], seconds=1.0)
    return run


def test_run_rounds_runs_the_whole_rounds_that_fit():
    now = [0.0]
    same_host = hostspeed.REFERENCE_S
    rounds = measure.run_rounds(["a", "b", "c"], _one_second_op(now), 8,
                                FakeSpeed(now, same_host), clock=lambda: now[0])
    assert [r.name for r in rounds.results] == ["a", "b", "c"] * 2
    assert rounds.round_s == pytest.approx([3.0, 3.0])


def test_run_rounds_runs_one_round_that_does_not_fit():
    now = [0.0]
    rounds = measure.run_rounds(["a", "b"], _one_second_op(now), 0.5,
                                FakeSpeed(now, hostspeed.REFERENCE_S),
                                clock=lambda: now[0])
    assert len(rounds.round_s) == 1


def test_ops_are_scaled_by_the_kernel_times_around_them():
    now = [0.0]
    slow_host = 2 * hostspeed.REFERENCE_S
    rounds = measure.run_rounds(["a", "b"], _one_second_op(now), 0.5,
                                FakeSpeed(now, slow_host), clock=lambda: now[0])
    assert [r.wall_s for r in rounds.results] == pytest.approx([1.0, 1.0])
    assert [r.seconds for r in rounds.results] == pytest.approx([0.5, 0.5])
    assert rounds.round_s == pytest.approx([1.0])


def test_scaled_uses_the_mean_kernel_time_of_a_window_around_each_op():
    ref = hostspeed.REFERENCE_S
    kernel_s = [ref] * 4 + [2 * ref] * 5
    out = hostspeed.scaled([1.0] * 8, kernel_s)
    assert out[0] == pytest.approx(1.0)  # kernel_s[0:4]
    assert out[3] == pytest.approx(1 / 1.5)  # kernel_s[1:7]
    assert out[7] == pytest.approx(0.5)  # kernel_s[5:9]


def test_scaled_needs_a_kernel_time_on_both_sides():
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0, 1.0], [0.3, 0.3])


def test_ops_per_s_uses_the_median_round():
    rounds = measure.Rounds(results=[], round_s=[2.0, 9.0, 2.5])
    assert measure.ops_per_s(rounds, 5) == 2.0
