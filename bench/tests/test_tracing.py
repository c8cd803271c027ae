import numpy as np
import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tree():
    """coding.simulate [0, 10] > coding.build_position_povm [2, 6]
    > linalg.embed [3, 4], then divergences.dh_eps [7, 9]."""
    clock = FakeClock()
    rec = tracing.Recorder(clock)
    outer = rec.open("coding.simulate")
    clock.now = 2.0
    inner = rec.open("coding.build_position_povm")
    clock.now = 3.0
    leaf = rec.open("linalg.embed")
    clock.now = 4.0
    rec.close(leaf)
    clock.now = 6.0
    rec.close(inner)
    clock.now = 7.0
    dh = rec.open("divergences.dh_eps")
    clock.now = 9.0
    rec.close(dh)
    clock.now = 10.0
    rec.close(outer)
    return rec


def test_self_time_subtracts_children_also_of_the_same_layer():
    rec = _tree()
    selfs = tracing.self_times(rec.spans)
    by_name = {s.name: selfs[s.id] for s in rec.spans}
    assert by_name == {"coding.simulate": 4.0,
                       "coding.build_position_povm": 3.0,
                       "linalg.embed": 1.0, "divergences.dh_eps": 2.0}
    stats = tracing.by_name(rec.spans)
    coding = stats["coding.simulate"].self_s + stats["coding.build_position_povm"].self_s
    assert coding == 7.0
    assert sum(selfs.values()) == 10.0
    shares = tracing.layer_self_shares(rec.spans)
    assert shares == {"coding": 0.7, "linalg": 0.1, "divergences": 0.2}


def test_self_time_clips_children_to_the_parent():
    a = tracing.Span(0, None, 0, "cli.run", 0.0)
    a.end = 4.0
    b = tracing.Span(1, 0, 0, "cli.parse_spec", 3.0)
    b.end = 6.0
    assert tracing.self_times([a, b])[0] == 3.0


def test_eig_counts_against_the_innermost_open_span():
    rec = tracing.Recorder(FakeClock())
    outer = rec.open("divergences.dh_eps")
    rec.eig(4)
    inner = rec.open("linalg.densityop")
    rec.eig(16)
    rec.eig(8)
    rec.close(inner)
    rec.eig(4)
    rec.close(outer)
    rec.eig(2)  # no open span: not attributed
    assert (outer.eig_calls, outer.eig_max_dim) == (2, 4)
    assert (inner.eig_calls, inner.eig_max_dim) == (2, 16)
    metrics = tracing.per_layer_metrics(rec.spans, n_ops=1)
    assert metrics["divergences.eig.calls"][0] == 2
    assert metrics["linalg.eig.calls"][0] == 2
    assert metrics["divergences.dh_eps.eig_per_call"][0] == 2


def test_errors_count_once_per_layer_they_escape():
    rec = tracing.Recorder(FakeClock())

    def fail():
        raise ValueError("bad")

    def nested():
        return rec.call("linalg.tensor", fail, (), {})

    with pytest.raises(ValueError):
        rec.call("linalg.partial_trace", nested, (), {})
    assert tracing.escaped_errors(rec.spans) == {"linalg": 1}


def test_instrument_wraps_where_callers_look_up_and_restores():
    from oneshot_qcap import bounds, coding, divergences, linalg

    original = coding.dh_eps
    rec = tracing.Recorder()
    inst = tracing.instrument(rec)
    try:
        assert coding.dh_eps is bounds.dh_eps is divergences.dh_eps
        assert coding.dh_eps is not original
        rho = linalg.DensityOp(np.diag([0.75, 0.25]), [("A", 2)])
        sigma = linalg.DensityOp(np.eye(2) / 2, [("A", 2)])
        coding.dh_eps(rho, sigma, 0.1)
    finally:
        inst.restore()
    assert coding.dh_eps is original and bounds.dh_eps is original
    assert np.linalg.eigh.__module__ == "numpy.linalg"
    stats = tracing.by_name(rec.spans)
    assert stats["linalg.densityop"].calls == 2
    dh = stats["divergences.dh_eps"]
    assert dh.calls == 1 and dh.max_dim == 2 and dh.eig_calls > 0
