import pytest

from oneshot_qcap.verification import CHECKS, run_check, run_suite

EXPECTED_CHECKS = {
    "triangle",
    "monotonicity",
    "measurement_overlap",
    "gentle_operator",
    "gentle_povm",
    "hayashi_nagaoka",
    "dh_vs_relent",
    "sequential_union",
    "uniform_floor",
    "pure_rank_one",
    "neumark",
}


def test_registry_is_complete():
    assert set(CHECKS) == EXPECTED_CHECKS


@pytest.mark.parametrize("name", sorted(EXPECTED_CHECKS - {"pure_rank_one"}))
def test_each_check_holds_smoke(name):
    result = run_check(name, trials=3, dims=(2, 3), seed=1)
    assert result["holds"], result


def test_pure_rank_one_smoke():
    # A single small-dimension trial.
    result = run_check("pure_rank_one", trials=1, dims=(2,), seed=1)
    assert result["holds"], result


def test_pure_rank_one_holds_where_the_search_fell_short():
    # A local search for the rank-one optimum reported margin -0.045 here.
    result = run_check("pure_rank_one", trials=10, seed=22)
    assert result["holds"], result
    assert result["worst_margin"] > 0


def test_run_check_is_deterministic():
    a = run_check("triangle", trials=2, dims=(2,), seed=5)
    b = run_check("triangle", trials=2, dims=(2,), seed=5)
    assert a == b


def test_run_suite_subset():
    out = run_suite(["triangle", "neumark"], trials=2, dims=(2,), seed=3)
    assert out["holds"]
    assert {c["check"] for c in out["checks"]} == {"triangle", "neumark"}
    assert all(c["trials"] == 2 for c in out["checks"])


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("fubini_study", trials=1)
    with pytest.raises(ValueError):
        run_suite(["triangle", "bogus"], trials=1)
