import collections

import pytest

from oneshot_qcap import verification
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


@pytest.mark.parametrize("dims", [(2, 3), (2, 4, 8)])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_sharing_a_trial_changes_no_entry(seed, dims):
    # Each entry of a suite is what its check gives run alone, though every
    # check of the suite reads the same trials.
    suite = run_suite("all", trials=6, dims=dims, seed=seed)
    assert [c["check"] for c in suite["checks"]] == list(CHECKS)
    for entry in suite["checks"]:
        assert entry == run_check(entry["check"], trials=6, dims=dims, seed=seed)


def test_run_suite_keeps_the_order_and_duplicates_of_its_names():
    out = run_suite(["neumark", "triangle", "neumark"], trials=2, dims=(2,), seed=3)
    assert [c["check"] for c in out["checks"]] == ["neumark", "triangle", "neumark"]
    assert out["checks"][0] == out["checks"][2]


def test_a_suite_draws_and_solves_each_object_of_a_trial_once(monkeypatch):
    # Checked alone, the 11 facts of these 10 trials make 255 draws of 101
    # distinct objects, 50 D_H solves of 40 distinct problems and 40
    # purified distances of 30 distinct pairs.
    calls = collections.Counter()

    def count(name):
        original = getattr(verification, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(verification, name, counted)

    for name in ("sample", "dh_eps", "purified_distance"):
        count(name)
    run_suite("all", trials=10, seed=3)
    assert calls == {"sample": 101, "dh_eps": 40, "purified_distance": 30}
