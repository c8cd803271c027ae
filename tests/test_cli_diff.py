import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def cli_diff():
    spec = importlib.util.spec_from_file_location(
        "cli_diff", os.path.join(ROOT, "tools", "cli_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reads_every_leaf_beside_an_added_and_a_removed_key(cli_diff):
    old = {"scenario": "p2p_ea", "value": 1.25, "holds": True,
           "report": {"details": {"receivers": [{"c": 1.0, "error": 0.125}],
                                  "dh": {"value": 2.0}}}}
    new = {"scenario": "p2p_ea", "value": 1.25, "holds": True,
           "report": {"details": {"receivers": [{"c": 1.0, "error": 0.375,
                                                 "type1": 0.9}]}}}
    deltas, other = cli_diff.compare(json.dumps(old), json.dumps(new))
    assert deltas == {"value": 0.0, "report.details.receivers[].c": 0.0,
                      "report.details.receivers[].error": 0.25}
    assert other == {"report.details.dh.value": "removed",
                     "report.details.receivers[].type1": "added"}


def test_compare_names_the_keys_whose_other_leaves_differ(cli_diff):
    old = {"strategy": "sequential", "rows": [[0.5, 0.5]], "values": [1.0]}
    new = {"strategy": "pgm_a_first", "rows": [[0.5, 0.25]], "values": [1.0, 2.0]}
    deltas, other = cli_diff.compare(json.dumps(old), json.dumps(new))
    assert deltas == {"rows[][]": 0.25}
    assert other == {"strategy": "differs", "values[]": "differs"}
