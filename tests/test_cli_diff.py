import importlib.util
import json
import os
from types import SimpleNamespace

import numpy as np
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


def test_counting_eig_counts_both_solvers_and_puts_them_back(cli_diff):
    eigh = np.linalg.eigh
    with cli_diff.counting_eig() as calls:
        np.linalg.eigh(np.eye(2))
        np.linalg.eigvalsh(np.stack([np.eye(3)] * 4))
        np.linalg.eigvals(np.eye(2))
    assert calls == [2]
    assert np.linalg.eigh is eigh


def test_summary_prints_eig_calls_per_op_per_workload_and_in_all(cli_diff, capsys):
    ops = [SimpleNamespace(workload=w, name=n, variant=0)
           for w, n in (("dense_sim", "p2p"), ("dense_sim", "mac"), ("cli", "verify"))]
    old = [[0, "{}", 12], [0, "{}", 30], [2, '{"v": 1}', 7]]
    new = [[0, "{}", 12], [0, "{}", 25], [2, '{"v": 1.5}', 9]]
    assert cli_diff.summarize(ops, old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "dense_sim/p2p v0: exit 0/0 equal, eig calls 12 -> 12, byte-identical",
        "dense_sim/mac v0: exit 0/0 equal, eig calls 30 -> 25, byte-identical",
        "cli/verify v0: exit 2/2 equal, eig calls 7 -> 9, bytes differ",
        "    v: max |delta| 0.5",
        "dense_sim: 2 of 2 byte-identical, eig calls 42 -> 37",
        "cli: 0 of 1 byte-identical, eig calls 7 -> 9",
        "3 runs: 3 equal exit codes, 2 byte-identical, largest numeric |delta| 0.5, "
        "eig calls 49 -> 46"]
    assert cli_diff.summarize(ops, old, [[1, "{}", 12]] + new[1:]) == 1
