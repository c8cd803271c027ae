import contextlib
import copy
import io

import check
import workloads
from oneshot_qcap import cli


def _run(op, tmp_path):
    op.write_specs(str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(op.command(str(tmp_path)))
    return code, out.getvalue()


def test_reference_matches_and_flags_a_perturbation(tmp_path):
    op = workloads.op_for("small_grid", "p2p_ea_r1", 3)
    code, text = _run(op, tmp_path)
    expected = check.load_reference()["small_grid"]["p2p_ea_r1"]["3"]
    assert check.op_failures(code, op.argv, text, expected) == []

    close = copy.deepcopy(expected)
    close["worst_error"][0] += 1e-12
    assert check.op_failures(code, op.argv, text, close) == []

    perturbed = copy.deepcopy(expected)
    perturbed["worst_error"][0] += 1e-6
    assert check.op_failures(code, op.argv, text, perturbed) == [
        "worst_error differs from reference"]


def test_nonzero_exit_code_and_exceptions_fail():
    expected = {"holds": [True]}
    assert check.op_failures(2, ["simulate"], "", expected) == ["exit code 2"]
    assert check.op_failures(None, ["simulate"], "", expected) == ["raised"]
    assert check.op_failures(0, ["simulate"], "{}", None) == ["no reference"]


def test_mismatches_compare_non_finite_and_flags_exactly():
    assert check.mismatches({"v": [float("inf"), True]},
                            {"v": [float("inf"), True]}) == []
    assert check.mismatches({"v": [float("inf")]}, {"v": [1e300]}) == ["v"]
    assert check.mismatches({"h": [True]}, {"h": [False]}) == ["h"]
    assert check.mismatches({"a": [1.0]}, {"b": [1.0]}) == ["a", "b"]


def test_every_workload_op_has_a_reference_for_every_variant():
    reference = check.load_reference()
    for workload, entries in workloads.WORKLOADS.items():
        for name, _ in entries:
            assert sorted(reference[workload][name], key=int) == [
                str(v) for v in range(workloads.VARIANTS)]
