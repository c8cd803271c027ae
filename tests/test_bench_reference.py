"""The benchmark's dense_sim, solver_loops and small_grid ops, at two variants
each, still produce the fingerprints recorded in ``bench/reference.json``.

The ops run in this process through ``oneshot_qcap.cli.run``; their spec
files go to a temporary directory, and nothing under ``bench/`` is written.
``tools/check_reference.py`` runs every (op, variant) pair.  The optimized
broadcast bounds on the specs of the ``broadcast_ea`` op are checked here too,
and so is each rate a ``simulate`` op codes at against the converse at the
error its code reports.
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402
from oneshot_qcap import bounds, cli  # noqa: E402

OPS = [(workload, name, variant)
       for workload in ("dense_sim", "solver_loops", "small_grid")
       for name, _ in workloads.WORKLOADS[workload]
       for variant in (0, 5)]


@pytest.mark.parametrize("workload, name, variant", OPS,
                         ids=[f"{n}-v{v}" for _, n, v in OPS])
def test_benchmark_op_matches_the_reference(tmp_path, workload, name, variant):
    op = workloads.op_for(workload, name, variant)
    op.write_specs(str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(op.command(str(tmp_path)))
    expected = check.load_reference()[workload][name][str(variant)]
    assert check.op_failures(code, op.argv, out.getvalue(), expected) == []


# The broadcast_ea op's state with its registers in another order,
# [R_C, A, R_B]: the Bell pair on A, R_B beside the maximally mixed R_C.
SWAPPED = {"schema": "1", "type": "state", "dims": [["RC", 2], ["A", 2], ["RB", 2]],
           "matrix": np.kron(np.eye(2) / 2, np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2
                             ).tolist()}


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
@pytest.mark.parametrize("swapped", [False, True], ids=["bench-state", "swapped"])
@pytest.mark.parametrize("kind, scenario", [("converse", "broadcast_ea"),
                                            ("relaxation", "broadcast")])
def test_optimized_broadcast_bounds_solve_a_maximally_mixed_resource(
        tmp_path, capsys, kind, scenario, swapped, variant):
    # The receiver whose resource is maximally mixed has the joint
    # rho_out x I/2, whose minimum over sigma is -log2(1 - eps), at sigma =
    # rho_out; the SDP's dual residual stays far above its duality gap there.
    specs = workloads.op_for("small_grid", "broadcast_ea", variant).specs
    argv = ("bound", kind, "--scenario", scenario, "--channel", "@channel",
            "--state", "@state", "--eps", "0.1,0.1", "--optimize")
    op = workloads.Op("cli", kind, variant, argv,
                      {**specs, "state": SWAPPED} if swapped else specs)
    op.write_specs(str(tmp_path))
    assert cli.run(op.command(str(tmp_path))) == 0, capsys.readouterr().err
    result = json.loads(capsys.readouterr().out)["result"]
    mixed = 0 if swapped else 1
    assert result["per_sender"][mixed] == pytest.approx(-math.log2(0.9), abs=1e-12)
    for value, certificate in zip(result["per_sender"], result["certificate"]):
        assert certificate <= value <= certificate + 1e-8


def test_the_optimized_converse_op_reads_restarts_and_seed(tmp_path):
    # The only bound op of the benchmark passes --restarts 0 and --seed v.
    test_benchmark_op_matches_the_reference(tmp_path, "solver_loops",
                                            "converse_optimize", 3)


# Every simulate op but multiple access, whose converse is per stream while
# its error is joint.
SIM_OPS = [(workload, name, variant) for workload, name, variant in OPS
           if workloads.op_for(workload, name, variant).argv[0] == "simulate"
           and not name.startswith("mac")]


def _simulated(tmp_path, workload, name, variant):
    """The op's scenario, its specs parsed, and its report's rates and its
    receiver records' errors: worst case if assisted, average if not."""
    op = workloads.op_for(workload, name, variant)
    op.write_specs(str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(op.command(str(tmp_path))) == 0
    report = json.loads(out.getvalue())["report"]
    scenario = op.argv[1]
    specs = {key: cli.parse_spec(doc) for key, doc in op.specs.items()}
    errors = [rec["error"] for rec in report["details"]["receivers"]]
    return scenario, specs, report["rates"], errors


def _converse(scenario, specs, errors):
    return bounds.converse_value(scenario, specs["channel"], specs["state"],
                                 tuple(errors), optimize=True,
                                 tau=specs.get("tau")).per_sender


@pytest.mark.parametrize("workload, name, variant", SIM_OPS,
                         ids=[f"{n}-v{v}" for _, n, v in SIM_OPS])
def test_every_simulated_rate_is_within_the_converse_at_its_own_error(
        tmp_path, workload, name, variant):
    # A decoder that reported a smaller error than it makes could pass its
    # own premise-free bound; the converse at that error would then fall
    # below the rate.
    scenario, specs, rates, errors = _simulated(tmp_path, workload, name, variant)
    assert len(errors) == len(rates)
    for rate, ceiling in zip(rates, _converse(scenario, specs, errors)):
        assert rate <= ceiling + bounds._SDP_BRACKET, (rate, ceiling, errors)


@pytest.mark.parametrize("variant", [0, 5])
def test_the_converse_check_fails_a_decoder_that_overstates_its_success(
        tmp_path, variant):
    scenario, specs, (rate,), (error,) = _simulated(
        tmp_path, "dense_sim", "p2p_ea_r3", variant)
    (ceiling,) = _converse(scenario, specs, [error - 0.1])
    assert ceiling + bounds._SDP_BRACKET < rate
