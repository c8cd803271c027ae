"""The benchmark's dense_sim, solver_loops and small_grid ops, at two variants
each, still produce the fingerprints recorded in ``bench/reference.json``.

The ops run in this process through ``oneshot_qcap.cli.run``; their spec
files go to a temporary directory, and nothing under ``bench/`` is written.
``tools/check_reference.py`` runs every (op, variant) pair.
"""

import contextlib
import io
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402
from oneshot_qcap import cli  # noqa: E402

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
