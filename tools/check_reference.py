"""Check every benchmark op of this checkout against ``bench/reference.json``.

Usage, from the repository root:

    python3 tools/check_reference.py

Every (op, variant) pair of ``bench/workloads.py`` runs once through
``oneshot_qcap.cli.run``, in this process, with the package imported from
this checkout's ``src``, and is judged by ``bench/check.op_failures`` against
the recorded reference. OpenBLAS runs on the thread count the benchmark pins.
The spec files go to a temporary directory; nothing under ``bench/`` is
written.

It prints one line per failed pair, with its reasons, and a summary line; a
pair that raised also prints its traceback to standard error.
The exit code is 0 when every pair passes and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402,F401  (pins the BLAS thread count before numpy loads)
import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oneshot_qcap import cli

    reference = check.load_reference()
    failed = total = 0
    with tempfile.TemporaryDirectory() as spec_dir:
        for workload, entries in workloads.WORKLOADS.items():
            for name, _ in entries:
                for variant in range(workloads.VARIANTS):
                    op = workloads.op_for(workload, name, variant)
                    op.write_specs(spec_dir)
                    out, crash = io.StringIO(), []
                    try:
                        with contextlib.redirect_stdout(out):
                            code = cli.run(op.command(spec_dir))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception as exc:  # a crash fails the pair, not the run
                        traceback.print_exc()
                        code, crash = None, [f"{type(exc).__name__}: {exc}"]
                    expected = reference.get(workload, {}).get(name, {}).get(
                        str(variant))
                    reasons = check.op_failures(code, op.argv, out.getvalue(),
                                                expected) + crash
                    total += 1
                    if reasons:
                        failed += 1
                        print(f"{workload}/{name} v{variant}: {'; '.join(reasons)}")
    print(f"{total} pairs: {total - failed} match the reference, {failed} fail")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
