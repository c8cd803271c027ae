"""Record ``reference.json``: the checked output of every (op, variant) pair.

Usage, from the repository root: ``python3 bench/record_reference.py``.
Run it only on a commit whose outputs are trusted; every later benchmark run
compares its ops against this file.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import run  # noqa: F401  (pins the BLAS thread count before numpy loads)
import check
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from oneshot_qcap import cli

    reference: dict = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as spec_dir:
        for workload, entries in workloads.WORKLOADS.items():
            for name, _ in entries:
                for variant in range(workloads.VARIANTS):
                    op = workloads.op_for(workload, name, variant)
                    op.write_specs(spec_dir)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.run(op.command(spec_dir))
                    if code != 0:
                        print(f"{workload}/{name} v{variant}: exit code {code}",
                              file=sys.stderr)
                        return 1
                    reference.setdefault(workload, {}).setdefault(name, {})[
                        str(variant)] = check.fingerprint(op.argv, out.getvalue())
                    print(f"{workload}/{name} v{variant}", file=sys.stderr)
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
