"""Set-up probe, started as a fresh process by the benchmark.

Usage: python3 bench/probe.py SPEC_DIR WORKLOAD SEED, from the repository
root. Imports the package, parses every spec file of the workload, runs the
warm-up op, then prints ``ready``; the parent times start to ``ready``.
"""

import contextlib
import io
import json
import os
import sys


def main(spec_dir: str, workload: str, seed: int) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from oneshot_qcap import cli

    for op in workloads.make_ops(workload, seed):
        for path in op.spec_paths(spec_dir):
            with open(path, encoding="utf-8") as fh:
                cli.parse_spec(json.load(fh))
    warm = workloads.warmup_op(seed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(warm.command(spec_dir))
    if code != 0:
        print(f"warm-up op exited with {code}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], int(sys.argv[3])))
