"""Benchmark of the ``oneshot_qcap`` CLI: closed loop, one client, in-process.

Usage, from the repository root:

    python3 bench/run.py --workload small_grid --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics without tracing. ``--trace 1``
runs the same ops untraced and then traced, and reports per-layer metrics and
the tracing overhead. Op and set-up times are scaled to the host's speed
(see ``hostspeed``). The last line of standard output is the result object;
the line before it records the environment and the extra figures.
"""

from __future__ import annotations

import os
import sys

# OpenBLAS reads its thread count when numpy loads it, so pin it before any
# import of numpy, for this process and the set-up probes it starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, "_work")
OUT_DIR = os.path.join(HERE, "_out")
SETUP_PROBES = 5


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _end_to_end(rounds, ops_per_round, setups) -> tuple[dict, dict]:
    """Metrics from scaled times, and the same figures from wall times."""
    setup_wall, setup_scaled = setups
    by_kind = measure.seconds_by_kind(rounds.results)
    wall_by_kind = measure.seconds_by_kind(rounds.results, "wall_s")
    pct = measure.op_percentiles(by_kind)
    metrics = {
        "ops_per_s": (measure.ops_per_s(rounds, ops_per_round), "1/s"),
        "op_p50_s": (pct["op_p50_s"], "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mib": (measure.peak_rss_mib(), "MiB"),
    }
    wall_round_s = [sum(r.wall_s for r in rounds.results[i:i + ops_per_round])
                    for i in range(0, len(rounds.results), ops_per_round)]
    wall = {"ops_per_s": ops_per_round / statistics.median(wall_round_s),
            "op_p50_s": measure.op_percentiles(wall_by_kind)["op_p50_s"],
            "setup_s": statistics.median(setup_wall)}
    extra = {"timed_ops": len(rounds.results), "round_s": rounds.round_s,
             "op_p90_s": pct.get("op_p90_s"), "setup_samples_s": setup_scaled,
             "op_s_by_name": by_kind, "wall": wall,
             "wall_setup_samples_s": setup_wall,
             "wall_op_s_by_name": wall_by_kind}
    return metrics, extra


def baseline_facts(workload: str, spans, ops_by_index: dict) -> dict:
    """Structural facts of the parent measurements, checked on the trace.

    They describe today's program, so a later change may rightly break them;
    they are reported, not used for ``correct``.
    """
    stats = tracing.by_name(spans)
    facts = {}
    dh = stats.get("divergences.dh_eps")
    if dh is not None and dh.calls:
        per_call = dh.eig_calls / dh.calls
        facts["eig_per_dh_eps_call_about_200"] = {
            "value": per_call, "holds": 180 <= per_call <= 220}
    if workload == "dense_sim":
        povm = stats.get("coding.build_position_povm")
        dim = povm.max_dim if povm else 0
        facts["build_position_povm_max_dim_512"] = {"value": dim,
                                                    "holds": dim == 512}
        p2p = [s for s in spans if ops_by_index.get(s.op) == "p2p_ea_r3"]
        shares = tracing.layer_self_shares(p2p)
        top = max(shares, key=shares.get) if shares else None
        facts["cli_largest_share_of_p2p_r3"] = {
            "value": shares, "holds": top == "cli"}
    return facts


def _traced_pass(cli_run, ops, spec_dir, reference, seconds, workload, seed,
                 speed):
    rec = tracing.Recorder()
    names = {}

    def traced_op(op):
        rec.op = len(names)
        names[rec.op] = op.name
        return measure.execute(
            lambda argv: rec.call("cli.run", cli_run, (argv,), {}),
            op, spec_dir, reference)

    inst = tracing.instrument(rec)
    try:
        rounds = measure.run_rounds(ops, traced_op, seconds, speed)
    finally:
        inst.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracing.write_spans(rec.spans, os.path.join(
        OUT_DIR, f"{workload}-seed{seed}.spans.jsonl"))
    return rounds, rec.spans, names


def _per_layer(cli_run, ops, spec_dir, reference, args, speed):
    half = args.seconds / 2
    untraced = measure.run_rounds(
        ops, lambda op: measure.execute(cli_run, op, spec_dir, reference), half,
        speed)
    traced, spans, names = _traced_pass(
        cli_run, ops, spec_dir, reference, half, args.workload, args.seed,
        speed)
    n = len(traced.results)
    metrics = tracing.per_layer_metrics(spans, n)
    metrics["cli.report_bytes"] = (
        sum(r.report_bytes for r in traced.results) / n, "B/op")
    rate_untraced = measure.ops_per_s(untraced, len(ops))
    rate_traced = measure.ops_per_s(traced, len(ops))
    metrics["trace.untraced_ops_per_s"] = (rate_untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (rate_traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (rate_untraced - rate_traced, "1/s")
    extra = {"untraced_ops": len(untraced.results), "traced_ops": n,
             "spans": len(spans),
             "baseline_facts": baseline_facts(args.workload, spans, names)}
    return untraced.results + traced.results, metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "oneshot_qcap")):
        print(f"error: no src/oneshot_qcap under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from oneshot_qcap import cli

    reference = check.load_reference()
    ops = workloads.make_ops(args.workload, args.seed)
    warm = workloads.warmup_op(args.seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    spec_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        for op in ops + [warm]:
            op.write_specs(spec_dir)
        results = [measure.execute(cli.run, warm, spec_dir, reference)]
        speed = hostspeed.HostSpeed()
        speed.kernel()  # its first run pays one-off BLAS start-up costs
        if args.trace == 0:
            setups = measure.scaled_setups(spec_dir, args.workload, args.seed,
                                           SETUP_PROBES, speed)
            rounds = measure.run_rounds(
                ops, lambda op: measure.execute(cli.run, op, spec_dir, reference),
                args.seconds, speed)
            timed = rounds.results
            metrics, extra = _end_to_end(rounds, len(ops), setups)
        else:
            timed, metrics, extra = _per_layer(cli.run, ops, spec_dir,
                                               reference, args, speed)
        results += timed
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    failed = sum(1 for r in results if r.failures)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "variants": {op.name: op.variant for op in ops},
              "environment": measure.environment(root, args.seed),
              "host_speed": {"reference_s": hostspeed.REFERENCE_S,
                             "kernel_s": speed.samples},
              "fail_ratio": failed / len(results), **extra}
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
