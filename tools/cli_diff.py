"""Compare the CLI output of two source trees on every CLI command.

Usage, from the repository root:

    python3 tools/cli_diff.py OLD_TREE NEW_TREE --variants 0 5

OLD_TREE and NEW_TREE are checkouts of this repository (``.`` for this one).
Every op of ``bench/workloads.py`` (of this checkout), and a fixed list of
the commands the benchmark does not run (``divergence``, ``bound converse``
and ``achievable`` of every scenario, ``bound converse --optimize`` of every
scenario but ``p2p_ea`` and ``mac_ea``, ``relaxation`` and
``identity-corollary`` (also given a ``--scenario``, rejected with exit 1),
the broadcast relaxation with ``--optimize``, the
``mac_ea_hdw`` converse, ``verify`` of one fact and of all at other dims,
the unassisted simulations past R = 1, the point-to-point one on a qutrit
resource with a letter that never occurs, each
unassisted simulation on a quantum resource, rejected with exit 1, the
multiple-access simulation decoding B first, with and without a given
``--c``, a multiple-access sweep, the point-to-point simulation at a given
``--c``, the multiple-access achievable rate at the sequential strategy, and
five ops on states whose registers are not in role order: the
point-to-point simulation with the resource first, the channel-with-state
simulation and relaxation bound on [S, A, B'], and the broadcast simulation
and optimized converse on [R_C, A, R_B]; see ``_cli_ops``), runs at each
given variant through ``oneshot_qcap.cli.run``, once per tree, in a child
process that imports the package from the tree's ``src``. The spec files
are written once, to one directory that both trees read. OpenBLAS runs on
the thread count the benchmark pins.

For every (op, variant) it prints whether the exit codes are equal, whether
the outputs are byte-identical, the number of ``numpy.linalg.eigh`` and
``eigvalsh`` calls the op made in each tree and, for outputs that differ, the
largest |difference| of the numeric leaves under each key that both outputs
hold (list indices dropped), the keys whose other leaves or number of leaves
differ, and the keys only one output holds. Then one line per workload
counts its byte-identical runs and sums its eigendecomposition calls in each
tree, and the last line sums it all up.
The exit code is 0 when every exit code is equal and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _named(name: str, dims, **extra) -> dict:
    return {"schema": "1", "type": "state", "name": name, "dims": dims, **extra}


def _bell_beside_mixed(labels, mixed_first: bool = False, **extra) -> dict:
    """A Bell pair on two of three qubit registers, named by the entries of
    ``labels``; the third, last or (``mixed_first``) first, is maximally
    mixed."""
    bell, mixed = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2, np.eye(2) / 2
    mat = np.kron(mixed, bell) if mixed_first else np.kron(bell, mixed)
    return {"schema": "1", "type": "state", "matrix": mat.tolist(),
            "dims": [[label, 2] for label in labels], **extra}


# The names of ``verification.CHECKS``, in its order.
FACTS = ("triangle", "monotonicity", "measurement_overlap", "gentle_operator",
         "gentle_povm", "hayashi_nagaoka", "dh_vs_relent", "sequential_union",
         "uniform_floor", "pure_rank_one", "neumark")


def _cli_ops(variant: int):
    """The CLI commands the benchmark does not run, on its spec documents at
    ``variant`` and four more states: every divergence, the converse and the
    achievable rate of every scenario, the converse without ``--scenario``,
    the converse with ``--optimize`` of every scenario whose converse is a
    minimum over sigma but ``p2p_ea``, which the benchmark optimizes, and
    the broadcast relaxation with ``--optimize`` (together, every minimum
    over sigma the SDP solves), the relaxation and identity-corollary
    bounds, the identity corollary given a ``--scenario`` (which it does not
    read: exit 1), the sum-rate converse of
    multiple access (which needs pure sender states), ``verify`` of each
    fact alone and of all of them at other dims and seed, the unassisted
    simulations at rates past the benchmark's R = 1, where the copies have
    more than three types, the point-to-point unassisted simulation at
    R = 1 and 2 on a depolarizing(0.2) qutrit whose classical resource's
    third letter never occurs, and each unassisted simulation with its
    (first) resource half a Bell pair with the channel input: rejected with
    exit 1, so a tree whose classicality check stops rejecting differs in
    its exit code; and the paths of ``simulate`` and ``sweep`` no benchmark
    op takes: multiple access decoding B first and swept over two rate
    pairs, and point-to-point and multiple access decoding B first at a given
    Hayashi-Nagaoka constant ``--c``; and the multiple-access achievable rate
    at its default, sequential strategy, as ``achievable_mac_ea_pgm`` bounds
    it at ``pgm_a_first``; and the receivers' builder on states whose
    registers are not in role order: the point-to-point simulation on a Bell
    pair listed [B', A], the channel-with-state simulation and relaxation
    bound on [S, A, B'] (a Bell pair on A, B' beside the maximally mixed S),
    and the broadcast simulation and ``bound converse --optimize`` on
    [R_C, A, R_B] (Bob's resource the maximally mixed R_C)."""
    import workloads as wl
    p2p = wl.op_for("solver_loops", "converse_optimize", variant).specs
    gp = wl.op_for("small_grid", "gp_ea_flip", variant).specs
    bc = wl.op_for("small_grid", "broadcast_ea", variant).specs
    mac = wl.op_for("dense_sim", "mac_ea_seq_21", variant).specs
    pure = {"channel": mac["channel"],
            "state": _named("bell", [["A", 2], ["RA", 2]]),
            "state-b": _named("bell", [["B", 2], ["RB", 2]])}
    pair = {"rho": p2p["state"],
            "sigma": _named("maximally_mixed", [["A", 2], ["B'", 2]])}
    # Orthogonal supports: D_H is unbounded at every eps.
    apart = {"rho": _named("basis", [["A", 2]], index=0),
             "sigma": _named("basis", [["A", 2]], index=1)}
    eps = str(wl.P_GRID[variant])
    gp_state_first = _bell_beside_mixed(["S", "A", "B'"], mixed_first=True,
                                        product=[["S"], ["B'"]])
    bc_swapped = _bell_beside_mixed(["RC", "A", "RB"], mixed_first=True)
    # A copy of U on A, with letters 0.5, 0.5 and 0: the third never occurs.
    qutrit = {"channel": {"schema": "1", "type": "channel", "name": "depolarizing",
                          "p": 0.2, "dims": 3, "labels": {"in": "A", "out": "B"}},
              "state": {"schema": "1", "type": "state",
                        "matrix": np.diag([0.5, 0, 0, 0, 0.5, 0, 0, 0, 0]).tolist(),
                        "dims": [["A", 3], ["U", 3]], "classical": ["U"]}}
    spec_args = ["--channel", "@channel", "--state", "@state"]

    def bound(kind: str, scenario: str | None, grid_op: str, *extra: str):
        """``bound kind`` at ``scenario`` on the specs, eps and delta of the
        ``small_grid`` op ``grid_op``, followed by ``extra``."""
        op = wl.op_for("small_grid", grid_op, variant)
        options = dict(zip(op.argv[2::2], op.argv[3::2]))
        argv = ["bound", kind] + (["--scenario", scenario] if scenario else [])
        argv += [a for key in op.specs for a in (f"--{key}", f"@{key}")]
        argv += ["--eps", options["--eps"]]
        if kind == "achievable":
            argv += ["--delta", options["--delta"]]
        return argv + list(extra), op.specs

    def with_options(workload: str, name: str, *options: str, command=None):
        """The op ``name`` of ``workload``, each ``--key value`` pair of
        ``options`` replacing its value or appended, run as ``command``
        when given."""
        op = wl.op_for(workload, name, variant)
        argv = list(op.argv)
        for key, value in zip(options[::2], options[1::2]):
            if key in argv:
                argv[argv.index(key) + 1] = value
            else:
                argv += [key, value]
        argv[0] = command or argv[0]
        return argv, op.specs

    def on_state(grid_op: str, state: dict):
        """The ``small_grid`` op ``grid_op`` with ``state`` for its state."""
        op = wl.op_for("small_grid", grid_op, variant)
        return list(op.argv), {**op.specs, "state": state}

    # The small_grid op of each scenario the benchmark bounds nowhere.
    grid = {"gp_ea": "gp_ea_flip", "broadcast_ea": "broadcast_ea",
            "mac_ea": "mac_ea_seq", "p2p_ua": "p2p_ua", "gp_ua": "gp_ua",
            "broadcast_ua": "broadcast_ua", "mac_ua": "mac_ua"}
    divergence = ["--rho", "@rho", "--sigma", "@sigma"]
    commands = {
        "divergence_dh": (["divergence", "dh", *divergence, "--eps", eps], pair),
        "divergence_dh_unbounded": (
            ["divergence", "dh", *divergence, "--eps", eps], apart),
        "divergence_dh_unbounded_eps0": (
            ["divergence", "dh", *divergence, "--eps", "0"], apart),
        "divergence_dmax": (["divergence", "dmax", *divergence], pair),
        "divergence_relative_entropy": (
            ["divergence", "relative-entropy", *divergence], pair),
        "achievable_p2p_ea": (["bound", "achievable", "--scenario", "p2p_ea",
                               *spec_args, "--eps", "0.1", "--delta", "0.05"], p2p),
        "achievable_mac_ea_pgm": (
            ["bound", "achievable", "--scenario", "mac_ea", *spec_args,
             "--state-b", "@state-b", "--eps", "0.05,0.1", "--delta", "0.02",
             "--strategy", "pgm_a_first"], mac),
        "relaxation_gp": (["bound", "relaxation", "--scenario", "gp", *spec_args,
                           "--eps", "0.15", "--optimize"], gp),
        "relaxation_broadcast": (["bound", "relaxation", "--scenario", "broadcast",
                                  *spec_args, "--eps", "0.1,0.1"], bc),
        "identity_corollary": (["bound", "identity-corollary",
                                "--dimA", str(2 + variant % 3), "--eps", eps], {}),
        "identity_corollary_scenario": (["bound", "identity-corollary",
                                         "--scenario", "gp", "--eps", eps], {}),
        **{f"converse_{name}": bound("converse", name, op)
           for name, op in grid.items()},
        **{f"achievable_{name}": bound("achievable", name, op)
           for name, op in grid.items() if name != "mac_ea"},
        # mac_ea's converse takes the state's marginals, with no minimum over
        # sigma to optimize; the benchmark optimizes p2p_ea's.
        **{f"converse_optimize_{name}": bound("converse", name, op, "--optimize")
           for name, op in grid.items() if name != "mac_ea"},
        "relaxation_broadcast_optimize": bound("relaxation", "broadcast",
                                               "broadcast_ea", "--optimize"),
        "converse_default_scenario": bound("converse", None, "p2p_ea_r1"),
        "converse_mac_ea_hdw": (
            ["bound", "converse", "--scenario", "mac_ea_hdw", *spec_args,
             "--state-b", "@state-b", "--eps", "0.05,0.1"], pure),
        **{f"verify_{fact}": (["verify", "--facts", fact, "--trials", "3",
                               "--dims", "2,3"], {}) for fact in FACTS},
        "verify_all_dims_3_5": (["verify", "--facts", "all", "--trials", "3",
                                 "--dims", "3,5", "--seed", "11"], {}),
        **{f"simulate_{name}_r{rates.replace(',', '_')}": with_options(
            "small_grid", name, "--R", rates)
           for name, rates in (("p2p_ua", "2"), ("p2p_ua", "3"), ("gp_ua", "3"),
                               ("broadcast_ua", "3,2"), ("mac_ua", "2,1"))},
        **{f"simulate_p2p_ua_qutrit_r{rate}": (
            with_options("small_grid", "p2p_ua", "--R", rate)[0], qutrit)
           for rate in ("1", "2")},
        # The other constraints hold: S and V are independent of U, the
        # second sender's UB is classical.
        **{f"simulate_{name}_quantum": on_state(name, state) for name, state in (
            ("p2p_ua", _named("bell", [["A", 2], ["U", 2]])),
            ("gp_ua", _bell_beside_mixed("AUS", product=[["S"], ["U"]])),
            ("broadcast_ua", _bell_beside_mixed("AUV")),
            ("mac_ua", _named("bell", [["A", 2], ["UA", 2]])))},
        "simulate_mac_ea_pgm_b_first": with_options(
            "dense_sim", "mac_ea_seq_21", "--strategy", "pgm_b_first"),
        "sweep_mac_ea_pgm_a_first": with_options(
            "dense_sim", "mac_ea_seq_21", "--strategy", "pgm_a_first",
            "--R", "1,1;2,1", command="sweep"),
        "simulate_p2p_ea_c": with_options("small_grid", "p2p_ea_r1", "--c", "0.3"),
        "simulate_mac_ea_pgm_b_first_c": with_options(
            "dense_sim", "mac_ea_seq_21", "--strategy", "pgm_b_first", "--c", "0.3"),
        "achievable_mac_ea_sequential": bound("achievable", "mac_ea", "mac_ea_seq"),
        # The receivers on states whose registers are not in role order.
        "simulate_p2p_ea_resource_first": on_state(
            "p2p_ea_r1", _named("bell", [["B'", 2], ["A", 2]])),
        "simulate_gp_ea_state_first": on_state("gp_ea_flip", gp_state_first),
        "simulate_broadcast_ea_resources_swapped": on_state(
            "broadcast_ea", bc_swapped),
        "converse_optimize_broadcast_ea_resources_swapped": (
            ["bound", "converse", "--scenario", "broadcast_ea", *spec_args,
             "--eps", "0.1,0.1", "--optimize"], {**bc, "state": bc_swapped}),
        "relaxation_gp_state_first": (
            ["bound", "relaxation", "--scenario", "gp", *spec_args, "--tau", "@tau",
             "--eps", "0.15"], {**gp, "state": gp_state_first}),
    }
    return [wl.Op("cli", name, variant, tuple(argv), specs)
            for name, (argv, specs) in commands.items()]


def _ops(variants: list[int]):
    import workloads as wl
    return [wl.op_for(w, name, v) for w, ops in wl.WORKLOADS.items()
            for name, _ in ops for v in variants] + [
        op for v in variants for op in _cli_ops(v)]


@contextlib.contextmanager
def counting_eig():
    """Count the calls of ``numpy.linalg.eigh`` and ``eigvalsh`` made
    inside: yields a one-element list that holds the count."""
    calls = [0]
    real = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

    def counted(fn):
        def call(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return call

    for name, fn in real.items():
        setattr(np.linalg, name, counted(fn))
    try:
        yield calls
    finally:
        for name, fn in real.items():
            setattr(np.linalg, name, fn)


def _child(job: dict) -> None:
    """Run the job's ops with its tree's package; print [[code, output,
    eigendecomposition calls], ...]."""
    import run  # noqa: F401  (pins the BLAS thread count before numpy loads)
    sys.path.insert(0, os.path.join(job["tree"], "src"))
    from oneshot_qcap import cli

    results = []
    for op in _ops(job["variants"]):
        out = io.StringIO()
        with counting_eig() as calls:
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.run(op.command(job["spec_dir"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a result to compare, too
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), calls[0]])
    json.dump(results, sys.stdout)


def _run_tree(tree: str, spec_dir: str, variants: list[int]) -> list:
    job = {"tree": os.path.abspath(tree), "spec_dir": spec_dir,
           "variants": variants}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          input=json.dumps(job), capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": BENCH})
    return json.loads(proc.stdout)


def _parse(text: str):
    """A report as JSON, a sweep as CSV rows with ';'-separated lists."""
    try:
        return json.loads(text)
    except ValueError:
        rows = list(csv.DictReader(io.StringIO(text)))
        return [{k: v.split(";") for k, v in row.items()} for row in rows]


def _leaves(doc, path: str = ""):
    """(key, value) for every leaf; the key drops list indices."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(doc, list):
        for v in doc:
            yield from _leaves(v, path + "[]")
    else:
        yield path, doc


def _number(value) -> float | None:
    """A numeric leaf or string (reports write 'inf' and 'nan' as strings)
    as a float; None for any other leaf."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _delta(a, b) -> float | None:
    """|a - b| for two numbers (0 for equal non-finite ones); None when
    either leaf is not a number."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf


def compare(old: str, new: str) -> tuple[dict, dict]:
    """Largest |difference| of the numeric leaves under each key both
    outputs hold, and what else differs, per key: ``added`` or ``removed``
    for a key only one output holds, ``differs`` where a non-numeric leaf
    or the number of leaves under the key differs."""
    a, b = {}, {}
    for doc, leaves in ((old, a), (new, b)):
        for key, value in _leaves(_parse(doc)):
            leaves.setdefault(key, []).append(value)
    deltas, other = {}, {}
    for key in [*a, *(k for k in b if k not in a)]:
        if key not in b or key not in a:
            other[key] = "removed" if key in a else "added"
            continue
        if len(a[key]) != len(b[key]):
            other[key] = "differs"
            continue
        for x, y in zip(a[key], b[key]):
            d = _delta(x, y)
            if d is None:
                if x != y:
                    other[key] = "differs"
            else:
                deltas[key] = max(deltas.get(key, 0.0), d)
    return deltas, other


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, BENCH)
    if argv == ["--child"]:
        _child(json.load(sys.stdin))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", help="source tree of the reference run")
    p.add_argument("new", help="source tree to compare with it")
    p.add_argument("--variants", type=int, nargs="+", default=[0, 5])
    args = p.parse_args(argv)
    ops = _ops(args.variants)
    with tempfile.TemporaryDirectory() as spec_dir:
        for op in ops:
            op.write_specs(spec_dir)
        old, new = (_run_tree(tree, spec_dir, args.variants)
                    for tree in (args.old, args.new))
    return summarize(ops, old, new)


def summarize(ops, old: list, new: list) -> int:
    """Print the comparison of each op's [code, output, eigendecomposition
    calls] in the ``old`` and ``new`` tree, per workload its byte-identical
    runs and summed calls, and the summary line; 0 when every exit code is
    equal, else 1."""
    codes_equal = identical = 0
    worst = 0.0
    # Per workload: eig calls in old and new, byte-identical runs, runs.
    sums: dict[str, list[int]] = {}
    for op, (code_a, out_a, eig_a), (code_b, out_b, eig_b) in zip(ops, old, new):
        same_code = code_a == code_b
        codes_equal += same_code
        tally = sums.setdefault(op.workload, [0, 0, 0, 0])
        tally[0] += eig_a
        tally[1] += eig_b
        tally[3] += 1
        line = f"{op.workload}/{op.name} v{op.variant}: exit {code_a}/{code_b} " \
               f"{'equal' if same_code else 'DIFFER'}, eig calls {eig_a} -> {eig_b}, "
        if out_a == out_b:
            identical += 1
            tally[2] += 1
            print(line + "byte-identical")
            continue
        deltas, other = compare(out_a, out_b)
        moved = {k: d for k, d in deltas.items() if d > 0}
        worst = max([worst, *moved.values()])
        print(line + "bytes differ")
        for key, d in sorted(moved.items(), key=lambda kv: -kv[1]):
            print(f"    {key}: max |delta| {d:.3g}")
        for key, what in other.items():
            print(f"    {key}: {what}")
    for workload, (eig_a, eig_b, same, runs) in sums.items():
        print(f"{workload}: {same} of {runs} byte-identical, "
              f"eig calls {eig_a} -> {eig_b}")
    total_a, total_b = (sum(s[i] for s in sums.values()) for i in (0, 1))
    print(f"{len(ops)} runs: {codes_equal} equal exit codes, {identical} "
          f"byte-identical, largest numeric |delta| {worst:.3g}, "
          f"eig calls {total_a} -> {total_b}")
    return 0 if codes_equal == len(ops) else 1


if __name__ == "__main__":
    sys.exit(main())
