"""Command-line front end: channel/state spec parsing and deterministic
JSON/CSV reports for divergences, rate bounds, protocol simulations, and the
randomized inequality-verification suite.

Exit codes: 0 = all asserted inequalities hold, 1 = input or validation
error (usage errors included), 2 = an inequality was violated beyond
tolerance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import channels as channels_mod
from . import coding as coding_mod
from . import divergences as div_mod
from . import verification as verify_mod
from .linalg import (DensityOp, Ket, SystemLayout, basis_ket, max_entangled_ket,
                     maximally_mixed)

__all__ = ["SpecError", "parse_spec", "run", "main"]

SCHEMA_VERSION = "1"


class SpecError(ValueError):
    """Schema violation with a path to the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# spec parsing

def _complex_entry(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        return complex(value[0], value[1])
    raise SpecError(path, f"expected a real number or [re, im] pair, got {value!r}")


def _complex_matrix(rows, path: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SpecError(path, "expected a non-empty list of rows")
    return np.array([[_complex_entry(v, f"{path}[{i}][{j}]")
                      for j, v in enumerate(row)]
                     for i, row in enumerate(rows)], dtype=complex)


def _registers(field, path: str) -> list[tuple[str, int]]:
    if not isinstance(field, list) or not field:
        raise SpecError(path, "expected a non-empty list of [label, dim] pairs")
    regs = []
    for i, item in enumerate(field):
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], str) or not isinstance(item[1], int)):
            raise SpecError(f"{path}[{i}]", f"expected [label, dim], got {item!r}")
        regs.append((item[0], item[1]))
    return regs


def _parse_channel(doc: dict) -> channels_mod.KrausChannel:
    if "kraus" in doc:
        for key in ("in_dims", "out_dims"):
            if key not in doc:
                raise SpecError(key, "required alongside 'kraus'")
        in_regs = _registers(doc["in_dims"], "in_dims")
        out_regs = _registers(doc["out_dims"], "out_dims")
        kraus = [_complex_matrix(k, f"kraus[{i}]")
                 for i, k in enumerate(doc["kraus"])]
        in_dim = int(np.prod([d for _, d in in_regs]))
        out_dim = int(np.prod([d for _, d in out_regs]))
        report = channels_mod.validate(kraus, in_dim, out_dim)
        if not report.is_cptp:
            raise SpecError("kraus", "; ".join(report.violations))
        return channels_mod.KrausChannel(kraus, in_regs, out_regs)
    if "name" not in doc:
        raise SpecError("name", "channel spec needs 'name' or 'kraus'")
    name = doc["name"]
    kwargs: dict[str, Any] = {}
    if "dims" in doc:
        kwargs["dims"] = int(doc["dims"])
    for key in ("p", "gamma"):
        if key in doc:
            kwargs[key] = float(doc[key])
    labels = doc.get("labels", {})
    if "in" in labels:
        kwargs["in_label"] = labels["in"]
    if "out" in labels:
        kwargs["out_label"] = labels["out"]
    if "outputs" in doc:
        outs = []
        for i, sub in enumerate(doc["outputs"]):
            st = parse_spec({"schema": SCHEMA_VERSION, "type": "state", **sub})
            outs.append(st)
        kwargs["outputs"] = outs
    try:
        ch = channels_mod.builtin(name, **kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError("name", str(exc)) from exc
    if "in_dims" in doc or "out_dims" in doc:
        # Relabel / reshape built-in channel registers when requested.
        in_regs = _registers(doc["in_dims"], "in_dims") if "in_dims" in doc \
            else list(ch.in_layout.registers)
        out_regs = _registers(doc["out_dims"], "out_dims") if "out_dims" in doc \
            else list(ch.out_layout.registers)
        ch = channels_mod.KrausChannel(list(ch.kraus), in_regs, out_regs)
    return ch


_STATE_NAMES = ("max_entangled", "bell", "maximally_mixed", "basis",
                "classically_correlated")


def _parse_state(doc: dict) -> DensityOp:
    dims = _registers(doc["dims"], "dims") if "dims" in doc else None
    if "name" in doc:
        name = doc["name"]
        if name not in _STATE_NAMES:
            raise SpecError("name", f"unknown state {name!r}; "
                            f"choose from {_STATE_NAMES}")
        if dims is None:
            raise SpecError("dims", "named states need explicit 'dims'")
        layout = SystemLayout(dims)
        if name in ("max_entangled", "bell", "classically_correlated") and (
                len(dims) != 2 or dims[0][1] != dims[1][1]):
            raise SpecError("dims", "needs two registers of equal dimension")
        if name in ("max_entangled", "bell"):
            state = max_entangled_ket(dims[0][1], dims[0][0], dims[1][0]).density()
        elif name == "maximally_mixed":
            state = maximally_mixed(layout)
        elif name == "basis":
            state = basis_ket(int(doc.get("index", 0)), layout).density()
        else:  # classically_correlated
            d = dims[0][1]
            mat = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                mat[i * d + i, i * d + i] = 1.0 / d
            state = DensityOp(mat, layout)
    elif "ket" in doc:
        if dims is None:
            raise SpecError("dims", "'ket' states need explicit 'dims'")
        amp = np.array([_complex_entry(v, f"ket[{i}]")
                        for i, v in enumerate(doc["ket"])])
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-9:
            raise SpecError("ket", f"amplitudes have norm {nrm!r}, expected 1")
        # Ket renormalizes what is within the tolerance.
        state = Ket(amp, SystemLayout(dims)).density()
    elif "matrix" in doc:
        if dims is None:
            raise SpecError("dims", "'matrix' states need explicit 'dims'")
        mat = _complex_matrix(doc["matrix"], "matrix")
        try:
            state = DensityOp(mat, SystemLayout(dims))
        except ValueError as exc:
            raise SpecError("matrix", str(exc)) from exc
    else:
        raise SpecError("state", "needs one of 'name', 'ket', 'matrix'")
    for grp in doc.get("product", []):
        try:
            coding_mod.product_check(state, [[l] for l in grp] if all(
                isinstance(l, str) for l in grp) else grp)
        except ValueError as exc:
            raise SpecError("product", str(exc)) from exc
    for label in doc.get("classical", []):
        try:
            coding_mod.classical_blocks(state, label)
        except ValueError as exc:
            raise SpecError("classical", str(exc)) from exc
    return state


def parse_spec(doc: dict):
    """Validate a schema-1 JSON document into a channel or a state."""
    if not isinstance(doc, dict):
        raise SpecError("$", "spec must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SpecError("schema", f"expected \"{SCHEMA_VERSION}\", "
                        f"got {doc.get('schema')!r}")
    kind = doc.get("type")
    if kind == "channel":
        return _parse_channel(doc)
    if kind == "state":
        return _parse_state(doc)
    raise SpecError("type", f"expected 'channel' or 'state', got {kind!r}")


def _load_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(path, f"invalid JSON: {exc}") from exc
    return parse_spec(doc)


# ---------------------------------------------------------------------------
# deterministic serialization

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _jsonable(float(obj))
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Fields kept out of repr hold internals, not results.
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    return repr(obj)


def _write(text: str, output: str | None):
    """Write ``text`` to the file ``output``, or to stdout without one."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, output: str | None):
    _write(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n", output)


def _floats(text: str) -> list[float]:
    return [float(x) for x in str(text).split(",")]


def _ints(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",")]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_divergence(args) -> int:
    rho = _load_spec(args.rho)
    sigma = _load_spec(args.sigma)
    if args.kind == "dh":
        res = div_mod.dh_eps(rho, sigma, args.eps)
        result = {"value": res.value, "unbounded": res.unbounded,
                  "dual_bound": res.dual_bound,
                  "witness": {"operator": res.witness.operator,
                              "type1": res.witness.type1,
                              "type2": res.witness.type2}}
    elif args.kind == "dmax":
        result = {"value": div_mod.dmax(rho, sigma)}
    else:  # relative-entropy
        result = {"value": div_mod.relative_entropy(rho, sigma)}
    _emit({"command": "divergence", "kind": args.kind, "eps": args.eps,
           "inputs": {"rho": args.rho, "sigma": args.sigma},
           "result": result}, args.output)
    return 0


def _simulate_report(args):
    spec = coding_mod.SCENARIOS[args.scenario]
    if args.strategy not in (spec.strategies or ("sequential",)):
        takers = [name for name, sc in coding_mod.SCENARIOS.items()
                  if sc.strategies]
        raise ValueError(f"--strategy {args.strategy} applies only to "
                         f"{', '.join(takers)}; {spec.name} has one decoder")
    paths = {"state": args.state, "state_b": args.state_b, "tau": args.tau}
    for key in spec.inputs:
        if paths[key] is None:
            flag = key.replace("_", "-")
            raise SpecError(flag, f"{spec.name} needs the spec --{flag}")
    ch = _load_spec(args.channel)
    specs = {key: _load_spec(path) if path else None for key, path in paths.items()}
    # One value serves every message stream; see Scenario.per_stream.
    rates, eps, delta = _ints(args.R), _floats(args.eps), float(args.delta)
    if spec.assisted:
        # Each assisted simulator is simulate_<scenario>, taking the
        # scenario's spec inputs in table order after the channel.
        simulate = getattr(coding_mod, f"simulate_{spec.name}")
        options = {"strategy": args.strategy} if spec.strategies else {}
        rep = simulate(ch, *(specs[key] for key in spec.inputs), rates, eps,
                       delta, c=args.c, **options)
    else:
        rep = coding_mod.simulate_unassisted(
            spec.name.removesuffix("_ua"), ch, specs["state"], rates, eps, delta,
            psi_b=specs["state_b"], tau=specs["tau"], c=args.c)
    floors = coding_mod.report_floors(rep, sigmas=args.floor_sigmas,
                                      seed=args.seed)
    return rep, floors, rep.bound_satisfied and all(f["holds"] for f in floors)


def _cmd_simulate(args) -> int:
    rep, floors, ok = _simulate_report(args)
    _emit({"command": "simulate", "scenario": args.scenario, "seed": args.seed,
           "inputs": {"channel": args.channel, "state": args.state,
                      "state_b": args.state_b, "tau": args.tau,
                      "R": args.R, "eps": args.eps, "delta": args.delta,
                      "strategy": args.strategy},
           "report": {**_jsonable(rep), "floors": _jsonable(floors)},
           "holds": bool(ok)}, args.output)
    return 0 if ok else 2


def _cmd_bound(args) -> int:
    if args.kind == "identity-corollary":
        ceiling, (lam, avec) = bounds_mod.identity_channel_corollary(
            args.dimA, float(args.eps))
        _emit({"command": "bound", "kind": args.kind, "dimA": args.dimA,
               "eps": args.eps,
               "result": {"ceiling": ceiling, "witness_lambda": lam,
                          "witness_a": avec}}, args.output)
        return 0
    for flag in ("channel", "state"):
        if getattr(args, flag) is None:
            raise SpecError(flag, f"bound {args.kind} needs the spec --{flag}")
    ch = _load_spec(args.channel)
    psi = _load_spec(args.state)
    psi_b = _load_spec(args.state_b) if args.state_b else None
    tau = _load_spec(args.tau) if args.tau else None
    sigmas = [_load_spec(p) for p in (args.sigma or [])]
    eps = _floats(args.eps)
    if args.kind == "converse":
        rb = bounds_mod.converse_value(
            args.scenario, ch, psi, eps, sigma_candidates=sigmas or None,
            optimize=args.optimize, psi_b=psi_b, tau=tau,
            restarts=args.restarts, seed=args.seed)
    elif args.kind == "achievable":
        rb = bounds_mod.achievable_rate(
            args.scenario, ch, psi, eps, args.delta, psi_b=psi_b, tau=tau,
            strategy=args.strategy)
    else:  # relaxation
        rb = bounds_mod.corollary_relaxations(
            args.scenario, ch, psi, eps, sigma_candidates=sigmas or None,
            optimize=args.optimize, restarts=args.restarts, seed=args.seed)
    _emit({"command": "bound", "kind": args.kind, "scenario": args.scenario,
           "seed": args.seed, "result": _jsonable(rb)}, args.output)
    return 0


def _cmd_verify(args) -> int:
    names = None if args.facts == "all" else [s.strip()
                                              for s in args.facts.split(",")]
    suite = verify_mod.run_suite(names, trials=args.trials,
                                 dims=tuple(_ints(args.dims)), seed=args.seed)
    _emit({"command": "verify", "facts": args.facts, "trials": args.trials,
           "dims": args.dims, "seed": args.seed,
           "result": _jsonable(suite)}, args.output)
    return 0 if suite["holds"] else 2


def _cmd_sweep(args) -> int:
    # Grid points are ';'-separated; two-stream values inside a point keep
    # their ',' form (e.g. --R "1,1;2,1").
    grid_r = str(args.R).split(";")
    grid_eps = str(args.eps).split(";")
    grid_delta = [float(x) for x in str(args.delta).split(";")]
    rows = []
    worst_ok = True
    for idx, (r, e, d) in enumerate(itertools.product(grid_r, grid_eps,
                                                      grid_delta)):
        sub = argparse.Namespace(**vars(args))
        sub.R, sub.eps, sub.delta = r, e, d
        rep, floors, ok = _simulate_report(sub)
        worst_ok = worst_ok and ok
        rows.append({
            "index": idx,
            "R": r,
            "eps": e,
            "delta": d,
            "rates": ";".join(repr(v) for v in rep.rates),
            "worst_error": repr(rep.worst_error),
            "avg_error": repr(rep.avg_error),
            "reported_error": repr(rep.reported_error),
            "analytic_bound": repr(rep.analytic_bound),
            "hn_bound": repr(rep.hn_bound),
            "dh_values": ";".join(repr(v) for v in rep.dh_values),
            "rate_feasible": rep.rate_feasible,
            "bound_satisfied": rep.bound_satisfied,
            "floors_hold": all(f["holds"] for f in floors),
        })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.output)
    return 0 if worst_ok else 2


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common_sim_args(p: argparse.ArgumentParser):
    p.add_argument("--channel", required=True, help="channel spec JSON path")
    p.add_argument("--state", required=True, help="input-state spec JSON path")
    p.add_argument("--state-b", dest="state_b", help="second sender state")
    p.add_argument("--tau", help="channel-state spec (channel-with-state)")
    p.add_argument("--R", required=True,
                   help="rate in bits; 'r1,r2' for two streams")
    p.add_argument("--eps", required=True,
                   help="error budget; 'e1,e2' for two streams")
    p.add_argument("--delta", required=True,
                   help="smoothing slack; ';'-separated values when sweeping")
    p.add_argument("--strategy", default="sequential",
                   choices=coding_mod.MAC_STRATEGIES)
    p.add_argument("--c", type=float, default=None,
                   help="override the operator-inequality constant")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--floor-sigmas", dest="floor_sigmas", type=int, default=5)
    p.add_argument("--output", help="write the JSON report here")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as input errors: exit code 1, like a bad spec."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="oneshot-qcap",
        description="One-shot classical-communication bounds and exact "
                    "protocol simulation for small quantum channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="evaluate a divergence")
    p.add_argument("kind", choices=["dh", "dmax", "relative-entropy"])
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("bound", help="evaluate a rate bound")
    p.add_argument("kind", choices=["converse", "achievable", "relaxation",
                                    "identity-corollary"])
    p.add_argument("--scenario", default="p2p_ea",
                   choices=[*coding_mod.SCENARIOS, *bounds_mod.EXTRA_SCENARIOS])
    p.add_argument("--channel")
    p.add_argument("--state")
    p.add_argument("--state-b", dest="state_b")
    p.add_argument("--tau")
    p.add_argument("--sigma", action="append",
                   help="candidate sigma state spec (repeatable)")
    p.add_argument("--eps", default="0.0")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--dimA", dest="dimA", type=int, default=2)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--strategy", default="sequential",
                   choices=coding_mod.MAC_STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("simulate", help="run one coding protocol exactly")
    p.add_argument("scenario", choices=list(coding_mod.SCENARIOS))
    _add_common_sim_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="randomized inequality self-checks")
    p.add_argument("--facts", default="all",
                   help="'all' or comma-separated check names")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dims", default="2,4,8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="grid of simulations, CSV output")
    p.add_argument("scenario", choices=list(coding_mod.SCENARIOS))
    _add_common_sim_args(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
