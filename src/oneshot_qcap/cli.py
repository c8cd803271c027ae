"""Command-line front end: channel/state spec parsing and deterministic
JSON/CSV reports for divergences, rate bounds, protocol simulations, and the
randomized inequality-verification suite.

Exit codes: 0 = all asserted inequalities hold, 1 = input or validation
error (usage errors included), 2 = an inequality was violated beyond
tolerance, 3 = a numerical failure of a solver (``NumericalError`` or a
LAPACK ``LinAlgError``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
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
from .linalg import (DensityOp, DimensionCapError, Ket, NumericalError,
                     SystemLayout, basis_ket, max_entangled_ket, maximally_mixed)

__all__ = ["SpecError", "parse_spec", "run", "main"]

SCHEMA_VERSION = "1"


class SpecError(ValueError):
    """Schema violation with a path to the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# spec parsing

@contextlib.contextmanager
def _field(path: str):
    """Report a bad value met inside as an error in the field ``path``: a
    ValueError (LayoutError included), TypeError or IndexError becomes a
    SpecError at ``path``, and a nested SpecError gets ``path`` as a prefix.
    A builtin channel's missing, stray or out-of-range parameter is an error
    in that parameter's field.  The dimension cap, a LAPACK failure (a
    ValueError too) and numerical failures pass through as themselves."""
    try:
        yield
    except SpecError as exc:
        sep = "" if exc.path.startswith("[") else "."
        raise SpecError(f"{path}{sep}{exc.path}", exc.message) from exc.__cause__
    except (DimensionCapError, np.linalg.LinAlgError):
        raise
    except channels_mod.ParameterError as exc:  # names its own field
        raise SpecError(exc.parameter, str(exc)) from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise SpecError(path, str(exc)) from exc


def _typed(value, kind=(int, float), noun: str = "a number"):
    """``value`` if it is a ``kind``, by default a number; the one type check
    of spec values, so booleans are neither numbers nor integers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected {noun}, got {value!r}")
    return value


def _each(values, parse) -> list:
    """``parse`` of each entry of the list ``values``, entry i under ``[i]``."""
    parsed = []
    for i, value in enumerate(_typed(values, list, "a list")):
        with _field(f"[{i}]"):
            parsed.append(parse(value))
    return parsed


def _label(value) -> str:
    return _typed(value, str, "a label")


def _complex_entry(value) -> complex:
    """A number, or an [re, im] pair of numbers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_typed(value[0]), _typed(value[1]))
    return complex(_typed(value))


def _complex_matrix(rows) -> np.ndarray:
    if not rows:
        raise ValueError("expected a non-empty list of rows")
    return np.array(_each(rows, lambda row: _each(row, _complex_entry)),
                    dtype=complex)


def _register(item) -> tuple[str, int]:
    if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], str):
        raise TypeError(f"expected [label, dim], got {item!r}")
    return item[0], _typed(item[1], int, "an integer")


def _registers(doc: dict, key: str) -> SystemLayout:
    """The checked layout of ``doc[key]``, a list of [label, dim] pairs."""
    with _field(key):
        if not isinstance(doc[key], list) or not doc[key]:
            raise TypeError("expected a non-empty list of [label, dim] pairs")
        return SystemLayout(_each(doc[key], _register))


def _parse_channel(doc: dict) -> channels_mod.KrausChannel:
    layouts = {}
    for key in ("in_dims", "out_dims"):
        if key in doc:
            layouts[key] = _registers(doc, key)
        elif "kraus" in doc:
            raise SpecError(key, "required alongside 'kraus'")
    if "kraus" in doc:
        with _field("kraus"):
            return channels_mod.KrausChannel(
                _each(doc["kraus"], _complex_matrix), *layouts.values())
    if "name" not in doc:
        raise SpecError("name", "channel spec needs 'name' or 'kraus'")
    kwargs: dict[str, Any] = {}
    for key in ("dims", "p", "gamma"):
        if key in doc:
            with _field(key):
                kwargs[key] = (_typed(doc[key], int, "an integer") if key == "dims"
                               else float(_typed(doc[key])))
    labels = doc.get("labels", {})
    if not isinstance(labels, dict) or not set(labels) <= {"in", "out"}:
        raise SpecError("labels", f"expected an object with keys 'in' and/or "
                        f"'out', got {labels!r}")
    for key, label in labels.items():
        with _field(f"labels.{key}"):
            kwargs[f"{key}_label"] = _label(label)
    if "outputs" in doc:
        with _field("outputs"):
            kwargs["outputs"] = _each(doc["outputs"], lambda sub: _parse_state(
                _typed(sub, dict, "a state spec")))
    with _field("name"):
        ch = channels_mod.builtin(doc["name"], **kwargs)
    # Relabel / reshape the built-in channel's registers, one side at a time.
    for key, layout in layouts.items():
        with _field(key):
            sides = {"in_dims": ch.in_layout, "out_dims": ch.out_layout, key: layout}
            ch = channels_mod.KrausChannel(ch.kraus, *sides.values())
    return ch


_STATE_NAMES = ("max_entangled", "bell", "maximally_mixed", "basis",
                "classically_correlated")


def _parse_state(doc: dict) -> DensityOp:
    layout = _registers(doc, "dims") if "dims" in doc else None
    if "name" in doc:
        name = doc["name"]
        if name not in _STATE_NAMES:
            raise SpecError("name", f"unknown state {name!r}; "
                            f"choose from {_STATE_NAMES}")
        if layout is None:
            raise SpecError("dims", "named states need explicit 'dims'")
        dims = layout.dims
        if name in ("max_entangled", "bell", "classically_correlated") and (
                len(dims) != 2 or dims[0] != dims[1]):
            raise SpecError("dims", "needs two registers of equal dimension")
        if name in ("max_entangled", "bell"):
            state = max_entangled_ket(dims[0], *layout.labels).density()
        elif name == "maximally_mixed":
            state = maximally_mixed(layout)
        elif name == "basis":
            with _field("index"):
                index = _typed(doc.get("index", 0), int, "an integer")
                state = basis_ket(index, layout).density()
        else:  # classically_correlated
            d = dims[0]
            mat = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                mat[i * d + i, i * d + i] = 1.0 / d
            state = DensityOp(mat, layout)
    elif "ket" in doc:
        if layout is None:
            raise SpecError("dims", "'ket' states need explicit 'dims'")
        with _field("ket"):
            amp = np.array(_each(doc["ket"], _complex_entry))
            nrm = float(np.linalg.norm(amp))
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"amplitudes have norm {nrm!r}, expected 1")
            # Ket renormalizes what is within the tolerance.
            state = Ket(amp, layout).density()
    elif "matrix" in doc:
        if layout is None:
            raise SpecError("dims", "'matrix' states need explicit 'dims'")
        with _field("matrix"):
            state = DensityOp(_complex_matrix(doc["matrix"]), layout)
    else:
        raise SpecError("state", "needs one of 'name', 'ket', 'matrix'")
    # Each product group lists labels or label lists.
    with _field("product"):
        for parts in _each(doc.get("product", []), lambda grp: _each(
                grp, lambda part: _each([part] if isinstance(part, str) else part,
                                        _label))):
            coding_mod.product_check(state, parts)
    with _field("classical"):
        for label in _each(doc.get("classical", []), _label):
            coding_mod.classical_blocks(state, label)
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


def _load_specs(args, reads, required, command: str, options=()) -> dict:
    """``args``' --channel, --state, --state-b and --tau specs, each parsed
    once (None when not given); those in ``required`` must be given.  Each
    of the further ``options``, of --sigma and of these specs that is given
    but that ``command`` does not read is rejected before any spec opens."""
    paths = {key: getattr(args, key) for key in ("channel", "state", "state_b", "tau")}
    for key in (*options, "sigma", *paths):
        flag = key.replace("_", "-")
        given = getattr(args, key, None) is not None
        if given and key not in reads:
            spec = "" if key in options else "the spec "
            raise SpecError(flag, f"{command} does not read {spec}--{flag}")
        if not given and key in required:
            raise SpecError(flag, f"{command} needs the spec --{flag}")
    return {key: _load_spec(path) if path else None for key, path in paths.items()}


# ---------------------------------------------------------------------------
# deterministic serialization

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"a report value of {type(obj)} has no JSON form")


def _write(text: str, output: str | None):
    """Write ``text`` to the file ``output``, or to stdout without one."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, output: str | None):
    _write(json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n", output)


def _number(text, option: str, kind=float):
    """``text`` as a ``kind``; a value that does not parse is an error in
    the field ``option``."""
    with _field(option):
        return kind(text)


def _numbers(text, option: str, kind=float, sep: str = ",") -> list:
    return [_number(x, option, kind) for x in str(text).split(sep)]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_divergence(args) -> int:
    rho = _load_spec(args.rho)
    sigma = _load_spec(args.sigma)
    if args.kind == "dh":
        result = div_mod.dh_eps(rho, sigma, args.eps)
    elif args.kind == "dmax":
        result = {"value": div_mod.dmax(rho, sigma)}
    else:  # relative-entropy
        result = {"value": div_mod.relative_entropy(rho, sigma)}
    _emit({"command": "divergence", "kind": args.kind, "eps": args.eps,
           "inputs": {"rho": args.rho, "sigma": args.sigma},
           "result": result}, args.output)
    return 0


def _simulate_reports(args, points):
    """(report, floors, holds) of the scenario at each (R, eps, delta) of
    ``points``, its specs loaded once."""
    spec = coding_mod.SCENARIOS[args.scenario]
    if args.strategy not in (spec.strategies or ("sequential",)):
        takers = [name for name, sc in coding_mod.SCENARIOS.items()
                  if sc.strategies]
        raise ValueError(f"--strategy {args.strategy} applies only to "
                         f"{', '.join(takers)}; {spec.name} has one decoder")
    specs = _load_specs(args, ("channel", *spec.inputs), spec.inputs, spec.name)
    for R, eps, delta in points:
        # One value serves every message stream; see Scenario.per_stream.
        rates, eps = _numbers(R, "R", int), _numbers(eps, "eps")
        delta = _number(delta, "delta")
        if spec.assisted:
            # Each assisted simulator is simulate_<scenario>, taking the
            # scenario's spec inputs in table order after the channel.
            simulate = getattr(coding_mod, f"simulate_{spec.name}")
            options = {"strategy": args.strategy} if spec.strategies else {}
            rep = simulate(specs["channel"], *(specs[key] for key in spec.inputs),
                           rates, eps, delta, c=args.c, **options)
        else:
            rep = coding_mod.simulate_unassisted(
                spec.name.removesuffix("_ua"), specs["channel"], specs["state"],
                rates, eps, delta, psi_b=specs["state_b"], tau=specs["tau"], c=args.c)
        floors = coding_mod.report_floors(rep, sigmas=args.floor_sigmas,
                                          seed=args.seed)
        yield rep, floors, rep.bound_satisfied and all(f["holds"] for f in floors)


def _cmd_simulate(args) -> int:
    (rep, floors, ok), = _simulate_reports(args, [(args.R, args.eps, args.delta)])
    _emit({"command": "simulate", "scenario": args.scenario, "seed": args.seed,
           "inputs": {"channel": args.channel, "state": args.state,
                      "state_b": args.state_b, "tau": args.tau,
                      "R": args.R, "eps": args.eps, "delta": args.delta,
                      "strategy": args.strategy},
           "report": {**_jsonable(rep), "floors": _jsonable(floors)},
           "holds": bool(ok)}, args.output)
    return 0 if ok else 2


# What each bound kind reads besides --eps, --output and its spec files
# (bounds.spec_inputs): its options, each with the value it takes when not
# given.  The minimizing kinds read --restarts and ignore it.
_MINIMUM_OPTIONS = {"optimize": False, "restarts": None, "seed": 0}
_BOUND_OPTIONS = {"converse": _MINIMUM_OPTIONS,
                  "achievable": {"delta": 0.1, "strategy": "sequential", "seed": 0},
                  "relaxation": _MINIMUM_OPTIONS, "identity-corollary": {"dimA": 2}}


def _cmd_bound(args) -> int:
    command, reads = f"bound {args.kind}", ()
    kind = bounds_mod.BOUND_KINDS.get(args.kind)
    scenario = kind.default if kind and args.scenario is None else args.scenario
    if kind:
        with _field("scenario"):
            reads = ("scenario", *bounds_mod.spec_inputs(args.kind, scenario))
    options = _BOUND_OPTIONS[args.kind]
    specs = _load_specs(args, (*reads, *options), ("channel", "state") if reads else (),
                        command, [*(key for opts in _BOUND_OPTIONS.values()
                                    for key in opts), "scenario"])
    args = argparse.Namespace(**{**options, **vars(args)})
    if args.kind == "identity-corollary":
        ceiling, (lam, avec) = bounds_mod.identity_channel_corollary(
            args.dimA, _number(args.eps, "eps"))
        _emit({"command": "bound", "kind": args.kind, "dimA": args.dimA,
               "eps": args.eps,
               "result": {"ceiling": ceiling, "witness_lambda": lam,
                          "witness_a": avec}}, args.output)
        return 0
    ch, psi, psi_b, tau = specs.values()
    sigmas = [_load_spec(p) for p in (args.sigma or [])]
    eps = _numbers(args.eps, "eps")
    if args.kind == "converse":
        rb = bounds_mod.converse_value(
            scenario, ch, psi, eps, sigma_candidates=sigmas or None,
            optimize=args.optimize, psi_b=psi_b, tau=tau)
    elif args.kind == "achievable":
        rb = bounds_mod.achievable_rate(
            scenario, ch, psi, eps, args.delta, psi_b=psi_b, tau=tau,
            strategy=args.strategy)
    else:  # relaxation
        rb = bounds_mod.corollary_relaxations(
            scenario, ch, psi, eps, sigma_candidates=sigmas or None,
            optimize=args.optimize, tau=tau)
    _emit({"command": "bound", "kind": args.kind, "scenario": scenario,
           "seed": args.seed, "result": _jsonable(rb)}, args.output)
    return 0


def _cmd_verify(args) -> int:
    names = None if args.facts == "all" else [s.strip()
                                              for s in args.facts.split(",")]
    dims = tuple(_numbers(args.dims, "dims", int))
    if min(dims) < 1:
        raise SpecError("dims", f"each dimension must be at least 1, got {args.dims}")
    suite = verify_mod.run_suite(names, trials=args.trials, seed=args.seed, dims=dims)
    _emit({"command": "verify", "facts": args.facts, "trials": args.trials,
           "dims": args.dims, "seed": args.seed,
           "result": _jsonable(suite)}, args.output)
    return 0 if suite["holds"] else 2


def _cmd_sweep(args) -> int:
    # Grid points are ';'-separated; two-stream values inside a point keep
    # their ',' form (e.g. --R "1,1;2,1").
    grid_r = str(args.R).split(";")
    grid_eps = str(args.eps).split(";")
    grid_delta = _numbers(args.delta, "delta", sep=";")
    points = list(itertools.product(grid_r, grid_eps, grid_delta))
    rows = []
    worst_ok = True
    for idx, ((r, e, d), (rep, floors, ok)) in enumerate(
            zip(points, _simulate_reports(args, points))):
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
    p.add_argument("kind", choices=list(_BOUND_OPTIONS))
    p.add_argument("--scenario", help="; ".join(
        f"{name}: {' '.join(kind.scenarios)}"
        + (f" (default {kind.default})" if kind.default else "")
        for name, kind in bounds_mod.BOUND_KINDS.items()))
    p.add_argument("--channel")
    p.add_argument("--state")
    p.add_argument("--state-b", dest="state_b")
    p.add_argument("--tau")
    p.add_argument("--sigma", action="append",
                   help="candidate sigma state spec (repeatable)")
    p.add_argument("--eps", default="0.0")
    # Absent unless given: _BOUND_OPTIONS rejects or defaults each.
    unset = argparse.SUPPRESS
    p.add_argument("--delta", type=float, default=unset)
    p.add_argument("--dimA", type=int, default=unset)
    p.add_argument("--optimize", action="store_true", default=unset)
    p.add_argument("--restarts", type=int, default=unset,
                   help="ignored: --optimize solves the minimum over sigma "
                        "exactly; kept so that older command lines parse")
    p.add_argument("--strategy", default=unset, choices=coding_mod.MAC_STRATEGIES)
    p.add_argument("--seed", type=int, default=unset,
                   help="echoed in the report; bounds draw nothing at random")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`run` reads its arguments with, built once per
    process: parsing leaves a parser as it was."""
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    # LinAlgError is a ValueError, but no input is bad that LAPACK fails on:
    # a non-finite entry is rejected where the spec is read.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:  # SpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
