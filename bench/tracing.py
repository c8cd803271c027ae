"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``instrument`` replaces public
names with timing wrappers in every ``oneshot_qcap`` module that looks them
up, plus ``numpy.linalg.eigh``/``eigvalsh``, and ``restore`` puts the
originals back. Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the part of it that child spans
cover. An eigendecomposition counts against the innermost open span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DUAL_SLACK = 1e-12


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "dim", "error",
                 "flag", "eig_calls", "eig_max_dim")

    def __init__(self, id_, parent, op, name, start):
        self.id, self.parent, self.op, self.name = id_, parent, op, name
        self.start, self.end = start, start
        self.dim = 0
        self.error = False
        self.flag = False
        self.eig_calls = 0
        self.eig_max_dim = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_list(self) -> list:
        return [getattr(self, s) for s in Span.__slots__]


class Recorder:
    """Keeps every finished span of the traced run in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def eig(self, dim: int) -> None:
        if self._stack:
            span = self._stack[-1]
            span.eig_calls += 1
            span.eig_max_dim = max(span.eig_max_dim, dim)

    def call(self, name: str, fn, args, kwargs, dim=None, flag=None):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, error=True)
            raise
        if dim is not None:
            span.dim = dim(args, result)
        if flag is not None:
            span.flag = flag(result)
        self.close(span)
        return result


# ---------------------------------------------------------------------------
# what gets wrapped

def _matrix_dim(x) -> int:
    return int(np.shape(getattr(x, "matrix", x))[0])


def _dual_violation(res) -> bool:
    return (not res.unbounded) and res.dual_bound < res.value - DUAL_SLACK


@dataclass(frozen=True)
class Target:
    """A public function, the span name its calls get, and extra data."""

    module: str
    attr: str
    span: str
    dim: Callable | None = None
    flag: Callable | None = None


TARGETS = (
    Target("linalg", "partial_trace", "linalg.partial_trace"),
    Target("linalg", "tensor", "linalg.tensor"),
    Target("linalg", "embed", "linalg.embed",
           dim=lambda args, res: _matrix_dim(res)),
    Target("channels", "apply_on", "channels.apply_on"),
    Target("channels", "binary_test_projector",
           "channels.binary_test_projector"),
    Target("channels", "neumark_dilate", "channels.neumark_dilate"),
    Target("divergences", "dh_eps", "divergences.dh_eps",
           dim=lambda args, res: _matrix_dim(args[0]), flag=_dual_violation),
    Target("divergences", "dh_rank1_oracle", "divergences.dh_rank1_oracle"),
    *(Target("coding", f"simulate_{s}", "coding.simulate")
      for s in ("p2p_ea", "gp_ea", "broadcast_ea", "mac_ea", "unassisted")),
    Target("coding", "build_position_povm", "coding.build_position_povm",
           dim=lambda args, res: res.layout.dim),
    Target("coding", "report_floors", "coding.report_floors"),
    Target("coding", "converse_floor", "coding.converse_floor"),
    Target("bounds", "converse_value", "bounds.converse_value"),
    Target("verification", "run_check", "verification.run_check"),
    Target("cli", "parse_spec", "cli.parse_spec"),
)
LAYERS = ("linalg", "channels", "divergences", "coding", "bounds",
          "verification", "cli")
PACKAGE = "oneshot_qcap"


@dataclass
class Instrumentation:
    """Undo log of every attribute that ``instrument`` replaced."""

    saved: list = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _wrapper(rec: Recorder, target: Target, fn):
    def traced(*args, **kwargs):
        return rec.call(target.span, fn, args, kwargs, target.dim, target.flag)
    traced.__wrapped__ = fn
    return traced


def instrument(rec: Recorder) -> Instrumentation:
    """Route the package's public calls and numpy eigensolvers through ``rec``."""
    inst = Instrumentation()
    modules = [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]

    def replace(owner, attr, new):
        inst.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for target in TARGETS:
        original = getattr(importlib.import_module(f"{PACKAGE}.{target.module}"),
                           target.attr)
        traced = _wrapper(rec, target, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, attr, traced)

    density_cls = importlib.import_module(f"{PACKAGE}.linalg").DensityOp
    density_init = density_cls.__init__

    def traced_init(self, matrix, *args, **kwargs):
        rec.call("linalg.densityop", density_init, (self, matrix) + args,
                 kwargs)
    replace(density_cls, "__init__", traced_init)

    for attr in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, attr)

        def counted(a, *args, _fn=original, **kwargs):
            rec.eig(int(np.shape(a)[-1]))
            return _fn(a, *args, **kwargs)
        replace(np.linalg, attr, counted)
    return inst


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    max_dim: int = 0
    flags: int = 0
    eig_calls: int = 0
    eig_max_dim: int = 0


def by_name(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, self time, dims and eigendecompositions per span name."""
    selfs = self_times(spans)
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.self_s += selfs[s.id]
        st.max_dim = max(st.max_dim, s.dim)
        st.flags += s.flag
        st.eig_calls += s.eig_calls
        st.eig_max_dim = max(st.eig_max_dim, s.eig_max_dim)
    return stats


def escaped_errors(spans: list[Span]) -> dict[str, int]:
    """Per layer, exceptions that left a span of that layer for another."""
    index = {s.id: s for s in spans}
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.error:
            parent = index.get(s.parent)
            if parent is None or parent.layer != s.layer:
                out[s.layer] += 1
    return out


def layer_self_shares(spans: list[Span]) -> dict[str, float]:
    """Share of the spans' total self time that falls in each layer."""
    selfs = self_times(spans)
    per_layer: dict[str, float] = defaultdict(float)
    for s in spans:
        per_layer[s.layer] += selfs[s.id]
    total = sum(per_layer.values()) or 1.0
    return {k: v / total for k, v in per_layer.items()}


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON array per span, fields in ``Span.__slots__`` order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(list(Span.__slots__)) + "\n")
        for s in spans:
            fh.write(json.dumps(s.as_list()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

CALLS_AND_SELF = (
    "linalg.densityop", "linalg.partial_trace", "linalg.tensor", "linalg.embed",
    "channels.apply_on", "channels.binary_test_projector",
    "channels.neumark_dilate", "divergences.dh_eps",
    "divergences.dh_rank1_oracle", "coding.simulate",
    "coding.build_position_povm", "coding.converse_floor",
    "bounds.converse_value", "verification.run_check", "cli.run",
)
SELF_ONLY = ("coding.report_floors", "cli.parse_spec")
MAX_DIM = ("linalg.embed", "divergences.dh_eps", "coding.build_position_povm")
EIG_LAYERS = ("linalg", "divergences", "coding")


def per_layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple]:
    """Metric name -> (value, unit); counts and times are per op."""
    stats = by_name(spans)

    def get(name: str) -> NameStats:
        return stats.get(name, NameStats())

    out: dict[str, tuple] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (get(name).calls / n_ops, "count/op")
        out[f"{name}.self_s"] = (get(name).self_s / n_ops, "s/op")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (get(name).self_s / n_ops, "s/op")
    for name in MAX_DIM:
        out[f"{name}.max_dim"] = (get(name).max_dim, "dim")
    for layer in EIG_LAYERS:
        in_layer = [st for name, st in stats.items()
                    if name.startswith(layer + ".")]
        out[f"{layer}.eig.calls"] = (
            sum(st.eig_calls for st in in_layer) / n_ops, "count/op")
        if layer == "coding":
            out["coding.eig.max_dim"] = (
                max((st.eig_max_dim for st in in_layer), default=0), "dim")
    dh = get("divergences.dh_eps")
    out["divergences.dh_eps.eig_per_call"] = (
        dh.eig_calls / dh.calls if dh.calls else 0.0, "count/call")
    out["divergences.dh_eps.dual_violations"] = (dh.flags / n_ops, "count/op")
    errors = escaped_errors(spans)
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors.get(layer, 0) / n_ops, "count/op")
    return out
