"""Exact simulation of position-based coding protocols.

Every decoder here is built explicitly as a POVM (or a sequence of Neumark
projectors), and every success probability is an exact trace -- no Monte Carlo
anywhere.  Point-to-point decoders act on the receiver's full register set; a
multiple-access decoder decodes one sender at a time, and each stage places
only the factors of a message state that name a register it reads.  Each
simulator returns a :class:`ProtocolReport` carrying the exact per-message
statistics next to the error bound its construction guarantees, so the operator
inequalities behind the bounds can be checked numerically on every run.

The eight scenarios (point-to-point, channel with state, broadcast and
multiple access, each entanglement-assisted or unassisted) are defined once,
in :data:`SCENARIOS`; the simulators here and the rate bounds in
:mod:`oneshot_qcap.bounds` all read that table.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channels import KrausChannel, apply_on, binary_test_projector, neumark_dilate
from .divergences import DivergenceResult, dh_eps
from .linalg import (
    DensityOp,
    HermOp,
    SystemLayout,
    as_matrix,
    fidelity,
    herm_apply,
    local_product,
    local_trace,
    partial_trace,
    place,
    psd_sqrt,
    purified_distance,
    reduced,
    sample,
    tensor,
)

__all__ = [
    "PositionCode",
    "ProtocolReport",
    "Receiver",
    "Scenario",
    "SCENARIOS",
    "MAC_STRATEGIES",
    "ENUMERATION_CAP",
    "get_scenario",
    "product_marginals",
    "product_check",
    "classical_blocks",
    "check_uniform",
    "split_sender_state",
    "build_position_povm",
    "hn_check",
    "seq_check",
    "gentle_checks",
    "simulate_p2p_ea",
    "simulate_gp_ea",
    "simulate_broadcast_ea",
    "simulate_mac_ea",
    "simulate_unassisted",
    "derandomize",
    "DerandomizedCode",
    "converse_floor",
    "report_floors",
    "dilation_statistics",
]

PINV_TOL = 1e-12
COMPLETION_TOL = 1e-9
BOUND_SLACK = 1e-8
PRODUCT_TOL = 1e-9
CLASSICAL_TOL = 1e-9
UNIFORM_TOL = 1e-9
SUPPORT_FLOOR = 1e-12
# derandomize enumerates every string; more than this many raise ValueError.
ENUMERATION_CAP = 4096

MAC_STRATEGIES = ("sequential", "pgm_a_first", "pgm_b_first")


# ---------------------------------------------------------------------------
# small operator helpers

def _pinv_sqrt(w: np.ndarray) -> np.ndarray:
    """The pseudo-inverse square root of the ascending eigenvalues ``w``."""
    cutoff = PINV_TOL * max(float(w[-1]), 1e-300)
    return np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)


def _trace_with(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", op, rho)))


# ---------------------------------------------------------------------------
# input validation, shared by the simulators, the bounds and spec parsing

def product_marginals(state: DensityOp, parts: Sequence[Iterable[str]]):
    """The marginal of ``state`` on the union of ``parts`` and the product of
    its marginals on each part, both in the order the parts list them."""
    labels = [l for grp in parts for l in grp]
    marg = partial_trace(state, labels).permuted(labels)
    prod = reduce(tensor, [partial_trace(state, list(grp)).permuted(list(grp))
                           for grp in parts])
    return marg, prod.permuted(labels)


def product_check(joint: DensityOp, parts: Sequence[Iterable[str]]):
    """Require the marginal on the union of ``parts`` to factorize."""
    marg, prod = product_marginals(joint, parts)
    dev = float(np.max(np.abs(marg.matrix - prod.matrix)))
    if dev > PRODUCT_TOL:
        raise ValueError(
            f"resource state does not factorize across {parts} (deviation {dev:.3e})")


def classical_blocks(state: DensityOp, label: str):
    """Diagonal blocks of a state along a classical register.

    Returns (probabilities, conditional states on the remaining registers);
    raises if any off-diagonal block is non-negligible.
    """
    rest = [l for l in state.layout.labels if l != label]
    perm = state.permuted([label] + rest)
    d_u = state.layout.dim_of(label)
    d_rest = state.layout.dim // d_u
    view = perm.matrix.reshape(d_u, d_rest, d_u, d_rest)
    for u in range(d_u):
        for up in range(d_u):
            if u != up and float(np.max(np.abs(view[u, :, up, :]))) > CLASSICAL_TOL:
                raise ValueError(
                    f"register {label!r} is not classical (off-diagonal block "
                    f"({u},{up}) has weight {np.max(np.abs(view[u, :, up, :])):.3e})")
    rest_layout = SystemLayout([(l, state.layout.dim_of(l)) for l in rest])
    probs, conds = [], []
    for u in range(d_u):
        block = view[u, :, u, :]
        p = float(np.real(np.trace(block)))
        probs.append(max(p, 0.0))
        conds.append(DensityOp(block / p, rest_layout) if p > SUPPORT_FLOOR else None)
    return np.asarray(probs), conds


def check_uniform(state: DensityOp, label: str):
    """Require the marginal on ``label`` to be maximally mixed."""
    d = state.layout.dim_of(label)
    marg = partial_trace(state, [label])
    if float(np.max(np.abs(marg.matrix - np.eye(d) / d))) > UNIFORM_TOL:
        raise ValueError(f"converse requires a uniform classical register {label!r}")


def split_sender_state(psi: DensityOp, channel_label: str):
    """Register roles for one sender: (channel input, resource, optional side).

    Layout convention: first register feeds the channel, second carries the
    position resource, an optional third is a side register the receiver
    holds one copy of.
    """
    labels = list(psi.layout.labels)
    if labels[0] != channel_label:
        raise ValueError(
            f"sender state must lead with channel input {channel_label!r}")
    if len(labels) == 2:
        return labels[1], None
    if len(labels) == 3:
        return labels[1], labels[2]
    raise ValueError("sender state needs registers [input, resource(, side)]")


# ---------------------------------------------------------------------------
# position-based POVM construction

@dataclass(frozen=True)
class PositionCode:
    """Square-root-measurement decoder across position copies of a resource."""

    layout: SystemLayout
    povm: tuple[np.ndarray, ...]
    completion: np.ndarray


def _copy_label(resource_label: str, m: int) -> str:
    return f"{resource_label}#{m + 1}"


def _on_copies(layout: SystemLayout, copy_of: dict) -> list[tuple[str, int]]:
    """``layout``'s registers, each resource ``r`` in ``copy_of`` renamed to
    its copy number ``copy_of[r]``."""
    return [(_copy_label(l, copy_of[l]) if l in copy_of else l, d)
            for l, d in layout.registers]


def _copies_layout(layout: SystemLayout, copies: Sequence[tuple[str, int]]) -> SystemLayout:
    """``layout`` with each (resource, n) register replaced by n numbered copies."""
    resources = {label for label, _ in copies}
    regs = [(l, d) for l, d in layout.registers if l not in resources]
    for label, n in copies:
        regs += [(_copy_label(label, m), layout.dim_of(label)) for m in range(n)]
    return SystemLayout(regs)


def build_position_povm(test: HermOp, copies: int, resource_label: str) -> PositionCode:
    """Pretty-good measurement over per-position embeddings of ``test``.

    The test acts on the channel-output registers plus one resource register;
    position m gets the test on copy m and identity elsewhere, and the POVM is
    S^{-1/2} Lambda(m) S^{-1/2} with a pseudo-inverse square root of the sum,
    completed by the element that makes it a POVM.
    """
    evals = np.linalg.eigvalsh(test.matrix)
    if evals[0] < -1e-10 or evals[-1] > 1 + 1e-10:
        raise ValueError("test operator must satisfy 0 <= T <= I")
    layout = _copies_layout(test.layout, [(resource_label, copies)])
    tests = [place([(_on_copies(test.layout, {resource_label: m}), test.matrix)],
                   layout) for m in range(copies)]
    w, v = np.linalg.eigh(np.sum(tests, axis=0))
    root = (v * _pinv_sqrt(w)) @ v.conj().T
    povm = [(p + p.conj().T) / 2 for p in (root @ t @ root for t in tests)]
    del tests  # copies x D x D; nothing below reads them
    comp = np.eye(layout.dim) - np.sum(povm, axis=0)
    comp = (comp + comp.conj().T) / 2
    # In S's eigenbasis the completion is diagonal up to roundoff, so its
    # Gershgorin discs bound its smallest eigenvalue from below.
    g = v.conj().T @ comp @ v
    radii = np.sum(np.abs(g), axis=1) - np.abs(g.diagonal())
    min_eig = float(np.min(g.diagonal().real - radii))
    if min_eig < -COMPLETION_TOL:
        raise ValueError(
            f"POVM completion element fails PSD (min eig {min_eig:.3e})")
    return PositionCode(layout=layout, povm=tuple(povm), completion=comp)


# ---------------------------------------------------------------------------
# operator-inequality checks (the facts behind the error analyses)

def hn_check(S: HermOp | np.ndarray, T: HermOp | np.ndarray, c: float) -> float:
    """Min eigenvalue of RHS - LHS in the Hayashi-Nagaoka inequality.

    LHS = I - (S+T)^{-1/2} S (S+T)^{-1/2},
    RHS = (1+c)(I-S) + (2+c+1/c) T; the return value must be >= -1e-9.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    s, t = as_matrix(S), as_matrix(T)
    root = herm_apply(s + t, _pinv_sqrt)
    lhs = np.eye(s.shape[0]) - root @ s @ root
    rhs = (1 + c) * (np.eye(s.shape[0]) - s) + (2 + c + 1 / c) * t
    gap = rhs - lhs
    return float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])


def seq_check(rho: DensityOp, projectors: Sequence[HermOp | np.ndarray]):
    """Both sides of the sequential-measurement (union) bound.

    lhs = Tr(P'_k ... P'_1 rho P'_1 ... P'_k) with P' = I - P,
    rhs = 1 - 4 sum_i Tr(P_i rho); lhs >= rhs always.
    """
    mats = [as_matrix(p) for p in projectors]
    for p in mats:
        if float(np.max(np.abs(p @ p - p))) > 1e-10:
            raise ValueError("sequential bound needs projectors")
    d = rho.layout.dim
    state = rho.matrix.copy()
    total = 0.0
    for p in mats:
        total += float(np.real(np.trace(p @ rho.matrix)))
        comp = np.eye(d) - p
        state = comp @ state @ comp
    lhs = float(np.real(np.trace(state)))
    rhs = 1.0 - 4.0 * total
    return lhs, rhs


def gentle_checks(mode: str, *, state: DensityOp, operator=None,
                  povm: Sequence[HermOp | np.ndarray] | None = None,
                  other: DensityOp | None = None) -> dict:
    """Numeric reports for the measurement-disturbance facts.

    mode "sqrt_overlap": |sqrt(Tr(Pi sigma)) - sqrt(Tr(Pi rho))| <= P(rho, sigma);
    mode "single_operator": F(rho, A rho A / Tr(A^2 rho)) >= sqrt(Tr(A^2 rho));
    mode "povm_ensemble": for pure rho and A_i >= 0, F^2(rho, sum A_i rho A_i)
                  = sum Tr(A_i rho)^2 >= sum Tr(A_i^2 rho)^2.
    """
    if mode == "sqrt_overlap":
        pi = as_matrix(operator)
        lhs = abs(math.sqrt(max(_trace_with(pi, other.matrix), 0.0))
                  - math.sqrt(max(_trace_with(pi, state.matrix), 0.0)))
        rhs = purified_distance(state, other)
        return {"mode": mode, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-9}
    if mode == "single_operator":
        a = as_matrix(operator)
        weight = _trace_with(a @ a, state.matrix)
        if weight <= 1e-14:
            return {"mode": mode, "degenerate": True, "weight": weight}
        post = DensityOp(a @ state.matrix @ a.conj().T / weight, state.layout)
        lhs = fidelity(state, post)
        rhs = math.sqrt(weight)
        return {"mode": mode, "lhs": lhs, "rhs": rhs,
                "holds": lhs >= rhs - 1e-9, "degenerate": False}
    if mode == "povm_ensemble":
        mats = [as_matrix(m) for m in povm]
        post_mat = np.sum([a @ state.matrix @ a.conj().T for a in mats], axis=0)
        tr = float(np.real(np.trace(post_mat)))
        post = DensityOp(post_mat / tr, state.layout)
        fsq = (fidelity(state, post) ** 2) * tr
        first = float(np.sum([_trace_with(a, state.matrix) ** 2 for a in mats]))
        second = float(np.sum([_trace_with(a @ a, state.matrix) ** 2 for a in mats]))
        purity = float(np.real(np.trace(state.matrix @ state.matrix)))
        return {"mode": mode, "fidelity_sq": fsq, "sum_sq": first,
                "sum_sq_squared": second,
                "equality_holds": abs(fsq - first) <= 1e-7 if purity > 1 - 1e-10
                else None,
                "holds": first >= second - 1e-9}
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# the scenario table

@dataclass(frozen=True)
class Receiver:
    """One position test: ``joint`` against the product alternative ``alt``.

    ``joint`` holds the decoder's registers and one copy of ``resource``;
    ``marginal`` is the resource's own state, which every other copy is in.
    ``state`` holds the decoder's registers with one copy of each resource
    the decoder reads: ``joint`` itself, except for the multiple-access
    receiver, which reads both senders' resources.
    """

    joint: DensityOp
    alt: DensityOp
    resource: str
    marginal: DensityOp
    eps: float
    state: DensityOp


def _position_receiver(assisted: bool, ch: KrausChannel, psi: DensityOp,
                       in_labels: Sequence[str], eps: float) -> Receiver:
    in_labels = list(in_labels)
    res = [l for l in psi.layout.labels if l not in in_labels]
    if len(res) != 1 or not all(psi.layout.has(l) for l in in_labels):
        raise ValueError(
            f"state must live on [{', '.join(in_labels)}, one resource register]")
    (res,) = res
    if not assisted:
        classical_blocks(psi, res)
    joint = apply_on(ch, psi, in_labels)
    alt = tensor(apply_on(ch, partial_trace(psi, in_labels), in_labels),
                 partial_trace(psi, [res]))
    return Receiver(joint, alt, res, partial_trace(joint, [res]), eps, joint)


def _p2p_receivers(assisted, ch, psi, psi_b, tau, eps):
    """psi on [A, R]: A feeds the channel; the receiver holds B and R."""
    (a_label,) = ch.in_layout.labels
    return [_position_receiver(assisted, ch, psi, [a_label], eps[0])], []


def _gp_receivers(assisted, ch, psi, psi_b, tau, eps):
    """psi on [A, S, R]: A and the channel state S = tau feed the channel;
    S must be independent of the resource R."""
    labels = ch.in_layout.labels
    if len(labels) != 2:
        raise ValueError("channel-with-state needs a two-register input (A, S)")
    rec = _position_receiver(assisted, ch, psi, labels, eps[0])
    s_label = labels[1]
    if tau is not None:
        s_marg = partial_trace(psi, [s_label])
        if float(np.max(np.abs(s_marg.matrix - tau.matrix))) > 1e-9:
            raise ValueError("state's S marginal does not match the channel state")
    return [rec], [(psi, [[s_label], [rec.resource]])]


def _broadcast_receivers(assisted, ch, psi, psi_b, tau, eps):
    """psi on [A, R_B, R_C]: Bob gets the first channel output and R_B,
    Charlie the second output and R_C; R_B and R_C must be independent."""
    (a_label,) = ch.in_layout.labels
    out_b, out_c = ch.out_layout.labels
    res = [l for l in psi.layout.labels if l != a_label]
    if len(res) != 2:
        raise ValueError("state must live on [A, Bob resource, Charlie resource]")
    if not assisted:
        for r in res:
            classical_blocks(psi, r)
    full = apply_on(ch, psi, [a_label])
    out_marg = apply_on(ch, partial_trace(psi, [a_label]), [a_label])
    receivers = []
    for out, r, e in zip((out_b, out_c), res, eps):
        joint = partial_trace(full, [out, r])
        alt = tensor(partial_trace(out_marg, [out]), partial_trace(psi, [r]))
        receivers.append(Receiver(joint, alt, r, partial_trace(joint, [r]), e, joint))
    return receivers, [(psi, [[res[0]], [res[1]]])]


def _mac_receivers(assisted, ch, psi, psi_b, tau, eps):
    """Sender states [A, R_A(, side)] and [B, R_B(, side)] (see
    :func:`split_sender_state`): A and B feed the channel; the receiver holds
    its output, the side registers and the copies of R_A and R_B."""
    if psi_b is None:
        raise ValueError("mac scenario needs both sender ensembles")
    a_label, b_label = ch.in_layout.labels
    res_a, side_a = split_sender_state(psi, a_label)
    res_b, side_b = split_sender_state(psi_b, b_label)
    if not assisted:
        classical_blocks(psi, res_a)
        classical_blocks(psi_b, res_b)
    omega = apply_on(ch, tensor(psi, psi_b), [a_label, b_label])
    base = list(ch.out_layout.labels) + [s for s in (side_a, side_b) if s is not None]
    marg = partial_trace(omega, base).permuted(base)
    receivers = []
    for res, e in ((res_a, eps[0]), (res_b, eps[1])):
        joint = partial_trace(omega, base + [res]).permuted(base + [res])
        res_marg = partial_trace(omega, [res])
        receivers.append(Receiver(joint, tensor(marg, res_marg), res, res_marg, e,
                                  omega))
    return receivers, [(st, [[res], [side]]) for st, res, side in (
        (psi, res_a, side_a), (psi_b, res_b, side_b)) if side is not None]


def _log_inv_delta(eps: float, delta: float, strategy: str) -> float:
    return math.log2(1 / delta)


def _log_quad(eps: float, delta: float, strategy: str) -> float:
    # log(4 eps / delta^2) penalty; at eps = 0 the tighter log(1/delta)
    # variant applies (the c -> 1 fallback of the proofs).
    return math.log2(4 * eps / delta ** 2) if eps > 0 else math.log2(1 / delta)


def _mac_penalty(eps: float, delta: float, strategy: str) -> float:
    if strategy not in MAC_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "sequential":
        return _log_inv_delta(eps, delta, strategy)
    return _log_quad(eps, delta, strategy)


def _p2p_ea_bound(eps, delta, *, c, rates, dhs, **_) -> tuple[float, ...]:
    # The Hayashi-Nagaoka chain with the achieving test's errors replaced by
    # their guarantees: type I at most eps + delta, type II 2^-D_H.
    (e,), (cv,), (rate,), (dh,) = eps, c, rates, dhs
    return ((1 + cv) * (e + delta) + (2 + cv + 1 / cv) * (
        0.0 if math.isinf(dh) else 2.0 ** (rate - dh)),)


def _slack_bound(k: int):
    """Per-receiver bound eps_i + k delta."""
    def bound(eps, delta, **_) -> tuple[float, ...]:
        return tuple(e + k * delta for e in eps)
    return bound


def _mac_bound(eps, delta, *, strategy, **_) -> tuple[float, ...]:
    # Sequential: one bound on the joint error.  Two-stage square-root
    # decoding: one bound per stage, the second paying for the disturbance
    # of the first.
    if strategy == "sequential":
        return (4.0 * (eps[0] + eps[1] + 2 * delta),)
    eps_first, eps_second = eps if strategy == "pgm_a_first" else eps[::-1]
    first = eps_first + 2 * delta
    return (first, eps_second + 2 * delta + 3 * math.sqrt(first))


@dataclass(frozen=True)
class Scenario:
    """One communication scenario, defined once for bounds, simulators and CLI.

    ``receivers(assisted, ch, psi, psi_b, tau, eps)`` checks the register
    roles of the inputs and builds one :class:`Receiver` per message stream,
    each tested at the given smoothing; it also returns the independence
    constraints, (state, parts) pairs whose parts must be in a product state
    (:meth:`build` checks them).  ``smoothing(eps, delta)`` is the
    eps of that test in the coding theorem, ``penalty(eps, delta, strategy)``
    what the theorem subtracts from D_H (bits), and ``bound(eps, delta, *, c,
    rates, dhs, strategy)`` the analytic error bound(s).  Entanglement-assisted
    scenarios report worst-case error, unassisted ones (classical shared
    randomness as the resource) average error.  ``inputs`` names the spec
    inputs the simulator needs, in the order an assisted simulator takes them.
    """

    name: str
    assisted: bool
    streams: int
    inputs: tuple[str, ...]
    receivers: Callable[..., list[Receiver]]
    smoothing: Callable[[float, float], float]
    penalty: Callable[[float, float, str], float]
    bound: Callable[..., tuple[float, ...]]
    decode: Callable[..., "ProtocolReport"]
    converse_note: str
    achievable_note: str
    # Decoding strategies the simulator offers; empty when there is one.
    strategies: tuple[str, ...] = ()
    # Converse at the state's own marginals instead of a minimum over sigma.
    marginal_converse: bool = False
    headline: Callable[[float, float], float] | None = None

    def build(self, ch: KrausChannel, psi: DensityOp, psi_b: DensityOp | None,
              tau: DensityOp | None, eps) -> list[Receiver]:
        """The receivers at smoothings ``eps``, for inputs that meet the
        independence constraints."""
        receivers, independent = self.receivers(self.assisted, ch, psi, psi_b,
                                                tau, eps)
        for state, parts in independent:
            product_check(state, parts)
        return receivers

    def smoothings(self, eps, delta: float) -> list[float]:
        """The smoothing of each stream's test at error budgets ``eps``."""
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return [self.smoothing(e, delta) for e in eps]

    def rates(self, rates) -> tuple[int, ...]:
        """``rates`` as one non-negative integer per message stream."""
        rates = self.per_stream(rates, "rates")
        if not all(isinstance(r, numbers.Integral) and r >= 0 for r in rates):
            raise ValueError(f"rates must be non-negative integers, got {rates}")
        return rates

    def per_stream(self, value, what: str) -> tuple:
        """``value`` as one entry per message stream; a single value serves
        every stream."""
        values = tuple(value) if isinstance(value, (tuple, list)) else (value,)
        if len(values) == 1:
            values *= self.streams
        if len(values) != self.streams:
            raise ValueError(
                f"{self.name} needs {self.streams} value(s) of {what}, got {values}")
        return values


def get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIOS[name]


# ---------------------------------------------------------------------------
# protocol reports

@dataclass(frozen=True)
class ProtocolReport:
    """Exact statistics of one simulated code next to its guaranteed bounds.

    ``analytic_bound`` is the error figure promised by the construction's
    statement (valid when ``rate_feasible``); ``hn_bound`` is the
    premise-free value of the underlying operator-inequality chain evaluated
    on this very instance, which must dominate the exact error always.
    ``reported_error`` is worst-case for entanglement-assisted scenarios and
    average-case for the unassisted ones.  ``worst_error`` has two meanings
    for broadcast: for ``broadcast_ea`` it is the larger of the receivers'
    worst errors, for ``broadcast_ua`` the worst over message pairs of
    1 - s_B * s_C, the error of the pair's joint success.  ``floor_inputs``
    holds one (outcome distribution, rate, correct columns) triple per
    converse floor for :func:`report_floors`; it is left out of repr and of
    CLI reports.
    """

    scenario: str
    rates: tuple[float, ...]
    per_message_success: tuple[float, ...]
    worst_error: float
    avg_error: float
    reported_error: float
    analytic_bound: float
    hn_bound: float
    rate_feasible: bool
    bound_satisfied: bool
    dh_values: tuple[float, ...]
    details: dict = field(default_factory=dict)
    floor_inputs: tuple = field(default=(), repr=False)


def _error(successes, average: bool) -> float:
    lost = 1.0 - np.asarray(successes, dtype=float)
    return float(np.mean(lost) if average else np.max(lost))


def _holds(errors, hns, bounds, feasible: bool) -> bool:
    """Each error is within its premise-free bound and, when the rate is
    feasible, within its analytic bound."""
    return all(e <= min(1.0, h) + BOUND_SLACK
               and (not feasible or e <= min(1.0, b) + BOUND_SLACK)
               for e, h, b in zip(errors, hns, bounds))


def _report(spec: Scenario, rates, successes, errors, *, analytic, hn, ok,
            feasible, dh_values, details, floors) -> ProtocolReport:
    """``successes`` are the joint per-message successes; ``errors`` the
    errors of the independently decoded streams (one for a joint decoder)."""
    lost = 1.0 - np.asarray(successes, dtype=float)
    return ProtocolReport(
        scenario=spec.name,
        rates=tuple(float(r) for r in rates),
        per_message_success=tuple(float(s) for s in successes),
        worst_error=max(errors) if spec.assisted else float(np.max(lost)),
        avg_error=float(np.mean(lost)),
        reported_error=max(errors),
        analytic_bound=float(analytic),
        hn_bound=float(hn),
        rate_feasible=bool(feasible),
        bound_satisfied=bool(ok),
        dh_values=tuple(float(v) for v in dh_values),
        details=details,
        floor_inputs=tuple(floors),
    )


def _hn_constant(eps: float, delta: float, c: float | None) -> float:
    if c is not None:
        if c <= 0:
            raise ValueError("c must be positive")
        return c
    return delta / eps if eps > 1e-12 else 1.0


def _rate_feasible(rate: int, dh_value: float, penalty_bits: float) -> bool:
    if math.isinf(dh_value):
        return True
    return rate <= dh_value - penalty_bits + 1e-9


def _message_factors(state: DensityOp, senders, messages) -> list:
    """``state`` with each sender's resource moved to copy m of its message m,
    and independent copies of the resource in every other position, as
    :func:`place` factors.

    ``senders`` lists (resource label, resource marginal, number of copies).
    """
    factors = [(_on_copies(state.layout, {res: m for (res, _, _), m
                                          in zip(senders, messages)}), state.matrix)]
    for (res, marg, n), m in zip(senders, messages):
        factors += [(_on_copies(marg.layout, {res: k}), marg.matrix)
                    for k in range(n) if k != m]
    return factors


# ---------------------------------------------------------------------------
# independent position decoders (point-to-point, channel with state, broadcast)

@dataclass(frozen=True)
class _PositionRun:
    code: PositionCode
    dh: DivergenceResult
    successes: tuple[float, ...]
    outcome_dist: np.ndarray  # shape (n, n+1); last column = abort outcome


def _run_position_code(rec: Receiver, rate: int) -> _PositionRun:
    """Build the position code from the optimal test and decode every message."""
    n = 2 ** rate
    dh = dh_eps(rec.joint, rec.alt, rec.eps)
    test = HermOp(dh.witness.operator, rec.joint.layout)
    code = build_position_povm(test, n, rec.resource)
    senders = [(rec.resource, rec.marginal, n)]
    dist = np.zeros((n, n + 1))
    for m in range(n):
        state = place(_message_factors(rec.state, senders, (m,)), code.layout)
        for mp in range(n):
            dist[m, mp] = max(_trace_with(code.povm[mp], state), 0.0)
        dist[m, n] = max(_trace_with(code.completion, state), 0.0)
    return _PositionRun(code, dh, tuple(dist[m, m] for m in range(n)), dist)


def _hn_chain(dh: DivergenceResult, copies: int, c: float) -> float:
    # Exact Hayashi-Nagaoka chain on this instance: type-I and type-II error
    # of the achieving test, with the union bound over the wrong positions.
    return ((1 + c) * (1.0 - dh.witness.type1)
            + (2 + c + 1 / c) * copies * dh.witness.type2)


def _decode_position(spec: Scenario, receivers, rates, eps, delta, strategy,
                     c) -> ProtocolReport:
    """One square-root decoder per receiver, each on its own registers."""
    cs = c if isinstance(c, (tuple, list)) else (c,) * len(receivers)
    consts = [_hn_constant(r.eps, delta, ci) for r, ci in zip(receivers, cs)]
    runs = [_run_position_code(r, rate) for r, rate in zip(receivers, rates)]
    dh_values = [run.dh.value for run in runs]
    hns = [_hn_chain(run.dh, 2 ** rate, cv)
           for run, rate, cv in zip(runs, rates, consts)]
    bounds = spec.bound(eps, delta, c=consts, rates=rates, dhs=dh_values,
                        strategy=strategy)
    feasible = all(_rate_feasible(rate, dh, spec.penalty(e, delta, strategy))
                   for rate, dh, e in zip(rates, dh_values, eps))
    errors = [_error(run.successes, not spec.assisted) for run in runs]
    if len(runs) == 1:
        (run,) = runs
        details = {"c": consts[0], "type1": 1.0 - run.dh.witness.type1,
                   "type2": run.dh.witness.type2,
                   "outcome_dist": run.outcome_dist, "dh": run.dh}
        if spec.headline is not None:
            details["headline_bound"] = spec.headline(eps[0], delta)
    else:
        # The receivers act on disjoint registers, so the success of a
        # message tuple factorizes; errors and bounds are per receiver.
        kind = "worst" if spec.assisted else "avg"
        details = {f"per_receiver_{kind}_error": tuple(errors),
                   "per_receiver_bounds": bounds}
    successes = [math.prod(s) for s in
                 itertools.product(*(run.successes for run in runs))]
    return _report(spec, rates, successes, errors, analytic=max(bounds),
                   hn=max(hns), ok=_holds(errors, hns, bounds, feasible),
                   feasible=feasible, dh_values=dh_values, details=details,
                   floors=[(run.outcome_dist, float(rate), None)
                           for run, rate in zip(runs, rates)])


# ---------------------------------------------------------------------------
# multiple-access decoders: one receiver decoding both senders' messages, one
# sender at a time

@dataclass(frozen=True)
class _MacCode:
    omega: DensityOp               # receiver state, one copy of each resource
    senders: tuple                 # per sender (resource, marginal, copies)
    pointer: tuple | None          # sequential decoder: its pointer register
    dhs: tuple[DivergenceResult, DivergenceResult]
    witnesses: tuple[HermOp, HermOp]  # per sender, its test on one copy
    n: tuple[int, int]             # per sender, its number of copies


def _mac_code(receivers, rates, sequential: bool) -> _MacCode:
    """Both senders' tests and what the message states are made of
    (:func:`_message_factors`).  The receiver's registers, with the
    sequential decoder's pointer qubit after them, are checked against the
    dimension cap, although no decoding stage allocates all of them."""
    omega = receivers[0].state
    n = (2 ** rates[0], 2 ** rates[1])
    senders = tuple((r.resource, r.marginal, k) for r, k in zip(receivers, n))
    layout = _copies_layout(omega.layout, [(res, n) for res, _, n in senders])
    pointer = None
    if sequential:
        # Longer than every register label, so it clashes with none.
        pointer = ("J" + "#" * max(len(l) for l in layout.labels), 2)
        SystemLayout(layout.registers + (pointer,))
    dhs = tuple(dh_eps(r.joint, r.alt, r.eps) for r in receivers)
    return _MacCode(omega, senders, pointer, dhs,
                    tuple(HermOp(dh.witness.operator, r.joint.layout)
                          for dh, r in zip(dhs, receivers)), n)


def _stage(factors, reads):
    """The layout of the registers named by the factors that name a label in
    ``reads``, those factors placed on it, and the other factors."""
    used = [any(l in reads for l, _ in regs) for regs, _ in factors]
    layout = SystemLayout([reg for (regs, _), u in zip(factors, used) if u
                           for reg in regs])
    return (layout, place([f for f, u in zip(factors, used) if u], layout),
            [f for f, u in zip(factors, used) if not u])


def _finished(layout: SystemLayout, mat: np.ndarray, copies) -> tuple:
    """``mat`` on ``layout`` with a sender's ``copies`` traced out, as a
    :func:`place` factor: no later stage reads them."""
    keep = [reg for reg in layout.registers if reg[0] not in copies]
    return keep, reduced(keep, layout, mat)


def _neumark_stages(code: _MacCode) -> list:
    """Per sender, its stage of the sequential decoder: the labels its tests
    read, the labels of its copies, and its tests, one :func:`place` factor
    per copy, the Neumark projector of its test on the decoder registers,
    that copy and the pointer qubit."""
    stages = []
    for w, (res, _, n) in zip(code.witnesses, code.senders):
        proj = binary_test_projector(w)
        tests = [(_on_copies(w.layout, {res: k}) + [code.pointer], proj)
                 for k in range(n)]
        stages.append(({l for regs, _ in tests for l, _ in regs},
                       {_copy_label(res, k) for k in range(n)}, tests))
    return stages


def _split(layout: SystemLayout, test, b: np.ndarray):
    """P b P and (I - P) b (I - P) for Hermitian ``b`` and the projector
    factor ``test``, from two local products: with Pb = P b, P b P =
    P (Pb)^H and (I - P) b (I - P) = b - Pb - (Pb)^H + P b P."""
    pb = local_product(test, layout, b)
    pbp = local_product(test, layout, pb.conj().T)
    return pbp, b - pb - pb.conj().T + pbp


def _position_chain(stages, factors, messages) -> float:
    """Exact success of the stated chain: "no" outcomes everywhere except a
    "yes" at the true position, first across A copies then B copies."""
    for (reads, copies, tests), m in zip(stages, messages):
        layout, cur, factors = _stage(factors, reads)
        for k, test in enumerate(tests):
            yes, no = _split(layout, test, cur)
            cur = yes if k == m else no
        factors = [_finished(layout, cur, copies)] + factors
    return float(np.real(np.trace(cur)))


def _decision_row(stages, factors) -> np.ndarray:
    """Outcome distribution of the full decoder, (A outcome, B outcome) in
    row-major order: the first "yes" among a sender's tests wins (last
    outcome: none did), A's tests first, then B's, with every test
    performed."""
    (reads_a, copies_a, tests_a), (reads_b, _, tests_b) = stages
    layout, pending, rest = _stage(factors, reads_a)
    # A's decided branches go on through A's later tests non-selectively:
    # B's tests, which follow, act on registers those tests touch.
    branches = []
    for test in tests_a:
        branches = [sum(_split(layout, test, b)) for b in branches]
        yes, pending = _split(layout, test, pending)
        branches.append(yes)
    branches.append(pending)
    # Nothing acts after B's tests, and they are trace preserving together,
    # so a decided B branch keeps its mass: it is traced, not evolved.
    row = np.zeros((len(branches), len(tests_b) + 1))
    for oa, branch in enumerate(branches):
        layout_b, b, _ = _stage([_finished(layout, branch, copies_a)] + rest,
                                reads_b)
        for ob, test in enumerate(tests_b[:-1]):
            yes, b = _split(layout_b, test, b)
            row[oa, ob] = np.real(np.trace(yes))
        row[oa, -2] = np.real(local_trace(tests_b[-1], layout_b, b))
        row[oa, -1] = np.real(np.trace(b)) - row[oa, -2]
    return np.maximum(row, 0.0).reshape(-1)


def _mac_sequential(code: _MacCode):
    """Sequential binary tests, dilated to projectors with a shared J qubit,
    each sender's applied on the registers its stage reads.

    Returns the chain successes, the sequential (union) bound and the report
    details.  A message state's true copy is in the joint state and every
    other copy in the product alternative, so the bound's right-hand side
    1 - 4 sum_k Tr(P_k rho) is read off the tests' recorded errors."""
    stages = _neumark_stages(code)
    n1, n2 = code.n
    chain_succ = np.zeros((n1, n2))
    dist = np.zeros((n1 * n2, (n1 + 1) * (n2 + 1)))
    for m1, m2 in itertools.product(range(n1), range(n2)):
        start = _message_factors(code.omega, code.senders, (m1, m2)) + [
            ([code.pointer], _basis_density(0, 2))]
        chain_succ[m1, m2] = _position_chain(stages, start, (m1, m2))
        dist[m1 * n2 + m2] = _decision_row(stages, start)
    dh_a, dh_b = code.dhs
    hn = 4.0 * ((1.0 - dh_a.witness.type1) + (1.0 - dh_b.witness.type1)
                + (n1 - 1) * dh_a.witness.type2
                + (n2 - 1) * dh_b.witness.type2)
    return chain_succ.reshape(-1), hn, {"outcome_dist": dist,
                                        "seq_rhs": np.full((n1, n2), 1.0 - hn)}


def _mac_pgm(code: _MacCode, epsilons, delta, c, a_first: bool):
    """Two square-root measurements, the first sender's then the second's,
    each on the decoder registers and its own sender's copies.

    Returns the joint successes, the sum of the two stages'
    Hayashi-Nagaoka-type bounds and the report details."""
    order = (0, 1) if a_first else (1, 0)
    i_first, i_second = order
    n = code.n
    c_first, c_second = (_hn_constant(epsilons[i], delta, c) for i in order)
    first, second = (build_position_povm(code.witnesses[i], n[i], code.senders[i][0])
                     for i in order)
    kraus_first = [(first.layout.registers, psd_sqrt(p))
                   for p in first.povm + (first.completion,)]
    copies_first = set(first.layout.labels) - set(second.layout.labels)

    n1, n2 = n
    joint_succ = np.zeros((n1, n2))
    stage1_err = np.zeros((n1, n2))
    stage2_err = np.zeros((n1, n2))
    disturbance = np.zeros((n1, n2))
    dist = np.zeros((n1 * n2, (n1 + 1) * (n2 + 1)))
    for m1, m2 in itertools.product(range(n1), range(n2)):
        mf, ms = (m1, m2) if a_first else (m2, m1)
        layout, st, rest = _stage(_message_factors(code.omega, code.senders, (m1, m2)),
                                  first.layout.labels)
        # The second sender's other copies stay in product, untouched by the
        # first stage: they change no fidelity, and the second stage reads
        # them on its own layout.
        branches = [local_product(k, layout, local_product(k, layout, st).conj().T)
                    for k in kraus_first]
        post = np.sum(branches, axis=0)
        traces = np.zeros((len(branches), n[i_second] + 1))
        for i, branch in enumerate(branches):
            b = place([_finished(layout, branch, copies_first)] + rest, second.layout)
            traces[i] = [_trace_with(p, b) for p in second.povm] + [np.trace(b).real]
        row = np.maximum(traces, 0.0)
        row[:, -1] = np.maximum(traces[:, -1] - row[:, :-1].sum(axis=1), 0.0)
        # Tr(sqrt(L) rho sqrt(L)) = Tr(L rho): the true outcome's branch.
        stage1_err[m1, m2] = 1.0 - traces[mf, -1]
        stage2_err[m1, m2] = 1.0 - float(np.sum(traces[:, ms]))
        joint_succ[m1, m2] = row[mf, ms]
        disturbance[m1, m2] = purified_distance(st, (post + post.conj().T) / 2)
        # Outcomes in (A-outcome, B-outcome) order whatever the decode order.
        dist[m1 * n2 + m2] = (row if a_first else row.T).reshape(-1)

    hn_first = _hn_chain(code.dhs[i_first], n[i_first], c_first)
    hn_second = (math.sqrt(_hn_chain(code.dhs[i_second], n[i_second], c_second))
                 + math.sqrt(2 * hn_first)) ** 2
    return joint_succ.reshape(-1), hn_first + hn_second, {
        "outcome_dist": dist, "stage1_err": stage1_err, "stage2_err": stage2_err,
        "disturbance": disturbance, "stage_hn": (hn_first, hn_second)}


def _decode_mac(spec: Scenario, receivers, rates, eps, delta, strategy,
                c) -> ProtocolReport:
    """Strategies: projective ``sequential`` tests via a shared pointer qubit,
    or two square-root measurements in either order (``pgm_a_first``,
    ``pgm_b_first``).  Per-message successes are joint (both messages
    correct)."""
    # The penalty rejects an unknown strategy before any decoding work.
    penalties = [spec.penalty(e, delta, strategy) for e in eps]
    code = _mac_code(receivers, rates, strategy == "sequential")
    dh_values = [dh.value for dh in code.dhs]
    feasible = all(_rate_feasible(rate, dh, pen)
                   for rate, dh, pen in zip(rates, dh_values, penalties))
    bounds = spec.bound(eps, delta, strategy=strategy)
    cols = [m1 * (code.n[1] + 1) + m2 for m1 in range(code.n[0]) for m2 in range(code.n[1])]
    if strategy == "sequential":
        successes, hn, details = _mac_sequential(code)
        analytic = bounds[0]
    else:
        successes, hn, details = _mac_pgm(code, eps, delta, c,
                                          strategy == "pgm_a_first")
        analytic = sum(bounds)
        details["stage_bounds"] = bounds
    details["strategy"] = strategy
    errors = [_error(successes, not spec.assisted)]
    checks = [(errors[0], hn, analytic)]
    if strategy != "sequential":
        # The theorems bound the two stages separately; require those too.
        checks += [(float(np.max(details[f"stage{i + 1}_err"])),
                    details["stage_hn"][i], bounds[i]) for i in (0, 1)]
    return _report(spec, rates, successes, errors, analytic=analytic, hn=hn,
                   ok=_holds(*zip(*checks), feasible), feasible=feasible,
                   dh_values=dh_values, details=details,
                   floors=[(details["outcome_dist"],
                            float(rates[0]) + float(rates[1]), cols)])


def _plain(eps: float, delta: float) -> float:
    return eps


_SINGLE = "psi on {labels}, sigma = {0}"
_QUAD = "D_H at eps minus log2(4 eps/delta^2)"

SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    Scenario("p2p_ea", True, 1, ("state",), _p2p_receivers,
             lambda eps, delta: eps + delta, _log_inv_delta, _p2p_ea_bound,
             _decode_position, _SINGLE, "D_H at eps+delta minus log2(1/delta)",
             headline=lambda eps, delta: 2 * eps + delta),
    Scenario("gp_ea", True, 1, ("tau", "state"), _gp_receivers, _plain,
             _log_quad, _slack_bound(2), _decode_position, _SINGLE, _QUAD),
    Scenario("broadcast_ea", True, 2, ("state",), _broadcast_receivers, _plain,
             _log_quad, _slack_bound(2), _decode_position,
             "sigma_B = {0}, tau_C = {1}",
             "per-receiver D_H minus log2(4 eps/delta^2)"),
    Scenario("mac_ea", True, 2, ("state", "state_b"), _mac_receivers, _plain,
             _mac_penalty, _mac_bound, _decode_mac,
             "alternatives = state marginals", "strategy {strategy}",
             strategies=MAC_STRATEGIES, marginal_converse=True),
    Scenario("p2p_ua", False, 1, ("state",), _p2p_receivers, _plain,
             _log_quad, _slack_bound(1), _decode_position, "sigma = {0}", _QUAD),
    Scenario("gp_ua", False, 1, ("tau", "state"), _gp_receivers, _plain,
             _log_quad, _slack_bound(2), _decode_position, "sigma = {0}", _QUAD),
    Scenario("broadcast_ua", False, 2, ("state",), _broadcast_receivers, _plain,
             _log_quad, _slack_bound(2), _decode_position,
             "sigma_B = {0}, tau_C = {1}",
             "per-receiver D_H minus log2(4 eps/delta^2)"),
    Scenario("mac_ua", False, 2, ("state", "state_b"), _mac_receivers, _plain,
             _mac_penalty, _mac_bound, _decode_mac, "sigma = {0}, tau = {1}",
             "strategy {strategy}"),
)}


# ---------------------------------------------------------------------------
# simulators

def _simulate(name: str, ch: KrausChannel, psi: DensityOp, rates, epsilons,
              delta: float, *, psi_b: DensityOp | None = None,
              tau: DensityOp | None = None, strategy: str = "sequential",
              c=None) -> ProtocolReport:
    spec = SCENARIOS[name]
    rates = spec.rates(rates)
    eps = spec.per_stream(epsilons, "eps")
    receivers = spec.build(ch, psi, psi_b, tau, spec.smoothings(eps, delta))
    return spec.decode(spec, receivers, rates, eps, delta, strategy, c)


def simulate_p2p_ea(ch: KrausChannel, psi: DensityOp, rate: int, eps: float,
                    delta: float, c: float | None = None) -> ProtocolReport:
    """Entanglement-assisted point-to-point code at rate R over one channel use.

    ``psi`` lives on [channel input register, resource register]; 2^R copies
    of its resource half are pre-shared and the decoder tests positions with
    the optimal hypothesis test at smoothing eps + delta.
    """
    return _simulate("p2p_ea", ch, psi, rate, eps, delta, c=c)


def simulate_gp_ea(ch: KrausChannel, tau: DensityOp, psi: DensityOp, rate: int,
                   eps: float, delta: float, c: float | None = None) -> ProtocolReport:
    """Gel'fand-Pinsker-style code: the channel's state register is entangled
    with the encoder, the resource half must be independent of it."""
    return _simulate("gp_ea", ch, psi, rate, eps, delta, tau=tau, c=c)


def simulate_broadcast_ea(ch: KrausChannel, psi: DensityOp, rates: tuple[int, int],
                          epsilons: tuple[float, float], delta: float,
                          c: float | tuple[float, float] | None = None) -> ProtocolReport:
    """One sender, two receivers, independent position codes per receiver.

    ``psi`` lives on [A, B-resource, C-resource]; the two resource halves must
    be in a product state.  Channel output registers: first = Bob, second =
    Charlie.  ``c`` is one operator-inequality constant for both receivers
    or one per receiver.
    """
    return _simulate("broadcast_ea", ch, psi, rates, epsilons, delta, c=c)


def simulate_mac_ea(ch: KrausChannel, psi_a: DensityOp, psi_b: DensityOp,
                    rates: tuple[int, int], epsilons: tuple[float, float],
                    delta: float, strategy: str = "sequential",
                    c: float | None = None) -> ProtocolReport:
    """Two senders, one receiver; position codes decoded jointly.

    Sender states follow the register convention of :func:`split_sender_state`.
    Strategies: two square-root measurements in either order (``pgm_a_first``,
    ``pgm_b_first``) or projective ``sequential`` tests via a shared pointer
    qubit.  Per-message successes are joint (both messages correct).
    """
    return _simulate("mac_ea", ch, psi_a, rates, epsilons, delta, psi_b=psi_b,
                     strategy=strategy, c=c)


def simulate_unassisted(scenario: str, ch: KrausChannel, psi: DensityOp,
                        rates, epsilons, delta: float, *,
                        psi_b: DensityOp | None = None,
                        tau: DensityOp | None = None,
                        c: float | None = None) -> ProtocolReport:
    """Shared-randomness protocols with classical position registers.

    The classical register(s) of the input ensemble play the role the
    entangled resource plays in the assisted protocols: the parties pre-share
    2^R perfectly correlated copies and decode by position.  Errors are
    averaged over messages (the unassisted definitions are average-case).
    """
    spec = get_scenario(f"{scenario}_ua")
    return _simulate(spec.name, ch, psi, rates, epsilons, delta, psi_b=psi_b,
                     tau=tau, c=c)


# ---------------------------------------------------------------------------
# derandomization of the shared-randomness protocols

@dataclass(frozen=True)
class DerandomizedCode:
    """Best fixed string(s) replacing the shared randomness."""

    strings: tuple[int, ...]
    strings_b: tuple[int, ...] | None
    error: float
    randomized_error: float


def derandomize(scenario: str, ch: KrausChannel, psi: DensityOp, rates,
                epsilons, delta: float, *, psi_b: DensityOp | None = None,
                tau: DensityOp | None = None) -> DerandomizedCode:
    """Search for a fixed randomness string at least as good as the average.

    Every string is enumerated, so the minimum over strings is at most the
    randomized protocol's average error, by the averaging argument; more
    than :data:`ENUMERATION_CAP` candidate strings raise ValueError before
    any decoding.  For the two-sender scenario the strings are chosen
    jointly and the figure minimized is the average error of the joint
    decoder.  The two-receiver broadcast scenario is not supported.
    """
    spec = get_scenario(f"{scenario}_ua")
    if spec.streams > 1 and spec.decode is not _decode_mac:
        raise ValueError(f"derandomization not implemented for scenario {scenario!r}")
    rates = spec.rates(rates)
    eps = spec.per_stream(epsilons, "eps")
    receivers = spec.build(ch, psi, psi_b, tau, spec.smoothings(eps, delta))
    senders = []
    for rec, st, rate in zip(receivers, (psi, psi_b), rates):
        probs, conds = classical_blocks(st, rec.resource)
        support = [u for u in range(len(probs)) if probs[u] > SUPPORT_FLOOR]
        senders.append(_Sender(rec.resource, 2 ** rate, support, probs, conds))
    total = math.prod(len(s.support) ** s.copies for s in senders)
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"{total} strings exceed the enumeration cap {ENUMERATION_CAP}")

    # The decoder of the randomized protocol, evaluated on fixed strings;
    # a message state comes as its place factors.
    if spec.decode is _decode_mac:
        code = _mac_code(receivers, rates, sequential=True)
        stages = _neumark_stages(code)

        def success(messages, factors) -> float:
            return _position_chain(stages, factors + [
                ([code.pointer], _basis_density(0, 2))], messages)
        randomized = [success(msgs, _message_factors(code.omega, code.senders, msgs))
                      for msgs in itertools.product(*map(range, code.n))]
    else:
        run = _run_position_code(receivers[0], rates[0])
        randomized = run.successes

        def success(messages, factors) -> float:
            return _trace_with(run.code.povm[messages[0]],
                               place(factors, run.code.layout))

    # Channel outputs conditioned on each tuple of the senders' letters.
    cond_out = {letters: apply_on(ch, reduce(tensor, [
        s.conds[u] for s, u in zip(senders, letters)]), list(ch.in_layout.labels))
        for letters in itertools.product(*(s.support for s in senders))}

    candidates = itertools.product(*(
        itertools.product(s.support, repeat=s.copies) for s in senders))

    messages = list(itertools.product(*(range(s.copies) for s in senders)))
    best_err, best = math.inf, None
    for strings in candidates:
        total_success = 0.0
        for msgs in messages:
            cond = cond_out[tuple(string[m] for string, m in zip(strings, msgs))]
            factors = [(cond.layout.registers, cond.matrix)] + [
                ([(_copy_label(s.label, k), len(s.probs))],
                 _basis_density(string[k], len(s.probs)))
                for s, string in zip(senders, strings) for k in range(s.copies)]
            total_success += success(msgs, factors)
        err = max(1.0 - total_success / len(messages), 0.0)
        if err < best_err - 1e-15:
            best_err, best = err, tuple(tuple(string) for string in strings)
    return DerandomizedCode(best[0], best[1] if len(best) > 1 else None,
                            best_err, 1.0 - float(np.mean(randomized)))


class _Sender(NamedTuple):
    """One classical position register of a shared-randomness protocol."""

    label: str
    copies: int
    support: list            # letters of positive probability
    probs: np.ndarray
    conds: list              # state of the other registers given each letter


def _basis_density(index: int, dim: int) -> np.ndarray:
    mat = np.zeros((dim, dim), dtype=complex)
    mat[index, index] = 1.0
    return mat


# ---------------------------------------------------------------------------
# converse floor and dual error accounting

def converse_floor(dist: np.ndarray, rate_bits: float, *, correct_cols=None,
                   sigmas: int = 5, seed: int = 0) -> dict:
    """Converse floor from the exact outcome distribution of a code.

    Embeds the joint (message, decoded) distribution as a cq state phi_MM'
    with uniform messages and checks dh_eps(phi || phi_M (x) sigma, eps) >= R
    at eps = 1 - average success, against sampled states sigma.  The
    correlation test sum_m |mm><mm| is a feasible witness with type-I success
    = average success and type-II error <= 2^-R for any sigma, so the floor
    is a theorem; this makes it a numerical cross-check of the whole pipeline.
    """
    if sigmas < 1:
        raise ValueError(f"sigmas must be at least 1, got {sigmas}")
    dist = np.asarray(dist, dtype=float)
    n, n_out = dist.shape
    if correct_cols is None:
        correct_cols = np.arange(n)
    success = float(np.mean([dist[i, correct_cols[i]] for i in range(n)]))
    eps = min(max(1.0 - success, 0.0), 1.0 - 1e-12)
    # phi_MM': permute the outcome axis so the correct outcome of message i
    # sits at column i, making the correlation structure literal.
    perm = list(correct_cols) + [j for j in range(n_out) if j not in set(correct_cols)]
    p = dist[:, perm] / n
    # Both operands are direct sums over the message m: phi's block m is
    # diag(p[m]), that of I/n (x) sigma is sigma/n.
    phi = np.zeros((n, n_out, n_out))
    phi[:, range(n_out), range(n_out)] = p
    values = []
    for i in range(sigmas):
        sigma = sample("density", n_out, seed=seed + i)
        alt = np.broadcast_to(sigma.matrix / n, (n, n_out, n_out))
        res = dh_eps(phi, alt, eps)
        values.append(math.inf if res.unbounded else res.value)
    floor = min(values)
    return {"floor": floor, "values": values, "eps": eps, "rate": rate_bits,
            "holds": floor >= rate_bits - 1e-7}


def dilation_statistics(code: PositionCode, state: DensityOp) -> np.ndarray:
    """Outcome probabilities of a position code via its Neumark dilation.

    Independent accounting path for the same statistics as direct POVM
    traces: dilate {Omega(m)} + completion to a projective pointer
    measurement and read the pointer distribution.
    """
    # neumark_dilate rejects eigenvalues below -1e-10; the completion check
    # allows -COMPLETION_TOL.
    povm = list(code.povm) + [herm_apply(code.completion,
                                         lambda w: np.clip(w, 0.0, None))]
    dil = neumark_dilate(povm)
    rho = state.permuted(list(code.layout.labels))
    return dil.outcome_probabilities(rho.matrix)


def report_floors(report: ProtocolReport, *, sigmas: int = 5,
                  seed: int = 0) -> list[dict]:
    """Converse floors for every receiver of a simulated code.

    Runs :func:`converse_floor` on each outcome distribution recorded in the
    report (one per receiver; one joint distribution for multiple access); a
    failed floor means a bug in the decoder pipeline, never in the
    parameters.
    """
    if not report.floor_inputs:
        raise ValueError(f"no floor extraction for scenario {report.scenario!r}")
    return [converse_floor(dist, rate, correct_cols=cols, sigmas=sigmas,
                           seed=seed + i)
            for i, (dist, rate, cols) in enumerate(report.floor_inputs)]
