"""Exact simulation of position-based coding protocols.

Every decoder here is a square-root measurement, read off its tests and
S^{-1/2}, or a sequence of Neumark projectors, and every success probability
is an exact trace -- no Monte Carlo anywhere.  Position codes are read off
blocks for one message and permuted for the others; a multiple-access decoder
decodes one sender at a time, and holds a wrong copy of a resource only
around the test that reads it (sequential) or only the registers its stage
reads (square root).  Each simulator returns a :class:`ProtocolReport`
carrying the exact per-message statistics next to the error bound its
construction guarantees, so the operator inequalities behind the bounds can
be checked numerically on every run.

The eight scenarios (point-to-point, channel with state, broadcast and
multiple access, each entanglement-assisted or unassisted) are defined once,
in :data:`SCENARIOS`; the simulators here and the rate bounds in
:mod:`oneshot_qcap.bounds` all read that table.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .channels import KrausChannel, apply_on, binary_test_projector
from .divergences import DivergenceResult, dh_eps, dh_eps_many
from .linalg import (
    DensityOp,
    HermOp,
    NumericalError,
    SystemLayout,
    as_matrix,
    check_dimension,
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
    "get_scenario",
    "product_marginals",
    "product_check",
    "classical_blocks",
    "check_uniform",
    "split_sender_state",
    "build_position_povm",
    "hn_check",
    "seq_check",
    "simulate_p2p_ea",
    "simulate_gp_ea",
    "simulate_broadcast_ea",
    "simulate_mac_ea",
    "simulate_unassisted",
    "derandomize",
    "DerandomizedCode",
    "converse_floor",
    "report_floors",
]

PINV_TOL = 1e-12
COMPLETION_TOL = 1e-9
BOUND_SLACK = 1e-8
PRODUCT_TOL = 1e-9
CLASSICAL_TOL = 1e-9
UNIFORM_TOL = 1e-9
SUPPORT_FLOOR = 1e-12

MAC_STRATEGIES = ("sequential", "pgm_a_first", "pgm_b_first")


# ---------------------------------------------------------------------------
# small operator helpers

def _pinv_sqrt(w: np.ndarray) -> np.ndarray:
    """The pseudo-inverse square root of eigenvalues ``w``, of one matrix or a stack."""
    cutoff = PINV_TOL * max(float(np.max(w)), 1e-300)
    return np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)


def _check_completion(w: np.ndarray, inv: np.ndarray):
    """Require a square-root measurement's completion I - S^{-1/2} S S^{-1/2}
    to be PSD: in S's eigenbasis it is diagonal, 1 - w inv^2 for S's
    eigenvalues ``w`` and ``inv`` = :func:`_pinv_sqrt` of them (or stacks)."""
    min_eig = float(np.min(1.0 - w * inv ** 2))
    if min_eig < -COMPLETION_TOL:
        raise NumericalError(
            f"POVM completion element fails PSD (min eig {min_eig:.3e})")


def _inverse_roots(mats: list[np.ndarray]) -> list[np.ndarray]:
    """S^{-1/2} of each Hermitian matrix or stack in ``mats``, the diagonal
    blocks of one operator S: one pseudo-inverse cutoff, PINV_TOL times S's
    largest eigenvalue, and one completion check over every eigenvalue."""
    eigs = [np.linalg.eigh(m) for m in mats]
    w = np.concatenate([w_m.ravel() for w_m, _ in eigs])
    inv = _pinv_sqrt(w)
    _check_completion(w, inv)
    invs = np.split(inv, np.cumsum([w_m.size for w_m, _ in eigs])[:-1])
    return [(v * inv_m.reshape(w_m.shape)[..., None, :]) @ v.conj().swapaxes(-1, -2)
            for (w_m, v), inv_m in zip(eigs, invs)]


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


def _letter_view(op: DensityOp | HermOp, labels: Sequence[str]) -> np.ndarray:
    """``op`` as an array [u, i, u', j]: u, u' run over the letters of the
    registers ``labels`` (row-major), i, j over the others in layout order."""
    rest = [l for l in op.layout.labels if l not in labels]
    d_u = math.prod(op.layout.dim_of(l) for l in labels)
    d = op.layout.dim // d_u
    return op.permuted(list(labels) + rest).matrix.reshape(d_u, d, d_u, d)


def classical_blocks(state: DensityOp, label: str):
    """Diagonal blocks of a state along a classical register.

    Returns the letter probabilities p(u) and the (d_U, d, d) stack of the
    blocks p(u) rho^u on the other registers, in layout order; raises if any
    off-diagonal block is non-negligible.
    """
    view = _letter_view(state, [label])
    weight = np.max(np.abs(view), axis=(1, 3))
    np.fill_diagonal(weight, 0.0)
    for u, up in np.argwhere(weight > CLASSICAL_TOL)[:1]:
        raise ValueError(
            f"register {label!r} is not classical (off-diagonal block "
            f"({u},{up}) has weight {weight[u, up]:.3e})")
    blocks = np.einsum("uiuj->uij", view)
    return np.maximum(np.einsum("uii->u", blocks).real, 0.0), blocks


def check_uniform(state: DensityOp, label: str):
    """Require the marginal on ``label`` to be maximally mixed."""
    d = state.layout.dim_of(label)
    marg = partial_trace(state, [label])
    if float(np.max(np.abs(marg.matrix - np.eye(d) / d))) > UNIFORM_TOL:
        raise ValueError(f"converse requires a uniform classical register {label!r}")


def split_sender_state(psi: DensityOp, channel_label: str):
    """The (resource, side) registers of one sender's state, side None if absent.

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
    """Square-root measurement S^{-1/2} T_k S^{-1/2}, S = sum_k T_k, of tests
    T_k (:func:`place` factors, one per position copy of a resource),
    completed by I minus their sum; ``tests`` is the (copies, D, D) stack of
    the placed T_k, ``root`` S^{-1/2}.  Only the multiple-access first stage
    and the tests use it."""

    layout: SystemLayout
    tests: np.ndarray
    root: np.ndarray

    def elements(self) -> np.ndarray:
        """The (copies + 1, D, D) stack of elements, the completion last."""
        povm = self.root @ self.tests @ self.root
        povm = (povm + povm.conj().swapaxes(-1, -2)) / 2
        comp = np.eye(self.layout.dim) - np.sum(povm, axis=0)
        return np.concatenate([povm, [(comp + comp.conj().T) / 2]])


def _copy_label(resource_label: str, m: int) -> str:
    return f"{resource_label}#{m + 1}"


def _on_copies(layout: SystemLayout, copy_of: dict) -> list[tuple[str, int]]:
    """``layout``'s registers, each resource ``r`` in ``copy_of`` renamed to
    its copy number ``copy_of[r]``."""
    return [(_copy_label(l, copy_of[l]) if l in copy_of else l, d)
            for l, d in layout.registers]


def _check_copies(layout: SystemLayout, rates: dict, pointer: bool = False):
    """The decoders' cap, from R alone: ``layout`` with 2^R copies of each
    resource of ``rates`` (resource: R), doubled by the sequential ``pointer`` qubit.
    A resource counts as at least a qubit: the decoders' tables and stacks
    grow with 2^R even where its copies add no dimension."""
    rest = math.prod(d for l, d in layout.registers if l not in rates)
    at = ",".join(map(str, rates.values())) + (" with the pointer qubit" if pointer else "")
    check_dimension(f"the dense layout of all 2^R copies at R = {at}", rest * (1 + pointer),
                    *((max(layout.dim_of(res), 2), r) for res, r in rates.items()))


def build_position_povm(test: HermOp, copies: int, resource_label: str) -> PositionCode:
    """Pretty-good measurement over per-position embeddings of ``test``, on
    all the copies: the multiple-access first stage and the tests' reference.

    The test acts on the channel-output registers plus one resource register;
    position m gets the test on copy m and identity elsewhere.  S is summed
    one placed copy at a time; in its eigenbasis the completion is diagonal.
    """
    evals = np.linalg.eigvalsh(test.matrix)
    if evals[0] < -1e-10 or evals[-1] > 1 + 1e-10:
        raise ValueError("test operator must satisfy 0 <= T <= I")
    layout = SystemLayout([r for r in test.layout.registers if r[0] != resource_label] + [
        (_copy_label(resource_label, m), test.layout.dim_of(resource_label))
        for m in range(copies)])
    tests = np.stack([place([(_on_copies(test.layout, {resource_label: m}),
                               test.matrix)], layout) for m in range(copies)])
    (root,) = _inverse_roots([reduce(np.add, tests)])
    return PositionCode(layout, tests, root)


# ---------------------------------------------------------------------------
# operator-inequality checks (the facts behind the error analyses)

def hn_check(S: HermOp | np.ndarray, T: HermOp | np.ndarray, c: float) -> float:
    """Min eigenvalue of RHS - LHS in the Hayashi-Nagaoka inequality.

    LHS = I - (S+T)^{-1/2} S (S+T)^{-1/2},
    RHS = (1+c)(I-S) + (2+c+1/c) T; the return value must be >= -1e-9.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
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
    state, total = rho.matrix, 0.0
    for p in mats:
        total += float(np.real(np.trace(p @ rho.matrix)))
        comp = np.eye(rho.layout.dim) - p
        state = comp @ state @ comp
    return float(np.real(np.trace(state))), 1.0 - 4.0 * total


# ---------------------------------------------------------------------------
# the scenario table

@dataclass(frozen=True)
class Receiver:
    """One position test: ``joint`` against the product alternative ``alt``.

    ``joint`` holds the decoder's registers and one copy of ``resource``;
    ``marginal`` is the resource's own state, which every other copy is in.
    ``state`` holds the decoder's registers with one copy of each resource
    the decoder reads: ``joint`` itself, except for the multiple-access
    receiver, which reads both senders' resources.  ``classical``: the
    resource is shared randomness, diagonal in its letters.
    """

    joint: DensityOp
    alt: DensityOp
    resource: str
    marginal: DensityOp
    eps: float
    state: DensityOp
    classical: bool = False


def _position_receivers(ch: KrausChannel, psi: DensityOp, ins: Sequence[str],
                        outs: Sequence[Sequence[str]], eps) -> list[Receiver]:
    """One receiver per group of channel outputs in ``outs``: the group with
    one resource register, the registers of ``psi`` past the channel inputs
    ``ins``, in their order, tested against the product of the group's and
    the resource's marginals.  The group's marginal is read off the channel
    applied to ``psi``'s input marginal, a second application."""
    res = [l for l in psi.layout.labels if l not in ins]
    if len(res) != len(outs) or not all(psi.layout.has(l) for l in ins):
        raise ValueError(f"state must live on [{', '.join(ins)}] and {len(outs)} "
                         f"resource register(s), got {list(psi.layout.labels)}")
    full = apply_on(ch, psi, ins)
    out_marg = apply_on(ch, partial_trace(psi, ins), ins)
    receivers = []
    for grp, r, e in zip(outs, res, eps):
        joint = partial_trace(full, [*grp, r])
        alt = tensor(partial_trace(out_marg, grp), partial_trace(psi, [r]))
        receivers.append(Receiver(joint, alt, r, partial_trace(joint, [r]), e, joint))
    return receivers


def _channel_labels(scenario: str, layout: SystemLayout, side: str, roles):
    """The labels of ``layout``, the channel's ``side``, one per register
    role, a letter of ``roles``; any other count is an error naming them."""
    if len(layout.labels) != len(roles):
        raise ValueError(f"{scenario} needs a {('one', 'two')[len(roles) - 1]}-register "
                         f"channel {side} ({', '.join(roles)}), got {list(layout.labels)}")
    return layout.labels


def _p2p_receivers(ch, psi, psi_b, tau, eps):
    """psi on [A, R]: A feeds the channel; the receiver holds B and R."""
    ins = _channel_labels("point-to-point", ch.in_layout, "input", "A")
    return _position_receivers(ch, psi, ins, [ch.out_layout.labels], eps), []


def _gp_receivers(ch, psi, psi_b, tau, eps):
    """psi on [A, S, R]: A and the channel state S = tau feed the channel;
    S must be independent of the resource R."""
    labels = _channel_labels("channel-with-state", ch.in_layout, "input", "AS")
    s_label = labels[1]
    if tau is not None and tau.layout.registers != ch.in_layout.registers[1:]:
        raise ValueError(f"tau must live on the channel state register "
                         f"{ch.in_layout.registers[1]}, not {tau.layout.registers}")
    (rec,) = _position_receivers(ch, psi, labels, [ch.out_layout.labels], eps)
    if tau is not None:
        s_marg = partial_trace(psi, [s_label])
        if float(np.max(np.abs(s_marg.matrix - tau.matrix))) > 1e-9:
            raise ValueError("state's S marginal does not match the channel state")
    return [rec], [(psi, [[s_label], [rec.resource]])]


def _broadcast_receivers(ch, psi, psi_b, tau, eps):
    """psi on [A, R_B, R_C]: Bob gets the first channel output and R_B,
    Charlie the second output and R_C; R_B and R_C must be independent."""
    ins = _channel_labels("broadcast", ch.in_layout, "input", "A")
    outs = _channel_labels("broadcast", ch.out_layout, "output", "BC")
    receivers = _position_receivers(ch, psi, ins, [[out] for out in outs], eps)
    return receivers, [(psi, [[rec.resource] for rec in receivers])]


def _mac_receivers(ch, psi, psi_b, tau, eps):
    """Sender states [A, R_A(, side)] and [B, R_B(, side)] (see
    :func:`split_sender_state`): A and B feed the channel; the receiver holds
    its output, the side registers and the copies of R_A and R_B."""
    if psi_b is None:
        raise ValueError("mac scenario needs both sender ensembles")
    a_label, b_label = _channel_labels("multiple-access", ch.in_layout, "input", "AB")
    res_a, side_a = split_sender_state(psi, a_label)
    res_b, side_b = split_sender_state(psi_b, b_label)
    omega = apply_on(ch, tensor(psi, psi_b), [a_label, b_label])
    base = list(ch.out_layout.labels) + [s for s in (side_a, side_b) if s is not None]
    marg = partial_trace(omega, base).permuted(base)
    receivers = []
    for res, e in ((res_a, eps[0]), (res_b, eps[1])):
        joint = partial_trace(omega, base + [res]).permuted(base + [res])
        res_marg = partial_trace(omega, [res])
        receivers.append(Receiver(joint, tensor(marg, res_marg), res, res_marg, e, omega))
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
    return (_log_inv_delta if strategy == "sequential" else _log_quad)(eps, delta, strategy)


def _p2p_ea_bound(eps, delta, *, c, rates, dhs, **_) -> tuple[float, ...]:
    # The Hayashi-Nagaoka chain with the achieving test's errors replaced by
    # their guarantees: type I at most eps + delta, type II 2^-D_H.
    (e,), (cv,), (rate,), (dh,) = eps, c, rates, dhs
    return ((1 + cv) * (e + delta) + (2 + cv + 1 / cv) * 2.0 ** (rate - dh),)


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

    ``receivers(ch, psi, psi_b, tau, eps)`` checks the register roles of the inputs
    and builds one :class:`Receiver` per message stream, each tested at the given
    smoothing; it also returns the independence constraints, (state, parts) pairs
    whose parts must be in a product state (:meth:`build` checks them, and that an
    unassisted scenario's resources are classical).  ``smoothing(eps, delta)`` is
    the eps of that test in the coding theorem, ``penalty(eps, delta, strategy)``
    what the theorem subtracts from D_H (bits), and ``bound(eps, delta, *, c, rates,
    dhs, strategy)`` the analytic error bound(s).  Entanglement-assisted scenarios
    report worst-case error, unassisted ones (classical shared randomness as the
    resource) average error.  ``inputs`` names the spec inputs the simulator needs,
    in the order an assisted simulator takes them.
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
        independence constraints.  An unassisted scenario's resources must be
        classical in the inputs that hold them, and its receivers say so."""
        receivers, independent = self.receivers(ch, psi, psi_b, tau, eps)
        if not self.assisted:
            for rec in receivers:
                classical_blocks(psi if psi.layout.has(rec.resource) else psi_b, rec.resource)
            receivers = [replace(rec, classical=True) for rec in receivers]
        for state, parts in independent:
            product_check(state, parts)
        return receivers

    def budgets(self, eps, delta: float | None = None) -> tuple[float, ...]:
        """``eps`` as one error budget per message stream, each in [0, 1).
        Given ``delta``, which must be positive, the smoothing of each
        stream's test must lie in [0, 1) too, and the message naming a value
        out of range names delta and the smoothing."""
        eps = self.per_stream(eps, "eps")
        if delta is not None and not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        for e in eps:
            s = e if delta is None else self.smoothing(e, delta)
            if not (0 <= e < 1 and 0 <= s < 1):
                got = "" if delta is None else f", delta {delta}, smoothing {s}"
                raise ValueError(f"{'the smoothing' if 0 <= e < 1 else 'eps'} must lie "
                                 f"in [0, 1), got eps {e}{got}")
        return eps

    def smoothings(self, eps, delta: float) -> list[float]:
        """The smoothing of each stream's test at error budgets ``eps``, both
        checked by :meth:`budgets`."""
        return [self.smoothing(e, delta) for e in self.budgets(eps, delta)]

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
    1 - s_B * s_C, the error of the pair's joint success.  ``details`` holds
    results only: a position code's ``receivers``, one record per receiver
    in stream order, or a multiple-access code's joint ``outcome_dist`` and
    its decoder's figures, one number each.  :func:`_report` decides
    ``rate_feasible`` and ``bound_satisfied`` for every decoder.
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


def _error(successes, average: bool) -> float:
    lost = 1.0 - np.asarray(successes, dtype=float)
    return float(np.mean(lost) if average else np.max(lost))


def _report(spec: Scenario, rates, successes, errors, dhs, penalties, checks, *,
            details) -> ProtocolReport:
    """A simulated code's report and its verdict, from the joint per-message
    ``successes``, the ``errors`` of the separately decoded streams, per
    stream the D_H result and its penalty, and the (error, premise-free
    bound, analytic bound) ``checks`` whose largest bounds are reported.
    Each error must be within its premise-free bound and, at a feasible
    rate, its analytic bound."""
    dh_values = tuple(float(dh.value) for dh in dhs)
    feasible = all(_rate_feasible(rate, dh, pen)
                   for rate, dh, pen in zip(rates, dh_values, penalties))
    errs, hns, bounds = zip(*checks)
    return ProtocolReport(
        scenario=spec.name,
        rates=tuple(float(r) for r in rates),
        per_message_success=tuple(float(s) for s in successes),
        worst_error=max(errors) if spec.assisted else _error(successes, False),
        avg_error=_error(successes, True),
        reported_error=max(errors),
        analytic_bound=float(max(bounds)),
        hn_bound=float(max(hns)),
        rate_feasible=feasible,
        bound_satisfied=all(e <= min(1.0, h, b if feasible else 1.0) + BOUND_SLACK
                            for e, h, b in zip(errs, hns, bounds)),
        dh_values=dh_values,
        details=details,
    )


def _hn_constant(eps: float, delta: float, c: float | None) -> float:
    if c is not None:
        if not 0 < c < math.inf:
            raise ValueError(f"c must be positive and finite, got {c}")
        return c
    return delta / eps if eps > 1e-12 else 1.0


def _rate_feasible(rate: int, dh_value: float, penalty_bits: float) -> bool:
    return rate <= dh_value - penalty_bits + 1e-9


# ---------------------------------------------------------------------------
# position decoders on Schur-Weyl blocks and type tables

def _partitions(n: int, rows: int, largest: int | None = None):
    """The partitions of ``n`` into at most ``rows`` parts, largest first."""
    if n == 0:
        yield ()
    elif rows > 0:
        for first in range(min(n, largest or n), 0, -1):
            for rest in _partitions(n - first, rows - 1, first):
                yield (first,) + rest


def _columns(mu) -> list[int]:
    """The column heights of the Young diagram of ``mu``."""
    return [sum(r > j for r in mu) for j in range(mu[0] if mu else 0)]


def _standard_tableaux(mu) -> int:
    """The number of standard tableaux of shape ``mu`` (hook-length formula)."""
    cols = _columns(mu)
    hooks = math.prod(r - j + cols[j] - i - 1 for i, r in enumerate(mu) for j in range(r))
    return math.factorial(sum(mu)) // hooks


def _semistandard_tableaux(mu, d: int) -> int:
    """The number of semistandard tableaux of shape ``mu`` with entries below
    ``d``: the dimension of the irreducible representation of U(d)."""
    mu = list(mu) + [0] * (d - len(mu))
    pairs = list(itertools.combinations(range(d), 2))
    return (math.prod(mu[i] - mu[j] + j - i for i, j in pairs)
            // math.prod(j - i for i, j in pairs))


def _irrep_basis(mu, d: int) -> np.ndarray:
    """A real orthonormal basis of Q_mu inside (C^d)^{(x)N}, as the columns
    of an array of shape (d,)*N + (q,).

    Q_mu is spanned by its highest-weight vector, the product over mu's
    columns of the antisymmetric |0 ^ 1 ^ ... ^ (h-1)> on that column's
    copies, and closed under the lowering operators Pi(|b><a|), b > a, Pi
    summing over the copies.
    """
    vec = np.ones(())
    for h in _columns(mu):
        col = np.zeros((d,) * h)
        for perm in itertools.permutations(range(h)):
            col[perm] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        vec = np.multiply.outer(vec, col)
    basis = [vec.reshape(-1) / np.linalg.norm(vec)]
    k = 0
    while k < len(basis):
        for a, b in itertools.combinations(range(d), 2):
            # Pi(|b><a|): on each copy in turn, entry a moved to entry b.
            src, new = basis[k].reshape(vec.shape), np.zeros(vec.shape)
            for c in range(vec.ndim):
                new[(slice(None),) * c + (b,)] += src[(slice(None),) * c + (a,)]
            new = new.reshape(-1)
            norm = np.linalg.norm(new)
            for _ in range(2):
                done = np.array(basis)
                new = new - done.T @ (done @ new)
            if np.linalg.norm(new) > 1e-8 * norm:
                basis.append(new / np.linalg.norm(new))
        k += 1
    if len(basis) != _semistandard_tableaux(mu, d):
        raise NumericalError(f"irreducible representation {mu} of U({d}) spans "
                             f"{len(basis)} dimensions, not "
                             f"{_semistandard_tableaux(mu, d)}")
    return np.array(basis).T.reshape(vec.shape + (len(basis),))


def _schur_weyl_blocks(copies: int, marginal: np.ndarray):
    """Per partition mu of ``copies`` into at most d rows, d the dimension
    of ``marginal``: its multiplicity m_mu, the generators pi_mu(|a><b|)
    stacked as [a, b, x, y], and pi_mu(marginal), both in Q_mu's basis."""
    d = len(marginal)
    for mu in _partitions(copies, d):
        v = _irrep_basis(mu, d)
        q = v.shape[-1]
        # <x| Pi(|a><b|) |y> pairs, on each copy, v's slice a with its slice
        # b (v is real).
        slices = [np.moveaxis(v, c, 0).reshape(d, -1, q) for c in range(copies)]
        gens = sum((np.einsum("amx,bmy->abxy", s, s) for s in slices),
                   np.zeros((d, d, q, q)))
        power = v
        for c in range(copies):
            power = np.moveaxis(np.tensordot(marginal, power, axes=(1, c)), 0, c)
        yield (_standard_tableaux(mu), gens,
               v.reshape(-1, q).T @ power.reshape(-1, q))


def _swaps(copies: int) -> np.ndarray:
    """Per message m, the outcomes (abort last) with 0 and m swapped.
    Swapping copies 0 and m of a position code takes message 0's state to
    message m's and T_0 to T_m, and leaves S and the set of tests: row m is
    row 0 in this order."""
    perm = np.tile(np.arange(copies + 1), (copies, 1))
    perm[:, 0], perm[range(copies), range(copies)] = range(copies), 0
    return perm


def _position_rows(test: np.ndarray, marginal: np.ndarray, copies: int,
                   states) -> np.ndarray:
    """One row (true copy, each wrong copy, abort) per state of the
    square-root measurement of ``test`` over ``copies`` copies of a resource:
    ``test`` and each state act on the decoder registers and the true copy,
    last, and the wrong copies are in ``marginal``.  With T = sum_ij |i><j|
    (x) T_ij, S = T (x) I + sum_ij |i><j| (x) I (x) Pi(T_ij), Pi summing over
    the wrong copies; S, T and each state are direct sums of Schur-Weyl
    blocks (docs/decoders.md), and the states share S's decomposition."""
    d = len(marginal)
    t = test.reshape(len(test) // d, d, len(test) // d, d)
    blocks = []
    for mult, gens, marg in _schur_weyl_blocks(copies - 1, marginal):
        eye = np.eye(len(marg))
        s = (np.einsum("irjs,xy->irxjsy", t, eye)
             + np.einsum("iajb,abxy,rs->irxjsy", t, gens, np.eye(d))
             ).reshape(len(test) * len(eye), -1)
        blocks.append((mult, s, np.kron(test, eye), marg))
    roots = _inverse_roots([s for _, s, _, _ in blocks])
    rows = []
    for state in states:
        p0 = total = trace = 0.0
        for (mult, s, t0, marg), root in zip(blocks, roots):
            rho = np.kron(state, marg)
            conj = root @ rho @ root
            p0 += mult * np.trace(t0 @ conj).real
            total += mult * np.trace(s @ conj).real
            trace += mult * np.trace(rho).real
        rows.append(_row(p0, total, trace, copies))
    return np.array(rows)


def _row(p0: float, total: float, trace: float, copies: int) -> np.ndarray:
    """Message 0's row (true copy, each wrong copy, abort) from its true
    copy's outcome ``p0``, every outcome but abort ``total`` and the state's
    ``trace``.  Permuting the wrong copies fixes S, T_0 and the state, so
    they share what T_0 leaves of ``total``; with one copy there are none.
    Each entry is clipped at 0."""
    wrong = [(total - p0) / (copies - 1)] * (copies - 1) if copies > 1 else []
    row = np.maximum([p0] + wrong, 0.0)
    return np.append(row, max(trace - row.sum(), 0.0))


def _type_table(rec: Receiver, test: HermOp, n: int):
    """For a classical resource, per type N of the ``n`` copies over the
    letters that occur (p_a above SUPPORT_FLOOR): its first string, the
    probability of its strings, and two masses of one such string summed
    over the copies, the true copy's outcome sum_a N_a Tr(S_N^{-1/2} T_a
    S_N^{-1/2} rho^a) and every outcome but abort sum_a N_a Tr(Pi_N rho^a).
    S_N = sum_a N_a T_a, T_a is ``test`` at letter a, Pi_N the projector on
    S_N's support, and the S_N, the blocks of one S, are one stack."""
    probs, blocks = classical_blocks(rec.joint, rec.resource)
    tests = np.einsum("uiuj->uij", _letter_view(test, [rec.resource]))
    conds = blocks / np.where(probs > 0, probs, np.inf)[:, None, None]
    p = np.diagonal(rec.marginal.matrix).real
    firsts = list(itertools.combinations_with_replacement(
        np.flatnonzero(p > SUPPORT_FLOOR).tolist(), n))
    counts = np.array([[first.count(a) for a in range(len(p))] for first in firsts])
    weights = np.array([math.factorial(n) // math.prod(map(math.factorial, c))
                        * math.prod(p ** c) for c in counts])
    s = np.tensordot(counts, tests, 1)
    (roots,) = _inverse_roots([s])
    success = np.einsum("ka,kaij,aji->k", counts,
                        roots[:, None] @ tests @ roots[:, None], conds).real
    total = np.einsum("kij,kji->k", roots @ s @ roots, np.tensordot(counts, conds, 1)).real
    return firsts, weights, success, total


def _receiver_test(rec: Receiver) -> tuple[DivergenceResult, HermOp]:
    """The receiver's D_H result and its test, the D_H witness; on a
    classical resource only the witness's letter-diagonal blocks, which have
    its type-I and type-II errors, while the others depend on the basis
    :func:`dh_eps` picks inside a degenerate eigenspace."""
    dh = dh_eps(rec.joint, rec.alt, rec.eps)
    layout = rec.joint.layout
    letter = np.indices(layout.dims)[layout.index_of(rec.resource)].ravel()
    keep = (letter[:, None] == letter) | (not rec.classical)
    return dh, HermOp(np.where(keep, dh.witness.operator, 0), layout)


def _run_position_code(rec: Receiver, rate: int):
    """The D_H result and the (n, n+1) outcome distribution (abort last) of
    the receiver's position code on all copies of its resource: on
    Schur-Weyl blocks, or for a classical resource the mixture of its
    fixed-string codes, read off :func:`_type_table`."""
    _check_copies(rec.joint.layout, {rec.resource: rate})
    n = 2 ** rate
    dh, test = _receiver_test(rec)
    if rec.classical:
        _, weights, success, total = _type_table(rec, test, n)
        row = _row(weights @ success / n, weights @ total / n, weights.sum(), n)
    else:
        order = [l for l in rec.joint.layout.labels if l != rec.resource] + [rec.resource]
        (row,) = _position_rows(test.permuted(order).matrix, rec.marginal.matrix, n,
                                [rec.state.permuted(order).matrix])
    return dh, row[_swaps(n)]


def _hn_chain(dh: DivergenceResult, copies: int, c: float) -> float:
    # Exact Hayashi-Nagaoka chain on this instance: type-I and type-II error
    # of the achieving test, with the union bound over the wrong positions.
    return ((1 + c) * (1.0 - dh.witness.type1)
            + (2 + c + 1 / c) * copies * dh.witness.type2)


def _decode_position(spec: Scenario, receivers, rates, eps, delta, strategy,
                     c) -> ProtocolReport:
    """One square-root decoder per receiver, each on its own registers.  The
    receivers act on disjoint registers, so the success of a message tuple
    factorizes; each receiver's record holds its own error and bounds."""
    penalties = [spec.penalty(e, delta, strategy) for e in eps]
    consts = [_hn_constant(r.eps, delta, ci) for r, ci in zip(receivers, c)]
    runs = [_run_position_code(r, rate) for r, rate in zip(receivers, rates)]
    dhs = [dh for dh, _ in runs]
    hns = [_hn_chain(dh, 2 ** rate, cv) for dh, rate, cv in zip(dhs, rates, consts)]
    bounds = spec.bound(eps, delta, c=consts, rates=rates,
                        dhs=[dh.value for dh in dhs], strategy=strategy)
    stream_successes = [np.diagonal(dist) for _, dist in runs]
    errors = [_error(succ, not spec.assisted) for succ in stream_successes]
    details = {"receivers": [
        {"c": cv, "type1": 1.0 - dh.witness.type1, "type2": dh.witness.type2,
         "dual_bound": dh.dual_bound, "error": err, "bound": bound,
         "outcome_dist": dist}
        for cv, (dh, dist), err, bound in zip(consts, runs, errors, bounds)]}
    if spec.headline is not None:
        details["headline_bound"] = spec.headline(eps[0], delta)
    successes = [math.prod(s) for s in itertools.product(*stream_successes)]
    return _report(spec, rates, successes, errors, dhs, penalties,
                   zip(errors, hns, bounds), details=details)


# ---------------------------------------------------------------------------
# multiple-access decoders: one receiver decoding both senders' messages, one
# sender at a time

@dataclass(frozen=True)
class _MacCode:
    omega: DensityOp               # receiver state, one copy of each resource
    senders: tuple                 # per sender (resource, marginal)
    pointer: tuple | None          # sequential decoder: its pointer register
    dhs: tuple[DivergenceResult, DivergenceResult]
    witnesses: tuple[HermOp, HermOp]  # per sender, its test on one copy
    n: tuple[int, int]             # per sender, its number of copies


def _mac_code(receivers, rates, sequential: bool) -> _MacCode:
    """Both senders' tests, resources and marginals, from which each decoder
    builds the message states it reads, once :func:`_check_copies` passes."""
    omega = receivers[0].state
    senders = tuple((r.resource, r.marginal) for r in receivers)
    _check_copies(omega.layout, {res: k for (res, _), k in zip(senders, rates)}, sequential)
    n = (2 ** rates[0], 2 ** rates[1])
    # Longer than every register and copy label, so it clashes with none.
    labels = [*omega.layout.labels,
              *(_copy_label(r, k - 1) for (r, _), k in zip(senders, n))]
    pointer = ("J" + "#" * max(map(len, labels)), 2) if sequential else None
    return _MacCode(omega, senders, pointer, *zip(*map(_receiver_test, receivers)), n)


def _split(layout: SystemLayout, test, stack: np.ndarray):
    """P X P and (I - P) X (I - P) for each Hermitian X of ``stack`` (its
    matrices along the first two axes) and the projector factor ``test``,
    from two local products: with PX = P X, P X P = P (PX)^H and
    (I - P) X (I - P) = X - PX - (PX)^H + P X P."""
    pb = local_product(test, layout, stack)
    pbh = pb.conj().swapaxes(0, 1)
    pbp = local_product(test, layout, pbh)
    return pbp, stack - pb - pbh + pbp


def _sequential_pass(code: _MacCode, starts, wrong):
    """Chain successes (n1, n2) and outcome rows (A outcome, B outcome in
    row-major order; last outcome: no test said "yes") of the sequential
    decoder, streamed copy by copy.

    ``starts[m1]`` lists :func:`place` factors of message states on the
    receiver's registers, whose resource registers hold the true copies:
    one list per m2, or one for every m2.  ``wrong[s][k]`` is copy k of
    sender s when it is not the true copy.  The working matrices hold the
    decoder registers, the pointer qubit, the true copies not yet tested and
    at most one wrong copy: a wrong copy enters right before the test that
    reads it, and each copy is traced out right after, since no later test
    reads it.  B's true copy is a register A's tests do not touch, so A's
    stage runs once per m1 for every m2 that shares its start, and B's stage
    once per m2, on a stack of every m1 (docs/decoders.md).
    """
    n1, n2 = code.n
    projectors = [binary_test_projector(w) for w in code.witnesses]

    def copy_test(sender, k, m, layout, stack):
        """Copy k of ``sender`` in the stack (entered unless it is the true
        copy m), its test, and the registers left once it is traced out."""
        res, w = code.senders[sender][0], code.witnesses[sender]
        label = res if k == m else _copy_label(res, k)
        keep = [reg for reg in layout.registers if reg[0] != label]
        if k != m:
            layout = SystemLayout(layout.registers + ((label, w.layout.dim_of(res)),))
            size = len(stack) * len(wrong[sender][k])
            stack = np.einsum("ab...,ij->aibj...", stack, wrong[sender][k]).reshape(
                (size, size) + stack.shape[2:])
        test = ([(label if l == res else l, d) for l, d in w.layout.registers]
                + [code.pointer], projectors[sender])
        return layout, stack, test, keep

    # A's stage: per start, slots 0..n1-1 are the branches whose first "yes"
    # was at that copy, which go on through A's later tests non-selectively
    # (B's tests act on registers they touch); slot n1 is pending (no "yes"
    # yet) and slot n1+1 the chain ("yes" only at the true copy).
    start_layout = SystemLayout(code.omega.layout.registers + (code.pointer,))
    pointer = ([code.pointer], _basis_density(0, 2))
    outs = []
    for m1, states in enumerate(starts):
        layout = start_layout
        st = np.stack([place(f + [pointer], layout) for f in states], axis=-1)
        x = np.zeros(st.shape + (n1 + 2,), dtype=complex)
        x[..., n1] = x[..., n1 + 1] = st
        for k in range(n1):
            layout, x, test, keep = copy_test(0, k, m1, layout, x)
            yes, no = _split(layout, test, x)
            out = yes + no
            out[..., k], out[..., n1] = yes[..., n1], no[..., n1]
            out[..., n1 + 1] = (yes if k == m1 else no)[..., n1 + 1]
            x, layout = reduced(keep, layout, out), SystemLayout(keep)
        outs.append(x)
    outs = np.stack(outs, axis=2)
    pick = np.broadcast_to(np.arange(outs.shape[3]), n2)
    # B's stage: nothing acts after B's tests, and they are trace preserving
    # together, so a branch B has decided keeps its mass: it is traced, not
    # evolved.
    chain = np.zeros((n1, n2))
    dist = np.zeros((n1, n2, n1 + 1, n2 + 1))
    layout_b = layout
    for m2 in range(n2):
        x, layout = outs[:, :, :, pick[m2]], layout_b
        for k in range(n2):
            layout, x, test, keep = copy_test(1, k, m2, layout, x)
            if k == n2 - 1:
                break
            yes, no = _split(layout, test, x)
            dist[:, m2, :, k] = np.trace(yes).real[:, :n1 + 1]
            no[..., n1 + 1] = (yes if k == m2 else no)[..., n1 + 1]
            x, layout = reduced(keep, layout, no), SystemLayout(keep)
        last, total = local_trace(test, layout, x).real, np.trace(x).real
        dist[:, m2, :, -2] = last[:, :n1 + 1]
        dist[:, m2, :, -1] = total[:, :n1 + 1] - last[:, :n1 + 1]
        chain[:, m2] = (last if m2 == n2 - 1 else total - last)[:, n1 + 1]
    return np.maximum(chain, 0.0), np.maximum(dist, 0.0).reshape(n1 * n2, -1)


def _mac_sequential(code: _MacCode):
    """Sequential binary tests, dilated to projectors with a shared J qubit,
    each applied on the registers it reads (:func:`_sequential_pass`).

    Returns the chain successes, the sequential (union) bound and the report
    details.  A message state's true copy is in the joint state and every
    other copy in the product alternative, so the bound's right-hand side
    1 - 4 sum_k Tr(P_k rho) is read off the tests' recorded errors."""
    n1, n2 = code.n
    chain_succ, dist = _sequential_pass(
        code, [[[(code.omega.layout.registers, code.omega.matrix)]]] * n1,
        [[marg.matrix] * k for (_, marg), k in zip(code.senders, code.n)])
    dh_a, dh_b = code.dhs
    hn = 4.0 * ((1.0 - dh_a.witness.type1) + (1.0 - dh_b.witness.type1)
                + (n1 - 1) * dh_a.witness.type2
                + (n2 - 1) * dh_b.witness.type2)
    return chain_succ.reshape(-1), hn, {"outcome_dist": dist, "seq_rhs": 1.0 - hn}


def _mac_pgm(code: _MacCode, epsilons, delta, c, a_first: bool):
    """Two square-root measurements, the first sender's then the second's,
    each on the decoder registers and its own sender's copies.  Both are
    position codes, so only message (0, 0) is decoded: (m1, m2)'s row is its
    row with A's outcomes 0, m1 and B's 0, m2 swapped.  Returns the joint
    successes, the stages' summed Hayashi-Nagaoka-type bounds and the details."""
    i_first, i_second = order = (0, 1) if a_first else (1, 0)
    n1, n2 = n = code.n
    c_first, c_second = (_hn_constant(epsilons[i], delta, c[i]) for i in order)
    res, marg = code.senders[i_first]
    first = build_position_povm(code.witnesses[i_first], n[i_first], res)
    kraus_first = [(first.layout.registers, psd_sqrt(p)) for p in first.elements()]
    # Message (0, 0)'s first-stage state: the receiver's state with both
    # resources on copy 0, and the first sender's other copies in its
    # marginal.  The second sender's wrong copies are untouched by the first
    # stage: they change no fidelity and stay in the marginal the second
    # stage reads, so they are never placed.
    factors = [(_on_copies(code.omega.layout, {r: 0 for r, _ in code.senders}),
                code.omega.matrix)]
    factors += [(_on_copies(marg.layout, {res: k}), marg.matrix)
                for k in range(1, n[i_first])]
    layout = SystemLayout([reg for regs, _ in factors for reg in regs])
    st = place(factors, layout)
    branches = [local_product(k, layout, local_product(k, layout, st).conj().T)
                for k in kraus_first]
    post = np.sum(branches, axis=0)
    (res, marg), w = code.senders[i_second], code.witnesses[i_second]
    row = _position_rows(w.matrix, marg.matrix, n[i_second], [
        reduced(_on_copies(w.layout, {res: 0}), layout, b) for b in branches])
    # Outcomes in (A-outcome, B-outcome) order whatever the decode order.
    dist = (row if a_first else row.T)[_swaps(n1)[:, None, :, None],
                                       _swaps(n2)[None, :, None, :]]
    hn_first = _hn_chain(code.dhs[i_first], n[i_first], c_first)
    hn_second = (math.sqrt(_hn_chain(code.dhs[i_second], n[i_second], c_second))
                 + math.sqrt(2 * hn_first)) ** 2
    return [row[0, 0]] * (n1 * n2), hn_first + hn_second, {
        "outcome_dist": dist.reshape(n1 * n2, -1),
        # Tr(sqrt(L) rho sqrt(L)) = Tr(L rho): the true outcome's branch.
        "stage1_err": 1.0 - np.trace(branches[0]).real,
        "stage2_err": 1.0 - float(np.sum(row[:, 0])),
        "disturbance": purified_distance(st, (post + post.conj().T) / 2),
        "stage_hn": (hn_first, hn_second)}


def _decode_mac(spec: Scenario, receivers, rates, eps, delta, strategy,
                c) -> ProtocolReport:
    """Strategies: projective ``sequential`` tests via a shared pointer qubit,
    or two square-root measurements in either order (``pgm_a_first``,
    ``pgm_b_first``).  Per-message successes are joint (both messages
    correct)."""
    # The penalty rejects an unknown strategy before any decoding work.
    penalties = [spec.penalty(e, delta, strategy) for e in eps]
    if strategy == "sequential" and any(ci is not None for ci in c):
        raise ValueError(f"the sequential decoder takes no c, got c {c}")
    code = _mac_code(receivers, rates, strategy == "sequential")
    bounds = spec.bound(eps, delta, strategy=strategy)
    if strategy == "sequential":
        successes, hn, details = _mac_sequential(code)
    else:
        successes, hn, details = _mac_pgm(code, eps, delta, c,
                                          strategy == "pgm_a_first")
        details["stage_bounds"] = bounds
    details["strategy"] = strategy
    errors = [_error(successes, not spec.assisted)]
    # The joint error's bound is the sequential one or the stages' sum.
    checks = [(errors[0], hn, sum(bounds))]
    if strategy != "sequential":
        # The theorems bound the two stages separately; require those too.
        checks += [(details[f"stage{i + 1}_err"], details["stage_hn"][i], bounds[i])
                   for i in (0, 1)]
    return _report(spec, rates, successes, errors, code.dhs, penalties, checks,
                   details=details)


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
    return spec.decode(spec, receivers, rates, eps, delta, strategy,
                       spec.per_stream(c, "c"))


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
    qubit, which takes no ``c``.  Per-message successes are joint (both
    messages correct).
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

    The randomized protocol is the mixture of its fixed-string codes, so its
    average error is theirs weighted by the strings' probabilities, and the
    best string of positive probability does at least as well (the averaging
    argument).  Each candidate's error is read off the randomized protocol's
    decoder on that string; for ``p2p`` and ``gp`` that error depends only
    on the string's type, so it is read off the simulator's own table of
    the types (:func:`_type_table`).  For the two-sender scenario the strings are chosen jointly and
    the figure minimized is the average error of the joint sequential
    decoder.  The two-receiver broadcast scenario is not supported.
    """
    spec = get_scenario(f"{scenario}_ua")
    if spec.streams > 1 and spec.decode is not _decode_mac:
        raise ValueError(f"derandomization not implemented for scenario {scenario!r}")
    rates = spec.rates(rates)
    eps = spec.per_stream(epsilons, "eps")
    receivers = spec.build(ch, psi, psi_b, tau, spec.smoothings(eps, delta))
    candidates = list((_mac_string_errors if spec.decode is _decode_mac
                       else _type_errors)(receivers, rates))
    best_err, best = math.inf, None
    for strings, _, err in candidates:
        if err < best_err - 1e-15:
            best_err, best = err, strings
    return DerandomizedCode(best[0], best[1] if len(best) > 1 else None, best_err,
                            math.fsum(weight * err for _, weight, err in candidates))


def _type_errors(receivers, rates):
    """Per type of the 2^R copies' letters (:func:`_type_table`), its first
    string, the probability of its strings and the error on them."""
    (rec,), (rate,) = receivers, rates
    _check_copies(rec.joint.layout, {rec.resource: rate})
    n = 2 ** rate
    for first, weight, x, _ in zip(*_type_table(rec, _receiver_test(rec)[1], n)):
        yield (first,), weight, max(1.0 - float(x) / n, 0.0)


def _mac_string_errors(receivers, rates):
    """Each pair of strings of positive probability, its probability and
    the sequential decoder's average error on it."""
    code = _mac_code(receivers, rates, sequential=True)
    # Given the letters (a, b), the decoder registers are in a diagonal block
    # of the receiver's state, and every copy is in the basis state of its
    # letter.
    res, dims = zip(*((r, marg.layout.dim) for r, marg in code.senders))
    blocks = np.einsum("uiuj->uij", _letter_view(code.omega, res))
    probs = np.einsum("uii->u", blocks).real.reshape(dims)
    rest = [reg for reg in code.omega.layout.registers if reg[0] not in res]

    def fixed(strings):
        starts = [[[(rest, blocks[a * dims[1] + b] / probs[a, b])] + [
            ([(r, d)], _basis_density(u, d)) for r, d, u in zip(res, dims, (a, b))]
            for b in strings[1]] for a in strings[0]]
        return starts, [[_basis_density(u, d) for u in string]
                        for string, d in zip(strings, dims)]
    letters = [np.sum(probs, axis=1 - i) for i in (0, 1)]
    support = [np.flatnonzero(p > SUPPORT_FLOOR).tolist() for p in letters]
    for strings in itertools.product(*(itertools.product(sup, repeat=n)
                                       for sup, n in zip(support, code.n))):
        chain, _ = _sequential_pass(code, *fixed(strings))
        yield (strings, math.prod(p[u] for p, s in zip(letters, strings) for u in s),
               max(1.0 - float(np.mean(chain)), 0.0))


def _basis_density(index: int, dim: int) -> np.ndarray:
    return np.diag(np.eye(dim, dtype=complex)[index])


# ---------------------------------------------------------------------------
# converse floor and dual error accounting

def converse_floor(dist: np.ndarray, rate_bits: float, *, correct_cols=None,
                   sigmas: int = 5, seed: int = 0) -> dict:
    """Converse floor from the exact outcome distribution of a code.

    Embeds the joint (message, decoded) distribution as a cq state phi_MM'
    with uniform messages and checks dh_eps(phi || phi_M (x) sigma, eps) >= R
    at eps = 1 - average success, against sampled states sigma, solved side
    by side in one :func:`dh_eps_many` call.  The correlation test
    sum_m |mm><mm| is a feasible witness with type-I success = average
    success and type-II error <= 2^-R for any sigma, so the floor holds for
    any row-stochastic ``dist``: a failed floor points at :func:`dh_eps`,
    not at the decoder that produced ``dist``.
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
    alts = [np.broadcast_to(sample("density", n_out, seed=seed + i).matrix / n,
                            (n, n_out, n_out)) for i in range(sigmas)]
    values = [res.value for res in dh_eps_many([(phi, alt, eps) for alt in alts])]
    floor = min(values)
    return {"floor": floor, "values": values, "eps": eps, "rate": rate_bits,
            "holds": floor >= rate_bits - 1e-7}


def report_floors(report: ProtocolReport, *, sigmas: int = 5,
                  seed: int = 0) -> list[dict]:
    """Converse floors for every receiver of a simulated code.

    Runs :func:`converse_floor` on the outcome distributions the report
    holds: each receiver's at its rate, or a multiple-access code's joint
    one at the summed rate, with message (m1, m2)'s correct outcome at
    column m1 (n2 + 1) + m2.  A floor holds for any outcome distribution, so
    it checks :func:`dh_eps` and not the decoder; decoders are checked by the
    dense references in the tests and by their error staying below
    ``hn_bound``.
    """
    details, rates = report.details, report.rates
    if "receivers" in details:
        inputs = [(rec["outcome_dist"], rate, None)
                  for rec, rate in zip(details["receivers"], rates)]
    elif "outcome_dist" in details:
        n1, n2 = (2 ** int(r) for r in rates)
        inputs = [(details["outcome_dist"], rates[0] + rates[1],
                   [m1 * (n2 + 1) + m2 for m1 in range(n1) for m2 in range(n2)])]
    else:
        raise ValueError(f"no outcome distribution in the report of scenario "
                         f"{report.scenario!r}")
    return [converse_floor(dist, rate, correct_cols=cols, sigmas=sigmas, seed=seed + i)
            for i, (dist, rate, cols) in enumerate(inputs)]
