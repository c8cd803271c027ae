"""Converse and achievability rate expressions, corollaries, and the local
search behind their min-over-sigma optimization.

Values are in bits.  Negative achievable rates are flagged infeasible rather
than clamped; the sigma minimization is a best-effort local search whose full
candidate trace is returned so callers can judge convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel
from .coding import check_uniform, get_scenario, product_marginals
from .divergences import dh_eps, dmax
from .linalg import DensityOp, as_matrix, partial_trace, psd_sqrt

__all__ = [
    "RateBound",
    "converse_value",
    "achievable_rate",
    "identity_channel_corollary",
    "corollary_relaxations",
    "EXTRA_SCENARIOS",
]

# Scenario names outside the coding table: the sum-rate MAC converse of
# ``converse_value`` and the two relaxations of ``corollary_relaxations``.
EXTRA_SCENARIOS = ("mac_ea_hdw", "gp", "broadcast")


@dataclass(frozen=True)
class RateBound:
    """A rate expression evaluated at a concrete input state.

    ``per_sender`` holds one value per message stream; ``value`` is the first
    of them (the single rate for one-sender scenarios).  ``ceiling`` carries
    the dimension ceilings of the unassisted converses, ``sum_rate`` the
    sum-rate expression where one exists.  ``optimizer_trace`` lists every
    (candidate description, value) pair examined by the sigma search.
    """

    scenario: str
    kind: str
    value: float
    per_sender: tuple[float, ...]
    sum_rate: float | None
    ceiling: float | None
    infeasible: bool
    evaluated_at: str
    optimizer_trace: tuple


def _dh_value(rho: DensityOp, alt_mat: np.ndarray, eps: float) -> float:
    res = dh_eps(rho, alt_mat, eps)
    return math.inf if res.unbounded else res.value


def _min_over_sigma(joint: DensityOp, res_labels: Sequence[str], eps: float,
                    candidates, optimize: bool, restarts: int, seed: int):
    """min over states sigma on the non-resource block of D_H(joint || sigma x res).

    The joint is permuted to [outputs..., resources...]; candidates always
    include the joint's own output marginal.  Local refinement parameterizes
    sigma = G^dag G / Tr(G^dag G) over complex G and runs a simplex descent.
    """
    out_labels = [l for l in joint.layout.labels if l not in set(res_labels)]
    joint = joint.permuted(out_labels + list(res_labels))
    res_marg = partial_trace(joint, list(res_labels)).permuted(list(res_labels))
    d_out = int(np.prod([joint.layout.dim_of(l) for l in out_labels]))

    def value_of(sig: np.ndarray) -> float:
        return _dh_value(joint, np.kron(sig, res_marg.matrix), eps)

    trace = []
    out_marg = partial_trace(joint, out_labels).permuted(out_labels)
    cand_mats = [("output marginal", out_marg.matrix),
                 ("maximally mixed", np.eye(d_out) / d_out)]
    for i, c in enumerate(candidates or []):
        cand_mats.append((f"candidate {i}", as_matrix(c)))
    best = math.inf
    best_desc = None
    for desc, mat in cand_mats:
        val = value_of(mat)
        trace.append((desc, val))
        if val < best:
            best, best_desc = val, desc

    if optimize:
        from scipy.optimize import minimize

        rng = np.random.default_rng(seed)

        def unpack(x: np.ndarray) -> np.ndarray:
            g = (x[: d_out * d_out] + 1j * x[d_out * d_out:]).reshape(d_out, d_out)
            sig = g.conj().T @ g
            tr = float(np.real(np.trace(sig)))
            if tr < 1e-14:
                sig = np.eye(d_out)
                tr = d_out
            return sig / tr

        def objective(x: np.ndarray) -> float:
            v = value_of(unpack(x))
            return v if math.isfinite(v) else 1e6

        starts = []
        for desc, mat in cand_mats:
            g = psd_sqrt(mat)
            starts.append(np.concatenate([np.real(g).ravel(), np.imag(g).ravel()]))
        for _ in range(restarts):
            starts.append(rng.standard_normal(2 * d_out * d_out))
        for k, x0 in enumerate(starts):
            res = minimize(objective, x0, method="Nelder-Mead",
                           options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-12})
            trace.append((f"descent {k}", float(res.fun)))
            if res.fun < best:
                best, best_desc = float(res.fun), f"descent {k}"
    return best, best_desc, trace


def _make_bound(scenario, kind, per_sender, *, sum_rate=None, ceiling=None,
                evaluated_at="", trace=()) -> RateBound:
    per_sender = tuple(float(v) for v in per_sender)
    infeasible = kind == "achievable" and any(v < 0 for v in per_sender)
    return RateBound(
        scenario=scenario,
        kind=kind,
        value=per_sender[0],
        per_sender=per_sender,
        sum_rate=None if sum_rate is None else float(sum_rate),
        ceiling=None if ceiling is None else float(ceiling),
        infeasible=infeasible,
        evaluated_at=evaluated_at,
        optimizer_trace=tuple(trace),
    )


def converse_value(scenario: str, ch: KrausChannel, psi: DensityOp,
                   eps, sigma_candidates=None, optimize: bool = False, *,
                   psi_b: DensityOp | None = None, tau: DensityOp | None = None,
                   restarts: int = 4, seed: int = 0) -> RateBound:
    """Upper bound on the rate(s) of any code, evaluated at one input state.

    The minimization over the receiver-side state sigma is carried out over
    the supplied candidates (the channel-output marginal is always included)
    and, with ``optimize``, refined by local descent.  Unassisted scenarios
    additionally report the dimension ceiling log|B| / (1 - eps) and require
    uniform classical registers, matching the converse statements.
    """
    if scenario == "mac_ea_hdw":
        return _mac_hdw_converse(ch, psi, psi_b, eps)
    spec = get_scenario(scenario)
    eps = spec.per_stream(eps, "eps")
    receivers = spec.build(ch, psi, psi_b, tau, eps)
    if spec.marginal_converse:
        # Conditioned variant: alternatives fixed by the state's own marginals.
        vals = [_dh_value(r.joint, r.alt.matrix, r.eps) for r in receivers]
        return _make_bound(scenario, "converse", vals,
                           evaluated_at=spec.converse_note,
                           trace=(("rho_{out,sides} x rho_res", tuple(vals)),))
    ceiling = None
    if not spec.assisted:
        for r in receivers:
            check_uniform(r.marginal, r.resource)
        budget = 1
        for e in eps:
            budget -= e
        # No error budget left: the ceiling is vacuous.
        ceiling = math.log2(ch.out_dim) / budget if budget > 0 else math.inf
    runs = [_min_over_sigma(r.joint, [r.resource], r.eps, sigma_candidates,
                            optimize, restarts, seed) for r in receivers]
    return _make_bound(
        scenario, "converse", [val for val, _, _ in runs], ceiling=ceiling,
        evaluated_at=spec.converse_note.format(*(desc for _, desc, _ in runs),
                                               labels=psi.layout.labels),
        trace=tuple(t for _, _, trace in runs for t in trace))


def _mac_hdw_converse(ch: KrausChannel, psi_a: DensityOp, psi_b: DensityOp,
                      eps) -> RateBound:
    """Sum-rate variant of the MAC converse for pure two-register sender states."""
    spec = get_scenario("mac_ea")
    rec_a, rec_b = spec.build(ch, psi_a, psi_b, None, spec.per_stream(eps, "eps"))
    for st in (psi_a, psi_b):
        purity = float(np.real(np.trace(st.matrix @ st.matrix)))
        if purity < 1 - 1e-9:
            raise ValueError("this converse variant needs pure sender states")
    outs = list(ch.out_layout.labels)
    res_a, res_b = rec_a.resource, rec_b.resource
    rho = rec_a.state.permuted(outs + [res_a, res_b])
    rho_c = partial_trace(rho, outs).permuted(outs)
    v1 = _dh_value(rho.permuted(outs + [res_b, res_a]),
                   np.kron(rec_b.joint.matrix, rec_a.marginal.matrix), rec_a.eps)
    v2 = _dh_value(rho, np.kron(rec_a.joint.matrix, rec_b.marginal.matrix), rec_b.eps)
    vsum = _dh_value(rho, np.kron(np.kron(rho_c.matrix, rec_a.marginal.matrix),
                                  rec_b.marginal.matrix), rec_a.eps + rec_b.eps)
    return _make_bound("mac_ea_hdw", "converse", [v1, v2], sum_rate=vsum,
                       evaluated_at="alternatives = state marginals",
                       trace=(("per-sender and sum-rate", (v1, v2, vsum)),))


def achievable_rate(scenario: str, ch: KrausChannel, psi: DensityOp, eps,
                    delta: float, *, psi_b: DensityOp | None = None,
                    tau: DensityOp | None = None,
                    strategy: str = "sequential") -> RateBound:
    """The rate guaranteed achievable at this input state: D_H minus the
    penalty of the matching coding theorem.  Negative values mean the
    delta-penalty exceeds the divergence at these parameters (infeasible)."""
    spec = get_scenario(scenario)
    eps = spec.per_stream(eps, "eps")
    receivers = spec.build(ch, psi, psi_b, tau, spec.smoothings(eps, delta))
    vals = [_dh_value(r.joint, r.alt.matrix, r.eps) - spec.penalty(e, delta, strategy)
            for r, e in zip(receivers, eps)]
    return _make_bound(scenario, "achievable", vals,
                       evaluated_at=spec.achievable_note.format(strategy=strategy))


def identity_channel_corollary(dimA: int, eps: float):
    """Rate ceiling for entanglement-assisted coding over a noiseless channel.

    Returns (log2(|A|^2 / (1 - eps)), witness) where the witness is the pair
    of Schmidt-coefficient vectors (lambda, a) saturating the argument:
    lambda_i = 1/sqrt|A| for the shared state, a_i = sqrt((1-eps)/|A|) for
    the sub-normalized test vector.
    """
    if dimA < 2:
        raise ValueError("dimA must be at least 2")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    ceiling = math.log2(dimA ** 2 / (1 - eps))
    lam = np.full(dimA, 1.0 / math.sqrt(dimA))
    avec = np.full(dimA, math.sqrt((1 - eps) / dimA))
    return ceiling, (lam, avec)


def corollary_relaxations(scenario: str, ch: KrausChannel, psi: DensityOp,
                          eps, sigma_candidates=None, optimize: bool = False,
                          *, restarts: int = 4, seed: int = 0) -> RateBound:
    """Converse variants without product constraints, paid by a D_max penalty.

    For the channel-with-state scenario the penalty is
    dmax(psi_SB' || psi_S x psi_B'); for broadcast it is
    dmax(psi_B'C' || psi_B' x psi_C'), charged to both receivers.  When the
    relevant marginal is product the penalty vanishes and the value agrees
    with :func:`converse_value`.
    """
    if scenario not in ("gp", "broadcast"):
        raise ValueError(f"unknown scenario {scenario!r}")
    spec = get_scenario(f"{scenario}_ea")
    receivers, ((state, parts),) = spec.receivers(
        True, ch, psi, None, None, spec.per_stream(eps, "eps"))
    marg, prod = product_marginals(state, parts)
    penalty = max(dmax(marg, prod.matrix), 0.0)
    runs = [_min_over_sigma(r.joint, [r.resource], r.eps, sigma_candidates,
                            optimize, restarts, seed) for r in receivers]
    note = f"dmax penalty = {penalty:.6f}"
    if len(runs) == 1:
        note = f"sigma = {runs[0][1]}, {note}"
    return _make_bound(f"{scenario}_relaxed", "converse",
                       [val - penalty for val, _, _ in runs], evaluated_at=note,
                       trace=tuple(t for _, _, trace in runs for t in trace))

