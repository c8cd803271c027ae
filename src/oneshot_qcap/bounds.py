"""Converse and achievability rate expressions, corollaries, and the exact
minimization over sigma behind the converses.

Values are in bits.  Negative achievable rates are flagged infeasible rather
than clamped.  The converse's minimum over the receiver-side state sigma is
a small semidefinite program (Matthews-Wehner, arXiv:1210.4722), solved by a
primal-dual interior-point method that also returns a certificate: the true
minimum lies between the certificate and the reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .channels import KrausChannel
from .coding import SCENARIOS, Scenario, check_uniform, product_marginals
from .divergences import SUPPORT_TOL, dh_eps, dh_eps_many, dmax
from .linalg import (DensityOp, NumericalError, as_matrix, check_dimension,
                     herm_apply, partial_trace, trace_with)

__all__ = [
    "RateBound",
    "converse_value",
    "achievable_rate",
    "identity_channel_corollary",
    "corollary_relaxations",
    "BoundKind",
    "BOUND_KINDS",
    "spec_inputs",
]


class BoundKind(NamedTuple):
    """The scenario names one kind of bound takes, each with the coding-table
    scenario whose receivers and spec inputs it reads, and the name it is
    evaluated at when none is given (None: a name is required)."""

    scenarios: dict[str, str]
    default: str | None


BOUND_KINDS = {
    "converse": BoundKind({**{name: name for name in SCENARIOS},
                           "mac_ea_hdw": "mac_ea"}, "p2p_ea"),
    "achievable": BoundKind({name: name for name in SCENARIOS}, "p2p_ea"),
    "relaxation": BoundKind({"gp": "gp_ea", "broadcast": "broadcast_ea"}, None),
}

# The interior-point solve of the sigma SDP stops once the duality gap is at
# most _SDP_TOL times the objective and the dual residual at most _SDP_TOL.
# Close to the optimum rounding can stop its progress first (the Newton
# system's condition number grows without bound, and on rank-deficient
# inputs the dual residual grows again); a failed step or the step cap
# _SDP_ITERS then stops it where it is.  Either way the minimum over sigma
# counts as solved only when the best candidate's value is within
# _SDP_BRACKET bits of the certificate, and is a stall otherwise.
_SDP_ITERS = 50
_SDP_TOL = 1e-10
_SDP_BRACKET = 1e-8
# The recovered test keeps its eigenvalues in [_SDP_MARGIN, 1 - _SDP_MARGIN],
# so that its feasibility survives the rounding of its reassembly.
_SDP_MARGIN = 1e-13
# The converse names the first candidate sigma within _TIE_BITS of the minimum.
_TIE_BITS = 1e-12


@dataclass(frozen=True)
class RateBound:
    """A rate expression evaluated at a concrete input state.

    ``per_sender`` holds one value per message stream; ``value`` is the first
    of them (the single rate for one-sender scenarios).  ``ceiling`` carries
    the dimension ceilings of the unassisted converses, ``sum_rate`` the
    sum-rate expression where one exists.  ``optimizer_trace`` lists every
    (candidate description, value) pair examined for sigma; with the exact
    minimization it ends in one ``sdp`` row per sender, the value at the
    SDP's optimal sigma.  ``certificate`` is then one lower bound per
    sender on the exact minimum over sigma (so certificate <= minimum <=
    value), and ``None`` when sigma was not optimized.
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
    certificate: tuple[float, ...] | None = None


def _phi(test: np.ndarray, res: np.ndarray, d_out: int) -> np.ndarray:
    """Tr_res[(I x res) T] for a test T on [outputs, resources], or for each
    of a stack of them; its adjoint maps sigma to sigma x res."""
    d_res = res.shape[0]
    split = test.reshape(*test.shape[:-2], d_out, d_res, d_out, d_res)
    return np.einsum("...aqbr,rq->...ab", split, res)


def _hermitian_basis(n: int) -> np.ndarray:
    """(n^2, n^2) unitary whose columns are the row-major vectors of an
    orthonormal basis of the n x n Hermitian matrices: E_kk, and
    (E_kl + E_lk)/sqrt2 and i(E_kl - E_lk)/sqrt2 for k < l."""
    k, l = np.triu_indices(n, 1)
    off = np.arange(len(k)) + n
    basis = np.zeros((n, n, n * n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[k, l, off] = basis[l, k, off] = math.sqrt(0.5)
    basis[k, l, off + len(k)] = 1j * math.sqrt(0.5)
    basis[l, k, off + len(k)] = -1j * math.sqrt(0.5)
    return basis.reshape(n * n, n * n)


def _h(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _nt_scaling(s: np.ndarray, z: np.ndarray):
    """Nesterov-Todd scaling of a primal-dual pair of positive definite
    blocks, or of each pair of blocks in two stacks: G, G^-1 and the
    spectrum w with G^-1 S G^-H = G^H Z G = diag(w), from Cholesky factors
    and one SVD (Todd, Toh and Tutuncu 1998)."""
    ls, lz = np.linalg.cholesky(s), np.linalg.cholesky(z)
    u, w, vh = np.linalg.svd(_h(lz) @ ls)
    root = np.sqrt(w)
    return (ls @ _h(vh)) / root[..., None, :], (_h(u) @ _h(lz)) / root[..., :, None], w


def _max_step(w: np.ndarray, step: np.ndarray) -> float:
    """The largest a <= 1 with diag(w) + a * step positive semidefinite, for
    one block or for every block of a stack."""
    r = 1.0 / np.sqrt(w)
    low = np.linalg.eigvalsh(r[..., :, None] * step * r[..., None, :])[..., 0].min()
    return 1.0 if low >= -1.0 else -1.0 / low


class _SigmaSDP:
    """max over states sigma of 2^-D_H(rho || sigma x res), which by Sion's
    minimax theorem is the SDP
        minimize lam  subject to  0 <= T <= I,  Tr(T rho) >= 1 - eps,
                                  Phi(T) = Tr_res[(I x res) T] <= lam I,
    in inequality form: minimize c.x subject to S(x) = F0 + A x >= 0, where
    x = (T in the basis of ``_hermitian_basis``, lam) and the slack S has
    four blocks: T, I - T, lam I - Phi(T) and Tr(T rho) - (1 - eps).  The
    dual variable Z of the third block is an optimal sigma.  ``step`` is one
    Mehrotra predictor-corrector step in Nesterov-Todd directions; the
    factorizations of the T and I - T blocks, both n x n, run as stacked
    calls.
    """

    def __init__(self, rho: np.ndarray, res: np.ndarray, d_out: int, eps: float):
        n = rho.shape[0]
        self.basis = _hermitian_basis(n)
        phi = _phi(self.basis.T.reshape(n * n, n, n), res, d_out).reshape(n * n, -1).T
        none = np.zeros((n * n, 1))
        blocks = [  # (A_b, F0_b), with A_b acting on x into vec S_b
            (np.hstack([self.basis, none]), np.zeros((n, n))),
            (np.hstack([-self.basis, none]), np.eye(n)),
            (np.hstack([-phi, np.eye(d_out).reshape(-1, 1)]), np.zeros((d_out, d_out))),
            (np.hstack([rho.conj().reshape(1, -1) @ self.basis, [[0.0]]]),
             np.array([[eps - 1.0]])),
        ]
        self.blocks = [(a, _h(a), f0) for a, f0 in blocks]
        self.c = np.zeros(n * n + 1)
        self.c[-1] = 1.0

    def along(self, dx: np.ndarray) -> list:
        return [(a @ dx).reshape(f0.shape) for a, _, f0 in self.blocks]

    def slack(self, x: np.ndarray) -> list:
        return [f0 + d for (_, _, f0), d in zip(self.blocks, self.along(x))]

    def adjoint(self, mats) -> np.ndarray:
        return sum(np.real(ah @ m.ravel()) for (_, ah, _), m in zip(self.blocks, mats))

    def step(self, x: np.ndarray, slack: list, dual: list, mu: float):
        pair = _nt_scaling(np.stack(slack[:2]), np.stack(dual[:2]))
        scaled = [*zip(*pair), *map(_nt_scaling, slack[2:], dual[2:])]
        w_inv = [_h(gi) @ gi for _, gi, _ in scaled]
        # A_b^H (W_b kron W_b^T) A_b, the Kronecker product as an outer one.
        schur = sum(np.real(ah @ (wi[:, None, :, None] * wi.T[None, :, None, :])
                            .reshape(len(a), len(a)) @ a)
                    for (a, ah, _), wi in zip(self.blocks, w_inv))
        schur = 0.5 * (schur + schur.T)

        def longest(steps):
            """The largest a <= 1 with diag(w) + a * step positive
            semidefinite in every block."""
            return min(_max_step(pair[2], np.stack(steps[:2])),
                       *(_max_step(w, d) for d, (_, _, w) in zip(steps[2:], scaled[2:])))

        def direction(rhs):
            """The step whose scaled complementarity residual is rhs (per
            block, already divided by the Lyapunov operator of diag(w))."""
            h = [_h(gi) @ q @ gi for q, (_, gi, _) in zip(rhs, scaled)]
            try:
                dx = np.linalg.solve(schur, self.adjoint(h) - self.c)
            except np.linalg.LinAlgError:  # exactly singular: T not unique
                dx = np.linalg.lstsq(schur, self.adjoint(h) - self.c, rcond=None)[0]
            ds = self.along(dx)
            dz = [hb - z - wi @ d @ wi for hb, z, d, wi in zip(h, dual, ds, w_inv)]
            dz = [0.5 * (d + _h(d)) for d in dz]
            s_scaled = [gi @ d @ _h(gi) for d, (_, gi, _) in zip(ds, scaled)]
            z_scaled = [_h(g) @ d @ g for d, (g, _, _) in zip(dz, scaled)]
            return dx, dz, s_scaled, z_scaled, longest(s_scaled), longest(z_scaled)

        _, _, s_aff, z_aff, a_p, a_d = direction([np.zeros_like(s) for s in slack])
        mu_aff = sum(trace_with(np.diag(w) + a_p * ds, np.diag(w) + a_d * dz)
                     for ds, dz, (_, _, w) in zip(s_aff, z_aff, scaled))
        mu_aff /= sum(len(w) for _, _, w in scaled)
        # Mehrotra's centering (mu_aff / mu)^e with SDPT3's adaptive exponent
        # e = max(1, 3 min(a_p, a_d)^2) (Toh, Todd and Tutuncu 1999): e = 3,
        # superlinear near the optimum, after a long affine step; down to
        # e = 1, more centering, after a short one, which keeps iterates on
        # degenerate problems (rank-deficient rho and sigma*) near the
        # central path.
        target = min(1.0, mu_aff / mu) ** max(1.0, 3.0 * min(a_p, a_d) ** 2) * mu
        rhs = []
        for ds, dz, (_, _, w) in zip(s_aff, z_aff, scaled):
            second = ds @ dz
            rhs.append((target * np.eye(len(w)) - 0.5 * (second + _h(second)))
                       * (2.0 / (w[:, None] + w[None, :])))
        dx, dz, _, _, a_p, a_d = direction(rhs)
        keep = 0.9 + 0.09 * min(a_p, a_d)
        a_p, a_d = min(1.0, keep * a_p), min(1.0, keep * a_d)
        return x + a_p * dx, [z + a_d * d for z, d in zip(dual, dz)]


def _sdp_sigma(rho: np.ndarray, res: np.ndarray, d_out: int, eps: float):
    """An optimal sigma for min over states sigma of D_H(rho || sigma x res),
    and a certificate: -log2 lambda_max(Phi(T)) at a test T of the SDP of
    ``_SigmaSDP`` checked feasible in floating point, a lower bound on that
    minimum.

    At eps = 0 (the threshold of ``dh_eps``'s own eps = 0 branch) the
    feasible tests are the projector Pi onto supp(rho) plus any test on its
    kernel, so the optimum is lambda_max(Phi(Pi)), attained by its top
    eigenvector, with no iteration.  Otherwise the primal-dual
    interior-point method starts at T = (1 - eps/2) I, lam = 1 and Z = S^-1
    (on the central path).  It stops at the tolerance, at a failed
    factorization or after ``_SDP_ITERS`` steps, and answers where it
    stopped; whether that is a stall is for ``_min_over_sigma``'s bracket
    to decide, and that raises.  Raises ``NumericalError`` only when no
    feasible test can be recovered.
    """
    n = rho.shape[0]
    check_dimension(f"the SDP over sigma at n = {n}, with n^2 unknowns,", n * n)
    if eps <= 1e-12:
        support = herm_apply(rho, lambda w: (w > SUPPORT_TOL).astype(float))
        top, vecs = np.linalg.eigh(_phi(support, res, d_out))
        return np.outer(vecs[:, -1], vecs[:, -1].conj()), -math.log2(top[-1])

    sdp = _SigmaSDP(rho, res, d_out, eps)
    x = np.append(np.real(sdp.basis.conj().T @ np.eye(n).ravel()) * (1 - eps / 2), 1.0)
    slack = sdp.slack(x)
    dual = [np.linalg.inv(s) for s in slack]
    dual = [0.5 * (z + z.conj().T) for z in dual]
    barrier = sum(len(s) for s in slack)
    for _ in range(_SDP_ITERS):
        gap = sum(trace_with(s, z) for s, z in zip(slack, dual)) / x[-1]
        residual = np.max(np.abs(sdp.c - sdp.adjoint(dual)))
        if gap <= _SDP_TOL and residual <= _SDP_TOL:
            break
        try:
            x, dual = sdp.step(x, slack, dual, gap * x[-1] / barrier)
        except np.linalg.LinAlgError:
            break
        slack = sdp.slack(x)
    sigma = dual[2] / np.real(np.trace(dual[2]))
    return sigma, _certificate((sdp.basis @ x[:-1]).reshape(n, n), rho, res, d_out, eps)


def _certificate(test: np.ndarray, rho: np.ndarray, res: np.ndarray,
                 d_out: int, eps: float) -> float:
    """-log2 lambda_max(Phi(T)) at the interior-point test T, clipped to
    eigenvalues in [m, 1 - m] and mixed with (1 - m) I until Tr(T rho)
    reaches 1 - eps, then checked feasible in floating point."""
    test = herm_apply(test, lambda w: np.clip(w, _SDP_MARGIN, 1 - _SDP_MARGIN))
    mass = trace_with(test, rho)
    if mass < 1 - eps:
        mix = (1 - eps - mass + _SDP_MARGIN) / (1 - _SDP_MARGIN - mass)
        test = (1 - mix) * test + mix * (1 - _SDP_MARGIN) * np.eye(len(test))
    w = np.linalg.eigvalsh(test)
    if w[0] < 0 or w[-1] > 1 or trace_with(test, rho) < 1 - eps:
        raise NumericalError("SDP over sigma: no feasible test recovered "
                             f"(eigenvalues [{w[0]:.3e}, {w[-1]:.3e}], "
                             f"Tr(T rho) = {trace_with(test, rho):.17g})")
    return -math.log2(np.linalg.eigvalsh(_phi(test, res, d_out))[-1])


def _min_over_sigma(joint: DensityOp, res_labels: Sequence[str], eps: float,
                    candidates, optimize: bool):
    """min over states sigma on the non-resource block of D_H(joint || sigma x res).

    The joint is permuted to [outputs..., resources...]; candidates always
    include the joint's own output marginal and the maximally mixed state.
    With ``optimize`` the SDP's optimal sigma is one more candidate, and its
    certificate (else None) is returned with the minimum, the description of
    the first candidate within ``_TIE_BITS`` of it and the trace.  Raises
    ``NumericalError`` when the minimum is more than ``_SDP_BRACKET`` bits
    above the certificate (or either is NaN).
    """
    out_labels = [l for l in joint.layout.labels if l not in set(res_labels)]
    joint = joint.permuted(out_labels + list(res_labels))
    res_marg = partial_trace(joint, list(res_labels)).permuted(list(res_labels))
    out_marg = partial_trace(joint, out_labels).permuted(out_labels)
    d_out = out_marg.layout.dim
    cand_mats = [("output marginal", out_marg.matrix),
                 ("maximally mixed", np.eye(d_out) / d_out)]
    for i, c in enumerate(candidates or []):
        cand_mats.append((f"candidate {i}", as_matrix(c)))
    certificate = None
    if optimize:
        sigma, certificate = _sdp_sigma(joint.matrix, res_marg.matrix, d_out, eps)
        cand_mats.append(("sdp", sigma))
    solved = dh_eps_many([(joint, np.kron(mat, res_marg.matrix), eps)
                          for _, mat in cand_mats])
    trace = [(desc, res.value) for (desc, _), res in zip(cand_mats, solved)]
    best = min(val for _, val in trace)
    if optimize and not best - certificate <= _SDP_BRACKET:
        raise NumericalError(f"SDP over sigma stalled: the minimum {best!r} is "
                             f"{best - certificate:.3e} bits above the "
                             f"certificate {certificate!r}")
    # Candidates that tie to rounding name the earliest, so the label does
    # not follow the last bits of D_H.
    best_desc = next(desc for desc, val in trace if val <= best + _TIE_BITS)
    return best, best_desc, trace, certificate


def _make_bound(scenario, kind, per_sender, *, sum_rate=None, ceiling=None,
                evaluated_at="", trace=(), certificate=None) -> RateBound:
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
        certificate=None if certificate is None else tuple(
            float(v) for v in certificate),
    )


def _scenario(kind: str, scenario: str | None) -> Scenario:
    """The coding-table scenario a ``kind`` bound at ``scenario`` reads,
    under the name ``scenario``, so that its errors name the bound's
    scenario."""
    names = BOUND_KINDS[kind].scenarios
    if scenario not in names:
        given = "none was given" if scenario is None else f"not {scenario!r}"
        raise ValueError(f"the {kind} bound takes the scenarios "
                         f"{', '.join(names)}; {given}")
    return replace(SCENARIOS[names[scenario]], name=scenario)


def spec_inputs(kind: str, scenario: str | None) -> tuple[str, ...]:
    """The inputs a ``kind`` bound (a key of :data:`BOUND_KINDS`) at
    ``scenario`` reads: the channel, the scenario's spec inputs, and
    ``sigma`` candidates where the bound is a minimum over sigma.  Raises
    ``ValueError`` naming the kind's scenarios for a name it does not take."""
    spec = _scenario(kind, scenario)
    minimizes = not (kind == "achievable" or spec.marginal_converse)
    return ("channel", *spec.inputs) + (("sigma",) if minimizes else ())


def converse_value(scenario: str, ch: KrausChannel, psi: DensityOp,
                   eps, sigma_candidates=None, optimize: bool = False, *,
                   psi_b: DensityOp | None = None, tau: DensityOp | None = None
                   ) -> RateBound:
    """Upper bound on the rate(s) of any code, evaluated at one input state.

    The minimization over the receiver-side state sigma is carried out over
    the supplied candidates (the channel-output marginal and the maximally
    mixed state are always included) and, with ``optimize``, exactly: the
    SDP's optimal sigma joins the candidates and each sender gets a
    certificate.  Unassisted scenarios
    additionally report the dimension ceiling log|B| / (1 - eps) and require
    uniform classical registers, matching the converse statements.
    """
    if scenario == "mac_ea_hdw":
        return _mac_hdw_converse(ch, psi, psi_b, eps)
    spec = _scenario("converse", scenario)
    eps = spec.budgets(eps)
    receivers = spec.build(ch, psi, psi_b, tau, eps)
    if spec.marginal_converse:
        # Conditioned variant: alternatives fixed by the state's own marginals.
        vals = [dh_eps(r.joint, r.alt.matrix, r.eps).value for r in receivers]
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
    vals, descs, traces, certs = zip(*(
        _min_over_sigma(r.joint, [r.resource], r.eps, sigma_candidates, optimize)
        for r in receivers))
    return _make_bound(
        scenario, "converse", vals, ceiling=ceiling,
        evaluated_at=spec.converse_note.format(*descs, labels=psi.layout.labels),
        trace=sum(traces, []), certificate=certs if optimize else None)


def _mac_hdw_converse(ch: KrausChannel, psi_a: DensityOp, psi_b: DensityOp,
                      eps) -> RateBound:
    """Sum-rate variant of the MAC converse for pure two-register sender states."""
    spec = _scenario("converse", "mac_ea_hdw")
    eps = spec.budgets(eps)
    if not sum(eps) < 1:
        raise ValueError(f"mac_ea_hdw tests its sum rate at eps_A + eps_B, which must "
                         f"lie below 1; got {eps[0]} + {eps[1]} = {sum(eps)}")
    rec_a, rec_b = spec.build(ch, psi_a, psi_b, None, eps)
    for st in (psi_a, psi_b):
        purity = float(np.real(np.trace(st.matrix @ st.matrix)))
        if purity < 1 - 1e-9:
            raise ValueError("this converse variant needs pure sender states")
    outs = list(ch.out_layout.labels)
    res_a, res_b = rec_a.resource, rec_b.resource
    rho = rec_a.state.permuted(outs + [res_a, res_b])
    rho_c = partial_trace(rho, outs).permuted(outs)
    v1 = dh_eps(rho.permuted(outs + [res_b, res_a]),
                np.kron(rec_b.joint.matrix, rec_a.marginal.matrix), rec_a.eps).value
    v2 = dh_eps(rho, np.kron(rec_a.joint.matrix, rec_b.marginal.matrix), rec_b.eps).value
    vsum = dh_eps(rho, np.kron(np.kron(rho_c.matrix, rec_a.marginal.matrix),
                               rec_b.marginal.matrix), rec_a.eps + rec_b.eps).value
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
    spec = _scenario("achievable", scenario)
    eps = spec.per_stream(eps, "eps")
    receivers = spec.build(ch, psi, psi_b, tau, spec.smoothings(eps, delta))
    vals = [dh_eps(r.joint, r.alt.matrix, r.eps).value - spec.penalty(e, delta, strategy)
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
                          eps, sigma_candidates=None, optimize: bool = False, *,
                          tau: DensityOp | None = None) -> RateBound:
    """Converse variants without product constraints, paid by a D_max penalty.

    For the channel-with-state scenario the penalty is
    dmax(psi_SB' || psi_S x psi_B'); for broadcast it is
    dmax(psi_B'C' || psi_B' x psi_C'), charged to both receivers.  When the
    relevant marginal is product the penalty vanishes and the value agrees
    with :func:`converse_value`.  The channel-with-state scenario checks
    ``tau`` as :func:`converse_value` does.
    """
    spec = _scenario("relaxation", scenario)
    receivers, ((state, parts),) = spec.receivers(ch, psi, None, tau,
                                                  spec.budgets(eps))
    marg, prod = product_marginals(state, parts)
    penalty = max(dmax(marg, prod.matrix), 0.0)
    vals, descs, traces, certs = zip(*(
        _min_over_sigma(r.joint, [r.resource], r.eps, sigma_candidates, optimize)
        for r in receivers))
    note = f"dmax penalty = {penalty:.6f}"
    if len(descs) == 1:
        note = f"sigma = {descs[0]}, {note}"
    return _make_bound(f"{scenario}_relaxed", "converse",
                       [val - penalty for val in vals], evaluated_at=note,
                       trace=sum(traces, []),
                       certificate=[c - penalty for c in certs] if optimize else None)

