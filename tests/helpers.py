"""Builders for channels and states shared across the test suite."""

import math

import numpy as np

from oneshot_qcap import divergences as dv
from oneshot_qcap.channels import KrausChannel
from oneshot_qcap.divergences import DivergenceResult, HypothesisTest, dh_eps
from oneshot_qcap.linalg import (DensityOp, Ket, SystemLayout, bell_ket,
                                 partial_trace, psd_sqrt)


# What each kind of bound reads (``bounds.spec_inputs``), for every scenario
# name the kind takes.
_P2P, _GP, _MAC = ("channel", "state"), ("channel", "tau", "state"), \
    ("channel", "state", "state_b")
BOUND_SPEC_INPUTS = {
    ("converse", "p2p_ea"): (*_P2P, "sigma"),
    ("converse", "gp_ea"): (*_GP, "sigma"),
    ("converse", "broadcast_ea"): (*_P2P, "sigma"),
    ("converse", "mac_ea"): _MAC,
    ("converse", "p2p_ua"): (*_P2P, "sigma"),
    ("converse", "gp_ua"): (*_GP, "sigma"),
    ("converse", "broadcast_ua"): (*_P2P, "sigma"),
    ("converse", "mac_ua"): (*_MAC, "sigma"),
    ("converse", "mac_ea_hdw"): _MAC,
    ("achievable", "p2p_ea"): _P2P,
    ("achievable", "gp_ea"): _GP,
    ("achievable", "broadcast_ea"): _P2P,
    ("achievable", "mac_ea"): _MAC,
    ("achievable", "p2p_ua"): _P2P,
    ("achievable", "gp_ua"): _GP,
    ("achievable", "broadcast_ua"): _P2P,
    ("achievable", "mac_ua"): _MAC,
    ("relaxation", "gp"): (*_GP, "sigma"),
    ("relaxation", "broadcast"): (*_P2P, "sigma"),
}
BOUND_SCENARIOS = {kind: [name for k, name in BOUND_SPEC_INPUTS if k == kind]
                   for kind in ("converse", "achievable", "relaxation")}
# Each (kind, name) of a name some bound kind takes that this kind does not.
REJECTED_BOUND_SCENARIOS = [
    (kind, name) for kind in BOUND_SCENARIOS
    for name in dict.fromkeys(name for _, name in BOUND_SPEC_INPUTS)
    if name not in BOUND_SCENARIOS[kind]]


def pure_density(ket: Ket) -> DensityOp:
    return DensityOp(np.outer(ket.amplitudes, ket.amplitudes.conj()), ket.layout)


def bell_density(label_a: str = "A", label_b: str = "B'") -> DensityOp:
    return pure_density(bell_ket(label_a, label_b))


def classically_correlated(label_a: str, label_b: str, dim: int = 2) -> DensityOp:
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        mat[i * dim + i, i * dim + i] = 1.0 / dim
    return DensityOp(mat, SystemLayout([(label_a, dim), (label_b, dim)]))


def xor_mac_channel() -> KrausChannel:
    """Two qubit senders, one qubit output carrying the XOR of the inputs."""
    kraus = []
    for a in range(2):
        for b in range(2):
            k = np.zeros((2, 4))
            k[(a + b) % 2, 2 * a + b] = 1.0
            kraus.append(k)
    return KrausChannel(kraus, SystemLayout([("A", 2), ("B", 2)]),
                        SystemLayout([("C", 2)]))


def copy_broadcast_channel() -> KrausChannel:
    """Isometric basis copy A -> (B, C)."""
    k = np.zeros((4, 2), dtype=complex)
    k[0, 0] = 1.0
    k[3, 1] = 1.0
    return KrausChannel([k], SystemLayout([("A", 2)]),
                        SystemLayout([("B", 2), ("C", 2)]))


def gp_discard_channel() -> KrausChannel:
    """Channel with state: measures away S, passes A through."""
    eye = np.eye(2)
    kraus = [np.kron(eye, eye[i].reshape(1, 2)) for i in range(2)]
    return KrausChannel(kraus, SystemLayout([("A", 2), ("S", 2)]),
                        SystemLayout([("B", 2)]))


def gp_controlled_flip_channel() -> KrausChannel:
    """Channel with state: S-controlled bit flip on A, S discarded."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2)
    kraus = [np.kron(np.linalg.matrix_power(flip, i), eye[i].reshape(1, 2))
             for i in range(2)]
    return KrausChannel(kraus, SystemLayout([("A", 2), ("S", 2)]),
                        SystemLayout([("B", 2)]))


def nelder_mead_sigma_reference(joint: DensityOp, res_labels, eps: float,
                                maxiter: int = 2000) -> float:
    """min over sigma of D_H(joint || sigma x res) by the Nelder-Mead search
    that ``bounds`` used before its exact SDP: sigma = G^dag G / Tr(G^dag G)
    over complex G, one descent from the output marginal and one from the
    maximally mixed state.  Kept as the reference the exact solver must
    match or beat."""
    from scipy.optimize import minimize

    out_labels = [l for l in joint.layout.labels if l not in set(res_labels)]
    joint = joint.permuted(out_labels + list(res_labels))
    res = partial_trace(joint, list(res_labels)).permuted(list(res_labels)).matrix
    out = partial_trace(joint, out_labels).permuted(out_labels).matrix
    d = out.shape[0]

    def value_of(sig: np.ndarray) -> float:
        r = dh_eps(joint, np.kron(sig, res), eps)
        return math.inf if r.unbounded else r.value

    def objective(x: np.ndarray) -> float:
        g = (x[: d * d] + 1j * x[d * d:]).reshape(d, d)
        sig = g.conj().T @ g
        tr = float(np.real(np.trace(sig)))
        v = value_of(sig / tr) if tr >= 1e-14 else math.inf
        return v if math.isfinite(v) else 1e6

    best = math.inf
    for start in (out, np.eye(d) / d):
        g = psd_sqrt(start)
        x0 = np.concatenate([np.real(g).ravel(), np.imag(g).ravel()])
        found = minimize(objective, x0, method="Nelder-Mead",
                         options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, value_of(start), float(found.fun))
    return best


def dh_classical_oracle(p, q, eps: float) -> float:
    """Classical Neyman-Pearson value by greedy likelihood-ratio filling, the
    reference ``dh_eps`` and ``dh_rank1_oracle`` must match on diagonal
    instances.

    Sorts outcomes by p_i/q_i descending (q_i = 0 first, ties by original
    index) and accepts mass until exactly 1 - eps of p is covered, splitting
    the last outcome fractionally.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("p and q must have equal length")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    ratios = np.where(q > 0, p / np.where(q > 0, q, 1.0), math.inf)
    order = sorted(range(len(p)), key=lambda i: (-ratios[i], i))
    target = 1.0 - eps
    beta = 0.0
    acc = 0.0
    for i in order:
        if acc >= target - 1e-15:
            break
        take = min(1.0, (target - acc) / p[i]) if p[i] > 0 else 1.0
        if p[i] <= 0:
            continue  # zero-mass outcomes add type-II error for nothing
        beta += take * q[i]
        acc += take * p[i]
    if beta <= dv.TYPE2_FLOOR:
        return math.inf
    return -math.log2(beta)


def dh_eps_bisection(rho, sigma, eps: float) -> DivergenceResult:
    """D_H^eps as ``dh_eps`` computed it before its secant search: t* by
    plain bisection of [0, 2^(D_max + 1)] until the midpoint rounds to an
    endpoint, each step's type-I mass summed from per-block projectors.  The
    witness, its repair and the dual certificate are built as in
    ``dh_eps``.  Kept as the reference the search must match; eps > 1e-12."""
    r, s = dv._check_same_space(rho, sigma)
    stacked = r.ndim == 3
    r, s = dv._blocks(r, s)
    target = 1.0 - eps
    hi_t = 2.0 ** (max(dv._dmax_on_support(rb, ws, vs)
                       for rb, (ws, vs) in zip(r, dv._supports(s))) + 1.0)
    r_scale, s_scale = float(np.max(np.abs(r))), float(np.max(np.abs(s)))

    def split(t: float):
        tol = dv._boundary_tol(max(r_scale, t * s_scale))
        return (*np.linalg.eigh(r - t * s), tol)

    def above_target(split_t) -> bool:
        w, v, tol = split_t
        return dv._mass(dv._projectors(v, w > tol), r) > target

    lo_t, lo_split, half_split = 0.0, None, None
    for _ in range(64):
        hi_split = split(hi_t)
        if not above_target(hi_split):
            break
        hi_t *= 2.0
        half_split, hi_split = hi_split, None
    for _ in range(dv.BISECT_ITERS):
        mid = 0.5 * (lo_t + hi_t)
        if mid == lo_t or mid == hi_t:
            break
        mid_split, half_split = half_split or split(mid), None
        if above_target(mid_split):
            lo_t, lo_split = mid, mid_split
        else:
            hi_t, hi_split = mid, mid_split
    t_star = hi_t
    w_delta, v, tol = hi_split or split(t_star)
    p_pos = dv._projectors(v, w_delta > tol)
    p_bnd = dv._projectors(v, np.abs(w_delta) <= tol)
    mass_pos, mass_bnd = dv._mass(p_pos, r), dv._mass(p_bnd, r)
    lam_weight = (target - mass_pos) / mass_bnd if mass_bnd > 1e-15 else 0.0
    lam_weight = min(max(lam_weight, 0.0), 1.0)
    lam = [pp + lam_weight * pb for pp, pb in zip(p_pos, p_bnd)]
    t1 = dv._mass(lam, r)
    if target - t1 > dv.TYPE1_SLACK:
        w_lo, v_lo, tol_lo = lo_split or split(lo_t)
        p_lo = dv._projectors(v_lo, w_lo > tol_lo)
        m_lo = dv._mass(p_lo, r)
        if m_lo > t1:
            mix = min((target - t1) / (m_lo - t1), 1.0)
            lam = [(1.0 - mix) * lb + mix * pl for lb, pl in zip(lam, p_lo)]
            t1 = dv._mass(lam, r)
    t2 = dv._mass(lam, s)
    witness = HypothesisTest(operator=np.stack(lam) if stacked else lam[0],
                             type1=t1, type2=max(t2, 0.0))
    pos_part = float(np.sum(w_delta[w_delta > 0]))
    dual_beta = (target - pos_part) / t_star if t_star > 0 else 0.0
    dual = -math.log2(dual_beta) if dual_beta > dv.TYPE2_FLOOR else math.inf
    if t2 <= dv.TYPE2_FLOOR:
        return DivergenceResult(math.inf, witness, dual, unbounded=True)
    return DivergenceResult(-math.log2(t2), witness, dual)
