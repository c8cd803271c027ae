"""Builders for channels and states shared across the test suite."""

import math

import numpy as np

from oneshot_qcap.channels import KrausChannel
from oneshot_qcap.divergences import dh_eps
from oneshot_qcap.linalg import (DensityOp, Ket, SystemLayout, bell_ket,
                                 partial_trace, psd_sqrt)


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
