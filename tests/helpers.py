"""Builders for channels and states shared across the test suite."""

import numpy as np

from oneshot_qcap.channels import KrausChannel
from oneshot_qcap.linalg import DensityOp, Ket, SystemLayout, bell_ket


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
