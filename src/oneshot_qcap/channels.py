"""CPTP maps as Kraus families, a small channel zoo, and Neumark dilation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityOp,
    HermOp,
    LayoutError,
    SystemLayout,
    as_layout,
    as_matrix,
    herm_eig,
    max_entangled_ket,
    psd_sqrt,
)

__all__ = [
    "KrausChannel",
    "ParameterError",
    "NeumarkDilation",
    "apply_channel",
    "apply_on",
    "choi",
    "identity_channel",
    "depolarizing",
    "dephasing",
    "amplitude_damping",
    "erasure",
    "cq_channel",
    "builtin",
    "channel_from_choi",
    "neumark_dilate",
    "binary_test_projector",
]

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    The constructor is the one CPTP check: at least one operator, each of
    shape (out dim, in dim) with finite entries, and sum K^dag K = I.  Any
    Kraus family is completely positive."""

    kraus: tuple[np.ndarray, ...]
    in_layout: SystemLayout
    out_layout: SystemLayout

    def __init__(self, kraus, in_layout, out_layout):
        in_layout = as_layout(in_layout)
        out_layout = as_layout(out_layout)
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = (out_layout.dim, in_layout.dim)
        for k in ops:
            if k.shape != shape:
                raise LayoutError(f"Kraus shape {k.shape} != {shape}")
            if not np.all(np.isfinite(k)):
                raise ValueError("Kraus operator has a non-finite entry")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(in_layout.dim))))
        if dev > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus operators are not trace preserving (residual {dev:.3e})")
        frozen = []
        for k in ops:
            k = k.copy()
            k.setflags(write=False)
            frozen.append(k)
        object.__setattr__(self, "kraus", tuple(frozen))
        object.__setattr__(self, "in_layout", in_layout)
        object.__setattr__(self, "out_layout", out_layout)

    @property
    def in_dim(self) -> int:
        return self.in_layout.dim

    @property
    def out_dim(self) -> int:
        return self.out_layout.dim


def apply_channel(ch: KrausChannel, rho: DensityOp) -> DensityOp:
    """Apply a channel to a state on exactly the channel's input registers
    (in any order)."""
    if sorted(rho.layout.labels) != sorted(ch.in_layout.labels):
        raise LayoutError(
            f"state layout {rho.layout.labels} != channel input "
            f"{ch.in_layout.labels}")
    return apply_on(ch, rho, ch.in_layout.labels)


def apply_on(ch: KrausChannel, rho: DensityOp, targets: Iterable[str]) -> DensityOp:
    """Apply a channel to a subset of registers, identity on the rest.

    ``targets`` names the registers fed to the channel: exactly the channel's
    input registers, in any order.  Output layout is the channel's output
    registers followed by the untouched spectators in their original order.
    """
    targets = list(targets)
    if sorted(targets) != sorted(ch.in_layout.labels):
        raise LayoutError(f"targets {targets} are not the channel's inputs "
                          f"{list(ch.in_layout.labels)}")
    for lbl in targets:
        if rho.layout.dim_of(lbl) != ch.in_layout.dim_of(lbl):
            raise LayoutError(f"register {lbl!r} dim mismatch with channel input")
    spectators = SystemLayout([(l, d) for l, d in rho.layout.registers
                               if not ch.in_layout.has(l)])
    rho_p = rho.permuted(list(ch.in_layout.labels) + list(spectators.labels))
    eye = np.eye(spectators.dim)
    out = sum(np.kron(k, eye) @ rho_p.matrix @ np.kron(k, eye).conj().T
              for k in ch.kraus)
    return DensityOp(out, ch.out_layout.concat(spectators))


def choi(ch: KrausChannel) -> DensityOp:
    """Normalized Choi state (id x N)(|Phi><Phi|) on registers (in, out)."""
    d = ch.in_dim
    phi = max_entangled_ket(d, "choi_in", "choi_mid")
    mat = np.zeros((d * ch.out_dim,) * 2, dtype=complex)
    rho = np.outer(phi.amplitudes, phi.amplitudes.conj())
    for k in ch.kraus:
        big = np.kron(np.eye(d), k)
        mat += big @ rho @ big.conj().T
    layout = SystemLayout([("choi_in", d), ("choi_out", ch.out_dim)])
    return DensityOp(mat, layout)


def channel_from_choi(choi_mat: np.ndarray, in_layout, out_layout) -> KrausChannel:
    """Kraus operators from an (unnormalized, trace = d_in) Choi matrix."""
    in_layout = as_layout(in_layout)
    out_layout = as_layout(out_layout)
    d_in, d_out = in_layout.dim, out_layout.dim
    w, v = np.linalg.eigh((choi_mat + choi_mat.conj().T) / 2)
    kraus = []
    for i in range(len(w)):
        if w[i] > 1e-12:
            vec = v[:, i] * np.sqrt(w[i])
            kraus.append(vec.reshape(d_in, d_out).T)  # Choi index order (in, out)
    return KrausChannel(kraus, in_layout, out_layout)


class ParameterError(ValueError):
    """A channel parameter that is missing, stray or out of range;
    ``parameter`` names it (``p``, ``gamma``, ``outputs`` or ``dims``)."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


def identity_channel(dim: int, in_label: str = "A", out_label: str = "B") -> KrausChannel:
    return KrausChannel([np.eye(dim)], [(in_label, dim)], [(out_label, dim)])


def depolarizing(p: float, dim: int = 2, in_label: str = "A",
                 out_label: str = "B") -> KrausChannel:
    """rho -> (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p", "depolarizing parameter must be in [0, 1]")
    d = dim
    # Choi of the map, unnormalized (trace d).
    phi = np.zeros((d * d,) * 2, dtype=complex)
    for i in range(d):
        for j in range(d):
            phi[i * d + i, j * d + j] = 1.0
    cmat = (1 - p) * phi + p * np.eye(d * d) / d
    return channel_from_choi(cmat, [(in_label, d)], [(out_label, d)])


def dephasing(p: float, in_label: str = "A", out_label: str = "B") -> KrausChannel:
    """Qubit phase flip with Kraus {sqrt(1-p) I, sqrt(p) Z}."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p", "dephasing parameter must be in [0, 1]")
    z = np.diag([1.0, -1.0])
    kraus = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * z]
    kraus = [k for k in kraus if np.max(np.abs(k)) > 0]
    return KrausChannel(kraus, [(in_label, 2)], [(out_label, 2)])


def amplitude_damping(gamma: float, in_label: str = "A",
                      out_label: str = "B") -> KrausChannel:
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError("gamma", "damping parameter must be in [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel([k0, k1], [(in_label, 2)], [(out_label, 2)])


def erasure(p: float, dim: int = 2, in_label: str = "A",
            out_label: str = "B") -> KrausChannel:
    """With probability p replace the input by an orthogonal erasure flag."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p", "erasure parameter must be in [0, 1]")
    d = dim
    kraus = []
    keep = np.zeros((d + 1, d))
    keep[:d, :] = np.eye(d)
    if p < 1.0:
        kraus.append(np.sqrt(1 - p) * keep)
    if p > 0.0:
        for i in range(d):
            k = np.zeros((d + 1, d))
            k[d, i] = np.sqrt(p)
            kraus.append(k)
    return KrausChannel(kraus, [(in_label, d)], [(out_label, d + 1)])


def cq_channel(outputs: Sequence[DensityOp], in_label: str = "A",
               out_label: str = "B") -> KrausChannel:
    """Measure the input in the computational basis, emit the mapped state.

    ``outputs[i]`` is the state emitted on basis input |i>.
    """
    if not outputs:
        raise ParameterError("outputs", "cq channel needs at least one output state")
    d_in = len(outputs)
    d_out = outputs[0].layout.dim
    kraus = []
    for i, out in enumerate(outputs):
        if out.layout.dim != d_out:
            raise ParameterError("outputs",
                                 "all cq output states must share one dimension")
        w, v = herm_eig(HermOp(out.matrix, out.layout))
        bra = np.zeros((1, d_in))
        bra[0, i] = 1.0
        for j in range(len(w)):
            if w[j] > 1e-14:
                kraus.append(np.sqrt(w[j]) * np.outer(v[:, j], bra))
    return KrausChannel(kraus, [(in_label, d_in)], [(out_label, d_out)])


# Each builtin's factory and the parameters it takes, in the factory's
# order; every one is required but ``dims``, which defaults to 2.
_BUILTINS = {
    "identity": (identity_channel, ("dims",)),
    "depolarizing": (depolarizing, ("p", "dims")),
    "dephasing": (dephasing, ("p",)),
    "amplitude_damping": (amplitude_damping, ("gamma",)),
    "erasure": (erasure, ("p", "dims")),
    "cq": (cq_channel, ("outputs",)),
}


def builtin(name: str, dims: int | None = None, *, p: float | None = None,
            gamma: float | None = None,
            outputs: Sequence[DensityOp] | None = None,
            in_label: str = "A", out_label: str = "B") -> KrausChannel:
    """Channel zoo dispatch by name.  ``p`` is required by depolarizing,
    dephasing and erasure, ``gamma`` by amplitude_damping and ``outputs`` by
    cq; ``dims`` (default 2) is taken by identity, depolarizing and erasure.
    A missing parameter, one the channel does not take, a ``p`` or ``gamma``
    outside [0, 1] and an empty ``outputs`` or one of mixed dimensions raise
    :class:`ParameterError`."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin channel {name!r}")
    factory, takes = _BUILTINS[name]
    given = {"dims": dims, "p": p, "gamma": gamma, "outputs": outputs}
    for key, value in given.items():
        if value is not None and key not in takes:
            raise ParameterError(key, f"the {name} channel takes no {key!r}")
        if value is None and key in takes and key != "dims":
            raise ParameterError(key, f"the {name} channel needs {key!r}")
    given["dims"] = 2 if dims is None else dims
    return factory(*(given[key] for key in takes), in_label, out_label)


@dataclass(frozen=True)
class NeumarkDilation:
    """Isometry V = sum_i sqrt(M_i) (x) |i> realizing a POVM on system (x)
    pointer."""

    isometry: np.ndarray
    system_dim: int
    pointer_dim: int

    def outcome_probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Pointer statistics of V rho V^dag: Tr(M_i rho) for each outcome."""
        d, k = self.system_dim, self.pointer_dim
        evolved = self.isometry @ rho @ self.isometry.conj().T
        probs = np.einsum("ipiq->pq", evolved.reshape(d, k, d, k)).diagonal()
        return np.real(probs)


def neumark_dilate(povm: Sequence[HermOp | np.ndarray]) -> NeumarkDilation:
    """Dilate a POVM to the isometry stacking the square roots of its
    elements; the pointer distribution of V rho V^dag is Tr(M_i rho)."""
    mats = [as_matrix(m) for m in povm]
    if not mats:
        raise ValueError("empty POVM")
    d = mats[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("POVM elements must share one dimension")
        if float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]) < -COMPLETENESS_TOL:
            raise ValueError("POVM element is not PSD")
        total += m
    if float(np.max(np.abs(total - np.eye(d)))) > 1e-9:
        raise ValueError("POVM elements do not sum to the identity")
    k = len(mats)
    # V: |s> -> sum_i sqrt(M_i)|s>|i>, written in the |s>|p> basis.
    v_iso = np.zeros((d * k, d), dtype=complex)
    for i, m in enumerate(mats):
        v_iso.reshape(d, k, d)[:, i, :] = psd_sqrt((m + m.conj().T) / 2)
    return NeumarkDilation(isometry=v_iso, system_dim=d, pointer_dim=k)


def binary_test_projector(test: HermOp | np.ndarray) -> np.ndarray:
    """Neumark projector on system (x) qubit for the binary POVM {T, I-T}.

    Tr(P (rho (x) |0><0|)) = Tr(T rho), and P is idempotent.
    """
    t = as_matrix(test)
    d = t.shape[0]
    # This is V V^dag of neumark_dilate([T, I - T]), but with the roots of T
    # and I - T read off one eigendecomposition.  neumark_dilate takes them
    # apart, with two psd_sqrt calls, and built that way the projector moves
    # the avg_error of test_mac_ua_decodes_with_letter_diagonal_tests by
    # 2.6e-11, past its 1e-12 pin; V V^dag with both roots from this eigh
    # keeps it.
    w, v = np.linalg.eigh((t + t.conj().T) / 2)
    w = np.clip(w, 0.0, 1.0)
    root = (v * np.sqrt(w * (1.0 - w))) @ v.conj().T
    comp = (v * (1.0 - w)) @ v.conj().T
    tt = (v * w) @ v.conj().T
    proj = np.zeros((2 * d, 2 * d), dtype=complex)
    view = proj.reshape(d, 2, d, 2)
    view[:, 0, :, 0] = tt
    view[:, 0, :, 1] = root
    view[:, 1, :, 0] = root
    view[:, 1, :, 1] = comp
    return proj
