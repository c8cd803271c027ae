"""Register-aware complex linear algebra for finite-dimensional quantum systems.

States and operators carry a :class:`SystemLayout` naming their tensor factors,
and every subsystem operation (partial trace, embedding, channel application)
addresses registers by label.  All objects are immutable after construction and
all functions are pure, so values may be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_DIM_CAP",
    "DimensionCapError",
    "LayoutError",
    "NumericalError",
    "SystemLayout",
    "as_layout",
    "Ket",
    "DensityOp",
    "HermOp",
    "tensor",
    "partial_trace",
    "herm_eig",
    "herm_apply",
    "as_matrix",
    "trace_with",
    "fidelity",
    "purified_distance",
    "embed",
    "place",
    "local_product",
    "local_trace",
    "reduced",
    "psd_sqrt",
    "sample",
    "basis_ket",
    "bell_ket",
    "max_entangled_ket",
    "maximally_mixed",
]

DEFAULT_DIM_CAP = 4096

EIG_CLIP_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12


class LayoutError(ValueError):
    """Register labels or dimensions do not line up."""


class DimensionCapError(ValueError):
    """Total Hilbert-space dimension exceeds the configured cap."""


class NumericalError(ArithmeticError):
    """A solver failed for numerical reasons; the input itself was valid."""


def dimension_cap() -> int:
    """Current total-dimension cap (override with ONESHOT_QCAP_DIM_CAP)."""
    raw = os.environ.get("ONESHOT_QCAP_DIM_CAP")
    return int(raw) if raw else DEFAULT_DIM_CAP


def check_dimension(what: str, base: int, *copies: tuple[int, int]) -> None:
    """Raise ``DimensionCapError`` ("``what`` exceeds cap ...") if ``base`` times d^(2^r)
    per (d, r) of ``copies`` passes the cap; d is squared only while within it."""
    cap, dim = dimension_cap(), base
    for d, r in copies:
        while r and d > 1 and dim * d <= cap:
            d, r = d * d, r - 1
        dim *= d
    if dim > cap:
        raise DimensionCapError(f"{what} exceeds cap {cap}; "
                                "set ONESHOT_QCAP_DIM_CAP to raise the limit")


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of named registers with dimensions, checked when built."""

    registers: tuple[tuple[str, int], ...]

    def __init__(self, registers: Iterable[tuple[str, int]]):
        registers = tuple(registers)
        for lbl, dim in registers:
            if not isinstance(lbl, str):
                raise LayoutError(f"register label {lbl!r} is not a string")
            if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
                raise LayoutError(f"register {lbl!r} has dimension {dim!r}, "
                                  "not an integer")
            if dim < 1:
                raise LayoutError(f"register {lbl!r} has dimension {dim} < 1")
        object.__setattr__(self, "registers",
                           tuple((lbl, int(dim)) for lbl, dim in registers))
        if len(self._index) != len(self.registers):
            raise LayoutError(f"duplicate register labels in {list(self.labels)}")
        check_dimension(f"total dimension {self.dim}", self.dim)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.registers)

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.registers)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        if not self.has(label):
            raise LayoutError(f"unknown register {label!r} in layout {self.labels}")
        return self._index[label]

    def has(self, label: str) -> bool:
        return label in self._index

    def concat(self, other: "SystemLayout") -> "SystemLayout":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise LayoutError(f"register labels collide: {sorted(overlap)}")
        return SystemLayout(self.registers + other.registers)

    def __repr__(self) -> str:
        inner = ", ".join(f"{l}:{d}" for l, d in self.registers)
        return f"SystemLayout[{inner}]"


def as_layout(layout) -> SystemLayout:
    """``layout`` itself, or a SystemLayout built from (label, dim) pairs."""
    if isinstance(layout, SystemLayout):
        return layout
    return SystemLayout(layout)


def _permute(data: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """A vector or a matrix on registers of ``dims`` with its register axes
    (every index at once) put in the order ``perm``."""
    n = len(dims)
    axes = [k * n + p for k in range(data.ndim) for p in perm]
    return data.reshape(tuple(dims) * data.ndim).transpose(axes).reshape(data.shape)


def _permuted(self, order: Sequence[str]):
    """The same vector or operator with its registers listed in ``order``."""
    if sorted(order) != sorted(self.layout.labels):
        raise LayoutError("permutation must use exactly the layout's labels")
    perm = [self.layout.index_of(l) for l in order]
    data = self.amplitudes if isinstance(self, Ket) else self.matrix
    return type(self)(_permute(data, self.layout.dims, perm),
                      SystemLayout([self.layout.registers[p] for p in perm]))


def _freeze(obj, field: str, array: np.ndarray, layout: SystemLayout):
    """Set the frozen ``obj``'s ``field`` to a read-only copy of ``array``,
    and its ``layout``."""
    array = array.copy()
    array.setflags(write=False)
    object.__setattr__(obj, field, array)
    object.__setattr__(obj, "layout", layout)


@dataclass(frozen=True)
class Ket:
    """Unit vector on a labeled tensor-product space."""

    amplitudes: np.ndarray
    layout: SystemLayout

    def __init__(self, amplitudes, layout):
        layout = as_layout(layout)
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != layout.dim:
            raise LayoutError(
                f"vector length {amp.shape[0]} != layout dimension {layout.dim}"
            )
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"ket norm {nrm} is not 1")
        if abs(nrm - 1.0) > NORM_TOL:
            amp = amp / nrm
        _freeze(self, "amplitudes", amp, layout)

    def density(self) -> "DensityOp":
        return DensityOp(np.outer(self.amplitudes, self.amplitudes.conj()), self.layout)

    permuted = _permuted


def _hermitian(matrix, layout: SystemLayout, what: str) -> np.ndarray:
    """``matrix`` as a square complex array of ``layout``'s dimension, checked
    Hermitian to 1e-8 of its scale and symmetrized."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (layout.dim, layout.dim):
        raise LayoutError(f"matrix shape {mat.shape} != ({layout.dim}, {layout.dim})")
    dev = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    if dev > 1e-8 * scale:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    return (mat + mat.conj().T) / 2.0


@dataclass(frozen=True)
class HermOp:
    """Hermitian operator attached to a layout."""

    matrix: np.ndarray
    layout: SystemLayout

    def __init__(self, matrix, layout):
        layout = as_layout(layout)
        _freeze(self, "matrix", _hermitian(matrix, layout, "operator"), layout)

    permuted = _permuted


@dataclass(frozen=True)
class DensityOp:
    """Positive semi-definite operator with unit trace."""

    matrix: np.ndarray
    layout: SystemLayout

    def __init__(self, matrix, layout):
        layout = as_layout(layout)
        mat = _hermitian(matrix, layout, "density operator")
        evals = np.linalg.eigvalsh(mat)
        lo = float(evals[0]) if evals.size else 0.0
        if lo < -EIG_CLIP_TOL:
            raise ValueError(f"density operator has eigenvalue {lo:.3e} < -{EIG_CLIP_TOL}")
        if lo < 0.0:
            # Roundoff-scale negative part: clip it away.
            mat = herm_apply(mat, lambda w: np.clip(w, 0.0, None))
            mat = (mat + mat.conj().T) / 2.0
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"normalized density operator has trace {tr}")
        _freeze(self, "matrix", mat, layout)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    permuted = _permuted


def tensor(a, b):
    """Kronecker product of two same-kind objects with disjoint register labels."""
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes), a.layout.concat(b.layout))
    if type(a) is type(b) and isinstance(a, (DensityOp, HermOp)):
        return type(a)(np.kron(a.matrix, b.matrix), a.layout.concat(b.layout))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def partial_trace(op: DensityOp, keep: Iterable[str]) -> DensityOp:
    """Trace out every register not in ``keep``, preserving register order.

    Keeping every register returns ``op`` itself: tracing out nothing does
    not rebuild the state, so it is not validated (and clipped) again."""
    keep_set = set(keep)
    unknown = keep_set - set(op.layout.labels)
    if unknown:
        raise LayoutError(f"unknown registers {sorted(unknown)}")
    kept = [reg for reg in op.layout.registers if reg[0] in keep_set]
    if len(kept) == len(op.layout.registers):
        return op
    return DensityOp(reduced(kept, op.layout, op.matrix), SystemLayout(kept))


def herm_eig(H: HermOp | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching unitary eigenvector columns."""
    mat = (H if isinstance(H, HermOp) else HermOp(H, [("H", len(H))])).matrix
    w, v = np.linalg.eigh(mat)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def as_matrix(x) -> np.ndarray:
    """The matrix of a HermOp or DensityOp, else ``x`` as a complex array."""
    if isinstance(x, (HermOp, DensityOp)):
        return x.matrix
    return np.asarray(x, dtype=complex)


def trace_with(op: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr(op rho), without forming the product."""
    return float(np.real(np.einsum("ij,ji->", op, rho)))


def herm_apply(mat: np.ndarray, f) -> np.ndarray:
    """f(mat) for a Hermitian matrix: ``f`` maps the ascending array of its
    eigenvalues, and the result is reassembled on its eigenvectors."""
    w, v = np.linalg.eigh(mat)
    return (v * f(w)) @ v.conj().T


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian matrix with its negative eigenvalues
    clipped to zero."""
    return herm_apply(mat, lambda w: np.sqrt(np.clip(w, 0.0, None)))


def fidelity(rho: DensityOp | np.ndarray, sigma: DensityOp | np.ndarray) -> float:
    """Uhlmann fidelity, the trace norm of sqrt(rho)*sqrt(sigma), of two
    states on one layout or of two PSD matrices."""
    if isinstance(rho, DensityOp) and isinstance(sigma, DensityOp):
        if rho.layout != sigma.layout:
            raise LayoutError("fidelity requires identical layouts")
        rho, sigma = rho.matrix, sigma.matrix
    prod = psd_sqrt(rho) @ psd_sqrt(sigma)
    val = float(np.sum(np.linalg.svd(prod, compute_uv=False)))
    return min(max(val, 0.0), 1.0)


def purified_distance(rho: DensityOp | np.ndarray,
                      sigma: DensityOp | np.ndarray) -> float:
    """sqrt(1 - F^2); a metric on density operators."""
    f = fidelity(rho, sigma)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


def _target_axes(factors, target: SystemLayout, mat: np.ndarray | None = None
                 ) -> list[int]:
    """The axes of ``target`` that the factors' registers occupy, in the
    factors' order, once each register is known to be in ``target`` with its
    dimension, to be named once, each factor's matrix to fit its registers (a
    factor whose matrix is None only names registers), and ``mat``, if given,
    to have ``target.dim`` rows."""
    axes = []
    for registers, op in factors:
        for lbl, d in registers:
            if not target.has(lbl):
                raise LayoutError(f"target layout lacks register {lbl!r}")
            if target.dim_of(lbl) != d:
                raise LayoutError(
                    f"register {lbl!r}: dim {d} != target dim {target.dim_of(lbl)}")
            axes.append(target.index_of(lbl))
        size = math.prod(d for _, d in registers)
        if op is not None and np.shape(op) != (size, size):
            raise LayoutError(f"matrix shape {np.shape(op)} != ({size}, {size})")
    if len(set(axes)) != len(axes):
        named = [lbl for registers, _ in factors for lbl, _ in registers]
        raise LayoutError(f"duplicate register labels in {named}")
    if mat is not None and mat.shape[0] != target.dim:
        raise LayoutError(f"{mat.shape[0]} rows != target dimension {target.dim}")
    return axes


def place(factors: Sequence[tuple[Sequence[tuple[str, int]], np.ndarray]],
          target) -> np.ndarray:
    """Kronecker product of ``(registers, matrix)`` factors on ``target``.

    ``registers`` lists the (label, dim) pairs a factor's matrix acts on.  The
    factors are multiplied in the order given, times the identity on the
    registers of ``target`` that no factor names, and the result's axes are
    put in ``target``'s register order.  The result is a plain array: it is
    as Hermitian or positive as its factors, so nothing is checked again.
    """
    target = as_layout(target)
    axes = _target_axes(factors, target)
    mats = [np.asarray(mat) for _, mat in factors]
    rest = [i for i in range(len(target.dims)) if i not in axes]
    if rest:
        mats.append(np.eye(math.prod(target.dims[i] for i in rest)))
    order = axes + rest
    return _permute(reduce(np.kron, mats), [target.dims[i] for i in order],
                    np.argsort(order))


def local_product(factor: tuple[Sequence[tuple[str, int]], np.ndarray], target,
                  mat: np.ndarray) -> np.ndarray:
    """``place([factor], target) @ mat`` without building the placed matrix.

    ``factor`` is one ``(registers, matrix)`` pair as for :func:`place`, and
    ``mat`` has ``target.dim`` rows.  The factor's matrix is contracted with
    the row axes of its registers only, wherever ``target`` lists them, so
    the cost is ``mat.size`` times the factor's dimension instead of
    ``target.dim`` times ``mat.size``.
    """
    target = as_layout(target)
    axes = _target_axes([factor], target, mat)
    op = factor[1]
    # Bring the factor's row axes to the front, multiply, and put them back.
    dims = target.dims + mat.shape[1:]
    order = axes + [i for i in range(len(dims)) if i not in axes]
    rows = mat.reshape(dims).transpose(order).reshape(len(op), -1)
    out = (np.asarray(op) @ rows).reshape([dims[i] for i in order])
    return out.transpose(np.argsort(order)).reshape(mat.shape)


def reduced(registers: Sequence[tuple[str, int]], target,
            mat: np.ndarray) -> np.ndarray:
    """The partial trace of ``mat``, a square matrix on ``target``, over every
    register that ``registers`` does not name.

    The result's axes are in the order ``registers`` lists them.  It is one
    contraction of ``mat``, with no ``target.dim``-sized temporary.  Axes of
    ``mat`` after its first two index a stack of matrices, as for
    :func:`local_product`, and are kept.
    """
    target = as_layout(target)
    return _reduced(_target_axes([(registers, None)], target, mat), target, mat)


def _reduced(axes: list[int], target: SystemLayout, mat: np.ndarray) -> np.ndarray:
    """:func:`reduced` onto the checked ``axes`` of ``target``."""
    if mat.shape[:2] != (target.dim, target.dim):
        raise LayoutError(f"matrix shape {mat.shape} is not square")
    # Row axis i has label i; column axis i shares it, which traces register
    # i out, unless it is kept.  Stack axes follow the columns.
    n = len(target.dims)
    cols = [n + i if i in axes else i for i in range(n)]
    stack = list(range(2 * n, 2 * n + mat.ndim - 2))
    out = np.einsum(mat.reshape(target.dims * 2 + mat.shape[2:]),
                    list(range(n)) + cols + stack,
                    axes + [n + i for i in axes] + stack)
    size = math.prod(target.dims[i] for i in axes)
    return out.reshape((size, size) + mat.shape[2:])


def local_trace(factor: tuple[Sequence[tuple[str, int]], np.ndarray], target,
                mat: np.ndarray) -> complex | np.ndarray:
    """``np.trace(place([factor], target) @ mat)`` without the product.

    ``factor`` is as for :func:`local_product` and ``mat`` is square, or a
    stack as for :func:`reduced`, which gives one trace per matrix.  The
    factor's matrix is paired with :func:`reduced` ``mat`` on the registers
    it names, so the cost is ``target.dim`` times the factor's dimension,
    and no ``target.dim``-sized matrix is made.
    """
    target = as_layout(target)
    axes = _target_axes([factor], target, mat)
    out = np.einsum("ij,ji...->...", np.asarray(factor[1]),
                    _reduced(axes, target, mat))
    return complex(out) if out.ndim == 0 else out


def embed(op: HermOp, target: SystemLayout) -> HermOp:
    """Extend ``op`` by identity onto the registers of ``target``.

    The result acts like ``op`` on the shared registers (in whatever order the
    target lists them) and as the identity elsewhere.
    """
    return HermOp(place([(op.layout.registers, op.matrix)], target), target)


def basis_ket(index: int, layout) -> Ket:
    """The computational basis state ``index``, 0 <= index < dim, of ``layout``."""
    layout = as_layout(layout)
    if not 0 <= index < layout.dim:
        raise IndexError(f"basis index {index} is outside 0..{layout.dim - 1}")
    amp = np.zeros(layout.dim, dtype=complex)
    amp[index] = 1.0
    return Ket(amp, layout)


def max_entangled_ket(dim: int, label_a: str, label_b: str) -> Ket:
    """Maximally entangled state sum_i |ii> / sqrt(dim)."""
    amp = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        amp[i * dim + i] = 1.0 / np.sqrt(dim)
    return Ket(amp, SystemLayout([(label_a, dim), (label_b, dim)]))


def bell_ket(label_a: str = "A", label_b: str = "B") -> Ket:
    return max_entangled_ket(2, label_a, label_b)


def maximally_mixed(layout) -> DensityOp:
    layout = as_layout(layout)
    return DensityOp(np.eye(layout.dim) / layout.dim, layout)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    # Fix the phase of each column so the draw is a deterministic function of
    # the Ginibre sample (Haar-distributed either way).
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sample(kind: str, dims, seed=0, *, outcomes: int = 2, rank: int | None = None,
           labels: Sequence[str] | None = None):
    """Deterministic seeded random test objects.

    kind: one of {"density", "pure", "projector", "povm", "unitary"}.
    dims: an int or a sequence of per-register dims; labels default to R0, R1, ...
    """
    rng = _rng(seed)
    dims_seq = [int(dims)] if np.isscalar(dims) else [int(d) for d in dims]
    if labels is None:
        labels = [f"R{i}" for i in range(len(dims_seq))]
    layout = SystemLayout(list(zip(labels, dims_seq)))
    d = layout.dim
    if kind == "density":
        g = _ginibre(rng, d, d)
        mat = g @ g.conj().T
        return DensityOp(mat / np.real(np.trace(mat)), layout)
    if kind == "pure":
        v = _ginibre(rng, d, 1).reshape(-1)
        return Ket(v / np.linalg.norm(v), layout)
    if kind == "projector":
        r = rank if rank is not None else max(1, d // 2)
        u = _random_unitary(rng, d)
        mat = u[:, :r] @ u[:, :r].conj().T
        return HermOp(mat, layout)
    if kind == "unitary":
        return _random_unitary(rng, d)
    if kind == "povm":
        if outcomes < 1:
            raise ValueError("POVM needs at least one outcome")
        raw = []
        for _ in range(outcomes):
            g = _ginibre(rng, d, d)
            raw.append(g @ g.conj().T)
        inv_sqrt = herm_apply(np.sum(raw, axis=0),
                              lambda w: 1.0 / np.sqrt(np.clip(w, 1e-300, None)))
        return [HermOp(inv_sqrt @ m @ inv_sqrt, layout) for m in raw]
    raise ValueError(f"unknown sample kind {kind!r}")
