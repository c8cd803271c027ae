"""The host's speed, followed with a fixed reference kernel.

The benchmark runs on a shared machine whose speed drifts: a fixed loop of
numpy calls runs up to 1.7x slower for stretches of seconds to minutes, in
CPU time as much as in wall time. A median within a run cannot remove a
drift that lasts longer than the run. So the benchmark times the kernel
below right before and right after every timed op and set-up probe, and
scales the op's wall time by ``REFERENCE_S`` over the mean of the kernel
times around it (see ``scaled``). Timings are then in seconds of a host on
which the kernel takes ``REFERENCE_S``, about its fast-state time on the
2-core machine the benchmark was built on.

The kernel mixes what the program spends its time on: mid-size complex
``eigh`` and matrix products, many tiny ``eigvalsh`` calls and plain Python.
It uses only numpy, never the package, so no change to the package can move
it. The numpy functions are bound at import, before tracing wraps them.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

REFERENCE_S = 0.3
WINDOW = 3

_eigh = np.linalg.eigh
_eigvalsh = np.linalg.eigvalsh


def _hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


_RNG = np.random.default_rng(20180425)
_LARGE = _hermitian(_RNG, 256)
_TINY = _hermitian(_RNG, 4)
_PRODUCT = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))


def _python_loop() -> dict:
    acc: dict[int, float] = {}
    for i in range(2000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    return acc


def reference_kernel() -> None:
    for _ in range(2):
        for _ in range(2):
            _eigh(_LARGE)
        for _ in range(20):
            _PRODUCT @ _PRODUCT
        for _ in range(6000):
            _eigvalsh(_TINY)
        for _ in range(60):
            _python_loop()


class HostSpeed:
    """Times the reference kernel; keeps every time in ``samples``."""

    def __init__(self, kernel: Callable[[], None] = reference_kernel,
                 clock: Callable[[], float] = time.perf_counter):
        self.kernel = kernel
        self.clock = clock
        self.samples: list[float] = []

    def kernel_s(self) -> float:
        start = self.clock()
        self.kernel()
        seconds = self.clock() - start
        self.samples.append(seconds)
        return seconds


def scaled(walls: list[float], kernel_s: list[float]) -> list[float]:
    """Each wall time in seconds of the reference host.

    ``kernel_s[i]`` and ``kernel_s[i + 1]`` are the kernel times right before
    and right after ``walls[i]``. Each time is scaled by the mean of up to
    ``WINDOW`` kernel times on either side of it: consecutive kernel times
    differ by about 6% even when the host's speed holds, and the mean of six
    averages that out while still following drifts that last a few ops."""
    if len(kernel_s) != len(walls) + 1:
        raise ValueError("need one kernel time before and one after each wall time")
    return [wall * REFERENCE_S
            / statistics.fmean(kernel_s[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, wall in enumerate(walls)]
