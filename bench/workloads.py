"""The benchmark's workloads: fixed CLI commands and the spec files they read.

Every op is one ``oneshot_qcap.cli.run(argv)`` call. A workload seed picks,
for every op, one of ``VARIANTS`` settings: a channel noise parameter from a
fixed grid and the command's ``--seed``. Dimensions and rates never depend on
the workload seed, so neither does the work per op. ``reference.json`` holds
the expected output of every (op, variant) pair, so any workload seed can be
checked.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIANTS = 8
# Depolarizing probability and amplitude-damping rate, one per variant. The
# depolarizing range is narrow because the Nelder-Mead search of
# ``bound converse --optimize`` needs 830-890 dh_eps calls for p <= 0.125 but
# up to 1400 above it, and the work per op must not depend on the seed.
P_GRID = tuple(round(0.05 + 0.01 * v, 4) for v in range(VARIANTS))
GAMMA_GRID = tuple(round(0.1 + 0.04 * v, 4) for v in range(VARIANTS))


@dataclass(frozen=True)
class Op:
    """One CLI command. Spec files appear in ``argv`` as ``@<key>``."""

    workload: str
    name: str
    variant: int
    argv: tuple[str, ...]
    specs: dict

    def _path(self, spec_dir: str, key: str) -> str:
        return os.path.join(spec_dir, f"{self.name}-v{self.variant}-{key}.json")

    def command(self, spec_dir: str) -> list[str]:
        return [self._path(spec_dir, a[1:]) if a.startswith("@") else a
                for a in self.argv]

    def spec_paths(self, spec_dir: str) -> list[str]:
        return [self._path(spec_dir, key) for key in self.specs]

    def write_specs(self, spec_dir: str) -> None:
        for key, doc in self.specs.items():
            with open(self._path(spec_dir, key), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)


# ---------------------------------------------------------------------------
# spec documents

def _entries(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _kraus_channel(kraus, in_dims, out_dims) -> dict:
    return {"schema": "1", "type": "channel",
            "kraus": [_entries(k) for k in kraus],
            "in_dims": in_dims, "out_dims": out_dims}


def _depolarizing_kraus(p: float) -> list[np.ndarray]:
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    return [np.sqrt(w) * s.astype(complex) for w, s in zip(weights, paulis)]


def _depolarizing(p: float) -> dict:
    return {"schema": "1", "type": "channel", "name": "depolarizing",
            "p": p, "dims": 2, "labels": {"in": "A", "out": "B"}}


def _amplitude_damping(gamma: float) -> dict:
    return {"schema": "1", "type": "channel", "name": "amplitude_damping",
            "gamma": gamma, "labels": {"in": "A", "out": "B"}}


def _xor_mac(p: float) -> dict:
    """A, B -> C carrying a XOR b, then depolarizing noise on C."""
    xor = []
    for a in range(2):
        for b in range(2):
            k = np.zeros((2, 4))
            k[(a + b) % 2, 2 * a + b] = 1.0
            xor.append(k)
    kraus = [d @ k for d in _depolarizing_kraus(p) for k in xor]
    return _kraus_channel(kraus, [["A", 2], ["B", 2]], [["C", 2]])


def _copy_broadcast(p: float) -> dict:
    """Depolarizing noise on A, then the isometric basis copy A -> (B, C)."""
    copy = np.zeros((4, 2))
    copy[0, 0] = copy[3, 1] = 1.0
    kraus = [copy @ d for d in _depolarizing_kraus(p)]
    return _kraus_channel(kraus, [["A", 2]], [["B", 2], ["C", 2]])


def _with_state(p: float, flip: bool) -> dict:
    """Channel with state A, S -> B: S is measured away (and, with ``flip``,
    controls a bit flip on A); then depolarizing noise on B."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    base = [np.kron(np.linalg.matrix_power(x, i) if flip else eye,
                    eye[i].reshape(1, 2)) for i in range(2)]
    kraus = [d @ k for d in _depolarizing_kraus(p) for k in base]
    return _kraus_channel(kraus, [["A", 2], ["S", 2]], [["B", 2]])


def _named_state(name: str, dims, **hints) -> dict:
    return {"schema": "1", "type": "state", "name": name, "dims": dims, **hints}


def _matrix_state(mat: np.ndarray, dims, **hints) -> dict:
    return {"schema": "1", "type": "state", "matrix": _entries(mat),
            "dims": dims, **hints}


_BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
_CORR = np.diag([0.5, 0.0, 0.0, 0.5])
_MIXED = np.eye(2) / 2.0


def _swap_last_two(mat: np.ndarray) -> np.ndarray:
    """Reorder three qubit registers X, Y, Z to X, Z, Y."""
    t = mat.reshape([2] * 6).transpose(0, 2, 1, 3, 5, 4)
    return t.reshape(8, 8)


def _gp_state(first: np.ndarray, label: str, **hints) -> dict:
    """``first`` on (A, label) times the maximally mixed S, as [A, S, label]."""
    mat = _swap_last_two(np.kron(first, _MIXED))
    return _matrix_state(mat, [["A", 2], ["S", 2], [label, 2]],
                         product=[["S"], [label]], **hints)


TAU_S = _named_state("maximally_mixed", [["S", 2]])


# ---------------------------------------------------------------------------
# ops

def _simulate(scenario: str, specs: dict, *, R: str, eps: str, delta: str,
              seed: int, strategy: str | None = None, sweep: bool = False):
    argv = ["sweep" if sweep else "simulate", scenario]
    for key in ("channel", "state", "state-b", "tau"):
        if key in specs:
            argv += [f"--{key}", f"@{key}"]
    argv += ["--R", R, "--eps", eps, "--delta", delta, "--seed", str(seed)]
    if strategy:
        argv += ["--strategy", strategy]
    return argv, specs


def _p2p_ea(rate: int, sweep: bool = False):
    def build(v: int):
        specs = {"channel": _depolarizing(P_GRID[v]),
                 "state": _named_state("bell", [["A", 2], ["B'", 2]])}
        return _simulate("p2p_ea", specs, R=";".join(
            str(r) for r in range(1, rate + 1)) if sweep else str(rate),
            eps="0.1", delta="0.05", seed=v, sweep=sweep)
    return build


def _p2p_ea_damping(v: int):
    specs = {"channel": _amplitude_damping(GAMMA_GRID[v]),
             "state": _named_state("bell", [["A", 2], ["B'", 2]])}
    return _simulate("p2p_ea", specs, R="2", eps="0.1", delta="0.05", seed=v)


def _gp_ea(flip: bool):
    def build(v: int):
        specs = {"channel": _with_state(P_GRID[v], flip), "tau": TAU_S,
                 "state": _gp_state(_BELL, "B'")}
        return _simulate("gp_ea", specs, R="1", eps="0.15", delta="0.05",
                         seed=v)
    return build


def _broadcast_ea(v: int):
    specs = {"channel": _copy_broadcast(P_GRID[v]),
             "state": _matrix_state(np.kron(_BELL, _MIXED),
                                    [["A", 2], ["RB", 2], ["RC", 2]])}
    return _simulate("broadcast_ea", specs, R="1,1", eps="0.1,0.1",
                     delta="0.05", seed=v)


def _mac_ea(rates: str, strategy: str):
    def build(v: int):
        specs = {"channel": _xor_mac(P_GRID[v]),
                 "state": _named_state("classically_correlated",
                                       [["A", 2], ["RA", 2]]),
                 "state-b": _named_state("classically_correlated",
                                         [["B", 2], ["RB", 2]])}
        return _simulate("mac_ea", specs, R=rates, eps="0.05,0.1",
                         delta="0.02", seed=v, strategy=strategy)
    return build


def _p2p_ua(v: int):
    specs = {"channel": _depolarizing(P_GRID[v]),
             "state": _named_state("classically_correlated",
                                   [["A", 2], ["U", 2]], classical=["U"])}
    return _simulate("p2p_ua", specs, R="1", eps="0.1", delta="0.6", seed=v)


def _gp_ua(v: int):
    specs = {"channel": _with_state(P_GRID[v], False), "tau": TAU_S,
             "state": _gp_state(_CORR, "U", classical=["U"])}
    return _simulate("gp_ua", specs, R="1", eps="0.15", delta="0.05", seed=v)


def _broadcast_ua(v: int):
    specs = {"channel": _copy_broadcast(P_GRID[v]),
             "state": _matrix_state(np.kron(_CORR, _MIXED),
                                    [["A", 2], ["U", 2], ["V", 2]],
                                    classical=["U"])}
    return _simulate("broadcast_ua", specs, R="1,1", eps="0.1,0.1",
                     delta="0.05", seed=v)


def _mac_ua(v: int):
    specs = {"channel": _xor_mac(P_GRID[v]),
             "state": _named_state("classically_correlated",
                                   [["A", 2], ["UA", 2]], classical=["UA"]),
             "state-b": _named_state("classically_correlated",
                                     [["B", 2], ["UB", 2]], classical=["UB"])}
    return _simulate("mac_ua", specs, R="1,1", eps="0.1,0.1", delta="0.05",
                     seed=v)


def _converse_optimize(v: int):
    specs = {"channel": _depolarizing(P_GRID[v]),
             "state": _named_state("bell", [["A", 2], ["B'", 2]])}
    argv = ["bound", "converse", "--scenario", "p2p_ea",
            "--channel", "@channel", "--state", "@state", "--eps", "0.1",
            "--optimize", "--restarts", "0", "--seed", str(v)]
    return argv, specs


def _verify_all(v: int):
    return ["verify", "--facts", "all", "--trials", "10", "--seed", str(v)], {}


Builder = Callable[[int], tuple]

WORKLOADS: dict[str, list[tuple[str, Builder]]] = {
    # Many short ops: per-call overhead and small dh_eps calls dominate. Run
    # by hand only: BENCHMARK.json leaves it out to afford longer runs of the
    # other two (see README).
    "small_grid": [
        ("p2p_ea_r1", _p2p_ea(1)),
        ("p2p_ea_r2_damping", _p2p_ea_damping),
        ("gp_ea_discard", _gp_ea(flip=False)),
        ("gp_ea_flip", _gp_ea(flip=True)),
        ("broadcast_ea", _broadcast_ea),
        ("mac_ea_seq", _mac_ea("1,1", "sequential")),
        ("p2p_ua", _p2p_ua),
        ("gp_ua", _gp_ua),
        ("broadcast_ua", _broadcast_ua),
        ("mac_ua", _mac_ua),
        ("sweep_p2p_ea", _p2p_ea(2, sweep=True)),
    ],
    # Few large dense ops: 512-dim PGM, MAC conjugation chain, serialization.
    "dense_sim": [
        ("p2p_ea_r3", _p2p_ea(3)),
        ("mac_ea_seq_21", _mac_ea("2,1", "sequential")),
        ("mac_ea_pgm_21", _mac_ea("2,1", "pgm_a_first")),
    ],
    # Thousands of tiny solver calls inside optimizer loops.
    "solver_loops": [
        ("converse_optimize", _converse_optimize),
        ("verify_all", _verify_all),
    ],
}


def op_for(workload: str, name: str, variant: int) -> Op:
    build = dict(WORKLOADS[workload])[name]
    argv, specs = build(variant)
    return Op(workload, name, variant, tuple(argv), specs)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops, one variant per op drawn from ``seed``."""
    rng = random.Random(seed)
    return [op_for(workload, name, rng.randrange(VARIANTS))
            for name, _ in WORKLOADS[workload]]


def warmup_op(seed: int) -> Op:
    """The untimed first op of every process. A small MAC simulation pays the
    one-off first-call costs (BLAS start-up, first complex products)."""
    return op_for("small_grid", "mac_ea_seq", seed % VARIANTS)
