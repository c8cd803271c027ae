"""Randomized self-checks of the operator inequalities the library relies on.

Each check draws a seeded random instance, evaluates both sides of one
inequality exactly, and reports the margin.  A negative margin beyond the
stated tolerance is a genuine violation (of the code, not the mathematics)
and fails the run.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .channels import KrausChannel, apply_channel, neumark_dilate
from .coding import hn_check, seq_check
from .divergences import dh_eps, dh_rank1_oracle, relative_entropy
from .linalg import (
    DensityOp,
    SystemLayout,
    fidelity,
    psd_sqrt,
    purified_distance,
    sample,
    trace_with,
)

__all__ = ["CHECKS", "run_check", "run_suite"]

ALG_TOL = 1e-9      # closed-form algebraic comparisons
DH_TOL = 1e-7       # comparisons through the bisection solver


def _density(seed: int, dim: int) -> DensityOp:
    return sample("density", dim, seed)


def _sub_identity(seed: int, dim: int) -> np.ndarray:
    """A random operator with 0 < A < I strictly."""
    mat = sample("density", dim, seed).matrix * dim
    top = float(np.max(np.linalg.eigvalsh(mat)))
    return 0.98 * mat / top + 0.01 * np.eye(dim)


def _random_channel(seed: int, dim: int) -> KrausChannel:
    u = sample("unitary", 2 * dim, seed)
    v = u[:, :dim]  # isometry dim -> 2*dim
    kraus = [v[i * dim:(i + 1) * dim, :] for i in range(2)]
    return KrausChannel(kraus, [("R0", dim)], [("R0", dim)])


def check_triangle(seed: int, dim: int) -> dict:
    rho = _density(seed, dim)
    sig = _density(seed + 1, dim)
    tau = _density(seed + 2, dim)
    lhs = purified_distance(rho, sig)
    rhs = purified_distance(rho, tau) + purified_distance(tau, sig)
    return {"margin": rhs - lhs, "holds": rhs - lhs >= -ALG_TOL}


def check_monotonicity(seed: int, dim: int) -> dict:
    rho = _density(seed, dim)
    sig = _density(seed + 1, dim)
    ch = _random_channel(seed + 2, dim)
    erho, esig = apply_channel(ch, rho), apply_channel(ch, sig)
    f_margin = fidelity(erho, esig) - fidelity(rho, sig)
    eps = [0.1, 0.25, 0.5][seed % 3]
    d_before = dh_eps(rho, sig, eps)
    d_after = dh_eps(erho, esig, eps)
    d_margin = d_before.value - d_after.value
    margin = min(f_margin + ALG_TOL, d_margin + DH_TOL)
    return {"fidelity_margin": f_margin, "divergence_margin": d_margin,
            "margin": margin, "holds": margin >= 0}


def check_measurement_overlap(seed: int, dim: int) -> dict:
    # |sqrt(Tr(Pi sigma)) - sqrt(Tr(Pi rho))| <= P(rho, sigma).
    rho = _density(seed, dim)
    sig = _density(seed + 1, dim)
    pi = sample("projector", dim, seed + 2).matrix
    lhs = abs(math.sqrt(max(trace_with(pi, sig.matrix), 0.0))
              - math.sqrt(max(trace_with(pi, rho.matrix), 0.0)))
    rhs = purified_distance(rho, sig)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + ALG_TOL,
            "margin": rhs - lhs}


def check_gentle_operator(seed: int, dim: int) -> dict:
    # F(rho, A rho A / Tr(A^2 rho)) >= sqrt(Tr(A^2 rho)) for 0 < A < I.
    rho = _density(seed, dim)
    a = _sub_identity(seed + 1, dim)
    weight = trace_with(a @ a, rho.matrix)
    post = DensityOp(a @ rho.matrix @ a.conj().T / weight, rho.layout)
    lhs = fidelity(rho, post)
    rhs = math.sqrt(weight)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - ALG_TOL,
            "margin": lhs - rhs}


def check_gentle_povm(seed: int, dim: int) -> dict:
    # For pure rho and A_i = sqrt(M_i):
    # F^2(rho, sum A_i rho A_i) = sum Tr(A_i rho)^2 >= sum Tr(A_i^2 rho)^2.
    rho = sample("pure", dim, seed).density()
    povm = sample("povm", dim, seed + 1, outcomes=3)
    roots = [psd_sqrt(el.matrix) for el in povm]
    post_mat = np.sum([a @ rho.matrix @ a.conj().T for a in roots], axis=0)
    tr = float(np.real(np.trace(post_mat)))
    post = DensityOp(post_mat / tr, rho.layout)
    fsq = (fidelity(rho, post) ** 2) * tr
    first = float(np.sum([trace_with(a, rho.matrix) ** 2 for a in roots]))
    second = float(np.sum([trace_with(a @ a, rho.matrix) ** 2 for a in roots]))
    equality = abs(fsq - first) <= 1e-7
    return {"fidelity_sq": fsq, "sum_sq": first, "sum_sq_squared": second,
            "equality_holds": equality,
            "holds": first >= second - ALG_TOL and equality,
            "margin": first - second}


def check_hayashi_nagaoka(seed: int, dim: int) -> dict:
    s = _sub_identity(seed, dim)
    t = sample("density", dim, seed + 1).matrix * (1.0 + (seed % 5))
    c = [0.3, 1.0, 3.0][seed % 3]
    margin = hn_check(s, t, c)
    return {"margin": margin, "c": c, "holds": margin >= -ALG_TOL}


def check_dh_vs_relent(seed: int, dim: int) -> dict:
    # D_H^eps <= (D + h2(eps)) / (1 - eps).  The binary-entropy term is
    # necessary: at rho = sigma the left side is -log2(1 - eps) > 0 while
    # the relative entropy vanishes.
    rho = _density(seed, dim)
    sig = _density(seed + 1, dim)
    eps = [0.1, 0.25, 0.5][seed % 3]
    dh = dh_eps(rho, sig, eps).value
    h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    ceiling = (relative_entropy(rho, sig) + h2) / (1 - eps)
    return {"dh": dh, "ceiling": ceiling, "margin": ceiling - dh,
            "holds": ceiling - dh >= -DH_TOL}


def check_sequential_union(seed: int, dim: int) -> dict:
    rho = _density(seed, dim)
    k = 2 + seed % 2
    projs = [sample("projector", dim, seed + 1 + i, rank=max(1, dim // 4))
             for i in range(k)]
    lhs, rhs = seq_check(rho, projs)
    return {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs,
            "holds": lhs - rhs >= -ALG_TOL}


def check_uniform_floor(seed: int, dim: int) -> dict:
    # Classical joint with uniform first register and heavy diagonal: the
    # divergence from (uniform x sigma) at the off-diagonal mass must reach
    # log2(n) for every sigma.
    rng = np.random.default_rng(seed)
    n = 2 if dim <= 4 else 4
    rows = np.eye(n) * (2.0 + rng.random()) + rng.random((n, n))
    rows /= rows.sum(axis=1, keepdims=True)
    eps = 1.0 - float(np.mean(np.diag(rows)))
    layout = SystemLayout([("M", n), ("M'", n)])
    joint = DensityOp(np.diag((rows / n).reshape(-1)).astype(complex), layout)
    sigma = sample("density", n, seed + 1).matrix
    alt = np.kron(np.eye(n) / n, sigma)
    dh = dh_eps(joint, alt, eps).value
    return {"dh": dh, "floor": math.log2(n), "eps": eps,
            "margin": dh - math.log2(n), "holds": dh - math.log2(n) >= -DH_TOL}


def check_pure_rank_one(seed: int, dim: int) -> dict:
    rho = sample("pure", dim, seed).density()
    sig = _density(seed + 1, dim)
    eps = [0.1, 0.3][seed % 2]
    general = dh_eps(rho, sig, eps).value
    rank1 = dh_rank1_oracle(rho, sig, eps)
    # For pure rho a rank-1 test is optimal and the oracle solves for it
    # exactly, so the two solvers agree to roundoff (tight tolerance) on
    # both sides.
    diff = general - rank1
    return {"general": general, "rank_one": rank1,
            "margin": min(diff + 1e-8, 1e-8 - diff),
            "holds": -1e-8 <= diff <= 1e-8}


def check_neumark(seed: int, dim: int) -> dict:
    rho = _density(seed, dim)
    povm = sample("povm", dim, seed + 1, outcomes=3)
    dil = neumark_dilate([el.matrix for el in povm])
    probs = dil.outcome_probabilities(rho.matrix)
    direct = [float(np.real(np.trace(el.matrix @ rho.matrix))) for el in povm]
    gap = float(np.max(np.abs(np.asarray(probs) - np.asarray(direct))))
    return {"max_gap": gap, "margin": 1e-10 - gap, "holds": gap <= 1e-10}


CHECKS: dict[str, Callable[[int, int], dict]] = {
    "triangle": check_triangle,
    "monotonicity": check_monotonicity,
    "measurement_overlap": check_measurement_overlap,
    "gentle_operator": check_gentle_operator,
    "gentle_povm": check_gentle_povm,
    "hayashi_nagaoka": check_hayashi_nagaoka,
    "dh_vs_relent": check_dh_vs_relent,
    "sequential_union": check_sequential_union,
    "uniform_floor": check_uniform_floor,
    "pure_rank_one": check_pure_rank_one,
    "neumark": check_neumark,
}


def run_check(name: str, trials: int, dims=(2, 4, 8), seed: int = 0) -> dict:
    """Run one named check over seeded trials cycling through ``dims``."""
    if name not in CHECKS:
        raise ValueError(
            f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    fn = CHECKS[name]
    worst = math.inf
    failures = []
    for t in range(trials):
        dim = dims[t % len(dims)]
        rep = fn(seed * 1_000_003 + t * 17, dim)
        worst = min(worst, float(rep["margin"]))
        if not rep["holds"]:
            failures.append({"trial": t, "dim": dim, **{
                k: v for k, v in rep.items() if np.isscalar(v)}})
    return {"check": name, "trials": trials, "passes": trials - len(failures),
            "worst_margin": worst, "failures": failures,
            "holds": not failures}


def run_suite(names=None, trials: int = 100, dims=(2, 4, 8), seed: int = 0) -> dict:
    """Run several checks; overall ``holds`` is the conjunction."""
    names = list(CHECKS) if names in (None, "all") else list(names)
    results = [run_check(n, trials, dims, seed) for n in names]
    return {"checks": results, "holds": all(r["holds"] for r in results)}
