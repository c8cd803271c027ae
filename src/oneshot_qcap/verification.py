"""Randomized self-checks of the operator inequalities the library relies on.

Each check reads a seeded random instance, a :class:`Trial`, evaluates both
sides of one inequality exactly, and reports the margin.  A negative margin
beyond the stated tolerance is a genuine violation (of the code, not the
mathematics) and fails the run.  The checks of one run share each trial:
its draws, its D_H problems and P(rho, sigma) are computed once, and the D_H
problems of all its trials are solved side by side in one
:func:`dh_eps_many` call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .channels import KrausChannel, apply_channel, neumark_dilate
from .coding import hn_check, seq_check
from .divergences import (
    DivergenceResult,
    dh_eps,
    dh_eps_many,
    dh_rank1_oracle,
    relative_entropy,
)
from .linalg import (
    DensityOp,
    fidelity,
    psd_sqrt,
    purified_distance,
    sample,
    trace_with,
)

__all__ = ["CHECKS", "Trial", "run_check", "run_suite"]

ALG_TOL = 1e-9      # closed-form algebraic comparisons
DH_TOL = 1e-7       # comparisons through the bisection solver


class Trial:
    """One seeded instance at ``seed`` and dimension ``dim``.

    ``draw(kind, offset, ...)`` is ``sample(kind, dim, seed + offset, ...)``,
    ``rho`` and ``sigma`` are the densities at offsets 0 and 1, and ``dh`` and
    ``distance`` are D_H^eps(rho || sigma) at the trial's ``eps`` and
    P(rho, sigma).  ``problem(make)`` is the D_H problem ``make(trial)``, an
    (rho, sigma, eps) triple, and ``solved(make)`` its result.  Each is
    computed on first use and kept for the trial; :meth:`solve_together`
    solves the problems of many trials at once.
    """

    def __init__(self, seed: int, dim: int):
        self.seed = seed
        self.dim = dim
        self.eps = [0.1, 0.25, 0.5][seed % 3]
        self._kept: dict = {}

    def _once(self, key, make):
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def draw(self, kind: str, offset: int, dim: int | None = None, **kwargs):
        """``sample`` at seed ``seed + offset`` and, by default, the trial's
        dimension."""
        dim = self.dim if dim is None else dim
        return self._once(
            (kind, dim, offset, *sorted(kwargs.items())),
            lambda: sample(kind, dim, self.seed + offset, **kwargs))

    @property
    def rho(self) -> DensityOp:
        return self.draw("density", 0)

    @property
    def sigma(self) -> DensityOp:
        return self.draw("density", 1)

    def problem(self, make: Callable[[Trial], tuple]) -> tuple:
        return self._once(("problem", make), lambda: make(self))

    def solved(self, make: Callable[[Trial], tuple]) -> DivergenceResult:
        return self._once(("dh", make), lambda: dh_eps(*self.problem(make)))

    @staticmethod
    def solve_together(trials, makes) -> None:
        """Solve the problems ``makes`` of every trial in one
        :func:`dh_eps_many` call, each result bitwise what ``solved`` gives
        alone, and keep each in its trial."""
        wanted = [(trial, make) for trial in trials for make in makes]
        results = dh_eps_many([trial.problem(make) for trial, make in wanted])
        for (trial, make), result in zip(wanted, results):
            trial._kept[("dh", make)] = result

    @property
    def dh(self) -> float:
        return self.solved(_pair).value

    @property
    def distance(self) -> float:
        return self._once(
            "distance", lambda: purified_distance(self.rho, self.sigma))


def _pair(trial: Trial) -> tuple:
    return trial.rho, trial.sigma, trial.eps


def _mapped_pair(trial: Trial) -> tuple:
    """rho and sigma through the trial's random channel."""
    ch = _random_channel(trial)
    return apply_channel(ch, trial.rho), apply_channel(ch, trial.sigma), trial.eps


def _uniform_floor(trial: Trial) -> tuple:
    """A classical joint with uniform first register and heavy diagonal
    against (uniform x sigma), at its off-diagonal mass.  Both operands are
    direct sums over the first register, as in converse_floor: block m of
    the joint is diag(rows[m])/n, that of the alternative sigma/n."""
    rng = np.random.default_rng(trial.seed)
    n = 2 if trial.dim <= 4 else 4
    rows = np.eye(n) * (2.0 + rng.random()) + rng.random((n, n))
    rows /= rows.sum(axis=1, keepdims=True)
    eps = 1.0 - float(np.mean(np.diag(rows)))
    joint = np.zeros((n, n, n))
    joint[:, range(n), range(n)] = rows / n
    sigma = trial.draw("density", 1, dim=n).matrix
    return joint, np.broadcast_to(sigma / n, (n, n, n)), eps


def _pure_pair(trial: Trial) -> tuple:
    return trial.draw("pure", 0).density(), trial.sigma, [0.1, 0.3][trial.seed % 2]


def _sub_identity(state: DensityOp) -> np.ndarray:
    """A random operator with 0 < A < I strictly, from a random state."""
    dim = state.layout.dim
    mat = state.matrix * dim
    top = float(np.max(np.linalg.eigvalsh(mat)))
    return 0.98 * mat / top + 0.01 * np.eye(dim)


def _random_channel(trial: Trial) -> KrausChannel:
    dim = trial.dim
    u = trial.draw("unitary", 2, dim=2 * dim)
    v = u[:, :dim]  # isometry dim -> 2*dim
    kraus = [v[i * dim:(i + 1) * dim, :] for i in range(2)]
    return KrausChannel(kraus, [("R0", dim)], [("R0", dim)])


def check_triangle(trial: Trial) -> dict:
    rho, sig = trial.rho, trial.sigma
    tau = trial.draw("density", 2)
    lhs = trial.distance
    rhs = purified_distance(rho, tau) + purified_distance(tau, sig)
    return {"margin": rhs - lhs, "holds": rhs - lhs >= -ALG_TOL}


def check_monotonicity(trial: Trial) -> dict:
    erho, esig, _ = trial.problem(_mapped_pair)
    f_margin = fidelity(erho, esig) - fidelity(trial.rho, trial.sigma)
    d_margin = trial.dh - trial.solved(_mapped_pair).value
    margin = min(f_margin + ALG_TOL, d_margin + DH_TOL)
    return {"fidelity_margin": f_margin, "divergence_margin": d_margin,
            "margin": margin, "holds": margin >= 0}


def check_measurement_overlap(trial: Trial) -> dict:
    # |sqrt(Tr(Pi sigma)) - sqrt(Tr(Pi rho))| <= P(rho, sigma).
    rho, sig = trial.rho, trial.sigma
    pi = trial.draw("projector", 2).matrix
    lhs = abs(math.sqrt(max(trace_with(pi, sig.matrix), 0.0))
              - math.sqrt(max(trace_with(pi, rho.matrix), 0.0)))
    rhs = trial.distance
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + ALG_TOL,
            "margin": rhs - lhs}


def check_gentle_operator(trial: Trial) -> dict:
    # F(rho, A rho A / Tr(A^2 rho)) >= sqrt(Tr(A^2 rho)) for 0 < A < I.
    rho = trial.rho
    a = _sub_identity(trial.sigma)
    weight = trace_with(a @ a, rho.matrix)
    post = DensityOp(a @ rho.matrix @ a.conj().T / weight, rho.layout)
    lhs = fidelity(rho, post)
    rhs = math.sqrt(weight)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - ALG_TOL,
            "margin": lhs - rhs}


def check_gentle_povm(trial: Trial) -> dict:
    # For pure rho and A_i = sqrt(M_i):
    # F^2(rho, sum A_i rho A_i) = sum Tr(A_i rho)^2 >= sum Tr(A_i^2 rho)^2.
    rho = trial.draw("pure", 0).density()
    povm = trial.draw("povm", 1, outcomes=3)
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


def check_hayashi_nagaoka(trial: Trial) -> dict:
    s = _sub_identity(trial.rho)
    t = trial.sigma.matrix * (1.0 + (trial.seed % 5))
    c = [0.3, 1.0, 3.0][trial.seed % 3]
    margin = hn_check(s, t, c)
    return {"margin": margin, "c": c, "holds": margin >= -ALG_TOL}


def check_dh_vs_relent(trial: Trial) -> dict:
    # D_H^eps <= (D + h2(eps)) / (1 - eps).  The binary-entropy term is
    # necessary: at rho = sigma the left side is -log2(1 - eps) > 0 while
    # the relative entropy vanishes.
    eps = trial.eps
    dh = trial.dh
    h2 = -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
    ceiling = (relative_entropy(trial.rho, trial.sigma) + h2) / (1 - eps)
    return {"dh": dh, "ceiling": ceiling, "margin": ceiling - dh,
            "holds": ceiling - dh >= -DH_TOL}


def check_sequential_union(trial: Trial) -> dict:
    k = 2 + trial.seed % 2
    projs = [trial.draw("projector", 1 + i, rank=max(1, trial.dim // 4))
             for i in range(k)]
    lhs, rhs = seq_check(trial.rho, projs)
    return {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs,
            "holds": lhs - rhs >= -ALG_TOL}


def check_uniform_floor(trial: Trial) -> dict:
    # The divergence of _uniform_floor's joint must reach log2(n) for every
    # sigma.
    joint, _, eps = trial.problem(_uniform_floor)
    n = len(joint)
    dh = trial.solved(_uniform_floor).value
    return {"dh": dh, "floor": math.log2(n), "eps": eps,
            "margin": dh - math.log2(n), "holds": dh - math.log2(n) >= -DH_TOL}


def check_pure_rank_one(trial: Trial) -> dict:
    rho, sig, eps = trial.problem(_pure_pair)
    general = trial.solved(_pure_pair).value
    rank1 = dh_rank1_oracle(rho, sig, eps)
    # For pure rho a rank-1 test is optimal and the oracle solves for it
    # exactly, so the two solvers agree to roundoff (tight tolerance) on
    # both sides.
    diff = general - rank1
    return {"general": general, "rank_one": rank1,
            "margin": min(diff + 1e-8, 1e-8 - diff),
            "holds": -1e-8 <= diff <= 1e-8}


def check_neumark(trial: Trial) -> dict:
    rho = trial.rho
    povm = trial.draw("povm", 1, outcomes=3)
    dil = neumark_dilate([el.matrix for el in povm])
    probs = dil.outcome_probabilities(rho.matrix)
    direct = [float(np.real(np.trace(el.matrix @ rho.matrix))) for el in povm]
    gap = float(np.max(np.abs(np.asarray(probs) - np.asarray(direct))))
    return {"max_gap": gap, "margin": 1e-10 - gap, "holds": gap <= 1e-10}


CHECKS: dict[str, Callable[[Trial], dict]] = {
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

# The D_H problems each check reads, which run_suite solves side by side.
DH_READS: dict[str, tuple[Callable[[Trial], tuple], ...]] = {
    "monotonicity": (_pair, _mapped_pair),
    "dh_vs_relent": (_pair,),
    "uniform_floor": (_uniform_floor,),
    "pure_rank_one": (_pure_pair,),
}


def run_check(name: str, trials: int, dims=(2, 4, 8), seed: int = 0) -> dict:
    """Run one named check over seeded trials cycling through ``dims``."""
    return run_suite([name], trials, dims, seed)["checks"][0]


def run_suite(names=None, trials: int = 100, dims=(2, 4, 8), seed: int = 0) -> dict:
    """Run several checks; overall ``holds`` is the conjunction.

    Trial t is one :class:`Trial` at seed ``seed * 1_000_003 + 17 t`` and
    dimension ``dims[t % len(dims)]``, which every check of the run reads.
    The D_H problems the checks read (``DH_READS``) are solved first, for
    all trials in one :func:`dh_eps_many` call.  Each check's entry, in the
    order of ``names`` and with duplicates kept, is what it would be run
    alone.
    """
    names = list(CHECKS) if names in (None, "all") else list(names)
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; available: "
                             f"{', '.join(sorted(CHECKS))}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    results = [{"check": name, "trials": trials, "passes": trials,
                "worst_margin": math.inf, "failures": []} for name in names]
    runs = [Trial(seed * 1_000_003 + t * 17, dims[t % len(dims)]) for t in range(trials)]
    Trial.solve_together(runs, dict.fromkeys(
        make for name in names for make in DH_READS.get(name, ())))
    for t, trial in enumerate(runs):
        dim = trial.dim
        for res in results:
            rep = CHECKS[res["check"]](trial)
            res["worst_margin"] = min(res["worst_margin"], float(rep["margin"]))
            if not rep["holds"]:
                res["passes"] -= 1
                res["failures"].append({"trial": t, "dim": dim, **{
                    k: v for k, v in rep.items() if np.isscalar(v)}})
    for res in results:
        res["holds"] = not res["failures"]
    return {"checks": results, "holds": all(r["holds"] for r in results)}
