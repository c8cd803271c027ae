"""One-shot information quantities: hypothesis-testing divergence, D_max,
relative entropy.

All values are in bits.  The hypothesis-testing divergence solver returns the
optimal test operator (the witness) together with a weak-duality certificate
that brackets the optimum, so callers can verify tightness without re-solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityOp, HermOp, LayoutError

__all__ = [
    "SupportError",
    "HypothesisTest",
    "DivergenceResult",
    "relative_entropy",
    "dmax",
    "dh_eps",
    "dh_classical_oracle",
    "dh_rank1_oracle",
]

SUPPORT_TOL = 1e-10
BOUNDARY_REL_TOL = 1e-9
BISECT_ITERS = 200
TYPE2_FLOOR = 1e-14
# A witness whose type-I mass falls further than this below 1 - eps is
# repaired; smaller shortfalls are rounding in the trace.
TYPE1_SLACK = 1e-12


class SupportError(ValueError):
    """supp(rho) is not contained in supp(sigma)."""


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, (DensityOp, HermOp)):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _check_same_space(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise LayoutError(f"dimension mismatch {r.shape} vs {s.shape}")
    return r, s


def _support_projection(sigma_mat: np.ndarray):
    w, v = np.linalg.eigh(sigma_mat)
    mask = w > SUPPORT_TOL
    return w[mask], v[:, mask]


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy Tr(rho log rho) - Tr(rho log sigma), in bits."""
    r, s = _check_same_space(rho, sigma)
    ws, vs = _support_projection(s)
    # Support check: rho must have no mass outside supp(sigma).
    wr, vr = np.linalg.eigh(r)
    outside = float(np.real(np.trace(r))) - float(
        np.real(np.trace(vs.conj().T @ r @ vs)))
    if outside > SUPPORT_TOL:
        raise SupportError(
            f"supp(rho) not within supp(sigma) (outside mass {outside:.3e})")
    wr_pos = wr[wr > SUPPORT_TOL]
    h_rho = float(np.sum(wr_pos * np.log2(wr_pos)))
    log_sigma = (vs * np.log2(ws)) @ vs.conj().T
    cross = float(np.real(np.trace(r @ log_sigma)))
    return max(h_rho - cross, 0.0)


def dmax(rho, sigma) -> float:
    """Max-relative entropy: log2 of the largest eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2} on supp(sigma)."""
    r, s = _check_same_space(rho, sigma)
    ws, vs = _support_projection(s)
    outside = float(np.real(np.trace(r))) - float(
        np.real(np.trace(vs.conj().T @ r @ vs)))
    if outside > SUPPORT_TOL:
        raise SupportError(
            f"supp(rho) not within supp(sigma) (outside mass {outside:.3e})")
    inv_sqrt = vs * (1.0 / np.sqrt(ws))
    core = inv_sqrt.conj().T @ r @ inv_sqrt
    top = float(np.linalg.eigvalsh((core + core.conj().T) / 2)[-1])
    return math.log2(max(top, TYPE2_FLOOR))


@dataclass(frozen=True)
class HypothesisTest:
    """A feasible test operator with its recorded error probabilities."""

    operator: np.ndarray
    type1: float  # Tr(Lambda rho)
    type2: float  # Tr(Lambda sigma)


@dataclass(frozen=True)
class DivergenceResult:
    """Value of D_H^eps with the achieving test and a duality certificate.

    ``unbounded`` marks orthogonal-support instances where the type-II error
    vanishes; ``value`` is meaningless in that case and callers must branch.
    ``dual_bound`` upper-bounds the true optimum (weak duality), so
    value <= optimum <= dual_bound.
    """

    value: float
    witness: HypothesisTest
    dual_bound: float
    unbounded: bool = False

    def __post_init__(self):
        if not self.unbounded and self.witness.type2 <= 0:
            raise ValueError("bounded result requires positive type-II error")


def _boundary_tol(scale: float) -> float:
    return BOUNDARY_REL_TOL * max(scale, 1e-300)


def _threshold_split(delta_mat: np.ndarray, scale: float):
    """Eigen-split of rho - t*sigma into strictly-positive and boundary parts.

    ``scale`` anchors the boundary tolerance.  It is taken from the operands
    rho and t*sigma rather than from the difference itself, so that near a
    degenerate crossing (rho close to t*sigma) the whole collapsing subspace
    is still recognized as boundary.  Also returns the eigenvalues.
    """
    w, v = np.linalg.eigh(delta_mat)
    tol = _boundary_tol(scale)
    pos = v[:, w > tol]
    bnd = v[:, np.abs(w) <= tol]
    p_pos = pos @ pos.conj().T
    p_bnd = bnd @ bnd.conj().T
    return p_pos, p_bnd, w


def dh_eps(rho, sigma, eps: float) -> DivergenceResult:
    """Smooth hypothesis-testing divergence via quantum Neyman-Pearson tests.

    The optimal test has the form P_{>}(t*) + lambda P_{=}(t*) from the
    eigendecomposition of rho - t*sigma; t* is located by bisection (the
    type-I success Tr(P_> rho) is monotone non-increasing in t) and lambda is
    chosen so Tr(Lambda rho) = 1 - eps exactly (should eigenvector rounding
    leave it short, the test is mixed with the one at the bracket's lower
    end).  Weight placement inside the boundary subspace is irrelevant to the
    optimum since there Tr(L rho) = t* Tr(L sigma) for any 0 <= L <= P_{=}.

    The bisection stops once its midpoint rounds to an endpoint, i.e. once
    the bracket can no longer shrink in floating point; ``BISECT_ITERS`` is
    only a cap.  From there on every step would evaluate the deterministic
    predicate at a float it has already evaluated and give an endpoint its
    own value, so t* = hi_t is the one the full ``BISECT_ITERS`` steps reach.
    (Two endpoints are never evaluated: the starting lo_t = 0.0, which the
    midpoint cannot reach within the cap because hi_t starts above 2^-46,
    and hi_t when the bracket search gave up, where the skipped step could
    only have moved lo_t.)
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    r, s = _check_same_space(rho, sigma)

    if eps <= 1e-12:
        # Exact-constraint edge case: the minimal feasible test is the
        # projector onto supp(rho).
        wr, vr = np.linalg.eigh(r)
        supp = vr[:, wr > SUPPORT_TOL]
        lam = supp @ supp.conj().T
        t1 = float(np.real(np.trace(lam @ r)))
        t2 = float(np.real(np.trace(lam @ s)))
        witness = HypothesisTest(operator=lam, type1=t1, type2=max(t2, 0.0))
        if t2 <= TYPE2_FLOOR:
            return DivergenceResult(math.inf, witness, math.inf, unbounded=True)
        val = -math.log2(t2)
        return DivergenceResult(val, witness, val)

    target = 1.0 - eps
    try:
        hi = 2.0 ** (dmax(r, s) + 1.0)
    except SupportError:
        hi = 2.0 ** 60

    r_scale = float(np.max(np.abs(r)))
    s_scale = float(np.max(np.abs(s)))

    def op_scale(t: float) -> float:
        return max(r_scale, t * s_scale)

    def positive_projector(t: float) -> np.ndarray:
        # P_> of _threshold_split alone; the bisection reads nothing else.
        w, v = np.linalg.eigh(r - t * s)
        pos = v[:, w > _boundary_tol(op_scale(t))]
        return pos @ pos.conj().T

    def type1_above(t: float) -> float:
        return float(np.real(np.trace(positive_projector(t) @ r)))

    lo_t = 0.0
    hi_t = hi
    # Guarantee the bracket: at t=0 the strict-positive part carries all of
    # rho's mass; push hi_t up if needed (orthogonal-support leftovers stay).
    for _ in range(64):
        if type1_above(hi_t) <= target:
            break
        hi_t *= 2.0
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo_t + hi_t)
        if mid == lo_t or mid == hi_t:
            break
        if type1_above(mid) > target:
            lo_t = mid
        else:
            hi_t = mid
    t_star = hi_t
    delta = r - t_star * s
    p_pos, p_bnd, w_delta = _threshold_split(delta, op_scale(t_star))
    mass_pos = float(np.real(np.trace(p_pos @ r)))
    mass_bnd = float(np.real(np.trace(p_bnd @ r)))
    if mass_bnd > 1e-15:
        lam_weight = (target - mass_pos) / mass_bnd
    else:
        lam_weight = 0.0
    lam_weight = min(max(lam_weight, 0.0), 1.0)
    lam = p_pos + lam_weight * p_bnd
    t1 = float(np.real(np.trace(lam @ r)))
    if target - t1 > TYPE1_SLACK:
        # Where rho is close to t*sigma, the eigenvectors of rho - t*sigma
        # are ill-conditioned and the test at t* can fall short of 1 - eps.
        # Randomize it with the test at lo_t, whose type-I mass exceeds the
        # target, as in the classical Neyman-Pearson lemma.
        p_lo = positive_projector(lo_t)
        m_lo = float(np.real(np.trace(p_lo @ r)))
        if m_lo > t1:
            mix = min((target - t1) / (m_lo - t1), 1.0)
            lam = (1.0 - mix) * lam + mix * p_lo
            t1 = float(np.real(np.trace(lam @ r)))
    t2 = float(np.real(np.trace(lam @ s)))
    witness = HypothesisTest(operator=lam, type1=t1, type2=max(t2, 0.0))

    # Weak duality: Tr(L sigma) >= (1 - eps - Tr[(rho - t sigma)_+]) / t for
    # every feasible L, so -log2 of that ratio upper-bounds the optimum.  The
    # positive part is the sum of every positive eigenvalue, not only those
    # above the boundary tolerance: a truncated sum undercuts the bound.
    pos_part = float(np.sum(w_delta[w_delta > 0]))
    dual_beta = (target - pos_part) / t_star if t_star > 0 else 0.0
    dual = -math.log2(dual_beta) if dual_beta > TYPE2_FLOOR else math.inf

    if t2 <= TYPE2_FLOOR:
        return DivergenceResult(math.inf, witness, dual, unbounded=True)
    return DivergenceResult(-math.log2(t2), witness, dual)


def dh_classical_oracle(p, q, eps: float) -> float:
    """Classical Neyman-Pearson value by greedy likelihood-ratio filling.

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
    if beta <= TYPE2_FLOOR:
        return math.inf
    return -math.log2(beta)


def dh_rank1_oracle(rho: DensityOp, sigma, eps: float, *, grid: int = 24,
                    restarts: int = 6, seed: int = 0,
                    maxiter: int = 4000) -> float:
    """Brute-force D_H^eps over rank-1 tests |v><v| with ||v|| <= 1.

    Valid for pure rho (where rank-1 tests are optimal); dimension <= 3 only,
    since the search is a dense grid plus local refinement.  Independent of
    the eigendecomposition solver in :func:`dh_eps`.
    """
    from scipy.optimize import minimize

    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    d = r.shape[0]
    if d > 3:
        raise ValueError("rank-1 oracle supports dimension <= 3")
    wr = np.linalg.eigvalsh(r)
    if d > 1 and wr[-2] > 1e-9:
        raise ValueError("rank-1 oracle requires a pure first argument")
    psi = np.linalg.eigh(r)[1][:, -1]
    target = 1.0 - eps

    infeasible = 1e6  # finite penalty keeps Nelder-Mead numerics clean

    def beta_of_direction(u: np.ndarray) -> float:
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            return infeasible
        u = u / nrm
        overlap = abs(np.vdot(u, psi)) ** 2
        if overlap < target - 1e-12:
            # No scale c <= 1 makes this direction feasible; slope the penalty
            # toward feasibility.
            return infeasible + (target - overlap)
        scale = 1.0 if target <= 0 else min(1.0, target / max(overlap, 1e-300))
        return scale * float(np.real(np.vdot(u, s @ u)))

    def unpack(x: np.ndarray) -> np.ndarray:
        return x[:d] + 1j * x[d:]

    best = math.inf
    rng = np.random.default_rng(seed)
    # Dense-ish start set: grid blends of psi with basis directions plus
    # random starts, then Nelder-Mead refinement on the best candidates.
    starts = [np.concatenate([np.real(psi), np.imag(psi)])]
    for k in range(grid):
        mix = rng.standard_normal(2 * d)
        w = (k + 1) / (grid + 1)
        starts.append((1 - w) * starts[0] + w * mix)
    for _ in range(restarts):
        starts.append(rng.standard_normal(2 * d))
    for x0 in starts:
        res = minimize(lambda x: beta_of_direction(unpack(x)), x0,
                       method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-12,
                                "fatol": 1e-16})
        if res.fun < infeasible:
            best = min(best, float(res.fun))
    if not np.isfinite(best) or best <= TYPE2_FLOOR:
        return math.inf
    return -math.log2(best)
