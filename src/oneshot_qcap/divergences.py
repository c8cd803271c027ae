"""One-shot information quantities: hypothesis-testing divergence, D_max,
relative entropy.

All values are in bits.  The hypothesis-testing divergence solver returns the
optimal test operator (the witness) together with a weak-duality certificate
that brackets the optimum, so callers can verify tightness without re-solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import LayoutError, NumericalError, as_matrix

__all__ = [
    "SupportError",
    "HypothesisTest",
    "DivergenceResult",
    "relative_entropy",
    "dmax",
    "dh_eps",
    "dh_rank1_oracle",
]

SUPPORT_TOL = 1e-10
BOUNDARY_REL_TOL = 1e-9
BISECT_ITERS = 200
# Relative width to which the secant steps of dh_eps narrow its bracket, and
# how far beyond that bracket the replayed bisection evaluates midpoints.
SEARCH_WINDOW = 2.0 ** -45
# Secant steps that do not halve the bracket before a midpoint step.
_STALLS = 3
TYPE2_FLOOR = 1e-14
# A witness whose type-I mass falls further than this below 1 - eps is
# repaired; smaller shortfalls are rounding in the trace.
TYPE1_SLACK = 1e-12


class SupportError(ValueError):
    """supp(rho) is not contained in supp(sigma)."""


def _check_same_space(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r, s = as_matrix(rho), as_matrix(sigma)
    if r.shape != s.shape:
        raise LayoutError(f"dimension mismatch {r.shape} vs {s.shape}")
    return r, s


def _kinds(*stacks: np.ndarray) -> tuple[list[int], list[int] | None]:
    """The first block of each kind of the (k, d, d) ``stacks`` (a kind is
    the b-th blocks of every stack, compared by their bytes) and, per block,
    the position of its kind among those firsts; the index is None when no
    block repeats."""
    k = len(stacks[0])
    if k < 2:
        return list(range(k)), None
    seen: dict[bytes, int] = {}
    firsts, index = [], []
    for b in range(k):
        key = b"".join(stack[b].tobytes() for stack in stacks)
        if key not in seen:
            seen[key] = len(firsts)
            firsts.append(b)
        index.append(seen[key])
    return firsts, None if len(firsts) == k else index


def _supports(sigmas: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per matrix of the (k, d, d) stack ``sigmas``, its eigenvalues and
    eigenvectors on its support, from one stacked eigendecomposition of its
    distinct matrices."""
    firsts, index = _kinds(sigmas)
    w, v = np.linalg.eigh(sigmas if index is None else sigmas[firsts])
    supports = [(wb[mask], vb[:, mask]) for wb, vb, mask in zip(w, v, w > SUPPORT_TOL)]
    return supports if index is None else [supports[i] for i in index]


def _support_projection(r: np.ndarray, sigma_mat: np.ndarray):
    """:func:`_supports` of ``sigma_mat``; raises SupportError if ``r`` has
    mass outside that support."""
    ((ws, vs),) = _supports(sigma_mat[None])
    outside = float(np.real(np.trace(r))) - float(
        np.real(np.trace(vs.conj().T @ r @ vs)))
    if outside > SUPPORT_TOL:
        raise SupportError(
            f"supp(rho) not within supp(sigma) (outside mass {outside:.3e})")
    return ws, vs


def _dmax_on_support(r: np.ndarray, ws: np.ndarray, vs: np.ndarray) -> float:
    """D_max(Pi r Pi || sigma), Pi the projector onto supp(sigma), from
    sigma's eigenvalues ``ws`` and eigenvectors ``vs`` on its support."""
    inv_sqrt = vs * (1.0 / np.sqrt(ws))
    core = inv_sqrt.conj().T @ r @ inv_sqrt
    top = float(np.linalg.eigvalsh((core + core.conj().T) / 2)[-1]) if ws.size else 0.0
    return math.log2(max(top, TYPE2_FLOOR))


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy Tr(rho log rho) - Tr(rho log sigma), in bits."""
    r, s = _check_same_space(rho, sigma)
    ws, vs = _support_projection(r, s)
    wr = np.linalg.eigh(r)[0]
    wr_pos = wr[wr > SUPPORT_TOL]
    h_rho = float(np.sum(wr_pos * np.log2(wr_pos)))
    log_sigma = (vs * np.log2(ws)) @ vs.conj().T
    cross = float(np.real(np.trace(r @ log_sigma)))
    return max(h_rho - cross, 0.0)


def dmax(rho, sigma) -> float:
    """Max-relative entropy: log2 of the largest eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2} on supp(sigma)."""
    r, s = _check_same_space(rho, sigma)
    return _dmax_on_support(r, *_support_projection(r, s))


@dataclass(frozen=True)
class HypothesisTest:
    """A feasible test operator with its recorded error probabilities."""

    operator: np.ndarray  # for a direct sum, the (k, d, d) stack of its blocks
    type1: float  # Tr(Lambda rho)
    type2: float  # Tr(Lambda sigma)


@dataclass(frozen=True)
class DivergenceResult:
    """Value of D_H^eps with the achieving test and a duality certificate.

    ``unbounded`` marks orthogonal-support instances where the type-II error
    vanishes; ``value`` is then ``math.inf``, so callers can compare and
    exponentiate it without branching (2 ** -value is 0).
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


def _blocks(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two operands of one shape as (k, d, d) stacks of the diagonal blocks
    of a direct sum; a matrix is the one-block case."""
    if r.ndim == 2 and r.shape[0] == r.shape[1]:
        return r[None], s[None]
    if r.ndim == 3 and r.shape[1] == r.shape[2]:
        return r, s
    raise LayoutError(f"expected a square matrix or a stack of them, got {r.shape}")


def _mass(ops, mats) -> float:
    """Sum over blocks of Tr(op mat)."""
    return sum(float((op @ mat).trace().real) for op, mat in zip(ops, mats))


def _projectors(v: np.ndarray, masks: np.ndarray) -> list[np.ndarray]:
    """Per block, the projector onto the eigenvectors (columns of ``v``)
    that ``masks`` selects."""
    cols = [vb[:, mask] for vb, mask in zip(v, masks)]
    return [c @ c.conj().T for c in cols]


class _Split(NamedTuple):
    """rho - t*sigma at one t: its eigenvalues ``w`` (per block), the
    boundary tolerance, the diagonal <v|rho|v> of rho in its eigenvectors,
    and the type-I mass Tr(P_> rho) and the count of eigenvalues above the
    tolerance that make up P_>."""

    w: np.ndarray
    tol: float
    rho_diag: np.ndarray
    mass: float
    count: int


def dh_eps(rho, sigma, eps: float) -> DivergenceResult:
    """Smooth hypothesis-testing divergence via quantum Neyman-Pearson tests.

    The optimal test has the form P_{>}(t*) + lambda P_{=}(t*) from the
    eigendecomposition of rho - t*sigma; t* is the threshold of the type-I
    success Tr(P_> rho), which is monotone non-increasing in t, and lambda is
    chosen so Tr(Lambda rho) = 1 - eps exactly (should eigenvector rounding
    leave it short, the test is mixed with the one at the bracket's lower
    end).  Weight placement inside the boundary subspace is irrelevant to the
    optimum since there Tr(L rho) = t* Tr(L sigma) for any 0 <= L <= P_{=}.

    ``rho`` and ``sigma`` may also be direct sums, given as (k, d, d) stacks
    of their diagonal blocks.  The blocks share the threshold t and lambda:
    each search step is one stacked eigendecomposition, the masses and the
    positive part of the dual sum over blocks, and the witness comes back as
    the stack of its blocks.  A matrix is the one-block case, computed with
    the same arithmetic.  Blocks b whose (rho_b, sigma_b) are bitwise equal
    (a converse floor whose outcome rows repeat) are decomposed once, sigma's
    support once per distinct sigma_b, and the eigenvalues, the diagonal of
    rho and the projectors are then indexed back out to every block before
    any mass, count or sum is formed.  The bits do not change: a stacked
    eigendecomposition decomposes each matrix on its own, so a block gets
    the same eigenpairs alone as among its copies, and every later step
    runs on the indexed arrays in the same order.  Blocks that are only
    nearly equal are kept apart.

    The bracket starts at [0, 2^(D_max(Pi rho Pi || sigma) + 1)], Pi the
    projector onto supp(sigma), the largest over blocks; when supp(rho) lies
    in supp(sigma) the upper end is D_max(rho || sigma) + 1, where the type-I
    mass above t is already 0.  t* ends an adjacent bracket: the predicate
    Tr(P_> rho) > 1 - eps was evaluated true at lo_t and false at hi_t = t*,
    two adjacent floats, so the midpoint rounds to an endpoint.  The search
    gets there in two stages, each evaluation one eigendecomposition:

    * Safeguarded secant steps narrow the bracket to ``SEARCH_WINDOW``
      relative.  Where the counts above the tolerance differ at the ends (or
      the lower end is t = 0), the step is a Newton step on the whole
      spectrum: each eigenvalue is linearized along its eigenvector at the
      last point evaluated, <v|rho|v> - t <v|sigma|v>, and the step goes to
      where the mass of the linearized spectrum above the tolerance falls to
      1 - eps.  Where that step leaves the bracket, it is a secant on the
      eigenvalues that cross the tolerance; where the counts agree, on the
      type-I mass.  Secants are Illinois-weighted, a step lands at least
      half a window inside the bracket, and after ``_STALLS`` steps that do
      not halve the bracket one midpoint step is taken.
    * The bisection of [0, hi] is then replayed: a midpoint within
      ``SEARCH_WINDOW`` of the secant's bracket is evaluated, one further
      out takes the side that bracket implies.  The predicate can be noisy
      near t*, at the rounding of the eigenvalues that cross the tolerance,
      and this evaluates the same midpoints there that a full bisection
      would.  An end of the final bracket that was implied, not evaluated,
      means the noise reaches past the window: the window grows to it and
      the replay runs again, so both ends are always evaluated.  The result
      is the bisection's bracket wherever the predicate is monotone outside
      the window; where it is not, an adjacent bracket of two evaluated
      points all the same.

    Every point evaluated keeps its eigenvalues and the diagonal of rho, but
    only the points inside the current bracket keep their eigenvectors (at
    most five: its ends, the secant's ends while the replay brackets them,
    and the point just decomposed); the witness and its repair are built
    from those at the final ends.

    A replay that reaches ``BISECT_ITERS`` steps without adjacent floats
    raises :class:`NumericalError`.  (Two endpoints are never evaluated: the
    starting lo_t = 0.0, which the midpoint cannot reach within the cap
    because hi_t starts above 2^-46, and hi_t when the bracket search gave
    up, where no secant step is taken and every midpoint below is evaluated.)
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    r, s = _check_same_space(rho, sigma)
    stacked = r.ndim == 3
    r, s = _blocks(r, s)
    # The distinct (rho_b, sigma_b) pairs: each is decomposed once, and its
    # eigenvalues and diagonals are spread back out to the blocks that
    # repeat it.
    firsts, index = _kinds(r, s)
    r_kinds, s_kinds = (r, s) if index is None else (r[firsts], s[firsts])

    def spread(per_kind: np.ndarray) -> np.ndarray:
        return per_kind if index is None else per_kind[index]

    def projectors(v: np.ndarray, masks: np.ndarray) -> list[np.ndarray]:
        """Per block, the projector onto the eigenvectors ``masks`` (per
        block) selects from ``v`` (per kind)."""
        if index is None:
            return _projectors(v, masks)
        made = _projectors(v, masks[firsts])
        return [made[i] for i in index]

    def result(lam: list[np.ndarray]) -> np.ndarray:
        return np.stack(lam) if stacked else lam[0]

    if eps <= 1e-12:
        # Exact-constraint edge case: the minimal feasible test is the
        # projector onto supp(rho).
        wr, vr = np.linalg.eigh(r_kinds)
        lam = projectors(vr, spread(wr) > SUPPORT_TOL)
        t1 = _mass(lam, r)
        t2 = _mass(lam, s)
        witness = HypothesisTest(operator=result(lam), type1=t1, type2=max(t2, 0.0))
        if t2 <= TYPE2_FLOOR:
            return DivergenceResult(math.inf, witness, math.inf, unbounded=True)
        val = -math.log2(t2)
        return DivergenceResult(val, witness, val)

    target = 1.0 - eps
    supports = _supports(s)
    hi = 2.0 ** (max(_dmax_on_support(r[b], *supports[b]) for b in firsts) + 1.0)

    r_scale = float(np.max(np.abs(r)))
    s_scale = float(np.max(np.abs(s)))

    def op_scale(t: float) -> float:
        return max(r_scale, t * s_scale)

    splits: dict[float, _Split] = {}
    vectors: dict[float, np.ndarray] = {}  # per distinct block

    def split(t: float) -> _Split:
        """rho - t*sigma at t, decomposed once per t."""
        if t not in splits:
            w, v = np.linalg.eigh(r_kinds - t * s_kinds)
            tol = _boundary_tol(op_scale(t))
            rho_diag = np.einsum("kij,kij->kj", v.conj(), r_kinds @ v).real
            w, rho_diag = spread(w), spread(rho_diag)
            above = w > tol
            splits[t] = _Split(w, tol, rho_diag, float(np.sum(rho_diag[above])),
                               int(np.count_nonzero(above)))
            vectors[t] = v
        return splits[t]

    def above_target(t: float) -> bool:  # Tr(P_> rho) > 1 - eps
        return split(t).mass > target

    def keep_vectors(lo_t: float, hi_t: float) -> None:
        """Let go of the eigenvectors outside the bracket."""
        for t in [t for t in vectors if not lo_t <= t <= hi_t]:
            del vectors[t]

    def newton_step(t0: float) -> float:
        """Where the type-I mass falls to the target if every eigenvalue of
        rho - t*sigma follows its tangent at t0, <v|rho|v> - t <v|sigma|v>;
        exact when rho and sigma commute."""
        sp = split(t0)
        sigma_diag = np.maximum((sp.rho_diag - sp.w) / t0, 1e-300)
        crossing = (sp.rho_diag - sp.tol) / sigma_diag
        mass = 0.0
        for t, m in sorted(zip(crossing.ravel().tolist(), sp.rho_diag.ravel().tolist()),
                           reverse=True):
            mass += m
            if mass > target:
                return t
        return 0.0

    def secant_values(a: float, b: float) -> tuple[float, float]:
        """What the secant interpolates, at a (above the target, or t = 0)
        and at b (not above it), less its value at the root: where the
        counts above the tolerance differ, the eigenvalues that cross it (at
        a the smallest above it, at b the largest not above it) less the
        tolerance; else the type-I mass less the target."""
        sb = split(b)
        if a not in splits:  # t = 0: all of rho lies above the tolerance
            return 1.0 - target, sb.mass - target
        sa = split(a)
        if sa.count > sb.count:
            return (float(np.min(sa.w[sa.w > sa.tol])) - sa.tol,
                    float(np.max(sb.w[sb.w <= sb.tol])) - sb.tol)
        return sa.mass - target, sb.mass - target

    # Guarantee the bracket: at t=0 the strict-positive part carries all of
    # rho's mass; push hi_t up if needed (orthogonal-support leftovers stay).
    lo_t, hi_t = 0.0, hi
    for _ in range(64):
        if not above_target(hi_t):
            break
        lo_t, hi_t = hi_t, 2.0 * hi_t
        keep_vectors(lo_t, hi_t)
    top = hi_t
    # Secant steps, while hi_t is known to fall below the target.  An end
    # kept twice in a row has its Illinois weight halved.
    weight_lo = weight_hi = 1.0
    kept, stalls, last = None, 0, hi_t
    for _ in range(BISECT_ITERS):
        width = hi_t - lo_t
        if hi_t not in splits or width <= SEARCH_WINDOW * hi_t:
            break
        if stalls >= _STALLS:
            t = 0.5 * (lo_t + hi_t)
        else:
            t = lo_t
            if lo_t not in splits or split(lo_t).count != split(hi_t).count:
                t = newton_step(last)
            if not lo_t < t < hi_t:
                f_lo, f_hi = secant_values(lo_t, hi_t)
                f_lo, f_hi = weight_lo * f_lo, weight_hi * f_hi
                t = lo_t + width * (f_lo / (f_lo - f_hi))
            margin = 0.5 * SEARCH_WINDOW * hi_t
            t = min(max(t, lo_t + margin), hi_t - margin)
        last = t
        if above_target(t):
            if kept == "hi":
                weight_hi *= 0.5
            lo_t, weight_lo, kept = t, 1.0, "hi"
        else:
            if kept == "lo":
                weight_lo *= 0.5
            hi_t, weight_hi, kept = t, 1.0, "lo"
        keep_vectors(lo_t, hi_t)
        stalls = stalls + 1 if hi_t - lo_t > 0.5 * width else 0

    def replay(win_lo: float, win_hi: float) -> tuple[float, float]:
        """The bisection of [0, top], evaluated only inside the window."""
        lo_t, hi_t = 0.0, top
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo_t + hi_t)
            if mid == lo_t or mid == hi_t:
                return lo_t, hi_t
            if mid in splits or win_lo <= mid <= win_hi:
                above = above_target(mid)
            else:
                above = mid < win_lo
            if above:
                lo_t = mid
            else:
                hi_t = mid
            keep_vectors(lo_t, hi_t)
        raise NumericalError(f"D_H threshold search found no adjacent bracket "
                             f"in {BISECT_ITERS} steps")

    win_lo, win_hi = lo_t - SEARCH_WINDOW * hi_t, hi_t + SEARCH_WINDOW * hi_t
    lo_t, hi_t = replay(win_lo, win_hi)
    while (lo_t > 0.0 and lo_t not in splits) or (hi_t != top and hi_t not in splits):
        win_lo, win_hi = min(win_lo, lo_t), max(win_hi, hi_t)
        lo_t, hi_t = replay(win_lo, win_hi)
    t_star = hi_t

    def eigenvectors(t: float) -> np.ndarray:
        """The eigenvectors at a final end.  They are decomposed again only
        if that end is a point the secant steps let go, which the replay
        reaches only by hitting it exactly as a midpoint."""
        return vectors[t] if t in vectors else np.linalg.eigh(r_kinds - t * s_kinds)[1]

    # Strictly positive and boundary parts of rho - t*sigma.  The tolerance
    # is taken from the operands rho and t*sigma rather than from the
    # difference itself, so that near a degenerate crossing (rho close to
    # t*sigma) the whole collapsing subspace is still recognized as boundary.
    w_delta, tol, rho_diag, mass_pos = split(t_star)[:4]
    v = eigenvectors(t_star)
    p_pos = projectors(v, w_delta > tol)
    p_bnd = projectors(v, np.abs(w_delta) <= tol)
    mass_bnd = float(np.sum(rho_diag[np.abs(w_delta) <= tol]))
    if mass_bnd > 1e-15:
        lam_weight = (target - mass_pos) / mass_bnd
    else:
        lam_weight = 0.0
    lam_weight = min(max(lam_weight, 0.0), 1.0)
    lam = [pp + lam_weight * pb for pp, pb in zip(p_pos, p_bnd)]
    t1 = _mass(lam, r)
    if target - t1 > TYPE1_SLACK:
        # Where rho is close to t*sigma, the eigenvectors of rho - t*sigma
        # are ill-conditioned and the test at t* can fall short of 1 - eps.
        # Randomize it with the test at lo_t, whose type-I mass exceeds the
        # target, as in the classical Neyman-Pearson lemma.
        w_lo, tol_lo, _, m_lo = split(lo_t)[:4]
        p_lo = projectors(eigenvectors(lo_t), w_lo > tol_lo)
        if m_lo > t1:
            mix = min((target - t1) / (m_lo - t1), 1.0)
            lam = [(1.0 - mix) * lb + mix * pl for lb, pl in zip(lam, p_lo)]
            t1 = _mass(lam, r)
    t2 = _mass(lam, s)
    witness = HypothesisTest(operator=result(lam), type1=t1, type2=max(t2, 0.0))

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


def dh_rank1_oracle(rho, sigma, eps: float) -> float:
    """D_H^eps for pure rho, solved exactly over rank-1 tests |v><v|, ||v|| <= 1.

    For pure rho = |psi><psi| a rank-1 test is optimal, and at the optimum
    the constraint |<psi|v>|^2 >= t = 1 - eps is tight, so v = sqrt(t) psi +
    Q w with Q an orthonormal basis of psi's complement.  What is left is
    the convex trust-region problem

        min  t s + 2 sqrt(t) Re(b^H w) + w^H M w   s.t.  ||w||^2 <= eps,

    s = <psi|sigma|psi>, b = Q^H sigma psi, M = Q^H sigma Q, solved by
    w(mu) = -sqrt(t) (M + mu)^{-1} b (More & Sorensen, SIAM J. Sci. Stat.
    Comput. 4, 1983): mu = 0 when that point is feasible, else the root of
    the decreasing ||w(mu)||^2 = eps, bisected until the midpoint rounds to
    an endpoint as in :func:`dh_eps`.  Two small eigendecompositions and no
    threshold search, so it is a reference independent of :func:`dh_eps`,
    in any dimension.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    r, sig = _check_same_space(rho, sigma)
    wr, vr = np.linalg.eigh(r)
    if wr.size > 1 and wr[-2] > 1e-9:
        raise ValueError("rank-1 oracle requires a pure first argument")
    psi, q = vr[:, -1], vr[:, :-1]
    t = 1.0 - eps
    m, u = np.linalg.eigh(q.conj().T @ sig @ q)
    # b lies in the range of M (sigma >= 0), so M's roundoff-level
    # eigenvalues carry none of it: the pseudo-inverse drops them.
    keep = m > SUPPORT_TOL
    m, basis = m[keep], q @ u[:, keep]
    c = basis.conj().T @ sig @ psi
    weight = np.abs(c) ** 2

    def norm_sq(mu: float) -> float:  # ||w(mu)||^2
        return t * float(np.sum(weight / (m + mu) ** 2))

    mu = 0.0
    if norm_sq(0.0) > eps:
        # ||w(mu)||^2 <= t ||b||^2 / mu^2 bounds the root; eps = 0 forces w = 0.
        lo, mu = 0.0, math.sqrt(t * float(np.sum(weight)) / eps) if eps else math.inf
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + mu)
            if mid == lo or mid == mu:
                break
            if norm_sq(mid) > eps:
                lo = mid
            else:
                mu = mid
    v = math.sqrt(t) * (psi - basis @ (c / (m + mu)))
    beta = float(np.real(np.vdot(v, sig @ v)))
    if beta <= TYPE2_FLOOR:
        return math.inf
    return -math.log2(beta)
