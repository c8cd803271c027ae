import math

import numpy as np
import pytest

from oneshot_qcap import divergences
from oneshot_qcap.channels import KrausChannel
from oneshot_qcap.coding import simulate_mac_ea
from oneshot_qcap.divergences import (
    TYPE1_SLACK,
    SupportError,
    dh_eps,
    dh_rank1_oracle,
    dmax,
    relative_entropy,
)
from oneshot_qcap.linalg import (DensityOp, LayoutError, NumericalError, SystemLayout,
                                 basis_ket, sample)

from helpers import (bell_density, classically_correlated, dh_classical_oracle,
                     dh_eps_bisection, pure_density, xor_mac_channel)


def diag_state(p):
    p = np.asarray(p, dtype=float)
    return DensityOp(np.diag(p).astype(complex),
                     SystemLayout([("A", len(p))]))


def test_relative_entropy_vanishes_on_equal_states():
    rho = sample("density", 3, 1)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_classical_kl():
    rho = diag_state([0.75, 0.25])
    sig = diag_state([0.5, 0.5])
    expected = 0.75 * math.log2(0.75 / 0.5) + 0.25 * math.log2(0.25 / 0.5)
    assert relative_entropy(rho, sig) == pytest.approx(expected, abs=1e-10)


def test_relative_entropy_support_violation():
    rho = diag_state([1.0, 0.0])
    sig = diag_state([0.0, 1.0])
    with pytest.raises(SupportError):
        relative_entropy(rho, sig)


def test_dmax_classical():
    rho = diag_state([0.8, 0.2])
    sig = diag_state([0.5, 0.5])
    assert dmax(rho, sig) == pytest.approx(math.log2(1.6), abs=1e-10)


def test_dmax_bell_vs_product_is_two_bits():
    rho = bell_density("A", "B")
    assert dmax(rho, np.eye(4) / 4) == pytest.approx(2.0, abs=1e-10)


def test_dmax_correlated_bit_penalty_is_one_bit():
    mat = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho = DensityOp(mat, SystemLayout([("A", 2), ("B", 2)]))
    assert dmax(rho, np.eye(4) / 4) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.5])
def test_self_divergence_closed_form(eps):
    rho = sample("density", 4, int(eps * 100) + 1)
    value = dh_eps(rho, rho, eps).value
    assert value == pytest.approx(-math.log2(1 - eps) if eps else 0.0,
                                  abs=1e-9)


def test_dh_zero_eps_pure_state():
    rho = pure_density(basis_ket(0, SystemLayout([("A", 2)])))
    sig = diag_state([0.3, 0.7])
    # At eps = 0 the optimal test is the support projector of rho.
    assert dh_eps(rho, sig, 0.0).value == pytest.approx(-math.log2(0.3),
                                                        abs=1e-9)


def test_dh_witness_is_feasible_and_consistent():
    rho = sample("density", 4, 2)
    sig = sample("density", 4, 3)
    res = dh_eps(rho, sig, 0.2)
    w = res.witness
    evals = np.linalg.eigvalsh(np.asarray(w.operator))
    assert evals[0] >= -1e-10 and evals[-1] <= 1 + 1e-10
    assert w.type1 == pytest.approx(0.8, abs=1e-9)  # Tr(L rho) = 1 - eps
    assert res.value == pytest.approx(-math.log2(w.type2), abs=1e-9)


def test_dh_weak_duality_brackets_the_value():
    rho = sample("density", 5, 4)
    sig = sample("density", 5, 5)
    res = dh_eps(rho, sig, 0.3)
    assert res.value <= res.dual_bound + 1e-8


def random_density(rng, d, rank=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal(
        (d, rank or d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def dual_instance(rng, kind, d):
    rho = random_density(rng, d)
    if kind == "equal":
        return rho, rho
    if kind == "near_equal":
        eta = 10.0 ** rng.uniform(-8, -3)
        return rho, (1 - eta) * rho + eta * random_density(rng, d)
    if kind == "rank_deficient":
        return rho, random_density(rng, d, rank=int(rng.integers(1, d)))
    return rho, random_density(rng, d)


def property_instances(n):
    """The first n (rho, sigma, eps) of the seeded property set, cycling
    through random, equal, near-equal and rank-deficient sigma."""
    rng = np.random.default_rng(2024)
    kinds = ("random", "equal", "near_equal", "rank_deficient")
    for i in range(n):
        d = int(rng.integers(2, 9))
        rho, sig = dual_instance(rng, kinds[i % 4], d)
        yield rho, sig, float(rng.uniform(0.01, 0.9))


def test_dh_witness_and_dual_bound_hold_on_random_instances():
    worst = shortfall = -math.inf
    for rho, sig, eps in property_instances(320):
        res = dh_eps(rho, sig, eps)
        shortfall = max(shortfall, 1 - eps - res.witness.type1)
        if not res.unbounded:
            worst = max(worst, res.value - res.dual_bound)
    assert worst <= 1e-8
    assert shortfall <= 1e-12


def guard_instance(kind, d, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_density(rng, d), random_density(rng, d)
    if kind == "equal":
        rho = random_density(rng, d)
        return rho, rho
    if kind == "rank_deficient":
        return random_density(rng, d), random_density(rng, d, max(1, d // 2))
    # commuting: both diagonal in one random basis
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    p, r = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    return (q * p) @ q.conj().T, (q * r) @ q.conj().T


# (kind, d, seed, eps, value, type1, type2), recorded with a bisection that
# always ran BISECT_ITERS steps.
DH_GUARDS = [
    ("random", 2, 100, 0.05, 0.17306633330672164, 0.95, 0.8869555231131958),
    ("equal", 2, 101, 0.2, 0.32192809488736246, 0.7999999999999999,
     0.7999999999999999),
    ("rank_deficient", 2, 102, 0.5, 14.031051020377651, 0.5,
     5.973553699781687e-05),
    ("commuting", 2, 103, 0.05, 0.15088367185162377, 0.95, 0.9006986025253627),
    ("random", 4, 104, 0.2, 1.5436238018757629, 0.8, 0.34302275733028764),
    ("equal", 4, 105, 0.5, 1.0, 0.5, 0.5),
    ("rank_deficient", 4, 106, 0.05, 1.2250440346924087, 0.9499999999999997,
     0.4277844555811944),
    ("commuting", 4, 107, 0.2, 1.4938105288002383, 0.7999999999999999,
     0.35507346887952884),
    ("random", 8, 108, 0.5, 4.177557152136891, 0.49999999999999994,
     0.05526243137496262),
    ("equal", 8, 109, 0.05, 0.07400058144377675, 0.9500000000000001,
     0.9500000000000001),
    ("rank_deficient", 8, 110, 0.2, 4.365602346115276, 0.8,
     0.0485090472278097),
    ("commuting", 8, 111, 0.5, 4.7941553585115875, 0.5, 0.036042543660453195),
]


@pytest.mark.parametrize("kind,d,seed,eps,value,type1,type2", DH_GUARDS)
def test_dh_values_are_unchanged(kind, d, seed, eps, value, type1, type2):
    res = dh_eps(*guard_instance(kind, d, seed), eps)
    assert res.value == pytest.approx(value, abs=1e-12)
    assert res.witness.type1 == pytest.approx(type1, abs=1e-12)
    assert res.witness.type2 == pytest.approx(type2, abs=1e-12)


def decompositions(eig_inputs, kind, d, seed, eps) -> int:
    """The eigendecompositions dh_eps makes on one guard instance."""
    rho, sig = guard_instance(kind, d, seed)
    eig_inputs.clear()
    dh_eps(rho, sig, eps)
    return len(eig_inputs)


@pytest.mark.parametrize("kind,d,seed,eps", [g[:4] for g in DH_GUARDS])
def test_dh_eigendecomposition_count(eig_inputs, kind, d, seed, eps):
    # The bisection it replaced made 57-72.
    assert decompositions(eig_inputs, kind, d, seed, eps) <= 40


def test_dh_eigendecompositions_average_at_most_thirty(eig_inputs):
    counts = [decompositions(eig_inputs, *g[:4]) for g in DH_GUARDS]
    assert sum(counts) / len(counts) <= 30


def direct_sum_instance(rng, k, d):
    """(k, d, d) stacks rho and sigma, each of unit total trace: block 0 of
    rho is zero and every other sigma block is rank-deficient."""
    rho = np.stack([random_density(rng, d) for _ in range(k)])
    sig = np.stack([random_density(rng, d, rank=max(1, d // 2) if b % 2 else None)
                    for b in range(k)])
    rho[0] = 0.0
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    return rho * p[:, None, None] / p[1:].sum(), sig * q[:, None, None]


def test_dh_direct_sum_matches_its_assembled_matrix():
    from scipy.linalg import block_diag

    rng = np.random.default_rng(505)
    for i in range(24):
        k, d = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rho, sig = direct_sum_instance(rng, k, d)
        eps = float(rng.uniform(0.01, 0.9))
        res = dh_eps(rho, sig, eps)
        ref = dh_eps(block_diag(*rho), block_diag(*sig), eps)
        assert res.unbounded == ref.unbounded
        if not ref.unbounded:
            assert res.value == pytest.approx(ref.value, abs=1e-10)
            assert res.value <= res.dual_bound + 1e-8
        assert res.witness.type1 == pytest.approx(ref.witness.type1, abs=1e-10)
        assert res.witness.type2 == pytest.approx(ref.witness.type2, abs=1e-10)
        assert 1 - eps - res.witness.type1 <= 1e-12
        assert res.witness.operator.shape == (k, d, d)
        assert np.allclose(block_diag(*res.witness.operator), ref.witness.operator,
                           atol=1e-6)


def repeated_blocks(rho, sig, rho_picks, sig_picks):
    """The direct sum of the blocks ``rho_picks`` of rho and ``sig_picks``
    of sigma, each stack scaled to unit total trace; equal picks give
    bitwise equal blocks."""
    r, s = rho[rho_picks], sig[sig_picks]
    return r / np.einsum("kii->", r).real, s / np.einsum("kii->", s).real


# Picks from direct_sum_instance's blocks (rho's block 0 is zero, sigma's
# blocks 1 and 3 are rank-deficient): every block equal; the zero rho block
# repeated with its sigma block; and a rank-deficient sigma block repeated,
# twice with one rho block and once with another.
REPEATS = {"all_equal": ([1, 1, 1, 1], [1, 1, 1, 1]),
           "zero_rho": ([0, 1, 0, 2, 0], [0, 1, 0, 2, 0]),
           "rank_deficient_sigma": ([1, 2, 3, 2], [1, 1, 3, 1])}


def repeated_block_instances():
    rng = np.random.default_rng(808)
    for d in (3, 4, 6):
        rho, sig = direct_sum_instance(rng, 4, d)
        for picks in REPEATS.values():
            yield repeated_blocks(rho, sig, *picks)


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3, 0.8])
def test_dh_eps_decomposes_each_distinct_block_once(eig_inputs, eps):
    from scipy.linalg import block_diag

    for rho, sig in repeated_block_instances():
        eig_inputs.clear()
        res = dh_eps(rho, sig, eps)
        for a in eig_inputs:
            if a.ndim == 3:
                assert not any(np.array_equal(a[i], b)
                               for i in range(len(a)) for b in a[i + 1:])
        refs = [dh_eps(block_diag(*rho), block_diag(*sig), eps)]
        if eps:
            refs.append(assert_matches_bisection(rho, sig, eps))
        for ref in refs:
            assert res.unbounded == ref.unbounded
            if not ref.unbounded:
                assert res.value == pytest.approx(ref.value, abs=1e-10)
            assert res.witness.type1 == pytest.approx(ref.witness.type1, abs=1e-10)
            assert res.witness.type2 == pytest.approx(ref.witness.type2, abs=1e-10)
            assert res.dual_bound == pytest.approx(ref.dual_bound, abs=1e-10)
        assert res.witness.operator.shape == rho.shape


def test_dh_rejects_what_is_neither_a_matrix_nor_a_stack():
    with pytest.raises(LayoutError):
        dh_eps(np.eye(4).reshape(2, 8) / 4, np.eye(4).reshape(2, 8) / 4, 0.1)


def floor_instance(rng, k, d):
    """A converse floor's shape: rho a direct sum of k diagonal blocks (a
    joint distribution of message and outcome) and one sigma / k shared by
    every block."""
    rho = np.zeros((k, d, d))
    rho[:, range(d), range(d)] = rng.dirichlet(np.full(d, 0.3), size=k) / k
    return rho, np.broadcast_to(random_density(rng, d) / k, (k, d, d))


def assert_matches_bisection(rho, sig, eps):
    res, ref = dh_eps(rho, sig, eps), dh_eps_bisection(rho, sig, eps)
    assert res.unbounded == ref.unbounded
    if not ref.unbounded:
        assert res.value == pytest.approx(ref.value, abs=1e-10)
    assert res.witness.type1 == pytest.approx(ref.witness.type1, abs=1e-10)
    assert res.witness.type2 == pytest.approx(ref.witness.type2, abs=1e-10)
    assert res.dual_bound == pytest.approx(ref.dual_bound, abs=1e-10)
    return res


def search_reference_instances():
    yield from ((*guard_instance(*g[:3]), g[3]) for g in DH_GUARDS)
    yield from property_instances(80)
    rng = np.random.default_rng(606)
    for seed in range(200, 212):
        yield *guard_instance("commuting", int(rng.integers(2, 9)), seed), 0.3
    for _ in range(16):
        k, d = int(rng.integers(2, 9)), int(rng.integers(3, 10))
        yield *floor_instance(rng, k, d), float(rng.uniform(0.05, 0.9))


def test_dh_search_matches_the_bisection():
    for rho, sig, eps in search_reference_instances():
        assert_matches_bisection(rho, sig, eps)


def xor_depolarized_channel(p):
    """The XOR multiple-access channel, then depolarizing noise p on its
    output, written with Pauli Kraus operators."""
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    xor = xor_mac_channel()
    kraus = [math.sqrt(w) * np.asarray(pauli, dtype=complex) @ k
             for w, pauli in zip(weights, paulis) for k in xor.kraus]
    return KrausChannel(kraus, xor.in_layout, xor.out_layout)


def test_dh_search_matches_the_bisection_where_eigenvalues_ride_the_tolerance():
    # The converse floor of a sequential (2, 1) MAC code: at its fifth sigma
    # (13.462 bits, eps 0.8823) eight eigenvalues of rho - t*sigma track the
    # boundary tolerance, so the predicate is noisy well beyond rounding.
    # A search that implies an end of its final bracket lands on a test of
    # type-I mass 0.159 and a value of 13.031 bits.
    rep = simulate_mac_ea(xor_depolarized_channel(0.08),
                          classically_correlated("A", "RA"),
                          classically_correlated("B", "RB"), rates=(2, 1),
                          epsilons=(0.05, 0.1), delta=0.02)
    dist = rep.details["outcome_dist"]
    cols = [m1 * 3 + m2 for m1 in range(4) for m2 in range(2)]
    n, n_out = dist.shape
    eps = 1.0 - float(np.mean(dist[range(n), cols]))
    perm = list(cols) + [j for j in range(n_out) if j not in set(cols)]
    phi = np.zeros((n, n_out, n_out))
    phi[:, range(n_out), range(n_out)] = dist[:, perm] / n
    sig = np.broadcast_to(sample("density", n_out, seed=7).matrix / n, phi.shape)
    res = assert_matches_bisection(phi, sig, eps)
    assert res.value == pytest.approx(13.46208846, abs=1e-8)
    assert res.witness.type1 <= 1 - eps + TYPE1_SLACK


def test_dh_search_that_reaches_the_cap_raises_numerical_error(monkeypatch):
    monkeypatch.setattr(divergences, "BISECT_ITERS", 8)
    with pytest.raises(NumericalError, match="no adjacent bracket") as err:
        dh_eps(*guard_instance("random", 4, 104), 0.2)
    assert not isinstance(err.value, ValueError)


def near_equal_pair(d):
    rho = sample("density", d, 3).matrix
    return rho, (1 - 1e-8) * rho + 1e-8 * sample("density", d, 4).matrix


@pytest.mark.parametrize("rho,sig,eps,repairs", [
    (*guard_instance("random", 4, 104), 0.2, False),
    (*direct_sum_instance(np.random.default_rng(7), 2, 3), 0.3, False),
    (*repeated_blocks(*direct_sum_instance(np.random.default_rng(7), 4, 3),
                      *REPEATS["rank_deficient_sigma"]), 0.3, False),
    # The witness at t* falls short of 1 - eps here, so the test at lo_t
    # is mixed in.
    (*near_equal_pair(4), 0.2, True),
], ids=["random", "two_blocks", "repeated_blocks", "repair"])
def test_dh_eps_decomposes_no_operand_twice(eig_inputs, monkeypatch, rho, sig,
                                            eps, repairs):
    vecs = []  # the eigenvectors each projector is built from, in order
    searched = []  # the eigenvectors of each decomposition, in order
    made = []  # how many decompositions were made before each projector
    projectors = divergences._projectors
    monkeypatch.setattr(divergences, "_projectors", lambda v, masks: (
        vecs.append(v) or made.append(len(searched)) or projectors(v, masks)))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: (lambda w, v: searched.append(v) or (w, v))(*eigh(m)))
    dh_eps(rho, sig, eps)
    assert eig_inputs
    for i, a in enumerate(eig_inputs):
        assert not any(np.array_equal(a, b) for b in eig_inputs[i + 1:])
    # The split at t* builds P_> and P_= from one decomposition; the repair
    # then builds the test at lo_t from another.  Both are the search's: no
    # decomposition is made once the first of them is built.
    first = -3 if repairs else -2
    assert made[first] == len(searched)
    at_t_star = vecs[first:][:2]
    assert at_t_star[0] is at_t_star[1]
    assert any(v is at_t_star[0] for v in searched)
    if repairs:
        assert vecs[-1] is not vecs[-2]
        assert any(v is vecs[-1] for v in searched)


def test_dh_matches_classical_oracle_small():
    p = [0.5, 0.3, 0.2]
    q = [0.2, 0.3, 0.5]
    rho, sig = diag_state(p), diag_state(q)
    for eps in (0.0, 0.1, 0.25):
        assert dh_eps(rho, sig, eps).value == pytest.approx(
            dh_classical_oracle(p, q, eps), abs=1e-8)


def test_dh_classical_oracle_hand_computed():
    # p = (0.75, 0.25), q = (0.25, 0.75), eps = 0.25: accept outcome 0 fully,
    # reaching exactly 1 - eps; type-II error = q_0 = 0.25.
    assert dh_classical_oracle([0.75, 0.25], [0.25, 0.75], 0.25) == \
        pytest.approx(2.0, abs=1e-12)


def test_dh_unbounded_on_orthogonal_supports():
    rho = diag_state([1.0, 0.0])
    sig = diag_state([0.0, 1.0])
    res = dh_eps(rho, sig, 0.1)
    assert res.unbounded


@pytest.mark.parametrize("eps", [0.1, 0.0])  # the search and the eps = 0 return
def test_dh_reports_an_unbounded_value_as_infinity(eps):
    res = dh_eps(diag_state([1.0, 0.0]), diag_state([0.0, 1.0]), eps)
    assert res.unbounded
    assert res.value == math.inf
    assert res.witness.type2 == 0.0


def test_dh_monotone_in_eps():
    rho = sample("density", 3, 6)
    sig = sample("density", 3, 7)
    values = [dh_eps(rho, sig, e).value for e in (0.05, 0.2, 0.5)]
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_rank1_oracle_agrees_for_pure_states():
    for seed in range(3):
        rho = pure_density(sample("pure", 2, seed))
        sig = sample("density", 2, seed + 10)
        for eps in (0.1, 0.3):
            assert dh_rank1_oracle(rho, sig, eps) == pytest.approx(
                dh_eps(rho, sig, eps).value, abs=1e-9)


def pure_instance(rng, d, rank=None):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj()), random_density(rng, d, rank)


def test_rank1_oracle_matches_dh_eps_in_any_dimension():
    rng = np.random.default_rng(77)
    for i in range(140):
        d = 2 + i % 7
        rank = int(rng.integers(1, d)) if i % 5 == 0 else None
        rho, sig = pure_instance(rng, d, rank)
        for eps in (0.0, 0.01, 0.1, 0.3, 0.7, 0.95):
            ref = dh_eps(rho, sig, eps)
            value = dh_rank1_oracle(rho, sig, eps)
            assert math.isinf(value) == ref.unbounded
            if not ref.unbounded:
                assert value == pytest.approx(ref.value, abs=1e-9)


def test_rank1_oracle_matches_the_classical_oracle_on_diagonal_instances():
    rng = np.random.default_rng(78)
    for i in range(60):
        d = 2 + i % 7
        p = np.zeros(d)
        p[rng.integers(d)] = 1.0
        q = rng.dirichlet(np.ones(d))
        for eps in (0.0, 0.1, 0.5, 0.9):
            assert dh_rank1_oracle(np.diag(p), np.diag(q), eps) == pytest.approx(
                dh_classical_oracle(p, q, eps), abs=1e-12)


@pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
def test_rank1_oracle_rejects_eps_outside_the_unit_interval(eps):
    rho = diag_state([1.0, 0.0])
    with pytest.raises(ValueError):
        dh_rank1_oracle(rho, diag_state([0.5, 0.5]), eps)


def nelder_mead_rank1_reference(rho, sigma, eps, *, grid=24, restarts=6, seed=0,
                                maxiter=4000):
    """The local search the exact oracle replaced: Nelder-Mead over the
    directions of rank-1 tests |v><v|, from a seeded start set.  Every value
    it returns is that of a feasible test, so it cannot exceed the optimum."""
    from scipy.optimize import minimize

    r, s = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    d = r.shape[0]
    psi = np.linalg.eigh(r)[1][:, -1]
    target = 1.0 - eps
    infeasible = 1e6  # finite penalty keeps Nelder-Mead numerics clean

    def beta_of_direction(u):
        nrm = np.linalg.norm(u)
        if nrm < 1e-12:
            return infeasible
        u = u / nrm
        overlap = abs(np.vdot(u, psi)) ** 2
        if overlap < target - 1e-12:
            return infeasible + (target - overlap)
        scale = 1.0 if target <= 0 else min(1.0, target / max(overlap, 1e-300))
        return scale * float(np.real(np.vdot(u, s @ u)))

    def unpack(x):
        return x[:d] + 1j * x[d:]

    best = math.inf
    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.real(psi), np.imag(psi)])]
    for k in range(grid):
        w = (k + 1) / (grid + 1)
        starts.append((1 - w) * starts[0] + w * rng.standard_normal(2 * d))
    for _ in range(restarts):
        starts.append(rng.standard_normal(2 * d))
    for x0 in starts:
        res = minimize(lambda x: beta_of_direction(unpack(x)), x0,
                       method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-16})
        if res.fun < infeasible:
            best = min(best, float(res.fun))
    if not np.isfinite(best) or best <= divergences.TYPE2_FLOOR:
        return math.inf
    return -math.log2(best)


def test_no_rank1_test_the_search_finds_beats_the_exact_oracle():
    rng = np.random.default_rng(79)
    for i, (d, eps) in enumerate([(2, 0.1), (3, 0.3), (2, 0.05), (3, 0.5)]):
        rho, sig = pure_instance(rng, d)
        found = nelder_mead_rank1_reference(rho, sig, eps, grid=6, restarts=2,
                                            seed=i, maxiter=800)
        assert found <= dh_rank1_oracle(rho, sig, eps) + 1e-9


def test_rank1_oracle_rejects_mixed_input():
    rho = diag_state([0.5, 0.5])
    with pytest.raises(ValueError):
        dh_rank1_oracle(rho, rho, 0.1)
