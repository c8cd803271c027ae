import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneshot_qcap import bounds
from oneshot_qcap.bounds import (
    achievable_rate,
    converse_value,
    corollary_relaxations,
    identity_channel_corollary,
)
from oneshot_qcap.channels import (
    KrausChannel,
    amplitude_damping,
    apply_on,
    depolarizing,
    identity_channel,
)
from oneshot_qcap.divergences import dh_eps, dh_rank1_oracle
from oneshot_qcap.linalg import (
    DensityOp,
    DimensionCapError,
    Ket,
    NumericalError,
    SystemLayout,
    max_entangled_ket,
    maximally_mixed,
    partial_trace,
    tensor,
    trace_with,
)

from helpers import (
    BOUND_SCENARIOS,
    BOUND_SPEC_INPUTS,
    REJECTED_BOUND_SCENARIOS,
    bell_density,
    classically_correlated,
    copy_broadcast_channel,
    gp_discard_channel,
    nelder_mead_sigma_reference,
    xor_mac_channel,
)


# ---------------------------------------------------------------------------
# converse values


def test_p2p_ea_converse_noiseless_qubit_is_two_bits(id2, bell):
    bound = converse_value("p2p_ea", id2, bell, 0.0)
    assert bound.kind == "converse"
    assert bound.value == pytest.approx(2.0, abs=1e-6)
    assert not bound.infeasible


def test_p2p_ea_converse_fully_depolarizing(bell):
    ch = depolarizing(1.0, 2, "A", "B")
    for eps in (0.1, 0.25):
        bound = converse_value("p2p_ea", ch, bell, eps)
        assert bound.value == pytest.approx(-math.log2(1 - eps), abs=1e-7)


def test_converse_sigma_candidates_only_tighten(id2, bell):
    extra = maximally_mixed(SystemLayout([("B", 2)]))
    base = converse_value("p2p_ea", id2, bell, 0.1)
    more = converse_value("p2p_ea", id2, bell, 0.1, sigma_candidates=[extra])
    assert more.value <= base.value + 1e-9
    assert len(more.optimizer_trace) >= len(base.optimizer_trace)


def test_converse_optimize_refines(id2, bell):
    base = converse_value("p2p_ea", id2, bell, 0.1)
    opt = converse_value("p2p_ea", id2, bell, 0.1, optimize=True)
    assert opt.value <= base.value + 1e-9


# ---------------------------------------------------------------------------
# the exact minimum over sigma


def qudit_damping(gamma: float, d: int) -> KrausChannel:
    """Amplitude damping of every excited level into |0>."""
    if d == 2:
        return amplitude_damping(gamma)
    kraus = [np.diag([1.0] + [math.sqrt(1 - gamma)] * (d - 1))]
    for j in range(1, d):
        k = np.zeros((d, d))
        k[0, j] = math.sqrt(gamma)
        kraus.append(k)
    return KrausChannel(kraus, [("A", d)], [("B", d)])


def random_pure_input(seed: int, d: int) -> DensityOp:
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return Ket(amp / np.linalg.norm(amp), SystemLayout([("A", d), ("R", d)])).density()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("noise", ["depolarizing", "damping"])
def test_exact_sigma_matches_or_beats_nelder_mead(d, noise):
    ch = depolarizing(0.1, d) if noise == "depolarizing" else qudit_damping(0.3, d)
    psi = random_pure_input(d, d)
    bound = converse_value("p2p_ea", ch, psi, 0.1, optimize=True)
    (certificate,) = bound.certificate
    # The search is stopped early to keep the test short; it stays an upper
    # bound on the minimum, which is all the comparison needs.
    reference = nelder_mead_sigma_reference(apply_on(ch, psi, ["A"]), ["R"], 0.1,
                                            maxiter=60)
    assert certificate <= bound.value <= reference + 1e-9
    assert bound.value - certificate <= 1e-8


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_exact_sigma_meets_the_identity_channel_corollary(d, eps):
    ceiling, _ = identity_channel_corollary(d, eps)
    psi = max_entangled_ket(d, "A", "R").density()
    bound = converse_value("p2p_ea", identity_channel(d, "A", "B"), psi, eps,
                           optimize=True)
    assert bound.value == pytest.approx(ceiling, abs=1e-8)
    assert bound.certificate[0] <= ceiling


def test_exact_sigma_at_eps_zero_is_closed_form(monkeypatch, id2, bell):
    # With no iterations allowed the interior-point path would stall; the
    # eps = 0 branch never enters it.
    monkeypatch.setattr(bounds, "_SDP_ITERS", 0)
    noiseless = converse_value("p2p_ea", id2, bell, 0.0, optimize=True)
    assert noiseless.value == pytest.approx(2.0, abs=1e-12)
    assert noiseless.certificate[0] == pytest.approx(2.0, abs=1e-12)
    assert noiseless.optimizer_trace[-1][0] == "sdp"
    useless = converse_value("p2p_ea", depolarizing(1.0, 2, "A", "B"), bell, 0.0,
                             optimize=True)
    assert useless.value == pytest.approx(0.0, abs=1e-12)
    assert useless.certificate[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_exact_sigma_on_the_fully_depolarizing_channel(bell, eps):
    bound = converse_value("p2p_ea", depolarizing(1.0, 2, "A", "B"), bell, eps,
                           optimize=True)
    assert bound.value == pytest.approx(-math.log2(1 - eps), abs=1e-7)
    assert bound.certificate[0] <= bound.value
    assert bound.value - bound.certificate[0] <= 1e-8


def test_converse_certificate_only_when_optimized(id2, bell):
    assert converse_value("p2p_ea", id2, bell, 0.1).certificate is None
    opt = converse_value("p2p_ea", id2, bell, 0.1, optimize=True)
    assert len(opt.certificate) == len(opt.per_sender) == 1
    assert [desc for desc, _ in opt.optimizer_trace] == [
        "output marginal", "maximally mixed", "sdp"]


def test_converse_names_the_first_candidate_that_ties_the_minimum(bell):
    # Depolarized Bell output: the output marginal is maximally mixed, and
    # all three candidates tie to within a few ulps of D_H.
    bound = converse_value("p2p_ea", depolarizing(0.10, 2, "A", "B"), bell, 0.1,
                           optimize=True)
    values = [val for _, val in bound.optimizer_trace]
    assert bound.value == min(values)
    assert max(values) - min(values) <= 1e-12
    assert bound.evaluated_at.endswith("sigma = output marginal")


def test_stalled_sdp_raises_numerical_error(monkeypatch, id2, bell):
    monkeypatch.setattr(bounds, "_SDP_ITERS", 2)
    with pytest.raises(NumericalError, match="stalled") as err:
        converse_value("p2p_ea", id2, bell, 0.1, optimize=True)
    assert not isinstance(err.value, ValueError)


def test_sdp_checks_the_dimension_cap_before_allocating(monkeypatch, id2, bell):
    monkeypatch.setenv("ONESHOT_QCAP_DIM_CAP", "15")
    with pytest.raises(DimensionCapError, match="n = 4"):
        converse_value("p2p_ea", id2, bell, 0.1, optimize=True)


def isometry_output(seed: int, d_out: int, kraus: int):
    """A random channel output and its resource marginal: a random isometry
    from a qubit A into [out, environment], applied to a random pure input
    on [A, R], traced over the environment."""
    rng = np.random.default_rng(seed)
    shape = (d_out * kraus, 2)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    iso = np.linalg.qr(g)[0].reshape(d_out, kraus, 2)
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = (amp / np.linalg.norm(amp)).reshape(2, 2)
    out = np.einsum("oka,ar->okr", iso, psi).transpose(1, 0, 2).reshape(kraus, 2 * d_out)
    rho = out.T @ out.conj()
    res = np.einsum("arbr->ab", rho.reshape(d_out, 2, d_out, 2).transpose(1, 0, 3, 2))
    return rho, res


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), d_out=st.sampled_from([2, 3]),
       kraus=st.integers(1, 3), eps=st.floats(0.01, 0.9))
def test_sdp_sigma_is_a_state_and_certificate_below_value(seed, d_out, kraus, eps):
    rho, res = isometry_output(seed, d_out, kraus)
    sigma, certificate = bounds._sdp_sigma(rho, res, d_out, eps)
    assert np.allclose(sigma, sigma.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-12
    assert abs(np.trace(sigma) - 1) <= 1e-12
    alt = np.kron(sigma, res)
    # dh_eps's Neyman-Pearson test is optimal only to about 1e-9 bits, and
    # its value fell below the certificate by up to 7e-10 bits on 1,300
    # random outputs.  On a pure output the rank-one oracle is exact.
    assert certificate <= dh_eps(rho, alt, eps).value + 1e-9
    if kraus == 1:
        assert certificate <= dh_rank1_oracle(rho, alt, eps)


def product_input(rng, d: int, rank: int) -> DensityOp:
    """A random rho_A of rank min(rank, d) beside the maximally mixed R."""
    shape = (d, min(rank, d))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = DensityOp(g @ g.conj().T / np.linalg.norm(g) ** 2, SystemLayout([("A", d)]))
    return tensor(rho, maximally_mixed(SystemLayout([("R", d)])))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([2, 3]),
       rank=st.integers(1, 3), eps=st.floats(0.01, 0.9))
def test_a_product_joint_attains_its_closed_form_minimum(seed, d, rank, eps):
    # The noiseless channel on rho_A x I/d: the joint is rho_B x I/d, and by
    # data processing under the trace over the resource the minimum over
    # sigma is -log2(1 - eps), at sigma = rho_B.  The resource's flat
    # spectrum leaves the SDP's dual residual well above its duality gap.
    # dh_eps's test is optimal only to about 1e-9 bits, so the value may
    # sit that far below the certificate.
    psi = product_input(np.random.default_rng(seed), d, rank)
    bound = converse_value("p2p_ea", identity_channel(d, "A", "B"), psi, eps,
                           optimize=True)
    (certificate,) = bound.certificate
    assert bound.value == pytest.approx(-math.log2(1 - eps), abs=1e-9)
    assert certificate - 1e-9 <= bound.value <= certificate + bounds._SDP_BRACKET


def per_block_step(sdp, x, slack, dual, mu):
    """``bounds._SigmaSDP.step`` with one factorization and one step-length
    eigvalsh per block, the Schur term from np.kron and A_b^H formed at each
    use: the reference the stacked step must equal to the bit."""

    def nt_scaling(s, z):
        ls, lz = np.linalg.cholesky(s), np.linalg.cholesky(z)
        u, w, vh = np.linalg.svd(lz.conj().T @ ls)
        root = np.sqrt(w)
        return (ls @ vh.conj().T) / root, (u.conj().T @ lz.conj().T) / root[:, None], w

    def max_step(w, step):
        r = 1.0 / np.sqrt(w)
        low = np.linalg.eigvalsh(r[:, None] * step * r[None, :])[0]
        return 1.0 if low >= -1.0 else -1.0 / low

    def adjoint(mats):
        return sum(np.real(a.conj().T @ m.ravel())
                   for (a, _, _), m in zip(sdp.blocks, mats))

    scaled = [nt_scaling(s, z) for s, z in zip(slack, dual)]
    w_inv = [gi.conj().T @ gi for _, gi, _ in scaled]
    schur = sum(np.real(a.conj().T @ np.kron(wi, wi.T) @ a)
                for (a, _, _), wi in zip(sdp.blocks, w_inv))
    schur = 0.5 * (schur + schur.T)

    def direction(rhs):
        h = [gi.conj().T @ q @ gi for q, (_, gi, _) in zip(rhs, scaled)]
        try:
            dx = np.linalg.solve(schur, adjoint(h) - sdp.c)
        except np.linalg.LinAlgError:
            dx = np.linalg.lstsq(schur, adjoint(h) - sdp.c, rcond=None)[0]
        ds = sdp.along(dx)
        dz = [hb - z - wi @ d @ wi for hb, z, d, wi in zip(h, dual, ds, w_inv)]
        dz = [0.5 * (d + d.conj().T) for d in dz]
        s_scaled = [gi @ d @ gi.conj().T for d, (_, gi, _) in zip(ds, scaled)]
        z_scaled = [g.conj().T @ d @ g for d, (g, _, _) in zip(dz, scaled)]
        a_p = min(max_step(w, d) for d, (_, _, w) in zip(s_scaled, scaled))
        a_d = min(max_step(w, d) for d, (_, _, w) in zip(z_scaled, scaled))
        return dx, dz, s_scaled, z_scaled, a_p, a_d

    _, _, s_aff, z_aff, a_p, a_d = direction([np.zeros_like(s) for s in slack])
    mu_aff = sum(trace_with(np.diag(w) + a_p * ds, np.diag(w) + a_d * dz)
                 for ds, dz, (_, _, w) in zip(s_aff, z_aff, scaled))
    mu_aff /= sum(len(w) for _, _, w in scaled)
    target = min(1.0, mu_aff / mu) ** max(1.0, 3.0 * min(a_p, a_d) ** 2) * mu
    rhs = []
    for ds, dz, (_, _, w) in zip(s_aff, z_aff, scaled):
        second = ds @ dz
        rhs.append((target * np.eye(len(w)) - 0.5 * (second + second.conj().T))
                   * (2.0 / (w[:, None] + w[None, :])))
    dx, dz, _, _, a_p, a_d = direction(rhs)
    keep = 0.9 + 0.09 * min(a_p, a_d)
    a_p, a_d = min(1.0, keep * a_p), min(1.0, keep * a_d)
    return x + a_p * dx, [z + a_d * d for z, d in zip(dual, dz)]


def sdp_instances():
    """(rho, res, d_out, eps) of the isometry outputs of the property test
    and of product joints rho_B x I/d, seeded."""
    rng = np.random.default_rng(7)
    for seed in range(8):
        d_out, kraus = 2 + seed % 2, 1 + seed % 3
        yield pytest.param(*isometry_output(seed, d_out, kraus), d_out,
                           0.05 + 0.1 * seed, id=f"isometry-{seed}")
    for seed in range(8):
        d = 2 + seed % 2
        psi = product_input(rng, d, 1 + seed % 3)
        yield pytest.param(psi.matrix, np.eye(d) / d, d, 0.05 + 0.1 * seed,
                           id=f"product-{seed}")


@pytest.mark.parametrize("rho, res, d_out, eps", sdp_instances())
def test_the_stacked_sdp_step_is_the_per_block_step_to_the_bit(monkeypatch, rho, res,
                                                               d_out, eps):
    stacked = bounds._SigmaSDP.step
    steps = []

    def checked(sdp, x, slack, dual, mu):
        try:
            want = per_block_step(sdp, x, slack, dual, mu)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                stacked(sdp, x, slack, dual, mu)
            raise
        got = stacked(sdp, x, slack, dual, mu)
        assert got[0].tobytes() == want[0].tobytes()
        assert [z.tobytes() for z in got[1]] == [z.tobytes() for z in want[1]]
        steps.append(mu)
        return got

    monkeypatch.setattr(bounds._SigmaSDP, "step", checked)
    bounds._sdp_sigma(rho, res, d_out, eps)
    assert steps


def count_sdp_steps(monkeypatch) -> list:
    """Count the calls of ``_SigmaSDP.step``: returns a one-element list
    that holds the count."""
    real = bounds._SigmaSDP.step
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(bounds._SigmaSDP, "step", counted)
    return calls


def test_the_benchmark_converse_takes_few_sdp_steps(monkeypatch, bell):
    # The depolarized Bell pairs of the benchmark's converse op, at each of
    # its p; with Mehrotra's centering floored at 0.2 each took 19 steps.
    calls = count_sdp_steps(monkeypatch)
    steps = []
    for p in np.round(0.05 + 0.01 * np.arange(8), 4):
        calls[0] = 0
        converse_value("p2p_ea", depolarizing(p, 2, "A", "B"), bell, 0.1, optimize=True)
        steps.append(calls[0])
    assert max(steps) <= 12, steps


def test_few_product_joints_run_the_sdp_to_its_step_cap(monkeypatch):
    # rho_B x I/d, whose dual residual stays well above its duality gap.
    # With Mehrotra's centering floored at 0.2, 17 of these 40 ran all
    # _SDP_ITERS steps, and one (d = 2, pure rho_B, eps = 0.43) stalled.
    calls = count_sdp_steps(monkeypatch)
    rng = np.random.default_rng(2026)
    capped = 0
    for _ in range(40):
        d, rank, eps = int(rng.integers(2, 4)), int(rng.integers(1, 4)), rng.uniform(0.01, 0.9)
        calls[0] = 0
        converse_value("p2p_ea", identity_channel(d, "A", "B"), product_input(rng, d, rank),
                       eps, optimize=True)
        capped += calls[0] >= bounds._SDP_ITERS
    assert capped <= 40 // 4


def test_mac_ea_converse_structure():
    psi_a = classically_correlated("A", "RA")
    psi_b = classically_correlated("B", "RB")
    bound = converse_value("mac_ea", xor_mac_channel(), psi_a, (0.1, 0.1),
                           psi_b=psi_b)
    assert len(bound.per_sender) == 2
    # Symmetric senders through the XOR channel get equal bounds.
    assert bound.per_sender[0] == pytest.approx(bound.per_sender[1], abs=1e-9)


def test_mac_ea_hdw_converse_reports_sum_rate():
    psi_a = bell_density("A", "RA")
    psi_b = bell_density("B", "RB")
    bound = converse_value("mac_ea_hdw", xor_mac_channel(), psi_a, (0.1, 0.1),
                           psi_b=psi_b)
    assert len(bound.per_sender) == 2
    assert bound.sum_rate is not None
    # The sum rate cannot exceed what a binary output plus the resource
    # registers support; here it is finite and at least each single rate.
    assert bound.sum_rate >= max(bound.per_sender) - 1e-9


def test_mac_ea_hdw_needs_a_sum_budget_below_one(monkeypatch):
    # Each budget lies in [0, 1), but their sum, at which the sum rate is
    # tested, does not: the converse stops before any D_H.
    monkeypatch.setattr(bounds, "dh_eps", None)
    with pytest.raises(ValueError) as err:
        converse_value("mac_ea_hdw", xor_mac_channel(), bell_density("A", "RA"),
                       (0.5, 0.6), psi_b=bell_density("B", "RB"))
    assert str(err.value) == "mac_ea_hdw tests its sum rate at eps_A + eps_B, " \
        "which must lie below 1; got 0.5 + 0.6 = 1.1"


def test_p2p_ua_converse_has_dimension_ceiling(id2):
    corr = classically_correlated("A", "U")
    bound = converse_value("p2p_ua", id2, corr, 0.2)
    assert bound.ceiling == pytest.approx(math.log2(2) / 0.8, abs=1e-12)
    # value and ceiling are two independent converses; here the divergence
    # term evaluates to log2(2 / (1 - eps)) for the correlated-bit ensemble.
    assert bound.value == pytest.approx(math.log2(2 / 0.8), abs=1e-7)


def test_p2p_ua_converse_rejects_nonuniform_register(id2):
    mat = np.diag([0.7, 0.0, 0.0, 0.3]).astype(complex)
    skew = DensityOp(mat, SystemLayout([("A", 2), ("U", 2)]))
    with pytest.raises(ValueError):
        converse_value("p2p_ua", id2, skew, 0.1)


def test_converse_unknown_scenario(id2, bell):
    with pytest.raises(ValueError):
        converse_value("teleport", id2, bell, 0.1)


@pytest.mark.parametrize("kind,scenario", BOUND_SPEC_INPUTS)
def test_spec_inputs_name_what_each_bound_reads(kind, scenario):
    assert bounds.spec_inputs(kind, scenario) == BOUND_SPEC_INPUTS[kind, scenario]


def test_the_bound_kinds_take_exactly_their_scenarios():
    assert {kind: list(k.scenarios) for kind, k in bounds.BOUND_KINDS.items()} \
        == BOUND_SCENARIOS


@pytest.mark.parametrize("kind,scenario", REJECTED_BOUND_SCENARIOS)
def test_a_bound_rejects_a_scenario_its_kind_does_not_take(id2, bell, kind,
                                                           scenario):
    evaluate = {
        "converse": lambda: converse_value(scenario, id2, bell, 0.1),
        "achievable": lambda: achievable_rate(scenario, id2, bell, 0.1, 0.05),
        "relaxation": lambda: corollary_relaxations(scenario, id2, bell, 0.1),
    }[kind]
    for call in (evaluate, lambda: bounds.spec_inputs(kind, scenario)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"the {kind} bound takes the scenarios " \
            f"{', '.join(BOUND_SCENARIOS[kind])}; not {scenario!r}"


# ---------------------------------------------------------------------------
# achievable rates


def test_achievable_rate_matches_dh_minus_penalty(id2, bell):
    eps, delta = 0.05, 0.45
    bound = achievable_rate("p2p_ea", id2, bell, eps, delta)
    joint = apply_on(id2, bell, ["A"])
    sigma = tensor(apply_on(id2, partial_trace(bell, ["A"]), ["A"]),
                   partial_trace(bell, ["B'"]))
    dh = dh_eps(joint, sigma.permuted(list(joint.layout.labels)),
                eps + delta).value
    assert bound.value == pytest.approx(dh - math.log2(1 / delta), abs=1e-9)
    assert not bound.infeasible


def test_achievable_rate_negative_is_flagged(bell):
    ch = depolarizing(1.0, 2, "A", "B")
    bound = achievable_rate("p2p_ea", ch, bell, 0.05, 0.05)
    assert bound.value < 0
    assert bound.infeasible


def test_achievable_below_converse(id2, bell):
    eps, delta = 0.05, 0.45
    ach = achievable_rate("p2p_ea", id2, bell, eps, delta)
    con = converse_value("p2p_ea", id2, bell, eps + delta)
    assert ach.value <= con.value + 1e-9


def test_achievable_mac_per_sender():
    psi_a = classically_correlated("A", "RA")
    psi_b = classically_correlated("B", "RB")
    bound = achievable_rate("mac_ea", xor_mac_channel(), psi_a, (0.1, 0.1),
                            0.05, psi_b=psi_b, strategy="sequential")
    assert len(bound.per_sender) == 2
    assert bound.infeasible  # a binary output cannot pay two delta penalties


# ---------------------------------------------------------------------------
# corollaries


@pytest.mark.parametrize("dim,eps,expected", [
    (2, 0.0, 2.0),
    (4, 0.0, 4.0),
    (3, 0.0, math.log2(9)),
    (2, 0.5, 3.0),
])
def test_identity_channel_corollary_values(dim, eps, expected):
    value, witness = identity_channel_corollary(dim, eps)
    assert value == pytest.approx(expected, abs=1e-12)
    lam, a = witness
    assert np.allclose(lam, np.full(dim, 1 / math.sqrt(dim)), atol=1e-12)
    assert np.sum(np.asarray(a) ** 2) == pytest.approx(1 - eps, abs=1e-12)


@pytest.mark.parametrize("dim", range(2, 7))
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9])
def test_identity_channel_corollary_witness_identities(dim, eps):
    _, (lam, a) = identity_channel_corollary(dim, eps)
    assert np.sum(lam ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(a ** 2) <= 1.0 + 1e-12
    assert np.sum(a * lam) ** 2 == pytest.approx(1 - eps, abs=1e-12)
    # <Pi| (I/|A| x psi_B') |Pi> with |Pi> = sum_i a_i |ii> and psi_B' = I/|A|.
    pi = np.zeros(dim * dim)
    pi[np.arange(dim) * (dim + 1)] = a
    quad = pi @ (np.eye(dim * dim) / dim ** 2) @ pi
    assert quad == pytest.approx((1 - eps) / dim ** 2, abs=1e-10)


def test_identity_channel_corollary_rejects_bad_args():
    with pytest.raises(ValueError):
        identity_channel_corollary(1, 0.1)
    with pytest.raises(ValueError):
        identity_channel_corollary(2, 1.0)


def test_gp_relaxation_matches_converse_on_product_input(tau_s, gp_input):
    relaxed = corollary_relaxations("gp", gp_discard_channel(), gp_input, 0.1)
    exact = converse_value("gp_ea", gp_discard_channel(), gp_input, 0.1,
                           tau=tau_s)
    assert relaxed.value == pytest.approx(exact.value, abs=1e-9)


def test_gp_relaxation_on_product_input_is_the_exact_converse(tau_s, gp_input):
    relaxed = corollary_relaxations("gp", gp_discard_channel(), gp_input, 0.1,
                                    optimize=True)
    exact = converse_value("gp_ea", gp_discard_channel(), gp_input, 0.1,
                           tau=tau_s, optimize=True)
    assert relaxed.value == pytest.approx(exact.value, abs=1e-9)
    assert relaxed.certificate == pytest.approx(exact.certificate, abs=1e-9)


def test_broadcast_relaxation_pays_bell_penalty():
    # Correlated receiver resources: the relaxation charges
    # dmax(psi_B'C' || psi_B' x psi_C') = 2 bits for a Bell pair.
    psi = bell_density("RB", "RC")
    full = tensor(maximally_mixed(SystemLayout([("A", 2)])), psi)
    product = tensor(
        maximally_mixed(SystemLayout([("A", 2)])),
        tensor(maximally_mixed(SystemLayout([("RB", 2)])),
               maximally_mixed(SystemLayout([("RC", 2)]))))
    ch = copy_broadcast_channel()
    relaxed = corollary_relaxations("broadcast", ch, full, (0.1, 0.1))
    assert "dmax penalty = 2.000000" in relaxed.evaluated_at
    baseline = corollary_relaxations("broadcast", ch, product, (0.1, 0.1))
    assert "dmax penalty = 0.000000" in baseline.evaluated_at


def test_broadcast_relaxation_matches_converse_on_product():
    product = tensor(
        maximally_mixed(SystemLayout([("A", 2)])),
        tensor(maximally_mixed(SystemLayout([("RB", 2)])),
               maximally_mixed(SystemLayout([("RC", 2)]))))
    ch = copy_broadcast_channel()
    relaxed = corollary_relaxations("broadcast", ch, product, (0.1, 0.1))
    exact = converse_value("broadcast_ea", ch, product, (0.1, 0.1))
    assert relaxed.per_sender == pytest.approx(exact.per_sender, abs=1e-9)
