import math

import numpy as np
import pytest

from oneshot_qcap.bounds import (
    achievable_rate,
    converse_value,
    corollary_relaxations,
    identity_channel_corollary,
)
from oneshot_qcap.channels import apply_on, depolarizing, identity_channel
from oneshot_qcap.divergences import dh_eps
from oneshot_qcap.linalg import (
    DensityOp,
    SystemLayout,
    maximally_mixed,
    partial_trace,
    tensor,
)

from helpers import (
    bell_density,
    classically_correlated,
    copy_broadcast_channel,
    gp_discard_channel,
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
    opt = converse_value("p2p_ea", id2, bell, 0.1, optimize=True, restarts=1)
    assert opt.value <= base.value + 1e-9


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
