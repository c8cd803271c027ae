"""End-to-end acceptance suite.

Each test here pins one headline guarantee of the package: oracle agreement
for the hypothesis-testing divergence, the closed-form self-divergence, the
randomized inequality suite, converse tightness on the noiseless channel,
analytic error-bound dominance across every simulator, end-to-end converse
floors, the sequential-vs-two-stage error-scaling comparison, exhaustive
derandomization, and byte-level determinism of the CLI.
"""

import json
import math
import time

import numpy as np
import pytest

from oneshot_qcap.bounds import (
    achievable_rate,
    converse_value,
    identity_channel_corollary,
)
from oneshot_qcap.channels import (
    amplitude_damping,
    depolarizing,
    erasure,
    identity_channel,
)
from oneshot_qcap.cli import run as cli_run
from oneshot_qcap.coding import (
    derandomize,
    report_floors,
    simulate_broadcast_ea,
    simulate_gp_ea,
    simulate_mac_ea,
    simulate_p2p_ea,
    simulate_unassisted,
)
from oneshot_qcap.divergences import DivergenceResult, dh_classical_oracle, dh_eps
from oneshot_qcap.linalg import (
    DensityOp,
    SystemLayout,
    maximally_mixed,
    sample,
    tensor,
)
from oneshot_qcap.verification import run_suite

from helpers import (
    bell_density,
    classically_correlated,
    copy_broadcast_channel,
    gp_controlled_flip_channel,
    gp_discard_channel,
    xor_mac_channel,
)

BELL = bell_density("A", "B'")
ID2 = identity_channel(2, "A", "B")
TAU_S = maximally_mixed(SystemLayout([("S", 2)]))
GP_INPUT = tensor(bell_density("A", "B'"), TAU_S).permuted(["A", "S", "B'"])


def diag_state(p, label="A"):
    p = np.asarray(p, dtype=float)
    return DensityOp(np.diag(p).astype(complex),
                     SystemLayout([(label, len(p))]))


# ---------------------------------------------------------------------------
# 1. oracle equivalence for the hypothesis-testing divergence


def test_dh_matches_classical_oracle_on_50_instances():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    eps_grid = (0.0, 0.1, 0.25, 0.5)
    for i in range(50):
        dim = 2 + i % 15  # dims 2..16
        eps = eps_grid[i % 4]
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        got = dh_eps(diag_state(p), diag_state(q), eps).value
        want = dh_classical_oracle(p, q, eps)
        assert got == pytest.approx(want, abs=1e-8), (i, dim, eps)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. self-divergence closed form


def test_self_divergence_closed_form_20_states():
    for i in range(20):
        rho = sample("density", 2 + i % 4, seed=100 + i)
        for eps in (0.0, 0.1, 0.25, 0.5):
            want = -math.log2(1 - eps) if eps else 0.0
            assert dh_eps(rho, rho, eps).value == pytest.approx(want,
                                                                abs=1e-9)


# ---------------------------------------------------------------------------
# 3. randomized inequality suite, 100 trials per check


def test_inequality_suite_100_trials():
    start = time.monotonic()
    out = run_suite(None, trials=100, dims=(2, 4, 8), seed=0)
    failures = {c["check"]: c["failures"] for c in out["checks"]
                if not c["holds"]}
    assert out["holds"], failures
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 4. noiseless-channel converse tightness


def test_noiseless_converse_value_and_ceiling_dominance():
    bound = converse_value("p2p_ea", ID2, BELL, 0.0)
    assert bound.value == pytest.approx(2.0, abs=1e-6)

    ceiling, _ = identity_channel_corollary(2, 0.0)
    assert ceiling == pytest.approx(2.0, abs=1e-12)

    # Every simulated identity-channel code sits under the corollary curve:
    # success probability at rate R is at most |A|^2 / 2^R.
    for rate in (1, 2, 3):
        report = simulate_p2p_ea(ID2, BELL, rate=rate, eps=0.1, delta=0.05)
        success = 1.0 - report.worst_error
        assert success <= 4.0 / 2 ** rate + 1e-9, (rate, success)


# ---------------------------------------------------------------------------
# 5 + 6. analytic bound dominance and converse floors, all six simulators


def build_instances():
    """Seeded instances spanning every simulator and both rate regimes."""
    corr = classically_correlated("A", "U")
    gp_ua_state = tensor(corr, TAU_S).permuted(["A", "S", "U"])
    bc_psi = tensor(bell_density("A", "RB"),
                    maximally_mixed(SystemLayout([("RC", 2)])))
    bc_ua = tensor(corr.permuted(["A", "U"]),
                   maximally_mixed(SystemLayout([("V", 2)])))
    mac_a, mac_b = (classically_correlated("A", "RA"),
                    classically_correlated("B", "RB"))
    return [
        ("p2p_ea identity", lambda: simulate_p2p_ea(
            ID2, BELL, 1, 0.1, 0.05)),
        ("p2p_ea identity feasible", lambda: simulate_p2p_ea(
            ID2, BELL, 1, 0.05, 0.45)),
        ("p2p_ea depolarizing", lambda: simulate_p2p_ea(
            depolarizing(0.3, 2, "A", "B"), BELL, 1, 0.1, 0.05)),
        ("p2p_ea amplitude damping R2", lambda: simulate_p2p_ea(
            amplitude_damping(0.3, "A", "B"), BELL, 2, 0.1, 0.05)),
        ("p2p_ea erasure", lambda: simulate_p2p_ea(
            erasure(0.4, 2, "A", "B"), BELL, 1, 0.1, 0.05)),
        ("gp_ea discard", lambda: simulate_gp_ea(
            gp_discard_channel(), TAU_S, GP_INPUT, 1, 0.15, 0.05)),
        ("gp_ea discard feasible", lambda: simulate_gp_ea(
            gp_discard_channel(), TAU_S, GP_INPUT, 1, 0.1, 0.43)),
        ("gp_ea controlled flip", lambda: simulate_gp_ea(
            gp_controlled_flip_channel(), TAU_S, GP_INPUT, 1, 0.15, 0.05)),
        ("broadcast_ea copy", lambda: simulate_broadcast_ea(
            copy_broadcast_channel(), bc_psi, (1, 1), (0.1, 0.1), 0.05)),
        ("mac_ea sequential", lambda: simulate_mac_ea(
            xor_mac_channel(), mac_a, mac_b, (1, 1), (0.05, 0.1), 0.02,
            strategy="sequential")),
        ("mac_ea pgm_a_first", lambda: simulate_mac_ea(
            xor_mac_channel(), mac_a, mac_b, (1, 1), (0.05, 0.1), 0.02,
            strategy="pgm_a_first")),
        ("mac_ea pgm_b_first", lambda: simulate_mac_ea(
            xor_mac_channel(), mac_a, mac_b, (1, 1), (0.05, 0.1), 0.02,
            strategy="pgm_b_first")),
        ("p2p_ua identity feasible", lambda: simulate_unassisted(
            "p2p", ID2, corr, 1, 0.1, delta=0.6)),
        ("gp_ua discard", lambda: simulate_unassisted(
            "gp", gp_discard_channel(), gp_ua_state, 1, 0.15, delta=0.05,
            tau=TAU_S)),
        ("broadcast_ua copy", lambda: simulate_unassisted(
            "broadcast", copy_broadcast_channel(), bc_ua, (1, 1), (0.1, 0.1),
            delta=0.05)),
        ("mac_ua sequential", lambda: simulate_unassisted(
            "mac", xor_mac_channel(),
            classically_correlated("A", "UA"), (1, 1), (0.1, 0.1),
            delta=0.05, psi_b=classically_correlated("B", "UB"))),
    ]


@pytest.fixture(scope="module")
def instance_reports():
    start = time.monotonic()
    reports = [(name, make()) for name, make in build_instances()]
    assert time.monotonic() - start < 300.0
    return reports


def test_achievability_bounds_dominate_exact_errors(instance_reports):
    assert len(instance_reports) >= 12
    scenarios = {rep.scenario for _, rep in instance_reports}
    assert {"p2p_ea", "gp_ea", "broadcast_ea", "mac_ea",
            "p2p_ua", "gp_ua", "broadcast_ua", "mac_ua"} <= scenarios
    feasible = 0
    for name, rep in instance_reports:
        err = rep.reported_error
        assert err <= min(1.0, rep.hn_bound) + 1e-8, name
        assert rep.bound_satisfied, name
        if rep.rate_feasible:
            feasible += 1
            # The closed-form (theorem) bound applies in the feasible regime.
            assert err <= min(1.0, rep.analytic_bound) + 1e-8, name
    assert feasible >= 3


def test_converse_floor_holds_for_every_instance(instance_reports):
    for name, rep in instance_reports:
        for floor in report_floors(rep, sigmas=5, seed=0):
            assert floor["holds"], (name, floor)


def test_report_details_hold_results_only(instance_reports):
    allowed = (int, float, str, np.ndarray, tuple, DivergenceResult)
    for name, rep in instance_reports:
        for key, value in rep.details.items():
            assert isinstance(value, allowed), (name, key, type(value))


# ---------------------------------------------------------------------------
# 5b. the scenario table: simulators and achievable rates agree


def log_inv_delta(eps, delta):
    return math.log2(1 / delta)


def log_quad(eps, delta):
    return math.log2(4 * eps / delta ** 2)


def table_instances():
    """(name, report, achievable bound, rates, per-stream penalty) per case;
    the penalties are the coding theorems' own, written out here."""
    corr = classically_correlated("A", "U")
    gp_ua_state = tensor(corr, TAU_S).permuted(["A", "S", "U"])
    bc_psi = tensor(bell_density("A", "RB"),
                    maximally_mixed(SystemLayout([("RC", 2)])))
    bc_ua = tensor(corr, maximally_mixed(SystemLayout([("V", 2)])))
    mac_a, mac_b = (classically_correlated("A", "RA"),
                    classically_correlated("B", "RB"))
    ua_a, ua_b = (classically_correlated("A", "UA"),
                  classically_correlated("B", "UB"))
    bc, mac, gp = copy_broadcast_channel(), xor_mac_channel(), gp_discard_channel()
    return [
        ("p2p_ea", simulate_p2p_ea(ID2, BELL, 1, 0.1, 0.05),
         achievable_rate("p2p_ea", ID2, BELL, 0.1, 0.05), (1,),
         [log_inv_delta(0.1, 0.05)]),
        ("p2p_ea feasible", simulate_p2p_ea(ID2, BELL, 1, 0.05, 0.45),
         achievable_rate("p2p_ea", ID2, BELL, 0.05, 0.45), (1,),
         [log_inv_delta(0.05, 0.45)]),
        ("gp_ea", simulate_gp_ea(gp, TAU_S, GP_INPUT, 1, 0.15, 0.05),
         achievable_rate("gp_ea", gp, GP_INPUT, 0.15, 0.05, tau=TAU_S), (1,),
         [log_quad(0.15, 0.05)]),
        ("broadcast_ea", simulate_broadcast_ea(bc, bc_psi, (1, 1), (0.1, 0.2), 0.05),
         achievable_rate("broadcast_ea", bc, bc_psi, (0.1, 0.2), 0.05), (1, 1),
         [log_quad(0.1, 0.05), log_quad(0.2, 0.05)]),
        ("mac_ea sequential", simulate_mac_ea(
            mac, mac_a, mac_b, (1, 1), (0.05, 0.1), 0.02),
         achievable_rate("mac_ea", mac, mac_a, (0.05, 0.1), 0.02, psi_b=mac_b),
         (1, 1), [log_inv_delta(0.05, 0.02)] * 2),
        ("mac_ea pgm_b_first", simulate_mac_ea(
            mac, mac_a, mac_b, (1, 1), (0.05, 0.1), 0.02, strategy="pgm_b_first"),
         achievable_rate("mac_ea", mac, mac_a, (0.05, 0.1), 0.02, psi_b=mac_b,
                         strategy="pgm_b_first"),
         (1, 1), [log_quad(0.05, 0.02), log_quad(0.1, 0.02)]),
        ("p2p_ua feasible", simulate_unassisted("p2p", ID2, corr, 1, 0.1, 0.6),
         achievable_rate("p2p_ua", ID2, corr, 0.1, 0.6), (1,),
         [log_quad(0.1, 0.6)]),
        ("gp_ua", simulate_unassisted("gp", gp, gp_ua_state, 1, 0.15, 0.05,
                                      tau=TAU_S),
         achievable_rate("gp_ua", gp, gp_ua_state, 0.15, 0.05, tau=TAU_S), (1,),
         [log_quad(0.15, 0.05)]),
        ("broadcast_ua", simulate_unassisted("broadcast", bc, bc_ua, (1, 1),
                                             (0.1, 0.1), 0.05),
         achievable_rate("broadcast_ua", bc, bc_ua, (0.1, 0.1), 0.05), (1, 1),
         [log_quad(0.1, 0.05)] * 2),
        ("mac_ua", simulate_unassisted("mac", mac, ua_a, (1, 1), (0.1, 0.1),
                                       0.05, psi_b=ua_b),
         achievable_rate("mac_ua", mac, ua_a, (0.1, 0.1), 0.05, psi_b=ua_b),
         (1, 1), [log_inv_delta(0.1, 0.05)] * 2),
    ]


def test_simulators_and_achievable_rates_share_one_table():
    cases = table_instances()
    assert {rep.scenario for _, rep, _, _, _ in cases} == {
        "p2p_ea", "gp_ea", "broadcast_ea", "mac_ea",
        "p2p_ua", "gp_ua", "broadcast_ua", "mac_ua"}
    feasible = 0
    for name, rep, ach, rates, penalties in cases:
        for dh, rate, pen in zip(rep.dh_values, ach.per_sender, penalties):
            assert dh - rate == pytest.approx(pen, abs=1e-12), name
        assert rep.rate_feasible == all(
            r <= a + 1e-9 for r, a in zip(rates, ach.per_sender)), name
        feasible += rep.rate_feasible
    assert feasible >= 2


# ---------------------------------------------------------------------------
# 7. sequential vs two-stage error scaling


def test_sequential_bound_below_two_stage_bound():
    delta = 0.05
    for eps1 in np.linspace(0.04, 0.12, 5):
        for eps2 in np.linspace(0.0, 0.2, 5):
            sequential = 4.0 * (eps1 + eps2 + 2 * delta)
            two_stage = eps2 + 2 * delta + 3 * math.sqrt(eps1 + 2 * delta)
            assert sequential < two_stage, (eps1, eps2)

    # Simulation consistency on a seeded asymmetric instance: the reported
    # analytic bounds are exactly these formulas and both codes honor them.
    psi_a = classically_correlated("A", "RA")
    psi_b = classically_correlated("B", "RB")
    eps1, eps2 = 0.08, 0.1
    seq = simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, (1, 1),
                          (eps1, eps2), delta, strategy="sequential")
    pgm = simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, (1, 1),
                          (eps1, eps2), delta, strategy="pgm_a_first")
    assert seq.analytic_bound == pytest.approx(
        4.0 * (eps1 + eps2 + 2 * delta), abs=1e-12)
    assert pgm.details["stage_bounds"][1] == pytest.approx(
        eps2 + 2 * delta + 3 * math.sqrt(eps1 + 2 * delta), abs=1e-12)
    assert seq.analytic_bound < pgm.details["stage_bounds"][1]
    assert seq.bound_satisfied and pgm.bound_satisfied


# ---------------------------------------------------------------------------
# 8. derandomization


@pytest.mark.parametrize("rate,best,randomized", [
    (1, 0.0, 0.25),
    (2, 0.5, 0.53125),
])
def test_derandomization_beats_shared_randomness(rate, best, randomized):
    corr = classically_correlated("A", "U")
    code = derandomize("p2p", ID2, corr, rate, 0.1, 0.6)
    assert code.error <= code.randomized_error + 1e-12
    assert code.error == pytest.approx(best, abs=1e-10)
    assert code.randomized_error == pytest.approx(randomized, abs=1e-10)


# ---------------------------------------------------------------------------
# 9. byte-identical determinism of the CLI


def test_cli_reports_are_byte_identical(tmp_path):
    ch = tmp_path / "ch.json"
    ch.write_text(json.dumps({
        "schema": "1", "type": "channel", "name": "identity", "dims": 2,
        "labels": {"in": "A", "out": "B"}}))
    st = tmp_path / "st.json"
    st.write_text(json.dumps({
        "schema": "1", "type": "state", "name": "bell",
        "dims": [["A", 2], ["B'", 2]]}))

    sim_args = ["simulate", "p2p_ea", "--channel", str(ch), "--state",
                str(st), "--R", "1", "--eps", "0.1", "--delta", "0.05",
                "--seed", "7", "--floor-sigmas", "3"]
    ver_args = ["verify", "--facts", "triangle,hayashi_nagaoka,neumark",
                "--trials", "5", "--dims", "2,4", "--seed", "7"]

    outputs = []
    for tag in ("first", "second"):
        sim_out = tmp_path / f"sim-{tag}.json"
        ver_out = tmp_path / f"ver-{tag}.json"
        assert cli_run(sim_args + ["--output", str(sim_out)]) == 0
        assert cli_run(ver_args + ["--output", str(ver_out)]) == 0
        outputs.append((sim_out.read_bytes(), ver_out.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
