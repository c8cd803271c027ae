import itertools
import math

import numpy as np
import pytest

from oneshot_qcap import coding, divergences
from oneshot_qcap.channels import (
    KrausChannel,
    binary_test_projector,
    depolarizing,
    identity_channel,
)
from oneshot_qcap.coding import (
    build_position_povm,
    converse_floor,
    derandomize,
    dilation_statistics,
    gentle_checks,
    get_scenario,
    hn_check,
    report_floors,
    seq_check,
    simulate_broadcast_ea,
    simulate_gp_ea,
    simulate_mac_ea,
    simulate_p2p_ea,
    simulate_unassisted,
)
from oneshot_qcap.divergences import dh_eps
from oneshot_qcap.linalg import (
    DensityOp,
    DimensionCapError,
    HermOp,
    SystemLayout,
    maximally_mixed,
    place,
    psd_sqrt,
    purified_distance,
    sample,
    tensor,
)

from helpers import (
    bell_density,
    classically_correlated,
    copy_broadcast_channel,
    gp_controlled_flip_channel,
    gp_discard_channel,
    xor_mac_channel,
)

# Exact success probability of the square-root-measurement decoder for a
# noiseless qubit carrying one bit against a Bell resource: 1/2 + sqrt(3)/4.
PGM_BELL_SUCCESS = 0.5 + math.sqrt(3.0) / 4.0


def sub_identity(dim, seed):
    m = sample("density", dim, seed).matrix * dim
    return 0.9 * m / np.linalg.eigvalsh(m)[-1]


# ---------------------------------------------------------------------------
# position POVM and operator-inequality checks


def test_position_povm_completes_and_embeds():
    test = HermOp(np.diag([0.9, 0.1, 0.6, 0.2]),
                  SystemLayout([("B", 2), ("R", 2)]))
    code = build_position_povm(test, copies=4, resource_label="R")
    total = np.sum(code.povm, axis=0) + code.completion
    assert np.allclose(total, np.eye(code.layout.dim), atol=1e-10)
    assert len(code.povm) == 4
    for el in code.povm:
        evals = np.linalg.eigvalsh(el)
        assert evals[0] >= -1e-10


def test_position_povm_decomposes_one_operator_at_its_dimension(eig_inputs):
    test = HermOp(np.diag([0.9, 0.1, 0.6, 0.2]),
                  SystemLayout([("B", 2), ("R", 2)]))
    code = build_position_povm(test, copies=4, resource_label="R")
    assert [m.shape[-1] for m in eig_inputs].count(code.layout.dim) == 1


def test_position_povm_rejects_a_completion_that_is_not_psd(monkeypatch):
    # A root 1% too large leaves I - root S root at -0.02 on S's support.
    pinv_sqrt = coding._pinv_sqrt
    monkeypatch.setattr(coding, "_pinv_sqrt", lambda w: 1.01 * pinv_sqrt(w))
    test = HermOp(np.diag([0.9, 0.1, 0.6, 0.2]),
                  SystemLayout([("B", 2), ("R", 2)]))
    with pytest.raises(ValueError, match="fails PSD"):
        build_position_povm(test, copies=4, resource_label="R")


def test_position_povm_rejects_invalid_test():
    bad = HermOp(np.diag([1.5, 0.0]), SystemLayout([("B", 2)]))
    with pytest.raises(ValueError):
        build_position_povm(bad, copies=2, resource_label="B")


@pytest.mark.parametrize("seed", range(4))
def test_hn_check_nonnegative(seed):
    s = sub_identity(4, seed)
    t = sample("density", 4, seed + 50).matrix * 0.5
    for c in (0.1, 1.0, 7.0):
        assert hn_check(s, t, c) >= -1e-9


def test_hn_check_rejects_bad_constant():
    with pytest.raises(ValueError):
        hn_check(np.eye(2) * 0.5, np.eye(2) * 0.1, 0.0)


def test_seq_check_union_bound():
    rho = sample("density", 4, 3)
    projs = []
    for seed in (7, 8, 9):
        vec = sample("pure", 4, seed).amplitudes
        projs.append(np.outer(vec, vec.conj()))
    lhs, rhs = seq_check(rho, projs)
    assert lhs >= rhs - 1e-12
    assert 0.0 <= lhs <= 1.0 + 1e-12


def test_seq_check_rejects_non_projector():
    rho = sample("density", 2, 1)
    with pytest.raises(ValueError):
        seq_check(rho, [np.eye(2) * 0.5])


def test_gentle_checks_all_modes_hold():
    lay = SystemLayout([("A", 3)])
    rho = sample("density", 3, 11, labels=["A"])
    other = sample("density", 3, 12, labels=["A"])
    pi = sub_identity(3, 13)
    rep = gentle_checks("sqrt_overlap", state=rho, operator=pi, other=other)
    assert rep["holds"]

    rep = gentle_checks("single_operator", state=rho,
                        operator=sub_identity(3, 14))
    assert rep["holds"]

    vec = sample("pure", 3, 15).amplitudes
    pure = DensityOp(np.outer(vec, vec.conj()), lay)
    povm = sample("povm", 3, 16, outcomes=3)
    roots = []
    for el in povm:
        w, v = np.linalg.eigh(el.matrix)
        roots.append(v @ np.diag(np.sqrt(np.clip(w, 0, None))) @ v.conj().T)
    rep = gentle_checks("povm_ensemble", state=pure, povm=roots)
    assert rep["holds"]
    assert rep["equality_holds"] is not False


def test_gentle_checks_unknown_mode():
    with pytest.raises(ValueError):
        gentle_checks("nonsense", state=sample("density", 2, 0))


# ---------------------------------------------------------------------------
# point-to-point entanglement-assisted simulation


def test_p2p_ea_noiseless_qubit_exact_value(id2, bell):
    report = simulate_p2p_ea(id2, bell, rate=1, eps=0.1, delta=0.05)
    assert report.worst_error == pytest.approx(1.0 - PGM_BELL_SUCCESS,
                                               abs=1e-10)
    assert report.bound_satisfied
    dist = report.details["outcome_dist"]
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-10)


def test_p2p_ea_fully_depolarizing_is_a_coin_flip(bell):
    ch = depolarizing(1.0, 2, "A", "B")
    report = simulate_p2p_ea(ch, bell, rate=1, eps=0.1, delta=0.05)
    assert report.worst_error == pytest.approx(0.5, abs=1e-10)
    assert not report.rate_feasible
    assert report.bound_satisfied  # Hayashi-Nagaoka bound exceeds 1 here


def test_p2p_ea_feasible_instance_meets_analytic_bound(id2, bell):
    report = simulate_p2p_ea(id2, bell, rate=1, eps=0.05, delta=0.45)
    assert report.rate_feasible
    assert report.worst_error <= min(1.0, report.analytic_bound) + 1e-8


def test_p2p_ea_rejects_misshapen_state(id2):
    bad = sample("density", [2, 2, 2], 5, labels=["A", "R", "X"])
    with pytest.raises(ValueError):
        simulate_p2p_ea(id2, bad, rate=1, eps=0.1, delta=0.05)


# ---------------------------------------------------------------------------
# channel-with-state simulation


def test_gp_ea_discard_matches_p2p(id2, bell, tau_s, gp_input):
    # Discarding the channel state reduces to a noiseless point-to-point
    # qubit; both decoders then smooth at the same level.
    gp = simulate_gp_ea(gp_discard_channel(), tau_s, gp_input, rate=1,
                        eps=0.15, delta=0.05)
    p2p = simulate_p2p_ea(id2, bell, rate=1, eps=0.1, delta=0.05)
    assert np.allclose(gp.details["outcome_dist"],
                       p2p.details["outcome_dist"], atol=1e-10)
    assert gp.bound_satisfied


def test_gp_ea_controlled_flip_bound_holds(tau_s, gp_input):
    report = simulate_gp_ea(gp_controlled_flip_channel(), tau_s, gp_input,
                            rate=1, eps=0.15, delta=0.05)
    assert report.bound_satisfied
    assert 0.0 <= report.worst_error <= 1.0


def test_gp_ea_rejects_wrong_channel_state(tau_s, gp_input):
    wrong = DensityOp(np.diag([1.0, 0.0]), SystemLayout([("S", 2)]))
    with pytest.raises(ValueError):
        simulate_gp_ea(gp_discard_channel(), wrong, gp_input, rate=1,
                       eps=0.15, delta=0.05)


# ---------------------------------------------------------------------------
# broadcast simulation


def test_broadcast_ea_copy_channel():
    psi = tensor(bell_density("A", "RB"),
                 maximally_mixed(SystemLayout([("RC", 2)])))
    report = simulate_broadcast_ea(copy_broadcast_channel(), psi,
                                   rates=(1, 1), epsilons=(0.1, 0.1),
                                   delta=0.05)
    assert report.bound_satisfied
    worst_b, worst_c = report.details["per_receiver_worst_error"]
    # Charlie's resource carries no information, so he cannot beat guessing.
    assert worst_c >= 0.5 - 1e-9
    assert worst_b <= worst_c
    assert report.worst_error == pytest.approx(max(worst_b, worst_c), abs=1e-12)


def test_broadcast_ea_rejects_correlated_resources():
    mat = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        mat[i * 3 + i * 2 + i, i * 3 + i * 2 + i] = 0.5  # |iii><iii| diagonal
    mat = np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex)
    psi = DensityOp(mat, SystemLayout([("A", 2), ("RB", 2), ("RC", 2)]))
    with pytest.raises(ValueError):
        simulate_broadcast_ea(copy_broadcast_channel(), psi, rates=(1, 1),
                              epsilons=(0.1, 0.1), delta=0.05)


# ---------------------------------------------------------------------------
# multiple-access simulation


def mac_inputs():
    return (classically_correlated("A", "RA"),
            classically_correlated("B", "RB"))


@pytest.mark.parametrize("strategy", ["sequential", "pgm_a_first",
                                      "pgm_b_first"])
def test_mac_ea_xor_all_strategies(strategy):
    psi_a, psi_b = mac_inputs()
    report = simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, rates=(1, 1),
                             epsilons=(0.05, 0.1), delta=0.02,
                             strategy=strategy)
    assert report.scenario == "mac_ea"
    assert report.bound_satisfied
    dist = report.details["outcome_dist"]
    assert dist.shape == (4, 9)  # (m1, m2) rows; 3 x 3 outcome grid w/ aborts
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-9)


def test_mac_ea_unknown_strategy():
    psi_a, psi_b = mac_inputs()
    with pytest.raises(ValueError):
        simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, rates=(1, 1),
                        epsilons=(0.05, 0.1), delta=0.02, strategy="joint")


def xor_side_state():
    """[A, RA, SA]: A = RA xor SA for independent uniform bits RA, SA."""
    mat = np.zeros((8, 8))
    for u, side in itertools.product(range(2), repeat=2):
        i = 4 * (u ^ side) + 2 * u + side
        mat[i, i] = 0.25
    return DensityOp(mat, SystemLayout([("A", 2), ("RA", 2), ("SA", 2)]))


def flagged_bell_state():
    """[B, RB, SB]: a Bell pair on B, RB, flipped on B when the flag SB is 1.
    RB and SB are independent and uniform."""
    flip = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    bell = bell_density("B", "RB").matrix
    mat = sum(np.kron(f @ bell @ f, np.diag([1.0 - s, float(s)])) / 2
              for s, f in enumerate((np.eye(4), flip)))
    return DensityOp(mat, SystemLayout([("B", 2), ("RB", 2), ("SB", 2)]))


def first_yes_dense(projectors, eye, state):
    """Branches of ``state`` by the first test answering "yes" (last branch:
    none did), with every test performed; decided branches continue
    non-selectively."""
    pending, branches = state, []
    for p in projectors:
        pbar = eye - p
        branches = [p @ b @ p + pbar @ b @ pbar for b in branches]
        branches.append(p @ pending @ p)
        pending = pbar @ pending @ pbar
    return branches + [pending]


def dense_sequential_reference(ch, psi_a, psi_b, rates, eps, delta):
    """The sequential decoder, evaluated on the full space: Neumark
    projectors of the placed position tests and every branch evolved.
    Returns the chain successes, the sequential-bound right-hand sides and
    the first-yes outcome distribution."""
    spec = get_scenario("mac_ea")
    receivers = spec.build(ch, psi_a, psi_b, None,
                           [spec.smoothing(e, delta) for e in eps])
    omega = receivers[0].state
    resources = [r.resource for r in receivers]
    copies = [[f"{res}:{k}" for k in range(2 ** rate)]
              for res, rate in zip(resources, rates)]
    layout = SystemLayout(
        [reg for reg in omega.layout.registers if reg[0] not in resources]
        + [(c, omega.layout.dim_of(res)) for res, cs in zip(resources, copies)
           for c in cs])

    def renamed(registers, names):
        return [(names.get(lbl, lbl), d) for lbl, d in registers]

    proj = [[binary_test_projector(place(
        [(renamed(r.joint.layout.registers, {r.resource: c}),
          dh_eps(r.joint, r.alt, r.eps).witness.operator)], layout))
        for c in cs] for r, cs in zip(receivers, copies)]
    eye = np.eye(2 * layout.dim)
    succ, rhs, dist = [], [], []
    for msgs in itertools.product(*(range(len(cs)) for cs in copies)):
        factors = [(renamed(omega.layout.registers, {
            res: cs[m] for res, cs, m in zip(resources, copies, msgs)}),
            omega.matrix)]
        for r, cs, m in zip(receivers, copies, msgs):
            factors += [(renamed(r.marginal.layout.registers, {r.resource: c}),
                         r.marginal.matrix) for k, c in enumerate(cs) if k != m]
        # The pointer qubit is the last register, in |0>.
        rho0 = np.kron(place(factors, layout), np.diag([1.0, 0.0]))
        cur, bad = rho0, 0.0
        for ps, m in zip(proj, msgs):
            for k, p in enumerate(ps):
                op = p if k == m else eye - p
                cur = op @ cur @ op
                bad += np.trace((eye - op) @ rho0).real
        succ.append(np.trace(cur).real)
        rhs.append(1.0 - 4.0 * bad)
        dist.append([max(np.trace(b).real, 0.0)
                     for branch in first_yes_dense(proj[0], eye, rho0)
                     for b in first_yes_dense(proj[1], eye, branch)])
    shape = tuple(len(cs) for cs in copies)
    return np.array(succ), np.array(rhs).reshape(shape), np.array(dist)


@pytest.mark.parametrize("rates,senders", [
    ((1, 1), lambda: (xor_side_state(), flagged_bell_state())),
    ((2, 1), mac_inputs),
], ids=["1,1-side-registers", "2,1"])
def test_local_sequential_decoder_matches_the_dense_chain(rates, senders):
    # Three-register senders put each test's registers on non-adjacent axes.
    psi_a, psi_b = senders()
    ch, eps, delta = noisy_xor_mac_channel(0.1), (0.05, 0.1), 0.02
    succ, rhs, dist = dense_sequential_reference(ch, psi_a, psi_b, rates, eps,
                                                 delta)
    rep = simulate_mac_ea(ch, psi_a, psi_b, rates=rates, epsilons=eps,
                          delta=delta, strategy="sequential")
    assert np.allclose(rep.per_message_success, succ, rtol=0, atol=1e-12)
    assert np.allclose(rep.details["seq_rhs"], rhs, rtol=0, atol=1e-12)
    assert np.allclose(rep.details["outcome_dist"], dist, rtol=0, atol=1e-12)


def square_root_measurement(tests):
    """S^{-1/2} T_m S^{-1/2}, S = sum_m T_m, and the completion element."""
    w, v = np.linalg.eigh(np.sum(tests, axis=0))
    inv = np.where(w > 1e-12 * max(w[-1], 1e-300),
                   1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    root = (v * inv) @ v.conj().T
    povm = [root @ t @ root for t in tests]
    povm = [(p + p.conj().T) / 2 for p in povm]
    comp = np.eye(len(root)) - np.sum(povm, axis=0)
    return povm, (comp + comp.conj().T) / 2


def dense_pgm_reference(ch, psi_a, psi_b, rates, eps, delta, a_first):
    """The two-stage square-root decoder, evaluated on the full space: both
    senders' tests placed on every register of the receiver, and every
    message state too.  Returns the joint successes, the outcome
    distribution and the per-message stage errors and disturbance."""
    spec = get_scenario("mac_ea")
    receivers = spec.build(ch, psi_a, psi_b, None,
                           [spec.smoothing(e, delta) for e in eps])
    omega = receivers[0].state
    resources = [r.resource for r in receivers]
    copies = [[f"{res}:{k}" for k in range(2 ** rate)]
              for res, rate in zip(resources, rates)]
    layout = SystemLayout(
        [reg for reg in omega.layout.registers if reg[0] not in resources]
        + [(c, omega.layout.dim_of(res)) for res, cs in zip(resources, copies)
           for c in cs])

    def renamed(registers, names):
        return [(names.get(lbl, lbl), d) for lbl, d in registers]

    tests = [[place(
        [(renamed(r.joint.layout.registers, {r.resource: c}),
          dh_eps(r.joint, r.alt, r.eps).witness.operator)], layout)
        for c in cs] for r, cs in zip(receivers, copies)]
    first, second = (0, 1) if a_first else (1, 0)
    povm_first, comp_first = square_root_measurement(tests[first])
    povm_second, _ = square_root_measurement(tests[second])
    w, v = np.linalg.eigh(comp_first)
    kraus = [psd_sqrt(p) for p in povm_first] + [
        psd_sqrt((v * np.clip(w, 0.0, None)) @ v.conj().T)]
    out = {key: [] for key in ("success", "dist", "stage1_err", "stage2_err",
                               "disturbance")}
    for msgs in itertools.product(*(range(len(cs)) for cs in copies)):
        factors = [(renamed(omega.layout.registers, {
            res: cs[m] for res, cs, m in zip(resources, copies, msgs)}),
            omega.matrix)]
        for r, cs, m in zip(receivers, copies, msgs):
            factors += [(renamed(r.marginal.layout.registers, {r.resource: c}),
                         r.marginal.matrix) for k, c in enumerate(cs) if k != m]
        st = place(factors, layout)
        branches = [k @ st @ k for k in kraus]
        post = np.sum(branches, axis=0)
        row = np.array([[max(np.trace(p @ b).real, 0.0) for p in povm_second]
                        + [np.trace(b).real] for b in branches])
        row[:, -1] = np.maximum(row[:, -1] - row[:, :-1].sum(axis=1), 0.0)
        mf, ms = msgs[first], msgs[second]
        out["success"].append(row[mf, ms])
        out["dist"].append((row if a_first else row.T).reshape(-1))
        out["stage1_err"].append(1.0 - np.trace(povm_first[mf] @ st).real)
        out["stage2_err"].append(1.0 - np.trace(povm_second[ms] @ post).real)
        out["disturbance"].append(purified_distance(st, (post + post.conj().T) / 2))
    return {key: np.array(val) for key, val in out.items()}


@pytest.mark.parametrize("strategy", ["pgm_a_first", "pgm_b_first"])
@pytest.mark.parametrize("rates,senders", [
    ((1, 1), lambda: (xor_side_state(), flagged_bell_state())),
    ((2, 1), mac_inputs),
], ids=["1,1-side-registers", "2,1"])
def test_staged_pgm_decoder_matches_the_dense_decoder(rates, senders, strategy):
    psi_a, psi_b = senders()
    ch, eps, delta = noisy_xor_mac_channel(0.1), (0.05, 0.1), 0.02
    ref = dense_pgm_reference(ch, psi_a, psi_b, rates, eps, delta,
                              strategy == "pgm_a_first")
    rep = simulate_mac_ea(ch, psi_a, psi_b, rates=rates, epsilons=eps,
                          delta=delta, strategy=strategy)
    assert np.allclose(rep.per_message_success, ref["success"], rtol=0, atol=1e-12)
    assert np.allclose(rep.details["outcome_dist"], ref["dist"], rtol=0, atol=1e-12)
    for key in ("stage1_err", "stage2_err"):
        assert np.allclose(rep.details[key].reshape(-1), ref[key], rtol=0,
                           atol=1e-12)
    # sqrt(1 - F^2) near F = 1 turns roundoff in F into disturbances of order
    # 1e-8, so a disturbance that is zero in exact arithmetic is only bounded.
    got, want = rep.details["disturbance"].reshape(-1), ref["disturbance"]
    large = want >= 1e-4
    assert np.allclose(got[large], want[large], rtol=0, atol=1e-10)
    assert np.all(got[~large] <= 1e-7) and np.all(want[~large] <= 1e-7)


def full_layout_dim(ch, psi_a, psi_b, rates):
    """Dimension of all the receiver's registers: its channel outputs and
    side registers, and every copy of both senders' resources."""
    spec = get_scenario("mac_ea")
    omega = spec.build(ch, psi_a, psi_b, None, [0.1, 0.1])[0].state.layout
    return omega.dim * math.prod(
        omega.dim_of(res) ** (2 ** rate - 1)
        for res, rate in zip([psi_a.layout.labels[1], psi_b.layout.labels[1]],
                             rates))


def sequential_mac_2_1():
    psi_a, psi_b = mac_inputs()
    return simulate_mac_ea(noisy_xor_mac_channel(0.1), psi_a, psi_b,
                           rates=(2, 1), epsilons=(0.05, 0.1), delta=0.02,
                           strategy="sequential")


def test_sequential_bound_is_read_off_the_tests_errors():
    rep = sequential_mac_2_1()
    assert rep.details["seq_rhs"].shape == (4, 2)
    assert np.all(rep.details["seq_rhs"] == 1 - rep.hn_bound)


def test_sequential_bound_costs_no_placement_or_trace(monkeypatch):
    calls = {"place": 0, "local_trace": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(coding, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(coding, name, counted)
    sequential_mac_2_1()
    assert calls["place"] <= 64 and calls["local_trace"] <= 40, calls


def test_mac_decoders_place_nothing_on_the_full_layout(monkeypatch):
    placed = []

    def recorded(factors, target):
        out = place(factors, target)
        placed.append(len(out))
        return out

    monkeypatch.setattr(coding, "place", recorded)
    ch, eps, delta = noisy_xor_mac_channel(0.1), (0.05, 0.1), 0.02
    psi_a, psi_b = mac_inputs()
    full = full_layout_dim(ch, psi_a, psi_b, (2, 1))
    # The sequential decoder's pointer qubit doubles its full layout.
    for strategy, dim in (("sequential", 2 * full), ("pgm_a_first", full)):
        placed.clear()
        simulate_mac_ea(ch, psi_a, psi_b, rates=(2, 1), epsilons=eps,
                        delta=delta, strategy=strategy)
        assert placed and max(placed) < dim, strategy
    psi_a = classically_correlated("A", "UA")
    psi_b = classically_correlated("B", "UB")
    placed.clear()
    derandomize("mac", ch, psi_a, (1, 1), (0.1, 0.1), 0.3, psi_b=psi_b)
    assert placed and max(placed) < 2 * full_layout_dim(ch, psi_a, psi_b, (1, 1))


def test_sequential_pointer_is_checked_against_the_cap(monkeypatch):
    # MAC (1,1) needs 32 dimensions, and 64 with the sequential decoder's
    # pointer qubit.
    monkeypatch.setenv("ONESHOT_QCAP_DIM_CAP", "32")
    psi_a, psi_b = mac_inputs()
    args = (xor_mac_channel(), psi_a, psi_b, (1, 1), (0.05, 0.1), 0.02)
    with pytest.raises(DimensionCapError):
        simulate_mac_ea(*args, strategy="sequential")
    assert simulate_mac_ea(*args, strategy="pgm_a_first").bound_satisfied


def test_sequential_pointer_label_clashes_with_no_register():
    ch, eps, delta = noisy_xor_mac_channel(0.1), (0.05, 0.1), 0.02
    reference = simulate_mac_ea(ch, xor_side_state(), flagged_bell_state(),
                                (1, 1), eps, delta, strategy="sequential")
    psi_a = DensityOp(xor_side_state().matrix,
                      SystemLayout([("A", 2), ("J", 2), ("J#", 2)]))
    psi_b = DensityOp(flagged_bell_state().matrix,
                      SystemLayout([("B", 2), ("J##", 2), ("J###", 2)]))
    rep = simulate_mac_ea(ch, psi_a, psi_b, (1, 1), eps, delta,
                          strategy="sequential")
    assert rep.per_message_success == reference.per_message_success
    assert np.array_equal(rep.details["outcome_dist"],
                          reference.details["outcome_dist"])


# ---------------------------------------------------------------------------
# unassisted simulation


def test_p2p_ua_identity_with_shared_randomness(id2):
    corr = classically_correlated("A", "U")
    report = simulate_unassisted("p2p", id2, corr, 1, 0.1, delta=0.6)
    assert report.scenario == "p2p_ua"
    assert report.rate_feasible
    assert report.avg_error <= min(1.0, report.analytic_bound) + 1e-8
    assert report.reported_error == pytest.approx(report.avg_error, abs=1e-12)


def test_p2p_ua_rejects_nonclassical_register(id2, bell):
    with pytest.raises(ValueError):
        simulate_unassisted("p2p", id2, bell.permuted(["A", "B'"]), 1, 0.1,
                            delta=0.3)


def test_mac_ua_xor():
    psi_a = classically_correlated("A", "UA")
    psi_b = classically_correlated("B", "UB")
    report = simulate_unassisted("mac", xor_mac_channel(), psi_a, (1, 1),
                                 (0.1, 0.1), delta=0.05, psi_b=psi_b)
    assert report.scenario == "mac_ua"
    assert report.bound_satisfied


# ---------------------------------------------------------------------------
# derandomization


def test_derandomize_rate_one_is_perfect(id2):
    corr = classically_correlated("A", "U")
    code = derandomize("p2p", id2, corr, 1, 0.1, 0.6)
    assert code.strings == (0, 1)
    assert code.error == pytest.approx(0.0, abs=1e-12)
    assert code.randomized_error == pytest.approx(0.25, abs=1e-10)


def test_derandomize_beats_randomized_average(id2):
    corr = classically_correlated("A", "U")
    code = derandomize("p2p", id2, corr, 2, 0.1, 0.6)
    assert code.error <= code.randomized_error + 1e-12
    assert code.error == pytest.approx(0.5, abs=1e-10)
    assert code.randomized_error == pytest.approx(0.53125, abs=1e-10)


def test_derandomize_mac_picks_string_pairs():
    # Two noiseless qubit inputs side by side: the joint decoder of the
    # randomized protocol errs with probability 0.81724375 on average, a
    # fixed pair of strings with 0.268975.
    ch = KrausChannel([np.eye(4)], SystemLayout([("A", 2), ("B", 2)]),
                      SystemLayout([("CA", 2), ("CB", 2)]))
    psi_a = classically_correlated("A", "UA")
    psi_b = classically_correlated("B", "UB")
    code = derandomize("mac", ch, psi_a, (1, 1), (0.1, 0.1), 0.3, psi_b=psi_b)
    assert (code.strings, code.strings_b) == ((0, 1), (0, 1))
    assert code.error == pytest.approx(0.268975, abs=1e-10)
    assert code.randomized_error == pytest.approx(0.81724375, abs=1e-10)
    randomized = simulate_unassisted("mac", ch, psi_a, (1, 1), (0.1, 0.1), 0.3,
                                     psi_b=psi_b)
    assert code.randomized_error == pytest.approx(randomized.avg_error,
                                                  abs=1e-12)


def test_derandomize_rejects_broadcast():
    with pytest.raises(ValueError):
        derandomize("broadcast", copy_broadcast_channel(),
                    classically_correlated("A", "U"), (1, 1), (0.1, 0.1), 0.3)


def test_derandomize_checks_the_cap_before_decoding(monkeypatch, id2):
    solved = []
    monkeypatch.setattr(coding, "ENUMERATION_CAP", 3)
    monkeypatch.setattr(coding, "dh_eps",
                        lambda *args: solved.append(args) or dh_eps(*args))
    with pytest.raises(ValueError, match="exceed the enumeration cap"):
        derandomize("p2p", id2, classically_correlated("A", "U"), 2, 0.1, 0.6)
    assert not solved


# ---------------------------------------------------------------------------
# assembled n-copy operators


def test_simulator_builds_no_density_op_per_message(monkeypatch, bell):
    ch = depolarizing(0.1, 2, "A", "B")
    counts = []
    real = DensityOp.__init__

    def counted(self, *args, **kwargs):
        counts[-1] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(DensityOp, "__init__", counted)
    for rate in (1, 2):
        counts.append(0)
        simulate_p2p_ea(ch, bell, rate=rate, eps=0.1, delta=0.05)
    assert counts[0] == counts[1]


def noisy_xor_mac_channel(p):
    """The XOR multiple-access channel followed by a bit flip with
    probability p."""
    xor = xor_mac_channel()
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    kraus = ([math.sqrt(1 - p) * k for k in xor.kraus]
             + [math.sqrt(p) * flip @ k for k in xor.kraus])
    return KrausChannel(kraus, xor.in_layout, xor.out_layout)


# Recorded before the message states and position tests were assembled as
# plain arrays (each step of the assembly then built a validated state).
P2P_SUCCESS = [0.6798675049267736, 0.6798675049267734, 0.6798675049267732,
               0.6798675049267733]
P2P_DIST = [
    [0.6798675049267736, 0.10046083169107485, 0.10046083169107484,
     0.10046083169107492, 0.01874999999999983],
    [0.10046083169107482, 0.6798675049267734, 0.10046083169107486,
     0.10046083169107489, 0.01874999999999994],
    [0.10046083169107481, 0.10046083169107486, 0.6798675049267732,
     0.1004608316910749, 0.018749999999999982],
    [0.10046083169107492, 0.10046083169107488, 0.10046083169107492,
     0.6798675049267733, 0.01874999999999976],
]
MAC_SUCCESS = {
    "sequential": [0.00047636738519610716, 0.006635959179422609,
                   0.0006399999999999928, 3.999999999999939e-05],
    "pgm_a_first": [0.24930555555555525, 0.24930555555555525,
                    0.24930555555555522, 0.24930555555555522],
}
MAC_DIST = {
    "sequential": [
        [0.8343736728105113, 0.02312526543789755, 0.09250106175159056,
         0.004799999999999952, 3.999999999999939e-05, 0.00015999999999999814,
         0.005420204102886678, 0.007915959179422595, 0.0316638367176905],
        [0.8462928563989642, 0.018357592002516375, 0.08534955159851874,
         0.003999999999999962, 0.0003599999999999941, 0.0006399999999999928,
         0.007101020514433586, 0.007243632614803835, 0.030655346870762358],
        [0.8060585712797927, 0.028788285744041235, 0.11515314297616537,
         0.0031999999999999733, 0.00035999999999999417, 0.0014399999999999823,
         0.01182020410288663, 0.006635959179422609, 0.02654383671769054],
        [0.8462928563989642, 0.012694571696372694, 0.09101257190466244,
         0.003999999999999963, 3.999999999999939e-05, 0.0009599999999999877,
         0.0071010205144335856, 0.008523632614803822, 0.02937534687076237],
    ],
    "pgm_a_first": [
        [0.24930555555555525, 0.25069444444444416, 1.1102230246251565e-16,
         0.25069444444444416, 0.24930555555555528, 1.1102230246251565e-16,
         6.800116025829076e-17, 7.077671781985363e-17, 4.930380657631324e-32],
        [0.25069444444444416, 0.24930555555555525, 1.1102230246251565e-16,
         0.24930555555555528, 0.25069444444444416, 1.1102230246251565e-16,
         7.077671781985363e-17, 6.800116025829076e-17, 4.930380657631324e-32],
        [0.25069444444444416, 0.24930555555555525, 1.1102230246251565e-16,
         0.24930555555555522, 0.25069444444444416, 1.1102230246251565e-16,
         6.800116025829076e-17, 7.077671781985363e-17, 4.930380657631324e-32],
        [0.24930555555555525, 0.25069444444444416, 1.1102230246251565e-16,
         0.25069444444444416, 0.24930555555555522, 1.6653345369377348e-16,
         7.077671781985363e-17, 6.800116025829076e-17, 4.930380657631324e-32],
    ],
}


def test_simulator_values_are_unchanged():
    rep = simulate_p2p_ea(depolarizing(0.1, 2, "A", "B"), bell_density("A", "R"),
                          rate=2, eps=0.1, delta=0.05)
    assert rep.per_message_success == pytest.approx(P2P_SUCCESS, abs=1e-12)
    assert np.allclose(rep.details["outcome_dist"], P2P_DIST, rtol=0, atol=1e-12)
    for strategy in ("sequential", "pgm_a_first"):
        rep = simulate_mac_ea(noisy_xor_mac_channel(0.1), bell_density("A", "RA"),
                              classically_correlated("B", "RB"), rates=(1, 1),
                              epsilons=(0.05, 0.1), delta=0.02, strategy=strategy)
        assert rep.per_message_success == pytest.approx(MAC_SUCCESS[strategy],
                                                        abs=1e-12)
        assert np.allclose(rep.details["outcome_dist"], MAC_DIST[strategy],
                           rtol=0, atol=1e-12)


def test_derandomized_values_are_unchanged():
    code = derandomize("p2p", depolarizing(0.2, 2, "A", "B"),
                       classically_correlated("A", "U"), 2, 0.1, 0.6)
    assert (code.strings, code.strings_b) == ((0, 0, 0, 1), None)
    assert code.error == pytest.approx(0.5500000000000007, abs=1e-12)
    assert code.randomized_error == pytest.approx(0.5781250000000008, abs=1e-12)
    code = derandomize("mac", noisy_xor_mac_channel(0.1),
                       classically_correlated("A", "UA"), (1, 1), (0.1, 0.1),
                       0.3, psi_b=classically_correlated("B", "UB"))
    assert (code.strings, code.strings_b) == ((0, 1), (0, 1))
    assert code.error == pytest.approx(0.9768, abs=1e-12)
    assert code.randomized_error == pytest.approx(0.9966, abs=1e-12)


# ---------------------------------------------------------------------------
# accounting cross-checks


def test_dilation_statistics_match_direct_traces():
    test = HermOp(np.diag([0.8, 0.15, 0.55, 0.3]),
                  SystemLayout([("B", 2), ("R", 2)]))
    code = build_position_povm(test, copies=2, resource_label="R")
    state = sample("density", [2, 2, 2], 21, labels=list(code.layout.labels))
    probs = dilation_statistics(code, state)
    direct = [float(np.real(np.trace(el @ state.matrix)))
              for el in code.povm]
    assert np.allclose(probs[:-1], direct, atol=1e-8)
    assert probs[-1] == pytest.approx(1.0 - sum(direct), abs=1e-8)


def test_converse_floor_perfect_code():
    dist = np.eye(4)
    out = converse_floor(dist, 2.0, sigmas=3)
    assert out["holds"]
    assert out["floor"] >= 2.0 - 1e-7


def test_converse_floor_eigendecomposes_blocks_only(monkeypatch):
    # n = 8 messages, n_out = 15 outcomes: phi and I/n (x) sigma are 120-dim,
    # and each of their 8 blocks is 15-dim.
    dist = np.random.default_rng(3).dirichlet(np.ones(15), size=8)
    shapes = []

    def counted(real):
        def call(m):
            shapes.append(np.shape(m))
            return real(m)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(divergences.np.linalg, name,
                            counted(getattr(divergences.np.linalg, name)))
    out = converse_floor(dist, 3.0, correct_cols=list(range(0, 15, 2))[:8],
                         sigmas=2)
    assert shapes and max(shape[-1] for shape in shapes) <= 15
    assert len(out["values"]) == 2


def test_report_floors_p2p_and_mac(id2, bell):
    p2p = simulate_p2p_ea(id2, bell, rate=1, eps=0.1, delta=0.05)
    floors = report_floors(p2p, sigmas=3)
    assert len(floors) == 1 and floors[0]["holds"]

    psi_a, psi_b = mac_inputs()
    mac = simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, rates=(1, 1),
                          epsilons=(0.05, 0.1), delta=0.02,
                          strategy="sequential")
    floors = report_floors(mac, sigmas=3)
    assert len(floors) == 1 and floors[0]["holds"]


def test_report_floors_broadcast():
    psi = tensor(bell_density("A", "RB"),
                 maximally_mixed(SystemLayout([("RC", 2)])))
    report = simulate_broadcast_ea(copy_broadcast_channel(), psi,
                                   rates=(1, 1), epsilons=(0.1, 0.1),
                                   delta=0.05)
    floors = report_floors(report, sigmas=3)
    assert len(floors) == 2
    assert all(f["holds"] for f in floors)
