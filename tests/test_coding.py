import dataclasses
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oneshot_qcap import coding, divergences
from oneshot_qcap.bounds import achievable_rate, converse_value
from oneshot_qcap.channels import (
    KrausChannel,
    amplitude_damping,
    apply_on,
    binary_test_projector,
    depolarizing,
    identity_channel,
    neumark_dilate,
)
from oneshot_qcap.coding import (
    Receiver,
    build_position_povm,
    converse_floor,
    derandomize,
    get_scenario,
    hn_check,
    report_floors,
    seq_check,
    simulate_broadcast_ea,
    simulate_gp_ea,
    simulate_mac_ea,
    simulate_p2p_ea,
    simulate_unassisted,
    split_sender_state,
)
from oneshot_qcap.divergences import dh_eps
from oneshot_qcap.linalg import (
    DensityOp,
    DimensionCapError,
    HermOp,
    Ket,
    NumericalError,
    SystemLayout,
    dimension_cap,
    herm_apply,
    max_entangled_ket,
    maximally_mixed,
    partial_trace,
    place,
    psd_sqrt,
    purified_distance,
    sample,
    tensor,
    trace_with,
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
    *povm, completion = code.elements()
    total = np.sum(povm, axis=0) + completion
    assert np.allclose(total, np.eye(code.layout.dim), atol=1e-10)
    assert len(povm) == 4
    for el in povm:
        evals = np.linalg.eigvalsh(el)
        assert evals[0] >= -1e-10


def test_position_povm_decomposes_one_operator_at_its_dimension(eig_inputs):
    test = HermOp(np.diag([0.9, 0.1, 0.6, 0.2]),
                  SystemLayout([("B", 2), ("R", 2)]))
    code = build_position_povm(test, copies=4, resource_label="R")
    assert [m.shape[-1] for m in eig_inputs].count(code.layout.dim) == 1


def test_position_povm_checks_its_completion_once(monkeypatch):
    calls = []
    check = coding._check_completion
    monkeypatch.setattr(coding, "_check_completion",
                        lambda w, inv: calls.append(len(w)) or check(w, inv))
    test = HermOp(np.diag([0.9, 0.1, 0.6, 0.2]),
                  SystemLayout([("B", 2), ("R", 2)]))
    code = build_position_povm(test, copies=4, resource_label="R")
    assert len(code.elements()) == 5
    assert calls == [code.layout.dim]


def test_position_povm_rejects_a_completion_that_is_not_psd(monkeypatch):
    # A root 1% too large leaves I - root S root at -0.02 on S's support.
    pinv_sqrt = coding._pinv_sqrt
    monkeypatch.setattr(coding, "_pinv_sqrt", lambda w: 1.01 * pinv_sqrt(w))
    test = HermOp(np.diag([0.9, 0.1, 0.6, 0.2]),
                  SystemLayout([("B", 2), ("R", 2)]))
    with pytest.raises(NumericalError, match="fails PSD") as err:
        build_position_povm(test, copies=4, resource_label="R")
    assert not isinstance(err.value, ValueError)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), r=st.sampled_from([2, 3]),
       copies=st.integers(1, 4), spectrum=st.lists(st.floats(0, 1), min_size=6,
                                                   max_size=6))
def test_position_povm_is_complete_and_positive_for_every_test(seed, r, copies,
                                                                spectrum):
    # 0 <= T <= I on [B, R]: a random eigenbasis, and a spectrum in [0, 1]
    # that may touch both ends.
    u = sample("unitary", 2 * r, seed)
    t = (u * spectrum[:2 * r]) @ u.conj().T
    code = build_position_povm(HermOp((t + t.conj().T) / 2,
                                      SystemLayout([("B", 2), ("R", r)])),
                               copies, "R")
    elements = code.elements()
    assert len(elements) == copies + 1
    assert np.allclose(np.sum(elements, axis=0), np.eye(code.layout.dim),
                       rtol=0, atol=1e-10)
    for el in elements:
        assert np.linalg.eigvalsh(el)[0] >= -1e-10


def test_position_povm_rejects_invalid_test():
    bad = HermOp(np.diag([1.5, 0.0]), SystemLayout([("B", 2)]))
    with pytest.raises(ValueError):
        build_position_povm(bad, copies=2, resource_label="B")


def dense_position_dist(code, state, resource, marginal):
    """The outcome distribution (abort last) of a position code with every
    message decoded on its own: message m's state, ``state`` with
    ``resource`` on copy m and ``marginal`` on every other copy, is placed on
    all the copies and traced against every assembled element."""
    others = [l for l in state.layout.labels if l != resource]
    copies = [l for l in code.layout.labels if l not in others]
    elements = code.elements()
    dist = np.zeros((len(copies), len(copies) + 1))
    for m, copy in enumerate(copies):
        regs = [(copy if l == resource else l, d) for l, d in state.layout.registers]
        placed = place([(regs, state.matrix)]
                       + [([(c, marginal.layout.dim)], marginal.matrix)
                          for k, c in enumerate(copies) if k != m], code.layout)
        dist[m] = [max(trace_with(el, placed), 0.0) for el in elements]
    return dist


def dense_position_code(rec, rate):
    """:func:`dense_position_dist` of a receiver's position code at ``rate``,
    built on its optimal test."""
    test = HermOp(dh_eps(rec.joint, rec.alt, rec.eps).witness.operator,
                  rec.joint.layout)
    return dense_position_dist(build_position_povm(test, 2 ** rate, rec.resource),
                               rec.state, rec.resource, rec.marginal)


def resource_first(rec):
    """``rec`` with its resource register listed first."""
    order = [rec.resource] + [l for l in rec.joint.layout.labels if l != rec.resource]
    return dataclasses.replace(rec, joint=rec.joint.permuted(order),
                               alt=rec.alt.permuted(order),
                               state=rec.state.permuted(order))


def ea_receivers(name):
    """The receivers of one assisted instance, each tested at smoothing 0.15."""
    if name == "resource-first":
        return [resource_first(rec) for rec in ea_receivers("p2p-damping")]
    tau = maximally_mixed(SystemLayout([("S", 2)]))
    bell = bell_density("A", "R")
    # A qubit maximally entangled with two of a qutrit resource's levels:
    # the resource's marginal has rank 2.
    partial = Ket(np.array([1, 0, 0, 0, 1, 0]) / math.sqrt(2),
                  SystemLayout([("A", 2), ("R", 3)])).density()
    # A = (a_B, a_C) as one ququart, each half maximally entangled with its
    # receiver's resource.
    pairs = tensor(bell_density("a", "RB"), bell_density("c", "RC"))
    broadcast = DensityOp(pairs.permuted(["a", "c", "RB", "RC"]).matrix,
                          SystemLayout([("A", 4), ("RB", 2), ("RC", 2)]))
    scenario, ch, psi, tau = {
        "p2p-depolarizing": ("p2p_ea", depolarizing(0.1, 2, "A", "B"), bell, None),
        "p2p-damping": ("p2p_ea", amplitude_damping(0.3, "A", "B"), bell, None),
        "gp": ("gp_ea", gp_controlled_flip_channel(),
               tensor(bell, tau).permuted(["A", "S", "R"]), tau),
        "broadcast": ("broadcast_ea", two_output_broadcast(), broadcast, None),
        "qutrit": ("p2p_ea", depolarizing(0.1, 3, "A", "B"),
                   max_entangled_ket(3, "A", "R").density(), None),
        "rank-deficient": ("p2p_ea", depolarizing(0.1, 2, "A", "B"), partial, None),
    }[name]
    spec = get_scenario(scenario)
    return spec.build(ch, psi, None, tau, [0.15] * spec.streams)


@pytest.mark.parametrize("name,rate", [
    ("p2p-depolarizing", 0), ("p2p-depolarizing", 1), ("p2p-depolarizing", 2),
    ("p2p-depolarizing", 3), ("p2p-damping", 1), ("p2p-damping", 2),
    ("p2p-damping", 3), ("gp", 1), ("gp", 2), ("gp", 3), ("broadcast", 0),
    ("broadcast", 1), ("broadcast", 2), ("broadcast", 3), ("qutrit", 1),
    ("qutrit", 2), ("rank-deficient", 1), ("rank-deficient", 2),
    ("resource-first", 2),
])
def test_position_code_rows_match_the_dense_decoder(name, rate):
    for rec in ea_receivers(name):
        _, dist = coding._run_position_code(rec, rate)
        assert dist.shape == (2 ** rate, 2 ** rate + 1)
        assert np.allclose(dist, dense_position_code(rec, rate), rtol=0, atol=1e-12)


@pytest.mark.parametrize("rate", [1, 2])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_position_code_rows_are_message_zeros_swapped(rate, seed):
    # A random channel (an isometry A -> B (x) E split into two Kraus
    # operators) and a random pure resource state: each message's row of the
    # dense code is message 0's with outcomes 0 and m swapped.
    v = sample("unitary", 4, seed)[:, :2]
    ch = KrausChannel([v[:2], v[2:]], [("A", 2)], [("B", 2)])
    psi = sample("pure", [2, 2], seed + 1, labels=["A", "R"]).density()
    (rec,) = get_scenario("p2p_ea").build(ch, psi, None, None, [0.15])
    dist = dense_position_code(rec, rate)
    assert np.allclose(dist, dist[0][coding._swaps(2 ** rate)], rtol=0, atol=1e-10)


@pytest.mark.parametrize("copies,d", [(0, 2), (1, 3), (3, 2), (7, 2), (3, 3),
                                      (4, 3), (3, 4)])
def test_schur_weyl_blocks_fill_the_copies(copies, d):
    # Traces over (C^d)^{(x)N} are sums over the blocks weighted by their
    # multiplicities: Tr I = d^N, Tr rho^{(x)N} = 1, Tr Pi(rho) = N d^(N-1).
    rho = sample("density", d, seed=copies).matrix
    dims = power = copy_sum = 0.0
    for mult, gens, marg in coding._schur_weyl_blocks(copies, rho):
        dims += mult * len(marg)
        power += mult * np.trace(marg).real
        copy_sum += mult * np.einsum("ab,abxx->", rho, gens).real
        # pi_mu is a representation: [pi(E_01), pi(E_10)] = pi(E_00 - E_11).
        assert np.allclose(gens[0, 1] @ gens[1, 0] - gens[1, 0] @ gens[0, 1],
                           gens[0, 0] - gens[1, 1], rtol=0, atol=1e-12)
    assert dims == d ** copies
    assert power == pytest.approx(1.0, abs=1e-12)
    assert copy_sum == pytest.approx(copies * d ** (copies - 1), abs=1e-9)


def test_schur_weyl_block_of_the_wrong_dimension_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(coding, "_semistandard_tableaux", lambda mu, d: 99)
    with pytest.raises(NumericalError, match="spans") as err:
        list(coding._schur_weyl_blocks(3, np.eye(2) / 2))
    assert not isinstance(err.value, ValueError)


def test_p2p_decoder_decomposes_only_schur_weyl_blocks(eig_inputs):
    # The dense S at R = 3 has dim 512; its largest block, on B, the true
    # copy and the symmetric subspace of the seven wrong copies, has dim 32.
    simulate_p2p_ea(depolarizing(0.1, 2, "A", "B"), bell_density("A", "R"),
                    rate=3, eps=0.1, delta=0.05)
    assert eig_inputs and max(m.shape[-1] for m in eig_inputs) <= 32


def test_assisted_decoder_checks_the_cap_before_decoding(monkeypatch, bell):
    # At R = 4 the dense decoder's layout, B and 16 copies of the resource,
    # has 131072 dimensions.
    solved = []
    monkeypatch.setattr(coding, "dh_eps",
                        lambda *args: solved.append(args) or dh_eps(*args))
    with pytest.raises(DimensionCapError):
        simulate_p2p_ea(depolarizing(0.1, 2, "A", "B"), bell, rate=4, eps=0.1,
                        delta=0.05)
    assert not solved


def test_p2p_decoder_assembles_no_elements():
    # One 512-dim complex matrix takes 4 MiB; the block decoder's largest
    # matrix is 32-dim.
    ch, bell = depolarizing(0.1, 2, "A", "B"), bell_density("A", "R")
    tracemalloc.start()
    try:
        simulate_p2p_ea(ch, bell, rate=3, eps=0.1, delta=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("seed", range(4))
def test_hn_check_nonnegative(seed):
    s = sub_identity(4, seed)
    t = sample("density", 4, seed + 50).matrix * 0.5
    for c in (0.1, 1.0, 7.0):
        assert hn_check(s, t, c) >= -1e-9


def test_hn_check_rejects_bad_constant():
    with pytest.raises(ValueError):
        hn_check(np.eye(2) * 0.5, np.eye(2) * 0.1, 0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0])
def test_a_hn_constant_outside_zero_to_infinity_is_an_input_error(id2, bell, c):
    # A NaN c makes NaN bounds, and min(1, NaN) is 1: they would read as holding.
    psi = tensor(bell_density("A", "RB"), maximally_mixed(SystemLayout([("RC", 2)])))
    for call in (lambda: hn_check(np.eye(2) * 0.5, np.eye(2) * 0.1, c),
                 lambda: simulate_p2p_ea(id2, bell, 1, 0.1, 0.05, c=c),
                 lambda: simulate_broadcast_ea(copy_broadcast_channel(), psi, (1, 1),
                                               (0.1, 0.1), 0.05, c=(0.5, c))):
        with pytest.raises(ValueError, match=f"^c must be positive and finite, got {c}$"):
            call()


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


def test_an_unbounded_divergence_reads_as_infinity():
    # dh_eps gives D_H = +inf when the type-II error vanishes: the bound's
    # 2^(R - D_H) term is then 0 and every rate is feasible.
    bound = coding._p2p_ea_bound((0.1,), 0.05, c=(0.5,), rates=(3,), dhs=(math.inf,))
    assert bound == ((1 + 0.5) * (0.1 + 0.05),)
    assert coding._rate_feasible(50, math.inf, 7.0) is True


# ---------------------------------------------------------------------------
# point-to-point entanglement-assisted simulation


def test_p2p_ea_noiseless_qubit_exact_value(id2, bell):
    report = simulate_p2p_ea(id2, bell, rate=1, eps=0.1, delta=0.05)
    assert report.worst_error == pytest.approx(1.0 - PGM_BELL_SUCCESS,
                                               abs=1e-10)
    assert report.bound_satisfied
    (receiver,) = report.details["receivers"]
    assert np.allclose(receiver["outcome_dist"].sum(axis=1), 1.0, atol=1e-10)


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


@pytest.mark.parametrize("eps,delta,name", [
    (-0.01, 0.05, "eps"), (1.0, 0.05, "eps"), (0.97, 0.05, "the smoothing"),
    (0.1, 2.0, "the smoothing"),
])
def test_error_budgets_and_smoothings_out_of_range_are_rejected_by_name(
        id2, bell, eps, delta, name):
    # The p2p_ea test is at eps + delta: at eps -0.01 and delta 0.05 it is
    # in range, and only the error budget is out.
    message = (f"{name} must lie in [0, 1), got eps {eps}, delta {delta}, "
               f"smoothing {eps + delta}")
    for call in (lambda: simulate_p2p_ea(id2, bell, 1, eps, delta),
                 lambda: achievable_rate("p2p_ea", id2, bell, eps, delta)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


# ---------------------------------------------------------------------------
# channel-with-state simulation


def test_gp_ea_discard_matches_p2p(id2, bell, tau_s, gp_input):
    # Discarding the channel state reduces to a noiseless point-to-point
    # qubit; both decoders then smooth at the same level.
    gp = simulate_gp_ea(gp_discard_channel(), tau_s, gp_input, rate=1,
                        eps=0.15, delta=0.05)
    p2p = simulate_p2p_ea(id2, bell, rate=1, eps=0.1, delta=0.05)
    assert np.allclose(gp.details["receivers"][0]["outcome_dist"],
                       p2p.details["receivers"][0]["outcome_dist"], atol=1e-10)
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
    worst_b, worst_c = (rec["error"] for rec in report.details["receivers"])
    # Charlie's resource carries no information, so he cannot beat guessing.
    assert worst_c >= 0.5 - 1e-9
    assert worst_b <= worst_c
    assert report.worst_error == pytest.approx(max(worst_b, worst_c), abs=1e-12)


def test_broadcast_ea_reads_one_c_per_receiver():
    psi = tensor(bell_density("A", "RB"),
                 maximally_mixed(SystemLayout([("RC", 2)])))
    args = (copy_broadcast_channel(), psi, (1, 1), (0.1, 0.1), 0.05)
    one = simulate_broadcast_ea(*args, c=0.5)
    single = simulate_broadcast_ea(*args, c=(0.5,))
    assert single.hn_bound == one.hn_bound == pytest.approx(8.25, abs=1e-9)
    assert single.analytic_bound == one.analytic_bound
    assert single.bound_satisfied == one.bound_satisfied
    for a, b in zip(single.details["receivers"], one.details["receivers"],
                    strict=True):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[key], b[key]) for key in a)
    with pytest.raises(ValueError, match="of c"):
        simulate_broadcast_ea(*args, c=(0.5, 0.5, 0.5))


def test_broadcast_ea_rejects_correlated_resources():
    mat = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        mat[i * 3 + i * 2 + i, i * 3 + i * 2 + i] = 0.5  # |iii><iii| diagonal
    mat = np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex)
    psi = DensityOp(mat, SystemLayout([("A", 2), ("RB", 2), ("RC", 2)]))
    with pytest.raises(ValueError):
        simulate_broadcast_ea(copy_broadcast_channel(), psi, rates=(1, 1),
                              epsilons=(0.1, 0.1), delta=0.05)


def random_isometric_broadcast(seed):
    """A -> (B, C) by a random isometry from a qubit pair A = (a_B, a_C) to
    a qubit B and a qutrit C, and its two point-to-point marginals Tr_C o N
    and Tr_B o N."""
    v = sample("unitary", 6, seed)[:, :4].reshape(2, 3, 4)
    a = SystemLayout([("A", 4)])
    return (KrausChannel([v.reshape(6, 4)], a, SystemLayout([("B", 2), ("C", 3)])),
            KrausChannel(list(v.transpose(1, 0, 2)), a, SystemLayout([("B", 2)])),
            KrausChannel(list(v), a, SystemLayout([("C", 3)])))


def independent_letters(seed):
    """[A, U, V]: A = 2U + V for independent random bits U and V."""
    p, q = np.random.default_rng(seed).dirichlet([1.0, 1.0], size=2)
    mat = np.zeros((16, 16))
    for u, v in itertools.product(range(2), repeat=2):
        i = 4 * (2 * u + v) + 2 * u + v
        mat[i, i] = p[u] * q[v]
    return DensityOp(mat, SystemLayout([("A", 4), ("U", 2), ("V", 2)]))


def same_receiver(broadcast, i, p2p):
    """Receiver i of a broadcast report and the one receiver of a
    point-to-point report agree in D_H value, error and outcomes."""
    got, (want,) = broadcast.details["receivers"][i], p2p.details["receivers"]
    assert broadcast.dh_values[i] == pytest.approx(p2p.dh_values[0], rel=0, abs=1e-12)
    for key in ("type1", "type2", "error"):
        assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12), key
    assert np.allclose(got["outcome_dist"], want["outcome_dist"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("rate", [1, 2])
def test_broadcast_receivers_are_point_to_point_codes(rate):
    # Each receiver decodes its own resource from its own output, so it is
    # the point-to-point code over the channel to that output.  The assisted
    # point-to-point test smooths at eps + delta, the broadcast one at eps.
    eps, delta = 0.1875, 0.0625
    pairs = tensor(bell_density("a", "RB"), bell_density("c", "RC"))
    bell_pairs = DensityOp(pairs.permuted(["a", "c", "RB", "RC"]).matrix,
                           SystemLayout([("A", 4), ("RB", 2), ("RC", 2)]))
    for seed in range(20):
        ch, to_b, to_c = random_isometric_broadcast(seed)
        rep = simulate_broadcast_ea(ch, bell_pairs, (rate, rate), (eps, eps), delta)
        for i, (to, res) in enumerate(((to_b, "RB"), (to_c, "RC"))):
            same_receiver(rep, i, simulate_p2p_ea(
                to, partial_trace(bell_pairs, ["A", res]), rate, eps - delta, delta))
        letters = independent_letters(seed)
        rep = simulate_unassisted("broadcast", ch, letters, (rate, rate), (eps, eps),
                                  delta)
        for i, (to, res) in enumerate(((to_b, "U"), (to_c, "V"))):
            same_receiver(rep, i, simulate_unassisted(
                "p2p", to, partial_trace(letters, ["A", res]), rate, eps, delta))


# ---------------------------------------------------------------------------
# the receivers of point-to-point, channel-with-state and broadcast


def reference_position_receivers(ch, psi, eps):
    """The receiver of a point-to-point or channel-with-state input, as one
    builder of its own made it: the channel applied to psi and to psi's
    input marginal, the resource the one register past the inputs."""
    ins = list(ch.in_layout.labels)
    (res,) = [l for l in psi.layout.labels if l not in ins]
    joint = apply_on(ch, psi, ins)
    alt = tensor(apply_on(ch, partial_trace(psi, ins), ins), partial_trace(psi, [res]))
    return [Receiver(joint, alt, res, partial_trace(joint, [res]), eps[0], joint)]


def reference_broadcast_receivers(ch, psi, eps):
    """The broadcast receivers, as a loop of their own made them: Bob's
    joint on the first output and the first resource, Charlie's on the
    second of each, read off one channel application to psi."""
    (a_label,) = ch.in_layout.labels
    res = [l for l in psi.layout.labels if l != a_label]
    full = apply_on(ch, psi, [a_label])
    out_marg = apply_on(ch, partial_trace(psi, [a_label]), [a_label])
    receivers = []
    for out, r, e in zip(ch.out_layout.labels, res, eps):
        joint = partial_trace(full, [out, r])
        alt = tensor(partial_trace(out_marg, [out]), partial_trace(psi, [r]))
        receivers.append(Receiver(joint, alt, r, partial_trace(joint, [r]), e, joint))
    return receivers


def builder_case(name):
    """(scenario, channel, state, tau) of one instance of the receivers'
    builder, its registers in and out of role order."""
    tau = maximally_mixed(SystemLayout([("S", 2)]))
    bell = bell_density("A", "R")
    pairs = tensor(bell_density("a", "RB"), bell_density("c", "RC"))
    broadcast = DensityOp(pairs.permuted(["a", "c", "RB", "RC"]).matrix,
                          SystemLayout([("A", 4), ("RB", 2), ("RC", 2)]))
    _, ch_qutrit, psi_qutrit, _ = ua_case("p2p-qutrit")
    return {
        "p2p-resource-last": ("p2p_ea", depolarizing(0.1, 2, "A", "B"), bell, None),
        "p2p-resource-first": ("p2p_ea", depolarizing(0.1, 2, "A", "B"),
                               bell.permuted(["R", "A"]), None),
        "p2p-two-outputs": ("p2p_ea", two_output_broadcast(),
                            max_entangled_ket(4, "A", "R").density(), None),
        "p2p-ua-qutrit": ("p2p_ua", ch_qutrit, psi_qutrit, None),
        "gp-state-first": ("gp_ea", gp_controlled_flip_channel(),
                           tensor(bell, tau).permuted(["S", "A", "R"]), tau),
        "broadcast": ("broadcast_ea", two_output_broadcast(), broadcast, None),
        "broadcast-resources-swapped": ("broadcast_ea", two_output_broadcast(),
                                        broadcast.permuted(["RC", "A", "RB"]), None),
    }[name]


@pytest.mark.parametrize("name", ["p2p-resource-last", "p2p-resource-first",
                                  "p2p-two-outputs", "p2p-ua-qutrit", "gp-state-first",
                                  "broadcast", "broadcast-resources-swapped"])
def test_one_builder_makes_the_receivers_each_scenario_made_alone(name):
    scenario, ch, psi, tau = builder_case(name)
    spec = get_scenario(scenario)
    eps = [0.15] * spec.streams
    reference = (reference_broadcast_receivers if scenario.startswith("broadcast")
                 else reference_position_receivers)
    got, want = spec.build(ch, psi, None, tau, eps), reference(ch, psi, eps)
    assert [rec.resource for rec in got] == [rec.resource for rec in want]
    for rec, ref in zip(got, want):
        assert rec.eps == ref.eps and rec.classical == (not spec.assisted)
        for key in ("joint", "alt", "marginal", "state"):
            op, ref_op = getattr(rec, key), getattr(ref, key)
            assert op.layout == ref_op.layout, (key, op.layout, ref_op.layout)
            assert np.array_equal(op.matrix, ref_op.matrix), key


def test_a_trace_over_no_register_keeps_the_witness():
    # The joint has a roundoff-negative eigenvalue that building a DensityOp
    # clips; rebuilding the joint and alternative from their matrices moves
    # them by ~4e-16 and the D_H witness, in a degenerate eigenspace, by 0.5.
    _, ch, psi, _ = ua_case("p2p-qutrit")
    (rec,) = get_scenario("p2p_ua").build(ch, psi, None, None, [0.1])
    labels = rec.joint.layout.labels
    joint, alt = partial_trace(rec.joint, labels), partial_trace(rec.alt, labels[::-1])
    assert joint is rec.joint and alt is rec.alt
    before, after = dh_eps(rec.joint, rec.alt, rec.eps), dh_eps(joint, alt, rec.eps)
    assert np.array_equal(after.witness.operator, before.witness.operator)
    assert after.value == before.value


@pytest.mark.parametrize("scenario,ch,psi,message", [
    ("p2p_ea", "p2p", sample("density", [2, 2, 2], 5, labels=["A", "R", "X"]),
     "[A] and 1 resource register(s), got ['A', 'R', 'X']"),
    ("p2p_ua", "p2p", sample("density", [2], 5, labels=["A"]),
     "[A] and 1 resource register(s), got ['A']"),
    ("gp_ea", "gp", sample("density", [2, 2], 5, labels=["A", "S"]),
     "[A, S] and 1 resource register(s), got ['A', 'S']"),
    ("broadcast_ea", "broadcast", sample("density", [2, 2], 5, labels=["A", "RB"]),
     "[A] and 2 resource register(s), got ['A', 'RB']"),
    ("broadcast_ua", "broadcast", sample("density", [2, 2, 2], 5, labels=["X", "U", "V"]),
     "[A] and 2 resource register(s), got ['X', 'U', 'V']"),
])
def test_a_state_without_one_resource_per_receiver_is_rejected(scenario, ch, psi,
                                                               message):
    ch = {"p2p": depolarizing(0.1, 2, "A", "B"), "gp": gp_discard_channel(),
          "broadcast": copy_broadcast_channel()}[ch]
    spec = get_scenario(scenario)
    with pytest.raises(ValueError, match=f"^{re.escape('state must live on ' + message)}$"):
        spec.build(ch, psi, None, None, [0.1] * spec.streams)


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


@pytest.mark.parametrize("psi,message", [
    (bell_density("R", "A"), "sender state must lead with channel input 'A'"),
    (sample("density", [2, 2, 2, 2], 3, labels=["A", "R", "X", "Y"]),
     "sender state needs registers [input, resource(, side)]"),
])
def test_split_sender_state_rejects_misshapen_states(psi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        split_sender_state(psi, "A")


def test_the_sum_rate_converse_rejects_an_impure_sender_state():
    with pytest.raises(ValueError, match="^this converse variant needs pure sender states$"):
        converse_value("mac_ea_hdw", xor_mac_channel(), classically_correlated("A", "RA"),
                       (0.1, 0.1), psi_b=bell_density("B", "RB"))


def test_mac_ea_unknown_strategy():
    psi_a, psi_b = mac_inputs()
    with pytest.raises(ValueError):
        simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, rates=(1, 1),
                        epsilons=(0.05, 0.1), delta=0.02, strategy="joint")


@pytest.mark.parametrize("c", [0.3, -1.0, (0.3, None)])
def test_the_sequential_decoder_takes_no_c(c):
    psi_a, psi_b = mac_inputs()
    with pytest.raises(ValueError, match="sequential decoder takes no c"):
        simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, (1, 1), (0.05, 0.1), 0.02,
                        c=c)
    with pytest.raises(ValueError, match="sequential decoder takes no c"):
        simulate_unassisted("mac", xor_mac_channel(),
                            classically_correlated("A", "UA"), (1, 1), (0.1, 0.1),
                            0.05, psi_b=classically_correlated("B", "UB"), c=c)


@pytest.mark.parametrize("strategy", ["pgm_a_first", "pgm_b_first"])
def test_the_square_root_decoders_read_c(strategy):
    psi_a, psi_b = mac_inputs()
    hn = [simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, (1, 1), (0.05, 0.1), 0.02,
                          strategy=strategy, c=c).hn_bound for c in (None, 0.3)]
    assert hn[1] != pytest.approx(hn[0], abs=1e-6)
    with pytest.raises(ValueError, match="c must be positive"):
        simulate_mac_ea(xor_mac_channel(), psi_a, psi_b, (1, 1), (0.05, 0.1), 0.02,
                        strategy=strategy, c=-1.0)


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
    ((1, 2), mac_inputs),
], ids=["1,1-side-registers", "2,1", "1,2"])
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
    ((1, 2), mac_inputs),
], ids=["1,1-side-registers", "2,1", "1,2"])
def test_staged_pgm_decoder_matches_the_dense_decoder(rates, senders, strategy):
    psi_a, psi_b = senders()
    ch, eps, delta = noisy_xor_mac_channel(0.1), (0.05, 0.1), 0.02
    ref = dense_pgm_reference(ch, psi_a, psi_b, rates, eps, delta,
                              strategy == "pgm_a_first")
    rep = simulate_mac_ea(ch, psi_a, psi_b, rates=rates, epsilons=eps,
                          delta=delta, strategy=strategy)
    assert np.allclose(rep.per_message_success, ref["success"], rtol=0, atol=1e-12)
    assert np.allclose(rep.details["outcome_dist"], ref["dist"], rtol=0, atol=1e-12)
    # Each stage figure is one number, every message's.
    for key in ("stage1_err", "stage2_err"):
        assert np.allclose(rep.details[key], ref[key], rtol=0, atol=1e-12)
    # sqrt(1 - F^2) near F = 1 turns roundoff in F into disturbances of order
    # 1e-8, so a disturbance that is zero in exact arithmetic is only bounded.
    want = ref["disturbance"]
    got = np.broadcast_to(rep.details["disturbance"], want.shape)
    large = want >= 1e-4
    assert np.allclose(got[large], want[large], rtol=0, atol=1e-10)
    assert np.all(got[~large] <= 1e-7) and np.all(want[~large] <= 1e-7)


def test_pgm_decoder_assembles_one_message_state(monkeypatch):
    # Every message's row is message (0, 0)'s with outcomes swapped, and the
    # second stage is read off Schur-Weyl blocks: one placement of the
    # receiver's state and one dense position code, the first stage's.
    ch, (psi_a, psi_b), eps = noisy_xor_mac_channel(0.1), mac_inputs(), (0.05, 0.1)
    omega = get_scenario("mac_ea").build(ch, psi_a, psi_b, None, eps)[0].state.matrix
    calls = {"place": 0, "build_position_povm": 0}
    place_, povm = coding.place, coding.build_position_povm

    def counted_place(factors, target):
        calls["place"] += any(np.array_equal(m, omega) for _, m in factors)
        return place_(factors, target)

    def counted_povm(*args):
        calls["build_position_povm"] += 1
        return povm(*args)
    monkeypatch.setattr(coding, "place", counted_place)
    monkeypatch.setattr(coding, "build_position_povm", counted_povm)
    simulate_mac_ea(ch, psi_a, psi_b, rates=(2, 1), epsilons=eps, delta=0.02,
                    strategy="pgm_a_first")
    assert calls == {"place": 1, "build_position_povm": 1}


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
    assert rep.details["seq_rhs"] == 1 - rep.hn_bound


def test_sequential_bound_costs_no_placement_or_trace(monkeypatch):
    calls = {"place": 0, "local_trace": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(coding, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(coding, name, counted)
    sequential_mac_2_1()
    assert calls["place"] <= 64 and calls["local_trace"] <= 40, calls


def test_sequential_decoder_holds_one_wrong_copy(monkeypatch):
    # The working matrices hold the output, the side registers, the true
    # copies not yet tested, the pointer qubit and at most one wrong copy:
    # 2 * 2 * 2 * 2 * 2 = 32 rows for the XOR MAC, at any rates.
    ch, eps, delta = noisy_xor_mac_channel(0.1), (0.05, 0.1), 0.02
    psi_a, psi_b = mac_inputs()
    spec = get_scenario("mac_ea")
    omega = spec.build(ch, psi_a, psi_b, None, [0.1, 0.1])[0].state.layout
    bound = omega.dim * 2 * omega.dim_of("RA")
    real = coding.local_product

    def bounded(factor, target, mat):
        if len(mat) > bound:
            raise AssertionError(f"{len(mat)} rows > {bound}")
        return real(factor, target, mat)

    monkeypatch.setattr(coding, "local_product", bounded)
    for rates in ((2, 1), (3, 1)):
        rep = simulate_mac_ea(ch, psi_a, psi_b, rates=rates, epsilons=eps,
                              delta=delta, strategy="sequential")
    assert bound == 32
    assert np.allclose(rep.details["outcome_dist"].sum(axis=1), 1.0, rtol=0,
                       atol=1e-12)


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
# the verdict: rate_feasible and bound_satisfied


def noiseless_instance(name):
    """(channel, state, second sender's state, tau) of scenario ``name`` on
    noiseless channels: each resource is half a Bell pair with its sender's
    input, or for an unassisted scenario a classical copy of it."""
    pair = classically_correlated if name.endswith("_ua") else bell_density
    r = "U" if name.endswith("_ua") else "R"
    if name.startswith("p2p"):
        return identity_channel(2, "A", "B"), pair("A", r), None, None
    if name.startswith("gp"):
        tau = maximally_mixed(SystemLayout([("S", 2)]))
        return (gp_discard_channel(), tensor(pair("A", r), tau).permuted(["A", "S", r]),
                None, tau)
    if name.startswith("broadcast"):
        return (copy_broadcast_channel(),
                tensor(pair("A", r + "B"), maximally_mixed(SystemLayout([(r + "C", 2)]))),
                None, None)
    return xor_mac_channel(), pair("A", r + "A"), pair("B", r + "B"), None


def verdict_report(name, strategy):
    """The report of ``name`` at R = 1, eps 0.05 and delta 0.45 on its
    :func:`noiseless_instance`."""
    ch, psi, psi_b, tau = noiseless_instance(name)
    return coding._simulate(name, ch, psi, 1, 0.05, 0.45, psi_b=psi_b, tau=tau,
                            strategy=strategy)


VERDICT_CASES = [(name, strategy) for name, spec in coding.SCENARIOS.items()
                 for strategy in spec.strategies or ("sequential",)]


@pytest.mark.parametrize("name,strategy", VERDICT_CASES)
def test_a_negative_slack_fails_every_bound_and_no_rate(monkeypatch, name, strategy):
    # Errors are non-negative and the bounds are capped at 1, so a slack of
    # -2 puts every error past its bound; feasibility does not read it.
    before = verdict_report(name, strategy)
    assert before.bound_satisfied
    assert before.rate_feasible == name.startswith(("p2p", "gp"))
    monkeypatch.setattr(coding, "BOUND_SLACK", -2.0)
    after = verdict_report(name, strategy)
    assert after.bound_satisfied is False
    assert after.rate_feasible == before.rate_feasible


@pytest.mark.parametrize("feasible", [False, True])
@pytest.mark.parametrize("name,strategy", VERDICT_CASES)
def test_the_analytic_bound_counts_only_at_a_feasible_rate(monkeypatch, name,
                                                          strategy, feasible):
    # Analytic bounds of 0 fail every nonzero error, but only when the rate
    # is feasible; the premise-free bounds hold either way.
    spec = coding.SCENARIOS[name]
    monkeypatch.setitem(coding.SCENARIOS, name, dataclasses.replace(
        spec, bound=lambda eps, delta, **_: (0.0,) * len(eps)))
    monkeypatch.setattr(coding, "_rate_feasible", lambda *_: feasible)
    rep = verdict_report(name, strategy)
    assert rep.rate_feasible is feasible
    assert rep.analytic_bound == 0.0
    assert rep.reported_error > 0.05
    assert rep.bound_satisfied is not feasible


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


def quantum_resource(name, resource):
    """(channel, state, second sender's state, tau) of scenario ``name``,
    with ``resource`` half a Bell pair with the channel input and every
    other constraint met: the other resources are classical, and each
    register the resource must be independent of is maximally mixed."""
    def mixed(label):
        return maximally_mixed(SystemLayout([(label, 2)]))
    if name == "p2p":
        return depolarizing(0.1, 2, "A", "B"), bell_density("A", resource), None, None
    if name == "gp":
        return (gp_controlled_flip_channel(),
                tensor(bell_density("A", resource), mixed("S")), None, mixed("S"))
    if name == "broadcast":
        other = "V" if resource == "U" else "U"
        return (copy_broadcast_channel(), tensor(bell_density("A", resource), mixed(other))
                .permuted(["A", "U", "V"]), None, None)
    psi_a, psi_b = classically_correlated("A", "UA"), classically_correlated("B", "UB")
    if resource == "UA":
        return xor_mac_channel(), bell_density("A", "UA"), psi_b, None
    return xor_mac_channel(), psi_a, bell_density("B", "UB"), None


def through(entry, scenario, ch, psi, psi_b, tau):
    """``entry`` (simulate, converse or achievable) of ``scenario`` on the
    inputs, at R = 1, eps 0.1 and delta 0.3 for each stream."""
    if entry == "converse":
        return converse_value(scenario, ch, psi, 0.1, psi_b=psi_b, tau=tau)
    if entry == "achievable":
        return achievable_rate(scenario, ch, psi, 0.1, 0.3, psi_b=psi_b, tau=tau)
    if scenario.endswith("_ua"):
        return simulate_unassisted(scenario[:-3], ch, psi, 1, 0.1, 0.3,
                                   psi_b=psi_b, tau=tau)
    return coding._simulate(scenario, ch, psi, 1, 0.1, 0.3, psi_b=psi_b, tau=tau)


ENTRIES = ("simulate", "converse", "achievable")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name,resource", [
    ("p2p", "U"), ("gp", "U"), ("broadcast", "U"), ("broadcast", "V"),
    ("mac", "UA"), ("mac", "UB"),
])
def test_unassisted_scenarios_require_classical_resources(name, resource, entry):
    # The assisted twin takes the same input: a classical resource is all
    # that sets the unassisted scenario apart.
    inputs = quantum_resource(name, resource)
    with pytest.raises(ValueError, match=re.escape(f"register {resource!r} is not classical")):
        through(entry, f"{name}_ua", *inputs)
    through(entry, f"{name}_ea", *inputs)


@pytest.mark.parametrize("entry", ENTRIES)
def test_broadcast_ua_reports_a_quantum_resource_before_a_correlated_one(entry):
    # U and V are a Bell pair: U is not classical, and U and V are not
    # independent.  The assisted twin rejects the second.
    inputs = (copy_broadcast_channel(), tensor(maximally_mixed(SystemLayout([("A", 2)])),
                                               bell_density("U", "V")), None, None)
    with pytest.raises(ValueError, match="register 'U' is not classical"):
        through(entry, "broadcast_ua", *inputs)
    with pytest.raises(ValueError, match="does not factorize"):
        through(entry, "broadcast_ea", *inputs)


def skewed_correlated(label_a, label_u, probs):
    """[A, U] with A a copy of U, and U distributed by ``probs``."""
    d = len(probs)
    mat = np.zeros((d * d, d * d))
    for u, p in enumerate(probs):
        mat[u * d + u, u * d + u] = p
    return DensityOp(mat, SystemLayout([(label_a, d), (label_u, d)]))


def test_classical_blocks_are_a_stack_in_layout_order():
    # [U, A, X] with A a copy of U and an independent mixed qubit X.
    x = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
    psi = tensor(skewed_correlated("A", "U", (0.6, 0.4)),
                 DensityOp(x, SystemLayout([("X", 2)]))).permuted(["U", "A", "X"])
    probs, blocks = coding.classical_blocks(psi, "U")
    assert np.allclose(probs, [0.6, 0.4], rtol=0, atol=1e-15)
    assert blocks.shape == (2, 4, 4)
    for u, p in enumerate((0.6, 0.4)):
        assert np.allclose(blocks[u], p * np.kron(np.diag(np.eye(2)[u]), x),
                           rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match=r"block \(0,1\) has weight 5\.000e-01"):
        coding.classical_blocks(bell_density("A", "U"), "U")


def two_output_broadcast():
    """A = (a_B, a_C) as one ququart; Bob gets a_B and Charlie a_C, each
    through a depolarizing channel."""
    k_b = depolarizing(0.1, 2, "X", "Y").kraus
    k_c = depolarizing(0.2, 2, "X", "Y").kraus
    return KrausChannel([np.kron(a, b) for a in k_b for b in k_c],
                        SystemLayout([("A", 4)]), SystemLayout([("B", 2), ("C", 2)]))


def broadcast_ua_state():
    """[A, U, V]: A = 2U + V for independent U, V with P(U=1) = 0.4 and
    P(V=1) = 0.3."""
    mat = np.zeros((16, 16))
    for u, v in itertools.product(range(2), repeat=2):
        i = 4 * (2 * u + v) + 2 * u + v
        mat[i, i] = (0.6, 0.4)[u] * (0.7, 0.3)[v]
    return DensityOp(mat, SystemLayout([("A", 4), ("U", 2), ("V", 2)]))


def ua_case(name):
    """(scenario, channel, state, tau) of one unassisted instance."""
    tau = maximally_mixed(SystemLayout([("S", 2)]))
    return {
        "p2p": ("p2p", depolarizing(0.1, 2, "A", "B"),
                skewed_correlated("A", "U", (0.6, 0.4)), None),
        "p2p-qutrit": ("p2p", depolarizing(0.2, 3, "A", "B"),
                       skewed_correlated("A", "U", (0.5, 0.5, 0.0)), None),
        "p2p-correlated": ("p2p", depolarizing(0.1, 2, "A", "B"),
                           classically_correlated("A", "U"), None),
        "gp": ("gp", gp_controlled_flip_channel(),
               tensor(skewed_correlated("A", "U", (0.6, 0.4)), tau)
               .permuted(["A", "S", "U"]), tau),
        "broadcast": ("broadcast", two_output_broadcast(), broadcast_ua_state(),
                      None),
    }[name]


@pytest.mark.parametrize("name,rates", [
    ("p2p", 1), ("p2p", 2), ("p2p", 3), ("gp", 1), ("gp", 2), ("gp", 3), ("broadcast", (1, 1)), ("broadcast", (2, 2)),
])
def test_string_decoder_matches_the_dense_decoder(name, rates):
    scenario, ch, psi, tau = ua_case(name)
    rep = simulate_unassisted(scenario, ch, psi, rates, 0.1, 0.3, tau=tau)
    spec = get_scenario(f"{scenario}_ua")
    rates = spec.rates(rates)
    receivers = spec.build(ch, psi, None, tau, [0.1] * spec.streams)
    dists = [dense_position_code(r, rate) for r, rate in zip(receivers, rates)]
    for got, want in zip(rep.details["receivers"], dists, strict=True):
        assert np.allclose(got["outcome_dist"], want, rtol=0, atol=1e-12)
    successes = [math.prod(s) for s in itertools.product(*map(np.diagonal, dists))]
    assert np.allclose(rep.per_message_success, successes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rate", [1, 2])
def test_string_decoder_decodes_with_the_witness_diagonal_blocks(rate):
    # Letters 0 and 1 are equiprobable and letter 2 never occurs.  The
    # eigenspace of rho - t sigma that the D_H witness splits spans letters
    # 0 and 1, so the witness has weight off the letters' diagonal, where the
    # dense decoder of all the copies would read it.
    _, ch, psi, _ = ua_case("p2p-qutrit")
    (rec,) = get_scenario("p2p_ua").build(ch, psi, None, None, [0.1])
    order = ["U", "B"]
    view = HermOp(dh_eps(rec.joint, rec.alt, rec.eps).witness.operator,
                  rec.joint.layout).permuted(order).matrix.reshape(3, 3, 3, 3)
    pinched = np.zeros_like(view)
    for u in range(3):
        pinched[u, :, u, :] = view[u, :, u, :]
    assert np.max(np.abs(view - pinched)) > 0.1
    # Against the block-diagonal rho and sigma the diagonal blocks have the
    # witness's type-I and type-II errors ...
    layout = SystemLayout([("U", 3), ("B", 3)])
    test = HermOp(pinched.reshape(9, 9), layout)
    for st in (rec.joint, rec.alt):
        mat = st.permuted(order).matrix
        assert np.trace(test.matrix @ mat).real == pytest.approx(
            np.trace(view.reshape(9, 9) @ mat).real, abs=1e-12)
    # ... and the unassisted decoder is the square-root measurement of them.
    n = 2 ** rate
    code = build_position_povm(test, n, "U")
    dense = dense_position_dist(code, rec.joint.permuted(order), "U", rec.marginal)
    rep = simulate_unassisted("p2p", ch, psi, rate, 0.1, 0.3)
    (receiver,) = rep.details["receivers"]
    assert np.allclose(receiver["outcome_dist"], dense, rtol=0, atol=1e-12)


def test_string_decoder_decomposes_no_operator_above_the_block_dimension(eig_inputs):
    ch, psi = depolarizing(0.1, 2, "A", "B"), classically_correlated("A", "U")
    rep = simulate_unassisted("p2p", ch, psi, 3, 0.1, 0.6)
    assert len(rep.per_message_success) == 8
    assert eig_inputs and max(m.shape[-1] for m in eig_inputs) <= 4


def recorded_stacks(monkeypatch):
    """Each list of matrices or stacks that :mod:`oneshot_qcap.coding` hands
    ``_inverse_roots``, one entry per call."""
    calls = []
    real = coding._inverse_roots
    monkeypatch.setattr(coding, "_inverse_roots",
                        lambda mats: calls.append(mats) or real(mats))
    return calls


def test_unassisted_decoder_decomposes_one_block_per_type(monkeypatch):
    # At R = 3 the 2^8 strings of a binary resource's copies have 9 types:
    # simulate and derandomize each decompose the 9 blocks S_N (2 x 2, on
    # the decoder register) in one stack, the same stack.
    calls = recorded_stacks(monkeypatch)
    ch, psi = depolarizing(0.1, 2, "A", "B"), classically_correlated("A", "U")
    simulate_unassisted("p2p", ch, psi, 3, 0.1, 0.6)
    derandomize("p2p", ch, psi, 3, 0.1, 0.6)
    assert [[m.shape for m in mats] for mats in calls] == [[(9, 2, 2)]] * 2
    assert np.array_equal(calls[0][0], calls[1][0])


@pytest.mark.parametrize("rate,types", [(1, 3), (2, 5)])
def test_type_blocks_hold_only_the_letters_that_occur(monkeypatch, rate, types):
    # Letter 2 of the qutrit resource never occurs.  Over letters 0 and 1
    # the 2^R copies have 2^R + 1 types (5 at R = 2, against 15 over all
    # three letters), and simulate and derandomize decompose their S_N,
    # 3 x 3 each, in one stack.
    calls = recorded_stacks(monkeypatch)
    _, ch, psi, _ = ua_case("p2p-qutrit")
    simulate_unassisted("p2p", ch, psi, rate, 0.1, 0.3)
    derandomize("p2p", ch, psi, rate, 0.1, 0.3)
    assert [[m.shape for m in mats] for mats in calls] == [[(types, 3, 3)]] * 2
    (rec,) = get_scenario("p2p_ua").build(ch, psi, None, None, [0.1])
    firsts, weights, _, _ = coding._type_table(rec, coding._receiver_test(rec)[1],
                                               2 ** rate)
    assert len(firsts) == types and all(2 not in first for first in firsts)
    assert np.all(weights > 0) and math.fsum(weights) == pytest.approx(1.0, abs=1e-15)


def qutrit_beside_a_qubit():
    """A depolarizing(0.2) qutrit on A beside a noiseless qubit on B, with
    UA letters (0.5, 0.5, 0) and UB letters (0.5, 0.5)."""
    dep = depolarizing(0.2, 3, "X", "Y").kraus
    ch = KrausChannel([np.kron(k, np.eye(2)) for k in dep],
                      SystemLayout([("A", 3), ("B", 2)]),
                      SystemLayout([("CA", 3), ("CB", 2)]))
    return (ch, skewed_correlated("A", "UA", (0.5, 0.5, 0.0)),
            skewed_correlated("B", "UB", (0.5, 0.5)))


def test_mac_ua_decodes_with_letter_diagonal_tests(monkeypatch):
    # The D_H witness of sender A splits an eigenspace that spans letters 0
    # and 1, so it has weight off the letters' diagonal; the decoder reads
    # only its diagonal blocks.
    ch, psi_a, psi_b = qutrit_beside_a_qubit()
    tests = []
    monkeypatch.setattr(coding, "binary_test_projector",
                        lambda t: tests.append(t) or binary_test_projector(t))
    rep = simulate_unassisted("mac", ch, psi_a, (1, 1), (0.1, 0.1), 0.3, psi_b=psi_b)
    code = derandomize("mac", ch, psi_a, (1, 1), (0.1, 0.1), 0.3, psi_b=psi_b)
    seen = set()
    for test in tests:
        (res,) = [l for l in test.layout.labels if l in ("UA", "UB")]
        seen.add(res)
        d = test.layout.dim_of(res)
        rest = test.layout.dim // d
        view = test.permuted([res] + [l for l in test.layout.labels if l != res]
                             ).matrix.reshape(d, rest, d, rest)
        for u, v in itertools.product(range(d), repeat=2):
            if u != v:
                assert np.max(np.abs(view[u, :, v, :])) == 0.0
    assert seen == {"UA", "UB"}
    assert rep.avg_error == pytest.approx(0.8073916647004116, abs=1e-12)
    assert (code.strings, code.strings_b) == ((0, 1), (1, 0))
    assert code.error == pytest.approx(0.20921251933612128, abs=1e-12)


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


@pytest.mark.parametrize("case,rate,delta,strings,error,randomized", [
    # Every string but 0...0 and 1...1 ties at 0.7625: the first is named.
    ("p2p-correlated", 3, 0.6, (0, 0, 0, 0, 0, 0, 0, 1), 0.7625, 0.763427734375),
    # Letter 2 has probability 0, so no string holding it is a candidate.
    ("p2p-qutrit", 1, 0.3, (0, 1), 0.1, 19 / 60),
    ("p2p-qutrit", 2, 0.3, (0, 0, 0, 1), 0.55, 277 / 480),
])
def test_derandomized_strings_and_errors(case, rate, delta, strings, error,
                                         randomized):
    _, ch, psi, _ = ua_case(case)
    code = derandomize("p2p", ch, psi, rate, 0.1, delta)
    assert code.strings == strings
    assert code.error == pytest.approx(error, abs=1e-12)
    assert code.randomized_error == pytest.approx(randomized, abs=1e-12)


def test_derandomize_rejects_broadcast():
    with pytest.raises(ValueError):
        derandomize("broadcast", copy_broadcast_channel(),
                    classically_correlated("A", "U"), (1, 1), (0.1, 0.1), 0.3)


def test_derandomize_checks_the_cap_before_decoding(monkeypatch, id2):
    # At R = 2 the dense decoder's layout, B and four copies of U, has 32
    # dimensions.
    solved = []
    monkeypatch.setenv("ONESHOT_QCAP_DIM_CAP", "16")
    monkeypatch.setattr(coding, "dh_eps",
                        lambda *args: solved.append(args) or dh_eps(*args))
    with pytest.raises(DimensionCapError):
        derandomize("p2p", id2, classically_correlated("A", "U"), 2, 0.1, 0.6)
    assert not solved


# Every decoder and derandomize at a rate past the cap, as a function of R.
PAST_THE_CAP = {
    "p2p_ea": lambda r: simulate_p2p_ea(depolarizing(0.1, 2, "A", "B"),
                                        bell_density("A", "R"), r, 0.1, 0.05),
    "p2p_ua": lambda r: simulate_unassisted(
        "p2p", identity_channel(2, "A", "B"), classically_correlated("A", "U"),
        r, 0.1, 0.6),
    "mac_ea_sequential": lambda r: simulate_mac_ea(
        xor_mac_channel(), *mac_inputs(), (r, 1), (0.05, 0.1), 0.02),
    "mac_ea_pgm_a_first": lambda r: simulate_mac_ea(
        xor_mac_channel(), *mac_inputs(), (r, 1), (0.05, 0.1), 0.02,
        strategy="pgm_a_first"),
    "derandomize_p2p": lambda r: derandomize(
        "p2p", identity_channel(2, "A", "B"), classically_correlated("A", "U"),
        r, 0.1, 0.6),
    "derandomize_mac": lambda r: derandomize(
        "mac", xor_mac_channel(), classically_correlated("A", "UA"), (r, 1),
        (0.1, 0.1), 0.3, psi_b=classically_correlated("B", "UB")),
}


def assert_rejected_from_the_rate(call, rate):
    start = time.perf_counter()
    with pytest.raises(DimensionCapError) as err:
        call(rate)
    assert time.perf_counter() - start < 1.0
    message = str(err.value)
    assert f"R = {rate}" in message and f"cap {dimension_cap()}" in message
    assert not re.search(r"[0-9]{21}", message), message


@pytest.mark.parametrize("call", PAST_THE_CAP)
def test_rate_18_is_rejected_from_the_rate_alone(call):
    assert_rejected_from_the_rate(PAST_THE_CAP[call], 18)


@pytest.mark.parametrize("call", PAST_THE_CAP)
def test_a_million_bits_of_rate_are_rejected_as_fast(call):
    assert_rejected_from_the_rate(PAST_THE_CAP[call], 10 ** 6)


def beside_a_trivial_resource(sender: str, resource: str) -> DensityOp:
    """The maximally mixed qubit ``sender`` beside a one-dimensional ``resource``."""
    return DensityOp(np.eye(2, dtype=complex) / 2,
                     SystemLayout([(sender, 2), (resource, 1)]))


ONE_DIMENSIONAL_RESOURCE = {
    "p2p_ea": lambda r: simulate_p2p_ea(
        depolarizing(0.1, 2, "A", "B"), beside_a_trivial_resource("A", "R"),
        r, 0.1, 0.05),
    "p2p_ua": lambda r: simulate_unassisted(
        "p2p", identity_channel(2, "A", "B"), beside_a_trivial_resource("A", "U"),
        r, 0.1, 0.6),
    "mac_ea": lambda r: simulate_mac_ea(
        xor_mac_channel(), beside_a_trivial_resource("A", "RA"),
        beside_a_trivial_resource("B", "RB"), (r, 1), (0.05, 0.1), 0.02),
}


@pytest.mark.parametrize("call", ONE_DIMENSIONAL_RESOURCE)
def test_a_one_dimensional_resource_counts_as_a_qubit_against_the_cap(call):
    # A qubit resource in its place decodes up to R = 3 and is rejected from
    # R = 4 on.
    for rate in (1, 2, 3):
        assert ONE_DIMENSIONAL_RESOURCE[call](rate).bound_satisfied
    for rate in (4, 7, 10 ** 9):
        assert_rejected_from_the_rate(ONE_DIMENSIONAL_RESOURCE[call], rate)


def dense_string_errors(ch, psi, rate, eps):
    """The average error of the p2p_ua decoder on every string of positive
    probability, read off the dense square-root measurement on all 2^R
    copies of the classical register: each element's block at the string,
    against the channel output given each letter."""
    (rec,) = get_scenario("p2p_ua").build(ch, psi, None, None, [eps])
    n = 2 ** rate
    test = HermOp(dh_eps(rec.joint, rec.alt, rec.eps).witness.operator,
                  rec.joint.layout)
    code = build_position_povm(test, n, rec.resource)
    d_u = rec.joint.layout.dim_of(rec.resource)
    rest = [l for l in rec.joint.layout.labels if l != rec.resource]
    d = rec.joint.layout.dim // d_u
    joint = rec.joint.permuted([rec.resource] + rest).matrix.reshape(d_u, d, d_u, d)
    conds = {a: joint[a, :, a, :] / np.trace(joint[a, :, a, :]).real
             for a in range(d_u) if np.trace(joint[a, :, a, :]).real > 1e-12}
    copies = [l for l in code.layout.labels if l not in rest]
    elements = [HermOp(el, code.layout).permuted(copies + rest).matrix
                .reshape(d_u ** n, d, d_u ** n, d) for el in code.elements()[:-1]]
    errors = {}
    for string in itertools.product(sorted(conds), repeat=n):
        u = np.ravel_multi_index(string, (d_u,) * n)
        errors[string] = 1.0 - np.mean([np.trace(el[u, :, u, :] @ conds[a]).real
                                        for el, a in zip(elements, string)])
    return errors


@pytest.mark.parametrize("rate", [1, 2, 3])
def test_derandomize_minimizes_the_dense_string_errors(rate):
    ch, psi = depolarizing(0.1, 2, "A", "B"), skewed_correlated("A", "U", (0.6, 0.4))
    code = derandomize("p2p", ch, psi, rate, 0.1, 0.6)
    errors = dense_string_errors(ch, psi, rate, 0.1)
    assert code.error == pytest.approx(min(errors.values()), abs=1e-12)
    assert errors[code.strings] == pytest.approx(code.error, abs=1e-12)
    randomized = simulate_unassisted("p2p", ch, psi, rate, 0.1, 0.6)
    assert code.randomized_error == pytest.approx(randomized.avg_error, abs=1e-12)


def noiseless_qubit_pair():
    """Two noiseless qubit inputs side by side, each with its classical
    resource."""
    return (KrausChannel([np.eye(4)], SystemLayout([("A", 2), ("B", 2)]),
                         SystemLayout([("CA", 2), ("CB", 2)])),
            classically_correlated("A", "UA"), classically_correlated("B", "UB"))


def counted(monkeypatch, *names):
    """Per name of ``names``, a function of :mod:`oneshot_qcap.coding`, the
    number of its calls: for ``_inverse_roots`` the number of matrices it is
    handed, each matrix of a stack counting."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _real=getattr(coding, name)):
            counts[_name] += (sum(math.prod(m.shape[:-2]) for m in args[0])
                              if _name == "_inverse_roots" else 1)
            return _real(*args)
        monkeypatch.setattr(coding, name, wrapper)
    return counts


@pytest.mark.parametrize("case,rate,matrices", [
    ("p2p-correlated", 1, 3), ("p2p-correlated", 2, 5), ("p2p-correlated", 3, 9),
    # Letter 2 never occurs: the types of 2^R letters 0 and 1.
    ("p2p-qutrit", 1, 3), ("p2p-qutrit", 2, 5),
])
def test_derandomize_decodes_only_its_candidates(monkeypatch, case, rate, matrices):
    # One matrix S_N per type N of the 2^R copies, and no decoder of the
    # randomized code: its error is the candidates' weighted average.
    counts = counted(monkeypatch, "_inverse_roots", "_position_rows")
    _, ch, psi, _ = ua_case(case)
    derandomize("p2p", ch, psi, rate, 0.1, 0.6)
    assert counts == {"_inverse_roots": matrices, "_position_rows": 0}


@pytest.mark.parametrize("rates", [(1, 1), (2, 1)])
def test_derandomize_mac_runs_one_sequential_pass_per_candidate_pair(monkeypatch,
                                                                     rates):
    counts = counted(monkeypatch, "_sequential_pass")
    ch, psi_a, psi_b = noiseless_qubit_pair()
    derandomize("mac", ch, psi_a, rates, (0.1, 0.1), 0.3, psi_b=psi_b)
    # Both letters of each copy occur: 2^(2^R1 + 2^R2) pairs of strings.
    assert counts["_sequential_pass"] == 2 ** (2 ** rates[0] + 2 ** rates[1])


@pytest.mark.parametrize("case,rates", [
    ("p2p-correlated", 1), ("p2p-correlated", 2), ("p2p-correlated", 3),
    ("p2p-qutrit", 1), ("p2p-qutrit", 2), ("gp", 2), ("mac", (1, 1)), ("mac", (2, 1)),
])
def test_the_randomized_error_is_the_randomized_codes_average(case, rates):
    if case == "mac":
        scenario, tau, (ch, psi, psi_b) = "mac", None, noiseless_qubit_pair()
    else:
        (scenario, ch, psi, tau), psi_b = ua_case(case), None
    args = (scenario, ch, psi, rates, 0.1, 0.3)
    code = derandomize(*args, psi_b=psi_b, tau=tau)
    randomized = simulate_unassisted(*args, psi_b=psi_b, tau=tau)
    assert code.randomized_error == pytest.approx(randomized.avg_error, abs=1e-12)
    assert code.error <= code.randomized_error + 1e-12


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
    (receiver,) = rep.details["receivers"]
    assert np.allclose(receiver["outcome_dist"], P2P_DIST, rtol=0, atol=1e-12)
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


def dilation_statistics(code, state):
    """Outcome probabilities of a position code via its Neumark dilation:
    an accounting path independent of the direct POVM traces."""
    # neumark_dilate rejects eigenvalues below -1e-10; the completion check
    # allows -COMPLETION_TOL.
    *povm, completion = code.elements()
    povm.append(herm_apply(completion, lambda w: np.clip(w, 0.0, None)))
    dil = neumark_dilate(povm)
    rho = state.permuted(list(code.layout.labels))
    return dil.outcome_probabilities(rho.matrix)


def test_dilation_statistics_match_direct_traces():
    test = HermOp(np.diag([0.8, 0.15, 0.55, 0.3]),
                  SystemLayout([("B", 2), ("R", 2)]))
    code = build_position_povm(test, copies=2, resource_label="R")
    state = sample("density", [2, 2, 2], 21, labels=list(code.layout.labels))
    probs = dilation_statistics(code, state)
    direct = [float(np.real(np.trace(el @ state.matrix)))
              for el in code.elements()[:-1]]
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


def test_converse_floor_decomposes_repeated_blocks_once(eig_inputs):
    # The A-first floor of the XOR MAC with classically correlated senders:
    # every message decodes to one outcome row, so all 8 blocks of phi, and
    # all 8 of I/n (x) sigma, are equal.
    row = np.random.default_rng(5).dirichlet(np.ones(15))
    out = converse_floor(np.tile(row, (8, 1)), 2.0,
                         correct_cols=[0, 1, 3, 4, 6, 7, 9, 10], sigmas=2)
    assert len(out["values"]) == 2
    stacks = [a.shape for a in eig_inputs if a.ndim == 3]
    assert stacks and set(stacks) == {(1, 15, 15)}
    assert max(a.shape[-1] for a in eig_inputs) <= 15
    # p2p R = 3: 8 distinct rows over 9 outcomes share one sigma/n block,
    # whose support is decomposed once per solve.
    eig_inputs.clear()
    converse_floor(np.random.default_rng(4).dirichlet(np.ones(9), size=8), 3.0,
                   sigmas=3)
    for i in range(3):
        block = sample("density", 9, seed=i).matrix / 8
        holding = [a.shape for a in eig_inputs
                   if a.ndim == 3 and any(np.array_equal(b, block) for b in a)]
        assert holding == [(1, 9, 9)]


def test_report_floors_p2p_and_mac(id2, bell):
    p2p = simulate_p2p_ea(id2, bell, rate=1, eps=0.1, delta=0.05)
    floors = report_floors(p2p, sigmas=3)
    assert len(floors) == 1 and floors[0]["holds"]
    # Multiple access: the joint outcomes at r1 + r2 = 3 bits, message
    # (m1, m2)'s correct outcome at column m1 (n2 + 1) + m2 with n2 = 2.
    mac = sequential_mac_2_1()
    floors = report_floors(mac, sigmas=3)
    assert floors == [converse_floor(mac.details["outcome_dist"], 3.0,
                                     correct_cols=[0, 1, 3, 4, 6, 7, 9, 10], sigmas=3)]
    assert floors[0]["holds"]


def test_report_floors_broadcast():
    psi = tensor(bell_density("A", "RB"),
                 maximally_mixed(SystemLayout([("RC", 2)])))
    report = simulate_broadcast_ea(copy_broadcast_channel(), psi,
                                   rates=(1, 1), epsilons=(0.1, 0.1),
                                   delta=0.05)
    floors = report_floors(report, sigmas=3)
    assert len(floors) == 2
    assert all(f["holds"] for f in floors)
    # The floors read the report: Charlie's outcomes swapped for a perfect
    # code's move his floor only, and a report without outcomes has none.
    bob, charlie = report.details["receivers"]
    perfect = converse_floor(np.eye(2, 3), 1.0, sigmas=3, seed=1)
    swapped = {"receivers": [bob, {**charlie, "outcome_dist": np.eye(2, 3)}]}
    assert report_floors(dataclasses.replace(report, details=swapped),
                         sigmas=3) == [floors[0], perfect]
    assert floors[1] != perfect
    with pytest.raises(ValueError, match="'broadcast_ea'"):
        report_floors(dataclasses.replace(report, details={}))
