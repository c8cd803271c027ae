import numpy as np
import pytest

from oneshot_qcap.channels import (
    KrausChannel,
    amplitude_damping,
    apply_channel,
    apply_on,
    binary_test_projector,
    builtin,
    channel_from_choi,
    choi,
    cq_channel,
    dephasing,
    depolarizing,
    erasure,
    identity_channel,
    neumark_dilate,
)
from oneshot_qcap.linalg import (
    DensityOp,
    HermOp,
    LayoutError,
    SystemLayout,
    basis_ket,
    maximally_mixed,
    partial_trace,
    sample,
    tensor,
)

from helpers import bell_density, pure_density


def test_kraus_channel_accepts_unitary():
    u = sample("unitary", 3, 5)
    ch = KrausChannel([u], [("A", 3)], [("B", 3)])
    assert np.allclose(ch.kraus[0], u)


def test_kraus_channel_rejects_incomplete_kraus():
    with pytest.raises(ValueError, match=r"trace preserving \(residual 1\.900e-01\)"):
        KrausChannel([0.9 * np.eye(2)], [("A", 2)], [("B", 2)])


def test_kraus_channel_rejects_wrong_shape():
    with pytest.raises(LayoutError):
        KrausChannel([np.eye(2)], [("A", 3)], [("B", 3)])


def test_kraus_channel_rejects_empty_list():
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel([], [("A", 2)], [("B", 2)])


def test_depolarizing_fixed_point():
    ch = depolarizing(0.7, 2, "A", "B")
    rho = maximally_mixed(SystemLayout([("A", 2)]))
    out = apply_channel(ch, rho)
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_contracts_pure_state():
    ch = depolarizing(0.5, 2, "A", "B")
    rho = pure_density(basis_ket(0, SystemLayout([("A", 2)])))
    out = apply_channel(ch, rho)
    assert np.allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-12)


def test_dephasing_kills_coherences():
    ch = dephasing(0.5, "A", "B")
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply_channel(ch, DensityOp(plus, SystemLayout([("A", 2)])))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_amplitude_damping_decays_excited_state():
    ch = amplitude_damping(0.3, "A", "B")
    rho = pure_density(basis_ket(1, SystemLayout([("A", 2)])))
    out = apply_channel(ch, rho)
    assert out.matrix[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert out.matrix[1, 1] == pytest.approx(0.7, abs=1e-12)


def test_erasure_flag_probability():
    ch = erasure(0.25, 2, "A", "B")
    rho = maximally_mixed(SystemLayout([("A", 2)]))
    out = apply_channel(ch, rho)
    assert out.matrix[2, 2] == pytest.approx(0.25, abs=1e-12)


def test_apply_on_keeps_spectators():
    ch = identity_channel(2, "A", "B")
    joint = bell_density("A", "R")
    out = apply_on(ch, joint, ["A"])
    assert set(out.layout.labels) == {"B", "R"}
    marg = partial_trace(out, ["R"])
    assert np.allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_on_acts_locally():
    ch = depolarizing(1.0, 2, "A", "B")
    joint = bell_density("A", "R")
    out = apply_on(ch, joint, ["A"]).permuted(["B", "R"])
    assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


def test_choi_roundtrip():
    ch = amplitude_damping(0.45, "A", "B")
    j = choi(ch)  # normalized Choi state; the inverse expects trace d_in
    back = channel_from_choi(j.matrix * 2, [("A", 2)], [("B", 2)])
    rho = sample("density", 2, 5, labels=["A"])
    out1 = apply_channel(ch, rho)
    out2 = apply_channel(back, rho)
    assert np.allclose(out1.matrix, out2.matrix, atol=1e-10)


def test_choi_of_identity_is_max_entangled():
    j = choi(identity_channel(2))
    evals = np.linalg.eigvalsh(j.matrix)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(evals[:-1])) < 1e-12


def test_cq_channel_measures_input():
    outs = [pure_density(basis_ket(i, SystemLayout([("B", 2)])))
            for i in (1, 0)]
    ch = cq_channel(outs, "A")
    rho = pure_density(basis_ket(0, SystemLayout([("A", 2)])))
    out = apply_channel(ch, rho)
    assert np.allclose(out.matrix, outs[0].matrix, atol=1e-12)


def test_builtin_dispatch_matches_factories():
    ch1 = builtin("depolarizing", dims=2, p=0.3)
    ch2 = depolarizing(0.3, 2)
    rho = sample("density", 2, 1, labels=["A"])
    assert np.allclose(apply_channel(ch1, rho).matrix,
                       apply_channel(ch2, rho).matrix, atol=1e-14)


def test_apply_channel_takes_the_inputs_in_any_order_and_nothing_else():
    u = sample("unitary", 6, 3)
    ch = KrausChannel([u[:3], u[3:]], [("A", 2), ("B", 3)], [("C", 3)])
    rho = sample("density", [2, 3], 4, labels=["A", "B"])
    out = apply_channel(ch, rho)
    assert np.array_equal(apply_channel(ch, rho.permuted(["B", "A"])).matrix,
                          out.matrix)
    assert np.array_equal(apply_on(ch, rho, ["A", "B"]).matrix, out.matrix)
    assert out.layout == ch.out_layout
    with pytest.raises(LayoutError):
        apply_channel(ch, sample("density", [2, 3], 4, labels=["A", "D"]))


def test_apply_on_takes_only_the_channel_inputs():
    ch = depolarizing(0.2, 2, "A", "B")
    rho = sample("density", [2, 2], 5, labels=["X", "R"])
    with pytest.raises(LayoutError):
        apply_on(ch, rho, ["X"])


def test_apply_on_rejects_a_register_of_another_dimension():
    ch = depolarizing(0.2, 2, "A", "B")
    rho = sample("density", [3, 2], 5, labels=["A", "R"])
    with pytest.raises(LayoutError,
                       match=r"^register 'A' dim mismatch with channel input$"):
        apply_on(ch, rho, ["A"])


@pytest.mark.parametrize("povm,message", [
    ([], "empty POVM"),
    ([np.eye(2), np.zeros((3, 3))], "POVM elements must share one dimension"),
    ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], "POVM element is not PSD"),
    ([np.eye(2) / 2, np.eye(2) / 4], "POVM elements do not sum to the identity"),
])
def test_neumark_dilate_rejects_what_is_not_a_povm(povm, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        neumark_dilate(povm)


def test_neumark_matches_direct_statistics():
    povm = sample("povm", 3, 8, outcomes=4)
    dil = neumark_dilate([el.matrix for el in povm])
    rho = sample("density", 3, 9).matrix
    probs = dil.outcome_probabilities(rho)
    direct = [np.real(np.trace(el.matrix @ rho)) for el in povm]
    assert np.allclose(probs, direct, atol=1e-10)


def test_neumark_dilation_is_an_isometry():
    povm = sample("povm", 2, 3, outcomes=3)
    v = neumark_dilate([el.matrix for el in povm]).isometry
    assert v.shape == (6, 2)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("dim,seed", [(2, 0), (3, 1), (4, 2)])
def test_binary_test_projector_is_the_range_of_the_neumark_isometry(dim, seed):
    # A random 0 <= T <= I: random eigenbasis, spectrum uniform on [0, 1].
    u = sample("unitary", dim, seed)
    t = (u * np.random.default_rng(seed).random(dim)) @ u.conj().T
    v = neumark_dilate([t, np.eye(dim) - t]).isometry
    assert np.allclose(binary_test_projector(t), v @ v.conj().T, atol=1e-12)


def test_binary_test_projector_statistics():
    test = HermOp(np.diag([0.7, 0.2]), SystemLayout([("A", 2)]))
    proj = binary_test_projector(test)
    assert np.allclose(proj @ proj, proj, atol=1e-10)
    rho = sample("density", 2, 4, labels=["A"]).matrix
    # Yes-outcome probability on rho (x) |0><0| of the pointer qubit.
    init = np.zeros((4, 4), dtype=complex)
    init.reshape(2, 2, 2, 2)[:, 0, :, 0] = rho
    got = np.real(np.trace(proj @ init))
    assert got == pytest.approx(np.real(np.trace(np.diag([0.7, 0.2]) @ rho)),
                                abs=1e-10)
