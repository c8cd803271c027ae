import numpy as np
import pytest

from oneshot_qcap.linalg import (
    DensityOp,
    DimensionCapError,
    HermOp,
    Ket,
    LayoutError,
    SystemLayout,
    basis_ket,
    bell_ket,
    embed,
    fidelity,
    local_product,
    local_trace,
    max_entangled_ket,
    maximally_mixed,
    partial_trace,
    place,
    purified_distance,
    purify,
    reduced,
    sample,
    schmidt_decompose,
    tensor,
)

from helpers import bell_density, pure_density


def test_layout_dims_and_lookup():
    lay = SystemLayout([("A", 2), ("B", 3)])
    assert lay.dim == 6
    assert lay.dim_of("B") == 3
    assert lay.labels == ("A", "B")


def test_layout_rejects_duplicate_labels():
    with pytest.raises((ValueError, LayoutError)):
        SystemLayout([("A", 2), ("A", 2)])


def test_dimension_cap(monkeypatch):
    with pytest.raises(DimensionCapError):
        SystemLayout([(f"R{i}", 4) for i in range(10)])  # 4^10 >> 4096


def test_density_requires_unit_trace():
    lay = SystemLayout([("A", 2)])
    with pytest.raises(ValueError):
        DensityOp(np.eye(2), lay)


def test_density_rejects_negative_eigenvalue():
    lay = SystemLayout([("A", 2)])
    with pytest.raises(ValueError):
        DensityOp(np.diag([1.5, -0.5]), lay)


def test_tensor_and_partial_trace_roundtrip():
    a = sample("density", 2, 3, labels=["A"])
    b = sample("density", 3, 4, labels=["B"])
    joint = tensor(a, b)
    back_a = partial_trace(joint, ["A"])
    back_b = partial_trace(joint, ["B"])
    assert np.allclose(back_a.matrix, a.matrix, atol=1e-12)
    assert np.allclose(back_b.matrix, b.matrix, atol=1e-12)


def test_partial_trace_of_bell_is_mixed():
    rho = bell_density("A", "B")
    marg = partial_trace(rho, ["A"])
    assert np.allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)


def test_permuted_is_an_involution():
    rho = sample("density", [2, 3], 7, labels=["A", "B"])
    flipped = rho.permuted(["B", "A"])
    assert flipped.layout.labels == ("B", "A")
    assert np.allclose(flipped.permuted(["A", "B"]).matrix, rho.matrix,
                       atol=1e-14)


def test_one_permuted_serves_kets_and_operators():
    psi = sample("pure", [2, 3], 5, labels=["A", "B"])
    order = ["B", "A"]
    flipped = psi.permuted(order)
    rho = psi.density().permuted(order)
    herm = HermOp(psi.density().matrix, psi.layout).permuted(order)
    assert (type(flipped), type(rho), type(herm)) == (Ket, DensityOp, HermOp)
    assert flipped.layout == rho.layout == herm.layout
    assert np.allclose(flipped.density().matrix, rho.matrix, atol=1e-15)
    assert np.allclose(herm.matrix, rho.matrix, atol=1e-15)


def test_permutation_preserves_spectrum():
    rho = sample("density", [2, 2, 3], 11, labels=["A", "B", "C"])
    flipped = rho.permuted(["C", "A", "B"])
    assert np.allclose(np.linalg.eigvalsh(flipped.matrix),
                       np.linalg.eigvalsh(rho.matrix), atol=1e-12)


def test_fidelity_extremes():
    zero = pure_density(basis_ket(0, SystemLayout([("A", 2)])))
    one = pure_density(basis_ket(1, SystemLayout([("A", 2)])))
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert purified_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert purified_distance(zero, zero) == pytest.approx(0.0, abs=1e-7)


def test_fidelity_pure_vs_mixed_closed_form():
    psi = basis_ket(0, SystemLayout([("A", 2)]))
    rho = pure_density(psi)
    sigma = DensityOp(np.diag([0.75, 0.25]), rho.layout)
    # F(|0><0|, sigma) = sqrt(<0|sigma|0>)
    assert fidelity(rho, sigma) == pytest.approx(np.sqrt(0.75), abs=1e-12)
    assert fidelity(rho.matrix, sigma.matrix) == fidelity(rho, sigma)
    with pytest.raises(LayoutError):
        fidelity(rho, DensityOp(sigma.matrix, [("B", 2)]))


def test_purify_reduces_back():
    rho = sample("density", 3, 5, labels=["A"])
    ket = purify(rho, "E")
    joint = pure_density(ket)
    marg = partial_trace(joint, ["A"])
    assert np.allclose(marg.matrix, rho.matrix, atol=1e-10)


def test_schmidt_of_bell():
    coeffs = schmidt_decompose(bell_ket("A", "B"), ["A"])[0]
    assert np.allclose(sorted(coeffs), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_max_entangled_marginal_is_uniform():
    ket = max_entangled_ket(3, "A", "B")
    rho = pure_density(ket)
    marg = partial_trace(rho, ["B"])
    assert np.allclose(marg.matrix, np.eye(3) / 3, atol=1e-12)


def test_embed_acts_as_identity_elsewhere():
    lay_small = SystemLayout([("A", 2)])
    op = HermOp(np.diag([1.0, 0.0]), lay_small)
    lay_big = SystemLayout([("A", 2), ("B", 3)])
    big = embed(op, lay_big)
    assert np.allclose(big.matrix, np.kron(np.diag([1.0, 0.0]), np.eye(3)),
                       atol=1e-14)


def test_place_matches_tensor_and_embed_bit_for_bit():
    a = sample("density", [2, 3], 1, labels=["A", "B"])
    b = sample("density", 2, 2, labels=["C"])
    c = sample("density", 3, 3, labels=["D"])
    factors = [(x.layout.registers, x.matrix) for x in (a, b, c)]
    reference = tensor(tensor(a, b), c).permuted(["C", "A", "D", "B"])
    assert np.array_equal(place(factors, reference.layout), reference.matrix)

    target = SystemLayout([("E", 2), ("B", 3), ("A", 2)])
    op = HermOp(a.matrix, a.layout)
    reference = tensor(op, HermOp(np.eye(2), [("E", 2)])).permuted(target.labels)
    placed = place([(a.layout.registers, a.matrix)], target)
    assert np.array_equal(placed, reference.matrix)
    assert np.array_equal(placed, embed(op, target).matrix)


def test_place_rejects_what_does_not_fit():
    target = SystemLayout([("A", 2), ("B", 3)])
    with pytest.raises(LayoutError, match="lacks register"):
        place([([("X", 2)], np.eye(2))], target)
    with pytest.raises(LayoutError, match="target dim"):
        place([([("B", 2)], np.eye(2))], target)
    with pytest.raises(LayoutError, match="matrix shape"):
        place([([("A", 2)], np.eye(3))], target)
    with pytest.raises(LayoutError, match="duplicate"):
        place([([("A", 2)], np.eye(2)), ([("A", 2)], np.eye(2))], target)
    with pytest.raises(LayoutError, match="lacks register"):
        embed(HermOp(np.eye(2), [("X", 2)]), target)


@pytest.mark.parametrize("registers", [[("B", 3)], [("D", 2), ("A", 2)],
                                       [("A", 2), ("C", 2), ("D", 2)]])
def test_local_product_matches_the_placed_product(registers):
    # Registers in and out of the target's order, also non-adjacent ones.
    target = SystemLayout([("A", 2), ("B", 3), ("C", 2), ("D", 2)])
    rng = np.random.default_rng(len(registers))
    d = int(np.prod([dim for _, dim in registers]))
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = sample("density", target.dims, 5, labels=list(target.labels)).matrix
    dense = place([(registers, op)], target)
    assert np.allclose(local_product((registers, op), target, mat), dense @ mat,
                       rtol=0, atol=1e-13)
    cols = mat[:, :3]
    assert np.allclose(local_product((registers, op), target, cols), dense @ cols,
                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("registers", [[("B", 3)], [("D", 2), ("A", 2)],
                                       [("A", 2), ("C", 2), ("D", 2)]])
def test_local_trace_matches_the_trace_of_the_placed_product(registers):
    target = SystemLayout([("A", 2), ("B", 3), ("C", 2), ("D", 2)])
    rng = np.random.default_rng(len(registers))
    d = int(np.prod([dim for _, dim in registers]))
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = (rng.standard_normal((target.dim, target.dim))
           + 1j * rng.standard_normal((target.dim, target.dim)))
    dense = np.trace(place([(registers, op)], target) @ mat)
    assert abs(local_trace((registers, op), target, mat) - dense) < 1e-12
    whole = [("A", 2), ("B", 3), ("C", 2), ("D", 2)]
    assert abs(local_trace((whole, np.eye(target.dim)), target, mat)
               - np.trace(mat)) < 1e-12
    with pytest.raises(LayoutError, match="not square"):
        local_trace((registers, op), target, mat[:, :3])
    with pytest.raises(LayoutError, match="lacks register"):
        local_trace(([("X", 2)], np.eye(2)), target, mat)


@pytest.mark.parametrize("registers", [[("D", 2), ("A", 2)], [("C", 2)],
                                       [("D", 2), ("B", 3), ("A", 2)], []])
def test_reduced_matches_partial_trace_on_reordered_registers(registers):
    # Kept registers that are not adjacent, listed out of the layout's order.
    rho = sample("density", [2, 3, 2, 2], 7, labels=["A", "B", "C", "D"])
    labels = [lbl for lbl, _ in registers]
    want = (partial_trace(rho, labels).permuted(labels).matrix if labels
            else np.array([[rho.trace]]))
    got = reduced(registers, rho.layout, rho.matrix)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_reduced_rejects_what_does_not_fit():
    target = SystemLayout([("A", 2), ("B", 3)])
    mat = np.eye(6)
    with pytest.raises(LayoutError, match="lacks register"):
        reduced([("X", 2)], target, mat)
    with pytest.raises(LayoutError, match="target dim"):
        reduced([("B", 2)], target, mat)
    with pytest.raises(LayoutError, match="duplicate"):
        reduced([("A", 2), ("A", 2)], target, mat)
    with pytest.raises(LayoutError, match="rows"):
        reduced([("A", 2)], target, np.eye(4))
    with pytest.raises(LayoutError, match="not square"):
        reduced([("A", 2)], target, mat[:, :4])


def test_local_product_rejects_what_does_not_fit():
    target = SystemLayout([("A", 2), ("B", 3)])
    mat = np.eye(6)
    with pytest.raises(LayoutError, match="lacks register"):
        local_product(([("X", 2)], np.eye(2)), target, mat)
    with pytest.raises(LayoutError, match="target dim"):
        local_product(([("B", 2)], np.eye(2)), target, mat)
    with pytest.raises(LayoutError, match="matrix shape"):
        local_product(([("A", 2)], np.eye(3)), target, mat)
    with pytest.raises(LayoutError, match="duplicate"):
        local_product(([("A", 2), ("A", 2)], np.eye(4)), target, mat)
    with pytest.raises(LayoutError, match="rows"):
        local_product(([("A", 2)], np.eye(2)), target, np.eye(4))


def test_sample_is_seed_deterministic():
    a = sample("density", 4, 9)
    b = sample("density", 4, 9)
    c = sample("density", 4, 10)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.allclose(a.matrix, c.matrix)


def test_sample_povm_completes():
    povm = sample("povm", 3, 2, outcomes=4)
    total = np.sum([el.matrix for el in povm], axis=0)
    assert np.allclose(total, np.eye(3), atol=1e-10)


def test_maximally_mixed_normalization():
    rho = maximally_mixed(SystemLayout([("A", 2), ("B", 2)]))
    assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-14)
