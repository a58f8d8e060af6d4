"""Bitmask fermion algebra vs. a dense Jordan-Wigner oracle."""

import numpy as np
import pytest

from cqesim.fock import (
    ANNIHILATE,
    CREATE,
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    apply_operator,
    apply_string,
    build_basis,
    hermitian_part,
    antihermitian_part,
    one_body_to_operator,
    pair_adjoint,
    pair_matrix,
    tensor_norm,
    two_body_to_operator,
)

import _jw_dense as jw


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------


def test_build_basis_two_spatial_orbitals_singlet():
    basis = build_basis(4, 2, 0)
    # alpha on bits {0, 2}, beta on bits {1, 3}; sorted by bitmask value.
    assert basis.determinants == (0b0011, 0b0110, 0b1001, 0b1100)
    assert len(basis) == 4
    assert basis.index_of(0b0110) == 1
    assert 0b1001 in basis and 0b0101 not in basis


def test_build_basis_sizes():
    assert len(build_basis(8, 4, 0)) == 36      # C(4,2)^2
    assert len(build_basis(8, 4, 2)) == 16      # C(4,3)*C(4,1)
    assert len(build_basis(8, 2, 0)) == 16
    assert len(build_basis(6, 3, 1)) == 9
    assert len(build_basis(4, 0, 0)) == 1


def test_build_basis_rejects_bad_sectors():
    with pytest.raises(ValueError):
        build_basis(5, 2, 0)          # odd orbital count
    with pytest.raises(ValueError):
        build_basis(4, 3, 0)          # N and 2Sz of different parity
    with pytest.raises(ValueError):
        build_basis(4, 2, 6)          # more alpha electrons than orbitals
    with pytest.raises(ValueError):
        build_basis(4, 6, 0)          # more electrons than spin orbitals


def test_basis_is_sorted_and_in_sector():
    basis = build_basis(8, 4, 0)
    dets = basis.determinants
    assert list(dets) == sorted(dets)
    for det in dets:
        assert bin(det).count("1") == 4
        n_alpha = bin(det & 0x55).count("1")
        n_beta = bin(det & 0xAA).count("1")
        assert n_alpha - n_beta == 0


# ---------------------------------------------------------------------------
# Operator strings on determinants
# ---------------------------------------------------------------------------


def test_apply_string_frozen_examples():
    # a_0 on |0101>: no occupied orbitals below 0.
    assert apply_string(0b0101, [(ANNIHILATE, 0)]) == (0b0100, +1)
    # a_2 on |0101>: orbital 0 occupied below 2 -> odd parity.
    assert apply_string(0b0101, [(ANNIHILATE, 2)]) == (0b0001, -1)
    # a+_1 a_0 on |0101>: a_0 gives +|0100>, then a+_1 sees nothing below 1.
    assert apply_string(0b0101, [(CREATE, 1), (ANNIHILATE, 0)]) == (0b0110, +1)
    # a+_3 a_0 on |0101>: after a_0, orbital 2 is occupied below 3.
    assert apply_string(0b0101, [(CREATE, 3), (ANNIHILATE, 0)]) == (0b1100, -1)


def test_apply_string_vanishing_cases():
    assert apply_string(0b0101, [(ANNIHILATE, 1)]) is None
    assert apply_string(0b0101, [(CREATE, 0)]) is None
    assert apply_string(0b0101, [(CREATE, 1), (ANNIHILATE, 1)]) is None


def test_apply_string_rejects_garbage():
    with pytest.raises(ValueError):
        apply_string(0b01, [("destroy", 0)])
    with pytest.raises(ValueError):
        apply_string(0b01, [(ANNIHILATE, -1)])


def test_apply_string_number_operator_identity():
    # a+_p a_p acts as the occupation number with sign +1.
    for det in (0b0101, 0b1111, 0b1010):
        for p in range(4):
            got = apply_string(det, [(CREATE, p), (ANNIHILATE, p)])
            if det & (1 << p):
                assert got == (det, +1)
            else:
                assert got is None


def test_apply_string_matches_jordan_wigner():
    rng = np.random.default_rng(7)
    n = 6
    for _ in range(200):
        det = int(rng.integers(0, 2 ** n))
        length = int(rng.integers(1, 5))
        ops = [
            (CREATE if rng.integers(2) else ANNIHILATE, int(rng.integers(n)))
            for _ in range(length)
        ]
        mat = jw.string_matrix(n, ops)
        column = mat[:, det]
        got = apply_string(det, ops)
        if got is None:
            assert not column.any()
        else:
            new_det, sign = got
            expected = np.zeros(2 ** n)
            expected[new_det] = sign
            np.testing.assert_array_equal(column, expected)


# ---------------------------------------------------------------------------
# Tensor index algebra
# ---------------------------------------------------------------------------


def _random_antisym(rng, n, density=0.2, hermitian=False, complex_valued=True):
    raw = rng.normal(size=(n, n, n, n))
    if complex_valued:
        raw = raw + 1j * rng.normal(size=(n, n, n, n))
    raw *= rng.random(size=raw.shape) < density
    t = antisymmetrize(raw)
    if hermitian:
        t = hermitian_part(t)
    return t


def test_antisymmetrize_is_projection():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
    t = antisymmetrize(raw)
    np.testing.assert_allclose(antisymmetrize(t), t, atol=1e-14)
    np.testing.assert_allclose(t, -t.transpose(1, 0, 2, 3), atol=1e-14)
    np.testing.assert_allclose(t, -t.transpose(0, 1, 3, 2), atol=1e-14)


def test_antisymmetrize_preserves_operator():
    rng = np.random.default_rng(1)
    n = 4
    raw = rng.normal(size=(n, n, n, n))
    raw *= rng.random(size=raw.shape) < 0.1
    direct = jw.two_body_matrix(n, raw)
    projected = jw.two_body_matrix(n, antisymmetrize(raw))
    np.testing.assert_allclose(direct, projected, atol=1e-12)


def test_pair_adjoint_involution_and_parts():
    rng = np.random.default_rng(2)
    t = _random_antisym(rng, 4)
    np.testing.assert_allclose(pair_adjoint(pair_adjoint(t)), t, atol=1e-14)
    h = hermitian_part(t)
    a = antihermitian_part(t)
    np.testing.assert_allclose(h + a, t, atol=1e-14)
    np.testing.assert_allclose(pair_adjoint(h), h, atol=1e-14)
    np.testing.assert_allclose(pair_adjoint(a), -a, atol=1e-14)


def test_pair_matrix_and_norm():
    rng = np.random.default_rng(3)
    t = _random_antisym(rng, 4)
    m = pair_matrix(t)
    assert m.shape == (16, 16)
    assert m[1 * 4 + 2, 3 * 4 + 0] == t[1, 2, 3, 0]
    assert tensor_norm(t) == pytest.approx(np.linalg.norm(m))
    # Pair adjoint is the conjugate transpose in the matrix view.
    np.testing.assert_allclose(pair_matrix(pair_adjoint(t)), m.conj().T, atol=1e-14)


def test_two_body_tensor_validates_antisymmetry():
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 1, 2, 3] = 1.0  # missing the -1 partners
    with pytest.raises(ValueError):
        TwoBodyTensor(4, bad)
    good = antisymmetrize(bad)
    t = TwoBodyTensor(4, good)
    assert t.norm() == pytest.approx(np.linalg.norm(good))
    np.testing.assert_allclose(t.adjoint().coeffs, pair_adjoint(good), atol=1e-15)
    np.testing.assert_allclose(
        (t.hermitian_part() + t.antihermitian_part()).coeffs, good, atol=1e-15
    )
    np.testing.assert_allclose((2.0 * t - t).coeffs, good, atol=1e-15)


# ---------------------------------------------------------------------------
# Two-body operator assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, n_elec, sz",
    # the last four sectors have empty and near-full excitation patterns
    [(4, 2, 0), (6, 2, 0), (6, 3, 1), (8, 4, 0), (4, 1, 1), (4, 0, 0), (6, 5, 1), (6, 6, 0)],
)
def test_two_body_to_operator_matches_jordan_wigner(n, n_elec, sz):
    rng = np.random.default_rng(n * 100 + n_elec * 10 + sz)
    basis = build_basis(n, n_elec, sz)
    t = _random_antisym(rng, n, density=0.05)
    op = two_body_to_operator(TwoBodyTensor(n, t), basis)
    dense = jw.project(basis, jw.two_body_matrix(n, t))
    np.testing.assert_allclose(op.dense(), dense, atol=1e-12)


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 3, 1), (8, 4, 0)])
def test_one_body_to_operator_matches_jordan_wigner(n, n_elec, sz):
    rng = np.random.default_rng(n * 100 + n_elec * 10 + sz + 1)
    basis = build_basis(n, n_elec, sz)
    # complex Hermitian, spin-flip entries included: they leave the sector
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    op = one_body_to_operator(h, basis)
    dense = jw.project(basis, jw.one_body_matrix(n, h))
    np.testing.assert_allclose(op.dense(), dense, atol=1e-12)


def test_one_body_to_operator_needs_two_electrons():
    # assembled through the pair identity sum_l a+_k a+_l a_l a_i = (N - 1) a+_k a_i
    with pytest.raises(ValueError):
        one_body_to_operator(np.eye(4), build_basis(4, 1, 1))
    with pytest.raises(ValueError):
        one_body_to_operator(np.eye(4), build_basis(4, 0, 0))


def test_two_body_to_operator_hermitian_and_adjoint():
    rng = np.random.default_rng(11)
    basis = build_basis(6, 2, 0)
    t = _random_antisym(rng, 6, density=0.1)
    tensor = TwoBodyTensor(6, t)
    op = two_body_to_operator(tensor, basis)
    op_adj = two_body_to_operator(tensor.adjoint(), basis)
    np.testing.assert_allclose(op_adj.dense(), op.dense().conj().T, atol=1e-12)
    herm = two_body_to_operator(tensor.hermitian_part(), basis)
    assert herm.is_hermitian()
    anti = two_body_to_operator(tensor.antihermitian_part(), basis)
    np.testing.assert_allclose(anti.dense(), -anti.dense().conj().T, atol=1e-12)


def test_two_body_to_operator_rejects_mismatched_sizes():
    basis = build_basis(4, 2, 0)
    t = TwoBodyTensor(6, np.zeros((6, 6, 6, 6)))
    with pytest.raises(ValueError):
        two_body_to_operator(t, basis)


# ---------------------------------------------------------------------------
# States and operator application
# ---------------------------------------------------------------------------


def test_state_vector_normalization_and_inner():
    basis = build_basis(4, 2, 0)
    psi = StateVector(basis, np.array([3.0, 0.0, 4.0, 0.0]))
    assert psi.norm() == pytest.approx(5.0)
    unit = psi.normalized()
    assert unit.norm() == pytest.approx(1.0)
    assert unit.success_prob == 1.0
    phi = StateVector(basis, np.array([1.0, 0.0, 0.0, 0.0]))
    assert unit.inner(phi) == pytest.approx(0.6)


def test_state_vector_validation():
    basis = build_basis(4, 2, 0)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(3))
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(4), n_ancilla=2)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(4), success_prob=0.0)
    psi = StateVector(basis, np.ones(4))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0


def test_apply_operator_matches_matrix():
    rng = np.random.default_rng(5)
    basis = build_basis(6, 2, 0)
    t = _random_antisym(rng, 6, density=0.1)
    op = two_body_to_operator(TwoBodyTensor(6, t), basis)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    psi = StateVector(basis, amps, success_prob=0.5)
    phi = apply_operator(op, psi)
    np.testing.assert_allclose(phi.amplitudes, op.dense() @ amps, atol=1e-12)
    assert phi.success_prob == 0.5


def test_apply_operator_rejects_mismatch():
    basis_a = build_basis(4, 2, 0)
    basis_b = build_basis(4, 2, 2)
    op = SparseOperator(basis_a, np.zeros((4, 4)))
    psi = StateVector(basis_b, np.ones(len(basis_b)))
    with pytest.raises(ValueError):
        apply_operator(op, psi)
