"""2-RDMs, contracted residuals, and the contraction identities."""

import numpy as np
import pytest

from cqesim.fock import (
    StateVector,
    TwoBodyTensor,
    _excitations,
    _link_tensor,
    _rdm2_links,
    antisymmetrize,
    build_basis,
    hermitian_part,
    pair_adjoint,
    two_body_to_operator,
)
from cqesim.evolution import estimate_residual_w, prepare_dilated
from cqesim.hamiltonian import build_hamiltonian, list_fixtures, load_fixture, reduced_hamiltonian_K
from cqesim.oracle import fci_solve
from cqesim.residuals import (
    _moments,
    compute_2rdm,
    energy,
    energy_slope,
    residual,
    residual_acse,
    residual_cse,
    residual_hcse,
    tensor_overlap,
    variance,
)

import _jw_dense as jw
from _oracles import ANNIHILATE, CREATE, apply_string, dense_expm_apply


def _random_state(rng, basis, complex_valued=True):
    amps = rng.normal(size=len(basis))
    if complex_valued:
        amps = amps + 1j * rng.normal(size=len(basis))
    return StateVector(basis, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# 2-RDM against the dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 3, 1)])
def test_compute_2rdm_matches_brute_force(n, n_elec, sz):
    rng = np.random.default_rng(60 + n)
    basis = build_basis(n, n_elec, sz)
    bra = _random_state(rng, basis)
    ket = _random_state(rng, basis)
    got = compute_2rdm(bra, ket).tensor
    ref = jw.rdm2(n, jw.embed(basis, bra.amplitudes), jw.embed(basis, ket.amplitudes))
    np.testing.assert_allclose(got, ref, atol=1e-12)
    # Diagonal case reuses the same code path with bra is ket.
    got_d = compute_2rdm(bra).tensor
    ref_d = jw.rdm2(n, jw.embed(basis, bra.amplitudes), jw.embed(basis, bra.amplitudes))
    np.testing.assert_allclose(got_d, ref_d, atol=1e-12)


def test_rdm2_links_of_a_block_are_those_of_its_columns():
    # the one 2-RDM link primitive takes a (dim, k) block of bras and kets,
    # and each column of its result is bitwise that of the column's vectors
    basis = build_hamiltonian(load_fixture("h4_d1.00")).basis
    rng = np.random.default_rng(62)
    bra, ket = (rng.normal(size=(len(basis), 4)) + 1j * rng.normal(size=(len(basis), 4)) for _ in range(2))
    block = _rdm2_links(basis, bra, ket)
    assert block.shape == (len(_excitations(basis).support), 4)
    for c in range(4):
        assert block[:, c].tobytes() == _rdm2_links(basis, bra[:, c], ket[:, c]).tobytes()


def test_rdm2_invariants_on_random_states():
    rng = np.random.default_rng(61)
    basis = build_basis(6, 3, 1)
    for _ in range(10):
        psi = _random_state(rng, basis)
        d = compute_2rdm(psi)
        t = d.tensor
        assert np.einsum("ijij->", t) == pytest.approx(3 * 2, abs=1e-10)
        np.testing.assert_allclose(t, -t.transpose(1, 0, 2, 3), atol=1e-12)
        np.testing.assert_allclose(t, -t.transpose(0, 1, 3, 2), atol=1e-12)
        np.testing.assert_allclose(t, pair_adjoint(t), atol=1e-12)
        eigs = np.linalg.eigvalsh(t.reshape(36, 36))
        assert eigs.min() > -1e-10
        one = np.einsum("ijkj->ik", t) / 2  # the 1-RDM <a+_i a_k>, N - 1 = 2
        assert np.trace(one).real == pytest.approx(3, abs=1e-10)
        np.testing.assert_allclose(one, one.conj().T, atol=1e-12)


def test_compute_2rdm_input_validation():
    basis_a = build_basis(4, 2, 0)
    basis_b = build_basis(4, 2, 2)
    psi = StateVector(basis_a, np.ones(4) / 2.0)
    chi = StateVector(basis_b, np.ones(len(basis_b)))
    with pytest.raises(ValueError):
        compute_2rdm(psi, chi)
    dilated = StateVector(basis_a, np.ones(8) / np.sqrt(8), n_ancilla=1)
    with pytest.raises(ValueError):
        compute_2rdm(dilated)


# ---------------------------------------------------------------------------
# Energy and variance
# ---------------------------------------------------------------------------


def test_energy_and_variance_against_dense():
    rng = np.random.default_rng(62)
    ham = build_hamiltonian(load_fixture("h2_d1.00"))
    dense = ham.dense()
    psi = _random_state(rng, ham.basis)
    amps = psi.amplitudes
    e_ref = float(np.real(amps.conj() @ dense @ amps))
    assert energy(ham, psi) == pytest.approx(e_ref, abs=1e-12)
    var_ref = float(np.real(amps.conj() @ dense @ dense @ amps)) - e_ref ** 2
    assert variance(ham, psi) == pytest.approx(var_ref, abs=1e-10)
    # Scaling the state must not change either quantity.
    scaled = StateVector(ham.basis, 3.7 * amps)
    assert energy(ham, scaled) == pytest.approx(e_ref, abs=1e-12)
    assert variance(ham, scaled) == pytest.approx(var_ref, abs=1e-10)


def test_energy_and_variance_reject_the_zero_vector():
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    zero = StateVector(ham.basis, np.zeros(len(ham.basis)))
    with pytest.raises(ValueError):
        energy(ham, zero)
    with np.errstate(all="raise"), pytest.raises(ValueError):
        variance(ham, zero)


@pytest.mark.parametrize("sector", [(12, 2, 0), (4, 2, 0)])
@pytest.mark.parametrize("fn", [energy, variance, residual_cse])
def test_state_from_another_sector_is_rejected(fn, sector):
    # (12, 2, 0) has H4's 36 determinants, so nothing fails by shape alone
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(np.random.default_rng(5), build_basis(*sector))
    with pytest.raises(ValueError, match="different bases"):
        fn(ham, psi)


@pytest.mark.parametrize("fn", [energy, variance, residual_cse])
def test_dilated_state_is_rejected(fn):
    # same basis, twice the amplitudes: the check must name the ancilla
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = prepare_dilated(_random_state(np.random.default_rng(6), ham.basis))
    with pytest.raises(ValueError, match="ancilla"):
        fn(ham, psi)


def test_variance_vanishes_exactly_on_eigenstates():
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    energies, states = fci_solve(ham, n_states=2)
    for e, psi in zip(energies, states):
        assert energy(ham, psi) == pytest.approx(e, abs=1e-12)
        assert variance(ham, psi) < 1e-12


# ---------------------------------------------------------------------------
# Residual tensors
# ---------------------------------------------------------------------------


def test_residual_matches_transition_rdm_oracle():
    rng = np.random.default_rng(63)
    ham = build_hamiltonian(load_fixture("h2_d1.50"))
    psi = _random_state(rng, ham.basis)
    e = energy(ham, psi)
    phi_amps = ham.dense() @ psi.amplitudes - e * psi.amplitudes
    ref = jw.rdm2(
        4, jw.embed(ham.basis, psi.amplitudes), jw.embed(ham.basis, phi_amps)
    )
    got = residual_cse(ham, psi)
    np.testing.assert_allclose(got.coeffs, ref, atol=1e-12)


def test_residual_variants_decompose_r():
    rng = np.random.default_rng(64)
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(rng, ham.basis)
    r = residual_cse(ham, psi)
    s = residual_hcse(ham, psi)
    a = residual_acse(ham, psi)
    np.testing.assert_allclose(s.coeffs, r.coeffs + pair_adjoint(r.coeffs), atol=1e-12)
    np.testing.assert_allclose(a.coeffs, r.coeffs - pair_adjoint(r.coeffs), atol=1e-12)
    np.testing.assert_allclose(0.5 * (s.coeffs + a.coeffs), r.coeffs, atol=1e-12)
    np.testing.assert_allclose(pair_adjoint(s.coeffs), s.coeffs, atol=1e-12)
    np.testing.assert_allclose(pair_adjoint(a.coeffs), -a.coeffs, atol=1e-12)
    for variant, ref in (("cse", r), ("hcse", s), ("acse", a)):
        np.testing.assert_array_equal(residual(ham, psi, variant).coeffs, ref.coeffs)
    with pytest.raises(ValueError):
        residual(ham, psi, "gse")


def test_hcse_and_acse_elements_match_dense_brackets():
    """Spot-check S and A against literal (anti)commutator expectations."""
    rng = np.random.default_rng(65)
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    n = 4
    psi = _random_state(rng, ham.basis)
    full_psi = jw.embed(ham.basis, psi.amplitudes)
    h_full = np.zeros((16, 16), dtype=complex)
    idx = np.array(ham.basis.determinants)
    h_full[np.ix_(idx, idx)] = ham.dense()
    e = energy(ham, psi)
    s = residual_hcse(ham, psi).coeffs
    a = residual_acse(ham, psi).coeffs
    shifted = h_full - e * np.eye(16)
    for i, j, k, l in [(0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (0, 3, 1, 2)]:
        gamma = (
            jw.creator(n, i) @ jw.creator(n, j) @ jw.annihilator(n, l) @ jw.annihilator(n, k)
        )
        anti = full_psi.conj() @ (gamma @ shifted + shifted @ gamma) @ full_psi
        comm = full_psi.conj() @ (gamma @ h_full - h_full @ gamma) @ full_psi
        assert s[i, j, k, l] == pytest.approx(anti, abs=1e-11)
        assert a[i, j, k, l] == pytest.approx(comm, abs=1e-11)


def _canonical_transition_rdm(basis, bra, ket):
    """<bra| a+_i a+_j a_l a_k |ket> at every canonical (i < j, k < l), by operator strings."""
    n = basis.n_spin_orbitals
    out = np.zeros((n,) * 4, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    ops = [(CREATE, i), (CREATE, j), (ANNIHILATE, l), (ANNIHILATE, k)]
                    for col, det in enumerate(basis.determinants):
                        hit = apply_string(det, ops)
                        if hit is not None and hit[0] in basis:
                            row = basis.index_of(hit[0])
                            out[i, j, k, l] += np.conj(bra[row]) * hit[1] * ket[col]
    return out


@pytest.mark.parametrize("fixture", list_fixtures())
def test_link_residual_holds_all_of_the_residual(fixture):
    # the canonical residual vanishes off the sector's links, so the link
    # vector is all of it, and expanding it gives the n^4 tensor back
    rng = np.random.default_rng(69)
    ham = build_hamiltonian(load_fixture(fixture))
    basis = ham.basis
    n = basis.n_spin_orbitals
    psi = _random_state(rng, basis)
    phi = ham.dense() @ psi.amplitudes - energy(ham, psi) * psi.amplitudes
    ref = _canonical_transition_rdm(basis, psi.amplitudes, phi)
    support = _excitations(basis).support
    unit = psi.normalized()  # the solver's inputs: a unit state and its energy
    links = _rdm2_links(basis, unit.amplitudes, _moments(ham, unit)[2])
    np.testing.assert_allclose(links, ref.ravel()[support], atol=1e-12)
    assert not np.delete(ref.ravel(), support).any()
    full = residual_cse(ham, psi).coeffs
    np.testing.assert_array_equal(links, full.ravel()[support])
    np.testing.assert_array_equal(_link_tensor(basis, links), full)
    TwoBodyTensor(n, full)  # the antisymmetry check of the public constructor


@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
@pytest.mark.parametrize("shots", [None, 2000])
def test_estimate_vanishes_off_the_links(variant, shots):
    # the sampled solver keeps only the estimate's link entries; they are all of it
    rng = np.random.default_rng(70)
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(rng, ham.basis)
    seed = None if shots is None else 7
    est = estimate_residual_w(ham, psi, variant=variant, delta=0.1, shots=shots, seed=seed).coeffs
    links = est.ravel()[_excitations(ham.basis).support]
    assert np.abs(links).max() > 1e-3
    np.testing.assert_array_equal(_link_tensor(ham.basis, links), est)


def test_residual_vanishes_on_fci_ground_state():
    for fixture in ("h2_d0.74", "h4_d1.60"):
        ham = build_hamiltonian(load_fixture(fixture))
        _, (ground,) = fci_solve(ham, n_states=1)
        assert residual_cse(ham, ground).norm() < 1e-10


# ---------------------------------------------------------------------------
# Contraction identities
# ---------------------------------------------------------------------------


def test_energy_slope_matches_central_difference():
    rng = np.random.default_rng(66)
    ham = build_hamiltonian(load_fixture("h2_d1.25"))
    n = ham.basis.n_spin_orbitals
    psi = _random_state(rng, ham.basis)
    r = residual_cse(ham, psi)
    eps = 1e-4
    for _ in range(5):
        t = TwoBodyTensor(n, antisymmetrize(
            rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
        ))
        op = two_body_to_operator(t, ham.basis)
        e_plus = energy(ham, dense_expm_apply(op, psi, eps))
        e_minus = energy(ham, dense_expm_apply(op, psi, -eps))
        numeric = (e_plus - e_minus) / (2 * eps)
        analytic = energy_slope(t, r)
        assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-9)


def test_descent_direction_slopes():
    rng = np.random.default_rng(67)
    ham = build_hamiltonian(load_fixture("h4_d1.20"))
    psi = _random_state(rng, ham.basis, complex_valued=False)
    r = residual_cse(ham, psi)
    s = residual_hcse(ham, psi)
    a = residual_acse(ham, psi)
    n = ham.basis.n_spin_orbitals
    assert energy_slope(TwoBodyTensor(n, -r.coeffs), r) == pytest.approx(-2.0 * r.norm() ** 2, rel=1e-12)
    assert energy_slope(TwoBodyTensor(n, -a.coeffs), r) == pytest.approx(-(a.norm() ** 2), rel=1e-10)
    assert energy_slope(TwoBodyTensor(n, -s.coeffs), r) == pytest.approx(-(s.norm() ** 2), rel=1e-10)


def test_variance_equals_reduced_hamiltonian_contraction():
    rng = np.random.default_rng(68)
    for fixture in ("h2_d2.00", "h4_d0.80"):
        integrals = load_fixture(fixture)
        ham = build_hamiltonian(integrals)
        k = reduced_hamiltonian_K(integrals)
        for _ in range(5):
            psi = _random_state(rng, ham.basis)
            r = residual_cse(ham, psi)
            var = variance(ham, psi)
            assert var == pytest.approx(float(np.real(tensor_overlap(k, r))), abs=1e-10)
            assert var <= k.norm() * r.norm() + 1e-12
