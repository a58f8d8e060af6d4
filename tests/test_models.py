"""Pairing ladder: block structure, dressed frame, and equator geometry."""

import math
import warnings

import numpy as np
import pytest

from cqesim.evolution import apply_exp_exact
from cqesim.fock import StateVector, TwoBodyTensor, two_body_to_operator
from cqesim.models import (
    PAIRING_DETERMINANTS,
    PairingModel,
    SpherePoint,
    build_pairing_hamiltonian,
    dressed_pair_vectors,
    dressed_states,
    equator_state,
    equator_states,
    pairing_basis,
    random_sphere_point,
    sphere_state,
)
from cqesim.oracle import fci_solve
from cqesim.residuals import energy, residual_acse, residual_cse, residual_hcse

from _oracles import to_sphere

DEFAULT = PairingModel()


def _coords(point: SpherePoint) -> np.ndarray:
    return np.array([point.g, point.m, point.x])


def test_model_validation():
    with pytest.raises(ValueError):
        PairingModel(e0=0.0, e1=0.7, e3=2.0, t=0.5)  # midpoint broken
    with pytest.raises(ValueError):
        PairingModel(e0=1.0, e1=1.0, e3=1.0, t=0.0)  # no gap at all
    # Degenerate diagonal with hopping is fine.
    PairingModel(e0=1.0, e1=1.0, e3=1.0, t=0.3)


@pytest.mark.parametrize("field", ["e0", "e1", "e3", "t"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_refuses_non_finite_constants(field, value):
    # refused by name at construction, before any arithmetic could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} = {value} must be finite$"):
            PairingModel(**{field: value})


def test_block_matrix_is_two_level_product():
    ham = build_pairing_hamiltonian(DEFAULT)
    assert ham.is_hermitian()
    basis = pairing_basis()
    assert len(basis) == 36
    idx = [basis.index_of(d) for d in PAIRING_DETERMINANTS]
    block = ham.dense()[np.ix_(idx, idx)]
    h2 = DEFAULT.pair_matrix()
    ref = np.kron(h2, np.eye(2)) + np.kron(np.eye(2), h2)
    np.testing.assert_allclose(block, ref, atol=1e-12)
    # The block does not couple to the rest of the sector.
    other = [i for i in range(36) if i not in idx]
    np.testing.assert_allclose(ham.dense()[np.ix_(idx, other)], 0.0, atol=1e-12)


def test_pairing_hamiltonian_stores_no_exact_zero():
    # J[K] reads exactly zero at 939 of the sector's 972 structural nonzeros;
    # like every operator built from a tensor, H stores only the 33 others
    csr = build_pairing_hamiltonian(DEFAULT).csr
    assert len(csr.data) == len(csr.indices) == csr.indptr[-1] == 33
    assert np.count_nonzero(csr.data) == 33


def test_broken_pair_determinants_are_diagonal():
    ham = build_pairing_hamiltonian(DEFAULT)
    basis = pairing_basis()
    dense = ham.dense()
    # All four pairs broken: diagonal energy 0, completely decoupled.
    det = (1 << 0) | (1 << 3) | (1 << 4) | (1 << 7)
    col = dense[:, basis.index_of(det)]
    assert col[basis.index_of(det)] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(col) == pytest.approx(0.0, abs=1e-12)
    # One pair up, one down, both intact but on split levels: energy e1.
    det_mixed = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3)
    col = dense[:, basis.index_of(det_mixed)]
    assert col[basis.index_of(det_mixed)] == pytest.approx(DEFAULT.e1, abs=1e-12)


def test_block_spectrum_frozen_values_and_membership():
    # {e1 - 2w, e1, e1, e1 + 2w} with w the model's gap_half
    w = DEFAULT.gap_half
    spec = (DEFAULT.e1 - 2 * w, DEFAULT.e1, DEFAULT.e1, DEFAULT.e1 + 2 * w)
    np.testing.assert_allclose(
        spec, (1.0 - np.sqrt(2.0), 1.0, 1.0, 1.0 + np.sqrt(2.0)), atol=1e-12
    )
    ham = build_pairing_hamiltonian(DEFAULT)
    eigenvalues = np.linalg.eigvalsh(ham.dense())
    for target in spec:
        assert np.min(np.abs(eigenvalues - target)) < 1e-10


def test_ground_state_is_dressed_g():
    ham = build_pairing_hamiltonian(DEFAULT)
    energies, (ground,) = fci_solve(ham)
    assert energies[0] == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-10)
    g = dressed_states(DEFAULT)["G"]
    assert abs(ground.inner(g)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_dressed_frame_is_orthonormal_and_m_anti_decouples():
    states = dressed_states(DEFAULT)
    names = ("G", "M", "X", "M_anti")
    for a in names:
        for b in names:
            expected = 1.0 if a == b else 0.0
            assert abs(states[a].inner(states[b]) - expected) < 1e-12
    ham = build_pairing_hamiltonian(DEFAULT)
    m_anti = states["M_anti"].amplitudes
    np.testing.assert_allclose(ham.matrix @ m_anti, DEFAULT.e1 * m_anti, atol=1e-12)
    assert energy(ham, states["M"]) == pytest.approx(DEFAULT.e1, abs=1e-12)


def test_dressing_reduces_to_determinants_without_hopping():
    model = PairingModel(t=0.0)
    um, up = dressed_pair_vectors(model)
    np.testing.assert_allclose(um, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(up, [0.0, 1.0], atol=1e-12)
    g = dressed_states(model)["G"]
    basis = pairing_basis()
    expected = np.zeros(36)
    expected[basis.index_of(PAIRING_DETERMINANTS[0])] = 1.0
    np.testing.assert_allclose(g.amplitudes, expected, atol=1e-12)


def test_equator_endpoints_and_energy_profile():
    states = dressed_states(DEFAULT)
    ham = build_pairing_hamiltonian(DEFAULT)
    w = DEFAULT.gap_half
    e_ground = DEFAULT.e1 - 2 * w
    assert abs(equator_state(DEFAULT, 0.0).inner(states["G"])) == pytest.approx(1.0)
    assert abs(equator_state(DEFAULT, np.pi / 2).inner(states["X"])) == pytest.approx(1.0)
    for theta in (0.3, 1.1, 2.0):
        e = energy(ham, equator_state(DEFAULT, theta))
        assert e == pytest.approx(e_ground + np.sin(theta) ** 2 * 4 * w, abs=1e-12)


def test_equator_is_acse_stationary_but_not_hcse():
    ham = build_pairing_hamiltonian(DEFAULT)
    samples = equator_states(DEFAULT, 12)
    assert len(samples) == 12
    for psi in samples:
        assert residual_acse(ham, psi).norm() < 1e-12
        assert residual_hcse(ham, psi).norm() > 1e-3
        # Midpoint sampling keeps every sample away from both poles.
        point = to_sphere(DEFAULT, psi)
        assert abs(point.g) < 0.999 and abs(point.x) < 0.999


def test_off_equator_states_have_commutator_residual():
    ham = build_pairing_hamiltonian(DEFAULT)
    point = SpherePoint(np.sqrt(1 - 0.25), 0.5, 0.0)
    psi = sphere_state(DEFAULT, point)
    assert residual_acse(ham, psi).norm() > 1e-3


def test_to_sphere_round_trip_up_to_antipode():
    rng = np.random.default_rng(90)
    for _ in range(20):
        point = random_sphere_point(rng)
        back = to_sphere(DEFAULT, sphere_state(DEFAULT, point))
        delta = min(
            np.linalg.norm(_coords(back) - _coords(point)),
            np.linalg.norm(_coords(back) + _coords(point)),
        )
        assert delta < 1e-10


def test_to_sphere_rejects_foreign_states():
    rng = np.random.default_rng(91)
    basis = pairing_basis()
    amps = rng.normal(size=36)
    off_sphere = StateVector(basis, amps / np.linalg.norm(amps))
    with pytest.raises(ValueError):
        to_sphere(DEFAULT, off_sphere)
    states = dressed_states(DEFAULT)
    complex_mix = StateVector(
        basis, (states["G"].amplitudes + 1j * states["X"].amplitudes) / np.sqrt(2)
    )
    with pytest.raises(ValueError):
        to_sphere(DEFAULT, complex_mix)


def test_sphere_point_validation_and_sampling():
    with pytest.raises(ValueError):
        SpherePoint(1.0, 1.0, 0.0)
    rng = np.random.default_rng(92)
    a = random_sphere_point(rng)
    assert np.linalg.norm(_coords(a)) == pytest.approx(1.0)
    b = random_sphere_point(np.random.default_rng(92))
    np.testing.assert_array_equal(_coords(a), _coords(b))


def test_residual_flow_stays_on_sphere():
    """One full-residual step keeps a sphere state inside the sphere frame."""
    rng = np.random.default_rng(93)
    ham = build_pairing_hamiltonian(DEFAULT)
    for _ in range(5):
        psi = sphere_state(DEFAULT, random_sphere_point(rng))
        r = residual_cse(ham, psi)
        op = two_body_to_operator(TwoBodyTensor(r.n_spin_orbitals, -r.coeffs), psi.basis)
        stepped = apply_exp_exact(op, psi, scale=0.2, renormalize=True)
        point = to_sphere(DEFAULT, stepped)  # raises if the flow left the frame
        assert abs(np.linalg.norm(_coords(point)) - 1.0) < 1e-9


def test_equator_states_validation():
    with pytest.raises(ValueError):
        equator_states(DEFAULT, 0)
