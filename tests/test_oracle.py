"""Eigensolver oracle: dense and sparse (ARPACK) paths against independent references."""

import json
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from cqesim import oracle
from cqesim.fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    hermitian_part,
    build_basis,
    two_body_to_operator,
)
from cqesim.hamiltonian import build_hamiltonian, list_fixtures, load_fixture
from cqesim.oracle import DENSE_CUTOFF, fci_solve

from _oracles import dense_expm_apply

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _random_hermitian_operator(rng, n, n_elec, sz):
    basis = build_basis(n, n_elec, sz)
    t = hermitian_part(antisymmetrize(rng.normal(size=(n, n, n, n))))
    return two_body_to_operator(TwoBodyTensor(n, t), basis)


def test_fci_solve_dense_matches_eigh():
    rng = np.random.default_rng(21)
    op = _random_hermitian_operator(rng, 6, 3, 1)
    energies, states = fci_solve(op, n_states=4)
    ref = np.linalg.eigh(op.dense())[0]
    np.testing.assert_allclose(energies, ref[:4], atol=1e-10)
    for e, psi in zip(energies, states):
        assert psi.norm() == pytest.approx(1.0)
        resid = np.linalg.norm(op.dense() @ psi.amplitudes - e * psi.amplitudes)
        assert resid < 1e-9


def test_fci_solve_phase_is_deterministic():
    rng = np.random.default_rng(22)
    op = _random_hermitian_operator(rng, 6, 2, 0)
    _, states_a = fci_solve(op, n_states=3)
    _, states_b = fci_solve(op, n_states=3)
    for a, b in zip(states_a, states_b):
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        pivot = a.amplitudes[int(np.argmax(np.round(np.abs(a.amplitudes), 12)))]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def _big_sparse_test_operator():
    """A >DENSE_CUTOFF sector with a banded Hermitian matrix placed on it."""
    basis = build_basis(14, 6, 0)
    dim = len(basis)
    assert dim > DENSE_CUTOFF
    rng = np.random.default_rng(23)
    diag = np.sort(rng.normal(size=dim)) * 3.0
    off = rng.normal(size=dim - 1) * 0.3
    far = rng.normal(size=dim - 7) * 0.1
    mat = (
        sp.diags(diag)
        + sp.diags(off, 1)
        + sp.diags(off, -1)
        + sp.diags(far, 7)
        + sp.diags(far, -7)
    )
    return SparseOperator(basis, mat.tocsr())


def test_fci_solve_lanczos_matches_dense():
    op = _big_sparse_test_operator()
    energies, states = fci_solve(op, n_states=3, tol=1e-11)
    ref = np.linalg.eigh(op.dense())[0]
    np.testing.assert_allclose(energies, ref[:3], atol=1e-9)
    for e, psi in zip(energies, states):
        resid = np.linalg.norm(op.matrix @ psi.amplitudes - e * psi.amplitudes)
        assert resid < 1e-8


@pytest.mark.parametrize("name", list_fixtures())
def test_sparse_path_finds_the_lowest_states(monkeypatch, name):
    # the square h4_d1.00 ground state is orthogonal to the uniform vector
    ham = build_hamiltonian(load_fixture(name))
    dim = len(ham.basis)
    ref = np.linalg.eigvalsh(ham.dense())
    monkeypatch.setattr(oracle, "DENSE_CUTOFF", 0)
    for n_states in (1, min(4, dim - 2)):
        energies, _ = fci_solve(ham, n_states=n_states)
        np.testing.assert_allclose(energies, ref[:n_states], rtol=0, atol=1e-10)


def test_sparse_path_returns_every_state(monkeypatch):
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    dim = len(ham.basis)
    monkeypatch.setattr(oracle, "DENSE_CUTOFF", 0)
    energies, states = fci_solve(ham, n_states=dim)
    np.testing.assert_allclose(energies, np.linalg.eigvalsh(ham.dense()), rtol=0, atol=1e-10)
    assert len(states) == dim


def test_fci_solve_validates_input():
    basis = build_basis(4, 2, 0)
    herm = SparseOperator(basis, np.eye(4))
    with pytest.raises(ValueError):
        fci_solve(herm, n_states=0)
    with pytest.raises(ValueError):
        fci_solve(herm, n_states=5)
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    with pytest.raises(ValueError):
        fci_solve(SparseOperator(basis, skew))


def test_dense_expm_apply_against_series():
    rng = np.random.default_rng(24)
    basis = build_basis(4, 2, 0)
    m = rng.normal(size=(4, 4))
    op = SparseOperator(basis, m)
    psi = StateVector(basis, rng.normal(size=4) + 1j * rng.normal(size=4))
    out = dense_expm_apply(op, psi, scale=0.37)
    # Plain Taylor series reference, summed to convergence.
    acc = psi.amplitudes.astype(complex).copy()
    term = acc.copy()
    for k in range(1, 60):
        term = (0.37 / k) * (m @ term)
        acc = acc + term
    np.testing.assert_allclose(out.amplitudes, acc, atol=1e-12)
    assert out.success_prob == psi.success_prob


def test_golden_eigenvalues_match_committed_files():
    """Every committed golden spectrum is reproduced by fci_solve today."""
    golden_files = sorted(GOLDEN_DIR.glob("*.json"))
    if not golden_files:
        pytest.skip("golden files not generated yet")
    for path in golden_files:
        record = json.loads(path.read_text())
        integrals = load_fixture(record["fixture"])
        ham = build_hamiltonian(
            integrals, n_electrons=record["n_electrons"], sz_twice=record["sz_twice"]
        )
        energies, _ = fci_solve(ham, n_states=len(record["eigenvalues"]))
        np.testing.assert_allclose(
            energies, record["eigenvalues"], atol=1e-9, err_msg=path.name
        )
