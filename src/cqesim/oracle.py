"""Reference eigensolver and dense propagator used as ground truth.

``fci_solve`` diagonalizes a sector Hamiltonian exactly: dense for small
sectors, and above ``DENSE_CUTOFF`` ARPACK's implicitly restarted Lanczos
(``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen & Yang, ARPACK Users'
Guide, SIAM 1998) from a fixed random start vector.  A random start
overlaps every eigenvector (almost surely), so symmetric geometries whose
ground state is orthogonal to the uniform vector (the square H4, an H8
ring) are found too.  Both paths fix the eigenvector phase
deterministically so repeated runs and golden files compare bit-for-bit,
and every returned pair is checked against its own residual
``|H v - E v|``.
"""

from __future__ import annotations

import numpy as np

from .fock import SparseOperator, StateVector, _csr_product

__all__ = ["fci_solve", "DENSE_CUTOFF"]

DENSE_CUTOFF = 512


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real positive.

    Ties in magnitude (to 12 decimals) resolve to the lowest index, which
    keeps the choice stable under round-off reshuffling.
    """
    mags = np.round(np.abs(vec), 12)
    k = int(np.argmax(mags))
    pivot = vec[k]
    if pivot == 0:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def fci_solve(
    hamiltonian: SparseOperator, n_states: int = 1, tol: float = 1e-10
) -> tuple[np.ndarray, list[StateVector]]:
    """Exact lowest eigenpairs of a sector Hamiltonian.

    Returns ``(energies, states)`` with ``energies`` ascending and each
    state normalized with a deterministic global phase.  Every returned
    pair is verified against ``|H v - E v| <= 100 * tol * max(1, |E|)``.
    """
    dim = len(hamiltonian.basis)
    if not 1 <= n_states <= dim:
        raise ValueError(f"n_states {n_states} outside [1, {dim}]")
    if not hamiltonian.is_hermitian(1e-10):
        raise ValueError("fci_solve expects a Hermitian operator")
    if dim <= DENSE_CUTOFF or n_states >= dim - 1:  # ARPACK's complex driver needs k < dim - 1
        energies, vectors = np.linalg.eigh(hamiltonian.dense())
        energies = energies[:n_states]
        vectors = vectors[:, :n_states]
    else:
        import scipy.sparse.linalg  # only sectors above the cutoff pay for the import

        v0 = np.random.default_rng(0).standard_normal(dim)
        energies, vectors = scipy.sparse.linalg.eigsh(
            hamiltonian.matrix, k=n_states, which="SA", v0=v0, tol=tol
        )
        order = np.argsort(energies)  # a complex matrix runs through eigs, unordered
        energies, vectors = energies[order], vectors[:, order]
    states = []
    for col in range(n_states):
        vec = _fix_phase(vectors[:, col].astype(complex))
        vec /= np.linalg.norm(vec)
        resid = np.linalg.norm(_csr_product(hamiltonian.csr, vec) - energies[col] * vec)
        if resid > 100 * tol * max(1.0, abs(energies[col])):
            raise RuntimeError(f"eigenpair {col} residual {resid:.2e} exceeds tolerance")
        states.append(StateVector(hamiltonian.basis, vec))
    return np.asarray(energies, dtype=float), states
