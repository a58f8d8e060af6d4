"""Transition 2-RDMs and the contracted residuals that drive the solver.

For a normalized state ``psi`` with energy ``E = <psi|H|psi>`` the raw
residual tensor is the transition 2-RDM

    R[i,j,k,l] = <psi| a+_i a+_j a_l a_k (H - E) |psi>,

whose vanishing characterizes eigenstates much more sharply than the
energy gradient alone.  Its Hermitian part (under the pair-matrix adjoint)
is the anticommutator residual ``S = <{a+a+aa, H - E}>`` and its
anti-Hermitian part the commutator residual ``A = <[a+a+aa, H]>``:

    S = R + R^+,   A = R - R^+,   R = (S + A) / 2.

Two contraction identities are load-bearing and pinned by tests:

* energy slope: for any coefficient tensor ``T``,
  ``d/de E(exp(e J[T]) psi)|_0 = 2 Re <T, R>``, so ``-R``, ``-A/2``,
  ``-S/2`` (or any positive multiples) are descent directions;
* variance: with the reduced two-body form K of the Hamiltonian,
  ``<(H - E)^2> = Re <K, R>``.

``<a, b>`` is the Frobenius inner product ``sum conj(a) * b``.

The residual is contracted as a link vector (``_link_residual``; see
``fock``), which the solver uses as it is; ``compute_2rdm`` and the public
residual functions expand link vectors into n^4 tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    _csr_product,
    _excitations,
    _link_tensor,
    _transition_elements,
    pair_adjoint,
)

__all__ = [
    "Rdm2",
    "compute_2rdm",
    "energy",
    "variance",
    "residual_cse",
    "residual_hcse",
    "residual_acse",
    "residual",
    "residual_channel",
    "tensor_overlap",
    "energy_slope",
    "RESIDUAL_VARIANTS",
]

RESIDUAL_VARIANTS = ("cse", "hcse", "acse")


@dataclass(frozen=True)
class Rdm2:
    """A (possibly transition) two-particle reduced density matrix.

    ``tensor[i,j,k,l] = <bra| a+_i a+_j a_l a_k |ket>``.  Always
    antisymmetric in both index pairs; pair-Hermitian and positive
    semidefinite only when ``bra == ket``.
    """

    n_spin_orbitals: int
    tensor: np.ndarray

    def __post_init__(self):
        n = self.n_spin_orbitals
        arr = np.asarray(self.tensor, dtype=complex)
        if arr.shape != (n, n, n, n):
            raise ValueError(f"tensor shape {arr.shape} does not match n_spin_orbitals={n}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "tensor", arr)

    def trace(self) -> complex:
        """Pair trace ``sum_ij tensor[i,j,i,j]``; equals N(N-1) on a unit ket."""
        return complex(np.einsum("ijij->", self.tensor))

    def pair_matrix(self) -> np.ndarray:
        n = self.n_spin_orbitals
        return self.tensor.reshape(n * n, n * n)

    def one_body(self, n_electrons: int) -> np.ndarray:
        """Partial trace down to the 1-RDM ``<a+_i a_k>`` (needs N >= 2)."""
        if n_electrons < 2:
            raise ValueError("1-RDM contraction needs at least two electrons")
        return np.einsum("ijkj->ik", self.tensor) / (n_electrons - 1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))


def compute_2rdm(bra: StateVector, ket: StateVector | None = None) -> Rdm2:
    """Transition 2-RDM between two states of the same sector.

    One transposed product with the basis's excitation pattern yields every
    linked canonical element (i < j, k < l); antisymmetrization fills in the
    other index images.  Elements that link no two determinants of the
    sector, those that change the spin projection among them, vanish
    identically and are never touched.
    """
    if ket is None:
        ket = bra
    if bra.basis != ket.basis:
        raise ValueError("bra and ket use different bases")
    if bra.n_ancilla or ket.n_ancilla:
        raise ValueError("compute_2rdm expects ancilla-free states")
    links = _rdm2_links(bra.basis, bra.amplitudes, ket.amplitudes)
    return Rdm2(bra.basis.n_spin_orbitals, _link_tensor(bra.basis, links))


def _rdm2_links(basis: Basis, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """The link vector of the transition 2-RDM ``<bra| a+_i a+_j a_l a_k |ket>``.

    ``_transition_elements`` holds 4 <bra| a+_k a+_l a_j a_i |ket> at each
    link (i, j, k, l), which is four times the 2-RDM element at the link's
    pair adjoint (k, l, i, j).
    """
    return 0.25 * _transition_elements(basis, bra, ket)[_excitations(basis).adjoint]


def _check_basis(ham: SparseOperator, psi: StateVector):
    if ham.basis != psi.basis:
        raise ValueError("hamiltonian and state use different bases")
    if psi.n_ancilla:
        raise ValueError(f"expected an ancilla-free state, got {psi.n_ancilla} ancilla qubit(s)")


def energy(ham: SparseOperator, psi: StateVector) -> float:
    """Rayleigh quotient ``<psi|H|psi> / <psi|psi>`` (real for Hermitian H)."""
    _check_basis(ham, psi)
    amps = psi.amplitudes
    norm2 = float(np.real(np.vdot(amps, amps)))
    if norm2 == 0.0:
        raise ValueError("energy of the zero vector is undefined")
    return float(np.real(np.vdot(amps, _csr_product(ham.matrix, amps))) / norm2)


def variance(ham: SparseOperator, psi: StateVector) -> float:
    """Energy variance ``<(H - E)^2>`` on the normalized state."""
    _check_basis(ham, psi)
    norm = np.linalg.norm(psi.amplitudes)
    if norm == 0.0:
        raise ValueError("variance of the zero vector is undefined")
    amps = psi.amplitudes / norm
    h_amps = _csr_product(ham.matrix, amps)
    resid = h_amps - np.vdot(amps, h_amps) * amps
    return float(np.real(np.vdot(resid, resid)))


def _link_residual(ham: SparseOperator, psi: StateVector, e: float) -> np.ndarray:
    """The raw residual R of the unit state ``psi`` of energy ``e`` as a link
    vector (``fock``): the transition 2-RDM between psi and ``(H - e) psi``.

    Neither is checked: the solver loop holds both for every state it visits.
    """
    amps = psi.amplitudes
    return _rdm2_links(psi.basis, amps, _csr_product(ham.matrix, amps) - e * amps)


def residual_channel(raw: np.ndarray, variant: str, adjoint=None) -> np.ndarray:
    """The channel of a raw residual: R for 'cse', ``S = R + R^+`` for 'hcse'
    and ``A = R - R^+`` for 'acse'.

    ``adjoint`` maps ``raw`` to ``R^+``: ``pair_adjoint`` for an n^4 tensor
    (the default), or a sector's ``_Excitations.pair_adjoint`` for a link
    vector.
    """
    if variant == "cse":
        return raw
    adjoint = pair_adjoint if adjoint is None else adjoint
    if variant == "hcse":
        return raw + adjoint(raw)
    if variant == "acse":
        return raw - adjoint(raw)
    raise ValueError(f"unknown residual variant {variant!r}; expected one of {RESIDUAL_VARIANTS}")


def residual(ham: SparseOperator, psi: StateVector, variant: str) -> TwoBodyTensor:
    """Contracted residual of channel ``variant`` ('cse', 'hcse' or 'acse')."""
    psi = psi.normalized()
    raw = _link_residual(ham, psi, energy(ham, psi))
    channel = residual_channel(raw, variant, _excitations(psi.basis).pair_adjoint)
    return TwoBodyTensor._closed(psi.basis.n_spin_orbitals, _link_tensor(psi.basis, channel))


def residual_cse(ham: SparseOperator, psi: StateVector) -> TwoBodyTensor:
    """Full contracted residual R (Hermitian plus anti-Hermitian content)."""
    return residual(ham, psi, "cse")


def residual_hcse(ham: SparseOperator, psi: StateVector) -> TwoBodyTensor:
    """Anticommutator residual ``S = R + R^+`` (pair-Hermitian)."""
    return residual(ham, psi, "hcse")


def residual_acse(ham: SparseOperator, psi: StateVector) -> TwoBodyTensor:
    """Commutator residual ``A = R - R^+`` (pair-anti-Hermitian)."""
    return residual(ham, psi, "acse")


def tensor_overlap(a: TwoBodyTensor | np.ndarray, b: TwoBodyTensor | np.ndarray) -> complex:
    """Frobenius inner product ``sum conj(a) * b`` over all four indices."""
    a_arr = a.coeffs if isinstance(a, TwoBodyTensor) else np.asarray(a)
    b_arr = b.coeffs if isinstance(b, TwoBodyTensor) else np.asarray(b)
    return complex(np.vdot(a_arr, b_arr))


def energy_slope(direction: TwoBodyTensor, residual_tensor: TwoBodyTensor) -> float:
    """Directional derivative of the energy along ``exp(e J[direction])``.

    Equals ``2 Re <direction, R>`` with R the full residual of the state
    the derivative is taken at.
    """
    return 2.0 * float(np.real(tensor_overlap(direction, residual_tensor)))
