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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    _excitations,
    antisymmetrize,
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
    canonical element (i < j, k < l); antisymmetrization fills in the other
    index images.  Elements that change the spin projection vanish
    identically and are never touched.
    """
    if ket is None:
        ket = bra
    if bra.basis != ket.basis:
        raise ValueError("bra and ket use different bases")
    if bra.n_ancilla or ket.n_ancilla:
        raise ValueError("compute_2rdm expects ancilla-free states")
    n = bra.basis.n_spin_orbitals
    ex = _excitations(bra.basis)
    links = bra.amplitudes.conj()[ex.rows] * ket.amplitudes[ex.indices]
    # canonical [i,j,k,l] holds 4 <a+_k a+_l a_j a_i>; the tensor is indexed [k,l,i,j]
    canonical = (ex.by_index @ links).reshape(n, n, n, n)
    return Rdm2(n, antisymmetrize(canonical).transpose(2, 3, 0, 1))


def energy(ham: SparseOperator, psi: StateVector) -> float:
    """Rayleigh quotient ``<psi|H|psi> / <psi|psi>`` (real for Hermitian H)."""
    amps = psi.amplitudes
    norm2 = float(np.real(np.vdot(amps, amps)))
    if norm2 == 0.0:
        raise ValueError("energy of the zero vector is undefined")
    return float(np.real(np.vdot(amps, ham.matrix @ amps)) / norm2)


def variance(ham: SparseOperator, psi: StateVector) -> float:
    """Energy variance ``<(H - E)^2>`` on the normalized state."""
    amps = psi.amplitudes / np.linalg.norm(psi.amplitudes)
    resid = ham.matrix @ amps - np.vdot(amps, ham.matrix @ amps) * amps
    return float(np.real(np.vdot(resid, resid)))


def _raw_residual(ham: SparseOperator, psi: StateVector) -> np.ndarray:
    psi = psi.normalized()
    e = energy(ham, psi)
    phi = StateVector(psi.basis, ham.matrix @ psi.amplitudes - e * psi.amplitudes)
    return compute_2rdm(psi, phi).tensor


def residual_channel(raw: np.ndarray, variant: str) -> np.ndarray:
    """The channel of a raw residual tensor: R for 'cse', ``S = R + R^+`` for
    'hcse' and ``A = R - R^+`` for 'acse'."""
    if variant == "cse":
        return raw
    if variant == "hcse":
        return raw + pair_adjoint(raw)
    if variant == "acse":
        return raw - pair_adjoint(raw)
    raise ValueError(f"unknown residual variant {variant!r}; expected one of {RESIDUAL_VARIANTS}")


def residual(ham: SparseOperator, psi: StateVector, variant: str) -> TwoBodyTensor:
    """Contracted residual of channel ``variant`` ('cse', 'hcse' or 'acse')."""
    channel = residual_channel(_raw_residual(ham, psi), variant)
    return TwoBodyTensor(psi.basis.n_spin_orbitals, channel)


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
