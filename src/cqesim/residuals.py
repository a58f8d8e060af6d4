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

The residual is contracted as a link vector, the transition 2-RDM link
vector between psi and ``(H - E) psi`` (``fock._rdm2_links``, the one
2-RDM primitive, beside the excitation pattern it reads), which the
solver uses as it is; ``compute_2rdm`` and the public residual functions
expand link vectors into n^4 tensors through the public ``Rdm2`` and
``TwoBodyTensor`` constructors.  The S/A split has one path,
``_residual_channels``, which forms all three channels from one
application of the adjoint map; ``residual_channel`` picks one of them.
``_moments`` reads the energy, the variance and ``(H - E) psi``, the ket
of the raw residual, off one product ``H psi``: the solver pays that one
product per visited state, and ``variance`` and ``residual`` use the same
helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    _csr_product,
    _excitations,
    _link_tensor,
    _rdm2_links,
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


def _check_basis(ham: SparseOperator, psi: StateVector):
    if ham.basis != psi.basis:
        raise ValueError("hamiltonian and state use different bases")
    if psi.n_ancilla:
        raise ValueError(f"expected an ancilla-free state, got {psi.n_ancilla} ancilla qubit(s)")


def _rayleigh(amps: np.ndarray, h_amps: np.ndarray) -> tuple[float, float]:
    """``|psi|^2`` and ``<psi|H|psi> / <psi|psi>`` from the product ``H psi``."""
    norm2 = float(np.real(np.vdot(amps, amps)))
    if norm2 == 0.0:
        raise ValueError("the zero vector has no energy or variance")
    return norm2, float(np.real(np.vdot(amps, h_amps)) / norm2)


def energy(ham: SparseOperator, psi: StateVector) -> float:
    """Rayleigh quotient ``<psi|H|psi> / <psi|psi>`` (real for Hermitian H)."""
    _check_basis(ham, psi)
    amps = psi.amplitudes
    return _rayleigh(amps, _csr_product(ham.csr, amps))[1]


def _moments(
    ham: SparseOperator, psi: StateVector, h_amps: np.ndarray | None = None
) -> tuple[float, float, np.ndarray]:
    """Energy E, variance and ``(H - E) psi`` of a state from its one product with H.

    E is bit for bit that of ``energy``, and the variance is
    ``|(H - E) psi|^2 / |psi|^2``, the one formula of ``variance``.  The
    solver reads all three, the raw residual included (``_rdm2_links`` of
    psi and ``(H - E) psi``), off the one product at every state it
    visits; ``h_amps`` is that product where the caller already formed it
    (the step plan's accepted trial), and it is formed here otherwise.
    The state is not checked.
    """
    amps = psi.amplitudes
    if h_amps is None:
        h_amps = _csr_product(ham.csr, amps)
    norm2, e = _rayleigh(amps, h_amps)
    shifted = h_amps - e * amps
    return e, float(np.real(np.vdot(shifted, shifted))) / norm2, shifted


def variance(ham: SparseOperator, psi: StateVector) -> float:
    """Energy variance ``<(H - E)^2>`` on the normalized state (``_moments``)."""
    _check_basis(ham, psi)
    return _moments(ham, psi)[1]


def residual_channel(raw: np.ndarray, variant: str, adjoint=None) -> np.ndarray:
    """The channel of a raw residual: R for 'cse', ``S = R + R^+`` for 'hcse'
    and ``A = R - R^+`` for 'acse'.

    ``adjoint`` maps ``raw`` to ``R^+``: ``pair_adjoint`` for an n^4 tensor
    (the default), or a sector's ``_Excitations.pair_adjoint`` for a link
    vector.  The channel is one of ``_residual_channels``, so 'cse' returns
    ``raw`` itself.
    """
    if variant not in RESIDUAL_VARIANTS:
        raise ValueError(f"unknown residual variant {variant!r}; expected one of {RESIDUAL_VARIANTS}")
    return _residual_channels(raw, pair_adjoint if adjoint is None else adjoint)[variant]


def _residual_channels(raw: np.ndarray, adjoint) -> dict[str, np.ndarray]:
    """Every channel of a raw residual (``residual_channel``), keyed by
    variant, from one application of ``adjoint``: the one S/A split."""
    dagger = adjoint(raw)
    return {"cse": raw, "hcse": raw + dagger, "acse": raw - dagger}


def residual(ham: SparseOperator, psi: StateVector, variant: str) -> TwoBodyTensor:
    """Contracted residual of channel ``variant`` ('cse', 'hcse' or 'acse')."""
    _check_basis(ham, psi)
    psi = psi.normalized()
    raw = _rdm2_links(psi.basis, psi.amplitudes, _moments(ham, psi)[2])
    channel = residual_channel(raw, variant, _excitations(psi.basis).pair_adjoint)
    return TwoBodyTensor(psi.basis.n_spin_orbitals, _link_tensor(psi.basis, channel))


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
