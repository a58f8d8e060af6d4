"""Fermionic Fock-sector machinery on occupation-number bitmasks.

Conventions used throughout the package:

* Spin orbital ``p`` occupies bit ``p`` of a determinant bitmask.  Even
  ``p`` is the alpha spin orbital of spatial orbital ``p // 2``, odd ``p``
  the beta one (interleaved ordering).
* A determinant ``|D>`` is the product of creation operators applied in
  ascending orbital order to the vacuum.  Applying ``a_p`` or ``a^+_p``
  therefore picks up the parity of the occupied orbitals strictly below
  ``p`` at the moment the operator acts.
* A two-body coefficient tensor ``T`` with elements ``T[i, j, k, l]``
  (written ``T^{ij;kl}``) represents the operator

      J[T] = sum_{ijkl} T^{ij;kl} a^+_k a^+_l a_j a_i,

  so the pair-matrix adjoint ``conj(T^{kl;ij})`` represents ``J[T]^+``.
  Coefficient tensors are antisymmetric under ``i <-> j`` and ``k <-> l``.

* Every two-body contraction runs through one cached sparse excitation
  pattern per sector (see ``_excitations``): operator assembly here,
  transition 2-RDMs and residuals in ``residuals``, and pair-excitation
  matrices in ``evolution``.

Functions
---------
build_basis          enumerate a fixed (N, 2*Sz) determinant sector
apply_string         act with a product of creation/annihilation operators
two_body_to_operator assemble the sector matrix of a two-body tensor
one_body_to_operator the same for a one-body matrix (N >= 2)
apply_operator       apply a sector operator to a state vector
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Determinant",
    "Basis",
    "StateVector",
    "TwoBodyTensor",
    "SparseOperator",
    "build_basis",
    "apply_string",
    "two_body_to_operator",
    "one_body_to_operator",
    "apply_operator",
    "antisymmetrize",
    "pair_adjoint",
    "hermitian_part",
    "antihermitian_part",
    "tensor_norm",
    "pair_matrix",
]

# A determinant is a plain occupation bitmask.
Determinant = int

CREATE = "create"
ANNIHILATE = "annihilate"


@dataclass(frozen=True)
class Basis:
    """An (n_electrons, sz_twice) sector of Fock space over 2r spin orbitals.

    Determinants are stored sorted by increasing bitmask value; the position
    of a determinant in ``determinants`` is its amplitude index.
    """

    n_spin_orbitals: int
    n_electrons: int
    sz_twice: int
    determinants: tuple[int, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {d: i for i, d in enumerate(self.determinants)}
        )

    def __len__(self):
        return len(self.determinants)

    def index_of(self, det: Determinant) -> int:
        """Position of ``det`` in the basis; KeyError if out of sector."""
        return self._index[det]

    def __contains__(self, det: Determinant) -> bool:
        return det in self._index


def build_basis(n_spin_orbitals: int, n_electrons: int, sz_twice: int) -> Basis:
    """Enumerate all determinants with fixed electron count and spin projection.

    Parameters
    ----------
    n_spin_orbitals : int
        Even number of spin orbitals ``2r``.
    n_electrons : int
        Total electron count ``N``.
    sz_twice : int
        Twice the spin projection, ``n_alpha - n_beta``.

    Returns
    -------
    Basis
        Sector basis sorted by bitmask value, of size
        ``C(r, n_alpha) * C(r, n_beta)``.
    """
    if n_spin_orbitals <= 0 or n_spin_orbitals % 2:
        raise ValueError(f"n_spin_orbitals must be positive and even, got {n_spin_orbitals}")
    if not 0 <= n_electrons <= n_spin_orbitals:
        raise ValueError(f"n_electrons {n_electrons} outside [0, {n_spin_orbitals}]")
    if (n_electrons + sz_twice) % 2:
        raise ValueError(f"n_electrons={n_electrons}, sz_twice={sz_twice} have no integer spin occupations")
    n_alpha = (n_electrons + sz_twice) // 2
    n_beta = (n_electrons - sz_twice) // 2
    r = n_spin_orbitals // 2
    if not (0 <= n_alpha <= r and 0 <= n_beta <= r):
        raise ValueError(f"empty sector: n_alpha={n_alpha}, n_beta={n_beta} with {r} spatial orbitals")

    alpha_masks = [sum(1 << (2 * p) for p in occ) for occ in combinations(range(r), n_alpha)]
    beta_masks = [sum(1 << (2 * p + 1) for p in occ) for occ in combinations(range(r), n_beta)]
    dets = sorted(a | b for a in alpha_masks for b in beta_masks)
    return Basis(n_spin_orbitals, n_electrons, sz_twice, tuple(dets))


def _parity_below(det: Determinant, orbital: int) -> int:
    """+1/-1 for even/odd occupation below ``orbital``."""
    return -1 if bin(det & ((1 << orbital) - 1)).count("1") % 2 else 1


def apply_string(det: Determinant, ops) -> tuple[Determinant, int] | None:
    """Apply a product of elementary fermionic operators to a determinant.

    ``ops`` is the operator string written left to right, e.g.
    ``[("create", 1), ("annihilate", 0)]`` for ``a^+_1 a_0``; the rightmost
    operator acts first.  Returns ``(new_det, sign)`` with ``sign = +/-1``,
    or ``None`` when the string annihilates the determinant.
    """
    sign = 1
    for kind, orbital in reversed(list(ops)):
        if orbital < 0:
            raise ValueError(f"negative orbital index {orbital}")
        mask = 1 << orbital
        if kind == CREATE:
            if det & mask:
                return None
            sign *= _parity_below(det, orbital)
            det |= mask
        elif kind == ANNIHILATE:
            if not det & mask:
                return None
            sign *= _parity_below(det, orbital)
            det &= ~mask
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
    return det, sign


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a sector basis, optionally ancilla-dilated.

    ``n_ancilla`` is 0 for a bare sector state (``len(amplitudes) == len(basis)``)
    or 1 for a single-ancilla dilated state, stored as the ancilla-0 block
    followed by the ancilla-1 block.  ``success_prob`` accumulates the branch
    weight retained across non-unitary steps and ancilla resets.
    """

    basis: Basis
    amplitudes: np.ndarray
    n_ancilla: int = 0
    success_prob: float = 1.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        expected = len(self.basis) * (2 ** self.n_ancilla)
        if amp.shape != (expected,):
            raise ValueError(f"amplitude length {amp.shape} does not match basis/ancilla size {expected}")
        if self.n_ancilla not in (0, 1):
            raise ValueError(f"n_ancilla must be 0 or 1, got {self.n_ancilla}")
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success_prob {self.success_prob} outside (0, 1]")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.basis, self.amplitudes / n, self.n_ancilla, self.success_prob)

    def inner(self, other: "StateVector") -> complex:
        if self.basis != other.basis or self.n_ancilla != other.n_ancilla:
            raise ValueError("states live on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class TwoBodyTensor:
    """Antisymmetric rank-4 coefficient tensor of a two-body operator."""

    n_spin_orbitals: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.n_spin_orbitals
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (n, n, n, n):
            raise ValueError(f"coeffs shape {arr.shape} does not match n_spin_orbitals={n}")
        sym = max(
            np.max(np.abs(arr + arr.transpose(1, 0, 2, 3))),
            np.max(np.abs(arr + arr.transpose(0, 1, 3, 2))),
        ) if n else 0.0
        scale = max(1.0, float(np.max(np.abs(arr)))) if n else 1.0
        if sym > 1e-10 * scale:
            raise ValueError("coefficient tensor is not antisymmetric in its index pairs")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def norm(self) -> float:
        """Frobenius norm over all four indices (no deduplication)."""
        return float(np.linalg.norm(self.coeffs))

    def adjoint(self) -> "TwoBodyTensor":
        return TwoBodyTensor(self.n_spin_orbitals, pair_adjoint(self.coeffs))

    def hermitian_part(self) -> "TwoBodyTensor":
        return TwoBodyTensor(self.n_spin_orbitals, hermitian_part(self.coeffs))

    def antihermitian_part(self) -> "TwoBodyTensor":
        return TwoBodyTensor(self.n_spin_orbitals, antihermitian_part(self.coeffs))

    def __add__(self, other):
        return TwoBodyTensor(self.n_spin_orbitals, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return TwoBodyTensor(self.n_spin_orbitals, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return TwoBodyTensor(self.n_spin_orbitals, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return TwoBodyTensor(self.n_spin_orbitals, -self.coeffs)


@dataclass(frozen=True)
class SparseOperator:
    """A linear operator restricted to one sector basis (CSR matrix)."""

    basis: Basis
    matrix: sp.csr_matrix

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix, dtype=complex)
        dim = len(self.basis)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match basis size {dim}")
        object.__setattr__(self, "matrix", m)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        d = self.matrix - self.matrix.getH()
        return d.nnz == 0 or float(np.max(np.abs(d.data))) <= tol

    def __add__(self, other):
        if self.basis != other.basis:
            raise ValueError("operators act on different bases")
        return SparseOperator(self.basis, self.matrix + other.matrix)

    def __mul__(self, scalar):
        return SparseOperator(self.basis, self.matrix * scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Tensor index algebra
# ---------------------------------------------------------------------------

def antisymmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the index-pair antisymmetric component (operator preserved)."""
    a = np.asarray(coeffs)
    return 0.25 * (
        a
        - a.transpose(1, 0, 2, 3)
        - a.transpose(0, 1, 3, 2)
        + a.transpose(1, 0, 3, 2)
    )


def pair_adjoint(coeffs: np.ndarray) -> np.ndarray:
    """Adjoint under the pair-matrix view: ``out[i,j,k,l] = conj(in[k,l,i,j])``."""
    return np.conj(np.transpose(coeffs, (2, 3, 0, 1)))


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    return 0.5 * (coeffs + pair_adjoint(coeffs))


def antihermitian_part(coeffs: np.ndarray) -> np.ndarray:
    return 0.5 * (coeffs - pair_adjoint(coeffs))


def tensor_norm(coeffs: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(coeffs).ravel()))


def pair_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Reshape ``T[i,j,k,l]`` to the ``(ij),(kl)`` pair matrix of shape (n^2, n^2)."""
    n = coeffs.shape[0]
    return np.asarray(coeffs).reshape(n * n, n * n)


# ---------------------------------------------------------------------------
# Sector excitation pattern
#
# Every in-sector matrix element of a two-body operator comes from canonical
# excitations  a^+_k a^+_l a_j a_i  (i < j, k < l)  that link two sector
# determinants through a common (N-2)-electron image M:
#
#     <D'| a^+_k a^+_l a_j a_i |D> = s' s   where  a_j a_i |D> = s |M>,
#                                                  a_l a_k |D'> = s' |M>.
#
# The pattern P lists these links once per basis (the string-driven
# excitation lists of determinant FCI; Knowles & Handy, CPL 111, 315 (1984);
# Olsen et al., JCP 89, 2185 (1988)).  Row r of P is the r-th structural
# nonzero of the sector matrix in CSR order, column ((i n + j) n + k) n + l
# a tensor index, and the entry 4 s' s, the 4 counting the index-pair images
# of an antisymmetric tensor.  So  P @ T.ravel()  is the CSR data of J[T],
# and  P^T (conj(bra)[rows] * ket[cols])  holds the canonical elements of
# 4 <bra| a^+_k a^+_l a_j a_i |ket>.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Excitations:
    pattern: sp.csc_matrix   # (sector nonzeros, n^4), entries 4 s' s
    by_index: sp.csr_matrix  # pattern.T, sharing its arrays
    rows: np.ndarray         # sector row of each nonzero
    indices: np.ndarray      # sector column of each nonzero (CSR indices)
    indptr: np.ndarray       # CSR row pointer of the sector matrix


def _lowerings(basis: Basis):
    """Every canonical lowering ``a_j a_i |D> = s |M>`` (i < j) of the sector.

    Returns the determinant index, pair code ``i n + j``, sign and image
    bitmask of each lowering.
    """
    n = basis.n_spin_orbitals
    dets = np.array(basis.determinants, dtype=np.int64)
    occ = (dets[:, None] >> np.arange(n)) & 1
    below = np.cumsum(occ, axis=1) - occ  # occupied orbitals under p
    ii, jj = np.triu_indices(n, 1)
    det, pair = np.nonzero(occ[:, ii] & occ[:, jj])
    i, j = ii[pair], jj[pair]
    # a_i passes below(i) electrons, then a_j passes below(j) - 1 once i is gone
    sign = 1 - 2 * ((below[det, i] + below[det, j] + 1) & 1)
    image = dets[det] ^ (1 << i) ^ (1 << j)
    return det, i * n + j, sign, image


@lru_cache(maxsize=64)
def _excitations(basis: Basis) -> _Excitations:
    """The excitation pattern of a sector: the table of lowerings joined with
    itself on the (N-2)-electron image."""
    n = basis.n_spin_orbitals
    dim = len(basis)
    det, pair, sign, image = _lowerings(basis)
    order = np.argsort(image, kind="stable")
    det, pair, sign, image = det[order], pair[order], sign[order], image[order]
    start = np.flatnonzero(np.diff(image, prepend=-1))
    size = np.diff(np.append(start, len(image)))
    # pair every lowering (ket side) with each lowering of its image (bra side)
    group_start = np.repeat(start, size)
    reach = np.repeat(size, size)
    ket = np.repeat(np.arange(len(image)), reach)
    bra = group_start[ket] + np.arange(len(ket)) - np.repeat(np.cumsum(reach) - reach, reach)
    key = det[bra] * dim + det[ket]
    unique, nonzero = np.unique(key, return_inverse=True)
    rows, cols = np.divmod(unique, dim)
    # complex entries spare a cast in every product with complex tensors and states
    pattern = sp.csc_matrix(
        (4.0 * sign[bra] * sign[ket] + 0j, (nonzero, pair[ket] * n * n + pair[bra])),
        shape=(len(unique), n**4),
    )
    indptr = np.searchsorted(rows, np.arange(dim + 1))
    return _Excitations(pattern, pattern.T, rows, cols.astype(np.int32), indptr.astype(np.int32))


def two_body_to_operator(tensor: TwoBodyTensor, basis: Basis) -> SparseOperator:
    """Sector matrix of ``sum_{pqst} T^{st;pq} a^+_p a^+_q a_t a_s``.

    Contributions that leave the (N, Sz) sector are dropped, so the result
    maps the sector into itself by construction.
    """
    if tensor.n_spin_orbitals != basis.n_spin_orbitals:
        raise ValueError("tensor and basis have different orbital counts")
    ex = _excitations(basis)
    data = ex.pattern @ tensor.coeffs.ravel()
    dim = len(basis)
    # the operator gets its own structure arrays, so in-place edits of it leave the pattern be
    matrix = sp.csr_matrix((data, ex.indices.copy(), ex.indptr.copy()), shape=(dim, dim))
    return SparseOperator(basis, matrix)


def _one_body_coeffs(h_so: np.ndarray, n_electrons: int) -> np.ndarray:
    """Raw two-body tensor ``h_so[k, i] delta_jl / (N - 1)`` of a one-body term.

    By ``sum_l a^+_k a^+_l a_l a_i = (N - 1) a^+_k a_i`` on N-electron
    states it represents ``sum_pq h_so[p, q] a^+_p a_q`` there; it needs
    ``N >= 2``.
    """
    if n_electrons < 2:
        raise ValueError("folding a one-body term into a two-body tensor needs at least two electrons")
    n = h_so.shape[0]
    return np.einsum("ki,jl->ijkl", h_so, np.eye(n)) / (n_electrons - 1)


def one_body_to_operator(h_so: np.ndarray, basis: Basis) -> SparseOperator:
    """Sector matrix of ``sum_{pq} h_so[p, q] a^+_p a_q`` over spin orbitals.

    Assembled through ``_one_body_coeffs``, so the sector needs at least two
    electrons.  Spin-off-diagonal elements of ``h_so`` would leave the Sz
    sector and are dropped, mirroring the two-body assembly.
    """
    n = basis.n_spin_orbitals
    h_so = np.asarray(h_so)
    if h_so.shape != (n, n):
        raise ValueError(f"one-body matrix shape {h_so.shape} does not match {n} spin orbitals")
    coeffs = antisymmetrize(_one_body_coeffs(h_so, basis.n_electrons))
    return two_body_to_operator(TwoBodyTensor(n, coeffs), basis)


def apply_operator(op: SparseOperator, psi: StateVector) -> StateVector:
    """Apply a sector operator; the result is generally unnormalized."""
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    if psi.n_ancilla != 0:
        raise ValueError("apply_operator expects an ancilla-free state")
    return StateVector(psi.basis, op.matrix @ psi.amplitudes, 0, psi.success_prob)
