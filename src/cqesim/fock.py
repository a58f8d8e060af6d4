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
  pattern per sector (see ``_excitations``), whose columns are the sector's
  links: the canonical elements (i < j, k < l) that connect two of its
  determinants.  A tensor that acts inside the sector is carried as its
  link vector, its canonical entries at the links; the solver works on
  link vectors alone.  Operator assembly (``_link_operator``), the link
  vector of a transition 2-RDM (``_rdm2_links``) for the residuals and
  ``compute_2rdm``, and the estimator's outcome classes (``P^T`` and
  ``|P^T|`` on products of the probe's halves, in ``evolution``) all read
  the pattern; the pair-excitation matrices of ``evolution`` come through
  the assembly.
* ``antisymmetrize`` is the one image primitive: ``compute_2rdm``, the
  public residuals and the residual estimator (all through
  ``_link_tensor``) and ``reduced_hamiltonian_K`` build their n^4 tensors
  from canonical or raw entries and let it fill every index image.  Every
  ``TwoBodyTensor`` comes from its one constructor, which checks the
  antisymmetry; only these public n^4 results pay that check.
* Sector matrices are bare CSR arrays (``_Csr``): complex data on int32
  structure, in scipy's canonical order.  Every product, and every read
  of an operator's diagonal or dense form, runs a kernel of scipy's
  compiled sparsetools extension, which is loaded by itself
  (``_load_sparsetools``), so the package imports no scipy package; only
  the public ``SparseOperator`` constructor, ``SparseOperator.matrix`` and
  ARPACK's branch of ``oracle.fci_solve`` do.  Package operators come from
  ``SparseOperator._from_csr``, which does not.
* An operator built from a tensor (``two_body_to_operator``,
  ``one_body_to_operator``, ``hamiltonian.build_hamiltonian``, the pairing
  model, ``evolution.pair_excitation_matrix``) comes from one assembly,
  ``_tensor_operator``: ``J[T] + core``, its exact zeros dropped, with
  the arrays of scipy's sum.  A solver step factor is ``_link_operator``'s
  ``P @ c`` on the sector's shared structure, which drops nothing, so a
  step pays no per-iteration drop.

Functions
---------
build_basis          enumerate a fixed (N, 2*Sz) determinant sector
two_body_to_operator assemble the sector matrix of a two-body tensor
one_body_to_operator the same for a one-body matrix (N >= 2)
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np


def _load_sparsetools():
    """scipy's compiled sparsetools extension, loaded by itself.

    The package calls seven of its kernels: the three behind scipy's ``@``
    (``csr_matvec``, ``csr_matvecs``, ``csc_matvec``) in every product, the
    two behind ``H - H.getH()`` in the Hermiticity check, and those behind
    ``.diagonal()`` and ``.toarray()`` (``csr_diagonal``, ``csr_todense``)
    for ``SparseOperator.diagonal`` and ``dense``.  ``import
    scipy.sparse`` would run ``scipy/__init__`` and ``scipy/sparse/__init__``
    too, which take longer than the rest of a cold set-up.  The extension
    file is found in the installed scipy and loaded under its own name,
    where a later ``import scipy.sparse`` finds and reuses it; one loaded
    before is reused here.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("cqesim needs scipy's sparsetools extension, and scipy is not installed")
    stem = Path(scipy.submodule_search_locations[0], "sparse", "_sparsetools")
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"scipy's sparsetools extension is missing: no {stem} with a suffix in {suffixes}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()

__all__ = [
    "Determinant",
    "Basis",
    "StateVector",
    "TwoBodyTensor",
    "SparseOperator",
    "build_basis",
    "two_body_to_operator",
    "one_body_to_operator",
    "antisymmetrize",
    "pair_adjoint",
    "hermitian_part",
]

# A determinant is a plain occupation bitmask.
Determinant = int


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


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a sector basis, optionally ancilla-dilated.

    ``n_ancilla`` is 0 for a bare sector state (``len(amplitudes) == len(basis)``)
    or 1 for a single-ancilla dilated state, stored as the ancilla-0 block
    followed by the ancilla-1 block.  ``success_prob`` accumulates the branch
    weight retained across non-unitary steps and ancilla resets; a product
    below the float64 range is booked as 5e-324 (``evolution._booked``).
    The amplitudes are read-only: the constructor copies what it is given,
    and the states that the package forms from arrays it has just made go
    through ``_closed``, which skips the cast, the checks and the copy.
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

    @classmethod
    def _closed(
        cls, basis: Basis, amplitudes: np.ndarray, n_ancilla: int = 0, success_prob: float = 1.0
    ) -> "StateVector":
        """A state on amplitudes the package has just formed.

        Skips the cast, the checks and the copy of the public constructor:
        ``amplitudes`` must be a complex vector of the length that ``basis``
        and ``n_ancilla`` give, that nothing else writes to, either a fresh
        one, which becomes read-only, or a view of a read-only one;
        ``success_prob`` must lie in (0, 1].
        """
        out = object.__new__(cls)
        amplitudes.setflags(write=False)
        out.__dict__.update(basis=basis, amplitudes=amplitudes, n_ancilla=n_ancilla, success_prob=success_prob)
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector._closed(self.basis, self.amplitudes / n, self.n_ancilla, self.success_prob)

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
            np.max(np.abs(arr + arr.transpose(1, 0, 2, 3)), initial=0.0),
            np.max(np.abs(arr + arr.transpose(0, 1, 3, 2)), initial=0.0),
        )
        scale = max(1.0, float(np.max(np.abs(arr), initial=0.0)))
        if sym > 1e-10 * scale:
            raise ValueError("coefficient tensor is not antisymmetric in its index pairs")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def norm(self) -> float:
        """Frobenius norm over all four indices (no deduplication)."""
        return float(np.linalg.norm(self.coeffs))


class _Csr(NamedTuple):
    """A CSR matrix as its bare arrays.

    The package forms complex data (real only for the pattern's ``|P^T|``)
    on int32 structure in scipy's canonical order (columns ascending within
    a row, none twice): the arrays of the ``scipy.sparse.csr_matrix`` of
    the same matrix.  A canonical complex scipy matrix given to
    ``SparseOperator`` lends its own arrays, and scipy's conversion of other
    input may share some of the input's; a non-canonical matrix is summed
    and sorted into new arrays.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _hermitian_deviation(matrix: _Csr) -> float:
    """Largest entry of ``|H - H^+|`` from the CSR arrays of H.

    Runs the two sparsetools kernels behind scipy's ``H - H.getH()`` on the
    arrays, ``csr_tocsc`` for the transpose and ``csr_minus_csr``, so the
    result is scipy's bit for bit.  A numpy merge of H with its mirror
    entries sorts them, about five times slower on a sector of 1.8e6
    nonzeros.
    """
    dim, nnz, index = matrix.shape[0], len(matrix.data), matrix.indices.dtype
    t_ptr, t_ind, t_data = np.empty(dim + 1, index), np.empty(nnz, index), np.empty(nnz, complex)
    _sparsetools.csr_tocsc(dim, dim, matrix.indptr, matrix.indices, matrix.data, t_ptr, t_ind, t_data)
    d_ptr, d_ind, d_data = np.empty(dim + 1, index), np.empty(2 * nnz, index), np.empty(2 * nnz, complex)
    _sparsetools.csr_minus_csr(
        dim, dim, matrix.indptr, matrix.indices, matrix.data, t_ptr, t_ind, np.conj(t_data), d_ptr, d_ind, d_data
    )
    return float(np.abs(d_data[: d_ptr[-1]]).max(initial=0.0))


class SparseOperator:
    """A linear operator restricted to one sector basis, held as complex CSR arrays.

    ``csr`` holds the arrays (``_Csr``) that every product, 1-norm and
    column sum reads.  ``matrix`` is the same matrix as a
    ``scipy.sparse.csr_matrix`` on those arrays, built on first access:
    the package reads it only in ARPACK's branch of ``fci_solve``.  The
    public constructor converts what it is given with
    ``scipy.sparse.csr_matrix`` (a canonical complex CSR matrix is taken as
    given), reads the arrays off the result and keeps it as ``matrix``.  A
    non-canonical result, with an entry stored twice or columns out of
    order, is first canonicalized into new arrays (``tocoo().tocsr()``):
    the column sums then read ``|a + b|`` for an entry stored as ``a`` and
    ``b``, and the caller's arrays, which scipy's dtype cast may share, are
    never edited.  The package builds its own operators with ``_from_csr``
    and imports no scipy package.  The arrays are never edited in place, so
    the column sums of ``|matrix|`` and the diagonal, from which its 1-norm (which every
    exponential of the operator needs) and every shifted 1-norm of the
    estimator's probe are read, and its deviation from Hermiticity, which
    every solver run checks, are computed on first use and kept.
    """

    def __init__(self, basis: Basis, matrix):
        import scipy.sparse as sp

        if not (isinstance(matrix, sp.csr_matrix) and matrix.dtype == complex):
            matrix = sp.csr_matrix(matrix, dtype=complex)
        if not matrix.has_canonical_format:  # summed and sorted into arrays of its own
            matrix = matrix.tocoo().tocsr()
        dim = len(basis)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match basis size {dim}")
        self.basis = basis
        self.csr = _Csr(matrix.shape, matrix.indptr, matrix.indices, matrix.data)
        self.matrix = matrix

    @classmethod
    def _from_csr(cls, basis: Basis, csr: _Csr) -> "SparseOperator":
        """An operator on CSR arrays formed by the package itself.

        Skips the conversion and the shape check of the public constructor:
        ``csr`` must be a square ``_Csr`` of the basis size that nothing
        writes to.
        """
        out = object.__new__(cls)
        out.basis = basis
        out.csr = csr
        return out

    @cached_property
    def matrix(self):
        """The operator as a ``scipy.sparse.csr_matrix`` that shares ``csr``'s arrays."""
        import scipy.sparse as sp

        m = self.csr
        return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)

    @cached_property
    def norm1(self) -> float:
        """Exact 1-norm of the matrix, the largest of the kept column sums
        (``shifted_norm1(0)``): the one thing a solver step factor computes
        from its arrays."""
        return float(self._column_sums.max(initial=0.0))

    @cached_property
    def _column_sums(self) -> np.ndarray:
        """Column sums of ``|matrix|``, formed on first use and kept."""
        return _abs_column_sums(self.csr)

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The main diagonal, read-only: the sparsetools kernel behind
        ``matrix.diagonal()``, ``csr_diagonal``, so bit for bit scipy's,
        duplicate entries summed and a row without a stored diagonal zero."""
        m = self.csr
        diag = np.empty(m.shape[0], dtype=complex)
        _sparsetools.csr_diagonal(0, *m.shape, m.indptr, m.indices, m.data, diag)
        diag.setflags(write=False)
        return diag

    def shifted_norm1(self, shift: complex) -> float:
        """Exact 1-norm of ``matrix - shift * I`` from the kept column sums:
        ``|a_jj - shift|`` takes the place of ``|a_jj|`` on the diagonal
        (``a_jj = 0`` where the entry is structurally absent).  At a zero
        shift every column gains ``|a_jj| - |a_jj| = 0``, so the result has
        the bits of ``norm1``."""
        cols = self._column_sums + (np.abs(self.diagonal - shift) - np.abs(self.diagonal))
        return float(cols.max(initial=0.0))

    def dense(self) -> np.ndarray:
        """The matrix as a dense array: the sparsetools kernel behind
        ``matrix.toarray()``, ``csr_todense``, which adds every stored entry
        into a zeroed array, so bit for bit scipy's."""
        m = self.csr
        out = np.zeros(m.shape, dtype=complex)
        _sparsetools.csr_todense(*m.shape, m.indptr, m.indices, m.data, out)
        return out

    @cached_property
    def _deviation(self) -> float:
        """Largest entry of ``|H - H^+|`` (``_hermitian_deviation``), formed once like ``norm1``."""
        return _hermitian_deviation(self.csr)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return self._deviation <= tol


def _abs_column_sums(matrix: _Csr) -> np.ndarray:
    """Column sums of ``|matrix|`` from its CSR arrays."""
    return np.bincount(matrix.indices, np.abs(matrix.data), minlength=matrix.shape[1])


def _csr_product(matrix: _Csr, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``matrix @ vec`` for a CSR matrix and a vector or (dim, k) block.

    ``matrix`` is a ``_Csr`` or a scipy CSR matrix: only the arrays are
    read.  Calls the sparsetools kernel behind scipy's ``@`` directly, into
    a fresh zeroed output of the matrix's dtype as ``@`` does for input of
    that dtype, so the product is bit-identical without the per-call
    dispatch (about as costly as a dim-36 product).  A block is made
    C-contiguous first, as ``@`` does too.  A vector's product may go into
    ``out`` instead, a zeroed contiguous vector of the row count, such as
    one half of a V-step's output: the kernel adds into its output, and
    each column of the block kernel is bitwise the vector kernel on that
    column.
    """
    rows, cols = matrix.shape
    if vec.ndim == 1:
        if out is None:
            out = np.zeros(rows, dtype=matrix.data.dtype)
        _sparsetools.csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, vec, out)
        return out
    block = np.ascontiguousarray(vec)
    out = np.zeros((rows, block.shape[1]), dtype=matrix.data.dtype)
    _sparsetools.csr_matvecs(
        rows, cols, block.shape[1], matrix.indptr, matrix.indices, matrix.data,
        block.ravel(), out.ravel(),
    )
    return out


# ---------------------------------------------------------------------------
# Tensor index algebra
# ---------------------------------------------------------------------------

def antisymmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the index-pair antisymmetric component (operator preserved).

    A tensor with entries at canonical indices (i < j, k < l) only comes out
    with a quarter of each entry, signed, at its four index images.
    """
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
# Olsen et al., JCP 89, 2185 (1988)).  Only the canonical elements that link
# at least one pair of determinants, the sector's "links", can act inside it;
# ``support`` lists their flat tensor indices ((i n + j) n + k) n + l in
# ascending order.  Row r of P is the r-th structural nonzero of the sector
# matrix in CSR order, column m the m-th link, and the entry 4 s' s, the 4
# counting the index-pair images of an antisymmetric tensor.
#
# A link vector c holds the canonical entries T.ravel()[support] of an
# antisymmetric tensor T that vanishes off the images of the links, so
# P @ c  is the CSR data of J[T], and  P^T (conj(bra)[rows] * ket[cols])
# holds 4 <bra| a^+_k a^+_l a_j a_i |ket> at every link.  The pair adjoint
# (k, l, i, j) of a link is a link too (``adjoint``), so the links with
# pair(ij) <= pair(kl) (``upper``) hold one of each adjoint pair: in order,
# the linked elements of ``evolution.canonical_elements``.  Since each
# canonical entry stands for four index images, the Frobenius norm of T is
# 2 |c| and the Frobenius product of two such tensors 4 <c, c'>.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Excitations:
    """A sector's excitation pattern, with the two tables that the residual
    estimator (``evolution._estimate_links``, ``_outcome_classes``) reads
    for its measured elements, the links ``upper``, built once with the
    pattern: each element's pattern column and the diagonal mask, from
    which the estimator reads which parts take draws and each element's
    outcome value."""

    by_link: _Csr            # P^T, (links, sector nonzeros), entries 4 s' s
    magnitudes: _Csr         # |P^T|, real 4 at every entry: the shot estimator's pair weights
    support: np.ndarray      # flat n^4 index of each link's canonical element, ascending
    adjoint: np.ndarray      # link position of each link's pair adjoint (k, l, i, j)
    upper: np.ndarray        # links with pair(ij) <= pair(kl), ascending: the linked canonical elements
    rows: np.ndarray         # sector row of each nonzero
    indices: np.ndarray      # sector column of each nonzero (CSR indices)
    indptr: np.ndarray       # CSR row pointer of the sector matrix
    column: np.ndarray       # adjoint[upper]: the pattern column of each measured element
    diagonal: np.ndarray     # column == upper: the elements n_i n_j, of outcome value 1 and no Im part

    def pair_adjoint(self, links: np.ndarray) -> np.ndarray:
        """The link vector of ``T^+``: ``conj(links)`` at each link's pair adjoint."""
        return np.conj(links[self.adjoint])


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
    # P^T in scipy's canonical CSR order: rows by link, and columns ascending
    # within a row.  The join lists the entries of one link in ascending image
    # order, at most one per image, and the bra determinant M + 2^k + 2^l of a
    # link (i, j, k, l) grows with its image M, so its sector rows and hence
    # its nonzeros ascend already: one stable sort by link alone orders P^T.
    # The link key fits the smallest unsigned type holding n^4 - 1, 16 bits up
    # to 16 spin orbitals, where numpy's stable sort is a radix sort.
    link_key = (pair[ket] * n * n + pair[bra]).astype(np.min_scalar_type(n**4 - 1))
    order = np.argsort(link_key, kind="stable")
    link_key = link_key[order]
    starts = np.ones(len(link_key), dtype=bool)  # the first entry of each link
    np.not_equal(link_key[1:], link_key[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    support = link_key[first].astype(np.int64)
    # complex entries spare a cast in every product with complex tensors and states
    by_link = _Csr(
        (len(support), len(unique)),
        np.append(first, len(order)).astype(np.int32),
        nonzero[order].astype(np.int32),
        (4.0 * sign[bra] * sign[ket] + 0j)[order],
    )
    half, low = np.divmod(support, n * n)  # (i n + j, k n + l) of each link
    adjoint = np.searchsorted(support, low * n * n + half)
    upper = np.flatnonzero(np.arange(len(support)) <= adjoint)
    indptr = np.searchsorted(rows, np.arange(dim + 1)).astype(np.int32)
    indices = cols.astype(np.int32)
    for structure in (indptr, indices):
        structure.setflags(write=False)  # shared by every operator of the sector's links
    magnitudes = by_link._replace(data=np.abs(by_link.data))
    column = adjoint[upper]
    return _Excitations(
        by_link, magnitudes, support, adjoint, upper, rows, indices, indptr, column, column == upper
    )


def _rdm2_links(basis: Basis, bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """The link vector of the transition 2-RDM ``<bra| a+_i a+_j a_l a_k |ket>``.

    ``P^T (conj(bra)[rows] * ket[cols])`` holds 4 <bra| a^+_k a^+_l a_j a_i
    |ket> at each link (i, j, k, l), four times the 2-RDM element at the
    link's pair adjoint (k, l, i, j).  ``bra`` and ``ket`` are vectors or
    (dim, k) blocks, whose columns give the columns of the result.
    """
    ex = _excitations(basis)
    return 0.25 * _csr_product(ex.by_link, np.take(bra.conj(), ex.rows, 0) * np.take(ket, ex.indices, 0))[ex.adjoint]


def _link_norm(links: np.ndarray) -> float:
    """Frobenius norm of the tensor of a link vector, ``2 |links|``: the two
    dots that ``np.linalg.norm`` runs on a complex vector, without its
    dispatch, so bit for bit ``2 * np.linalg.norm(links)``."""
    real, imag = links.real, links.imag
    return 2.0 * math.sqrt(real.dot(real) + imag.dot(imag))


def _link_tensor(basis: Basis, links: np.ndarray) -> np.ndarray:
    """The antisymmetric n^4 tensor of a link vector: ``antisymmetrize`` spreads
    a quarter of each canonical entry over its four index images, so the links
    go in at four times their values."""
    n = basis.n_spin_orbitals
    canonical = np.zeros(n**4, dtype=complex)
    canonical[_excitations(basis).support] = 4.0 * links
    return antisymmetrize(canonical.reshape((n,) * 4))


def _link_operator(links: np.ndarray, basis: Basis) -> SparseOperator:
    """Sector matrix of the two-body operator of a link vector: CSR data ``P @ links``
    on the sector's CSR structure.

    The operator shares the read-only structure arrays of the sector's
    excitation pattern with every other operator of the sector's links,
    and skips the public constructor's checks (``SparseOperator._from_csr``);
    a solver step factor reads only its column sums, for its 1-norm.  The
    product runs the sparsetools kernel behind scipy's ``@`` on the arrays
    of ``P^T`` read as the CSC arrays of P, without the dispatch.
    """
    ex = _excitations(basis)
    pattern = ex.by_link
    if np.shape(links) != (len(ex.support),):
        raise ValueError(f"link vector shape {np.shape(links)} does not match {len(ex.support)} links")
    data = np.zeros(len(ex.rows), dtype=complex)
    _sparsetools.csc_matvec(
        len(ex.rows), pattern.shape[0], pattern.indptr, pattern.indices, pattern.data,
        np.ascontiguousarray(links, dtype=complex), data,
    )
    dim = len(basis)
    return SparseOperator._from_csr(basis, _Csr((dim, dim), ex.indptr, ex.indices, data))


def _tensor_operator(tensor: TwoBodyTensor, basis: Basis, core: float) -> SparseOperator:
    """Sector matrix of ``J[T] + core * I`` with the arrays of scipy's sum.

    ``J[T]`` is the operator of T's link vector (``_link_operator``).  The
    core goes onto every stored diagonal entry, the entries that then read
    exactly zero are dropped and the row pointer is rebuilt, so the arrays
    are those of scipy's ``J[T] + core * identity``, which stores no zero,
    at a zero core too.  A sector of N >= 2 electrons stores the whole
    diagonal (every determinant lowers a pair); at N < 2 the pattern is
    empty, and only a zero core is meaningful.  Every operator built from a
    tensor comes from here; a solver step factor keeps the shared structure
    of ``_link_operator``, which drops nothing.
    """
    if tensor.n_spin_orbitals != basis.n_spin_orbitals:
        raise ValueError("tensor and basis have different orbital counts")
    ex = _excitations(basis)
    m = _link_operator(tensor.coeffs.ravel()[ex.support], basis).csr
    # adding 0.0 off the diagonal is scipy's arithmetic too (it turns -0.0 into 0.0)
    data = m.data + core * (ex.rows == m.indices)
    keep = data != 0
    indptr = np.searchsorted(ex.rows[keep], np.arange(len(basis) + 1)).astype(np.int32)
    return SparseOperator._from_csr(basis, _Csr(m.shape, indptr, m.indices[keep], data[keep]))


def two_body_to_operator(tensor: TwoBodyTensor, basis: Basis) -> SparseOperator:
    """Sector matrix of ``sum_{pqst} T^{st;pq} a^+_p a^+_q a_t a_s``.

    Contributions that leave the (N, Sz) sector are dropped, so the result
    maps the sector into itself by construction: only the entries of T at
    the sector's links are read.  Entries that sum to exactly zero are not
    stored (``_tensor_operator`` with core 0.0).
    """
    return _tensor_operator(tensor, basis, 0.0)


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
