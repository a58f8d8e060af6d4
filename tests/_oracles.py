"""Slow, independent references that the test suites compare the package against.

Each is pinned by its own tests (``test_fock.py`` for ``apply_string``,
``test_oracle.py`` for ``dense_expm_apply``, ``test_models.py`` for
``to_sphere``), so the suites that use them rest on checked ground truth.

* ``apply_string`` acts with an operator string on one determinant by
  counting the parity below each orbital, one operator at a time: the
  brute force of the residual's link contraction.
* ``dense_expm_apply`` applies ``exp(scale * op)`` through the full matrix
  exponential, the cross-check of the package's Taylor kernel.
* ``to_sphere`` projects a pairing-sector state onto the sphere frame of
  ``models.dressed_states`` and raises where the state leaves it.
* ``block_exp_dilated``, ``block_dilated_step`` and ``block_probe`` run the
  ancilla exponentials with their actions on the (dim, 2) block of both
  branches, one scipy ``@`` per term, which is how the package formed them
  before it wrote each branch's vector product into its half of one
  output, and before a one-segment V-step on a register with equal
  halves made one product for both: the package's results must equal
  theirs bit for bit.  They
  share the package's Taylor kernel (``taylor_series``), which
  ``test_evolution.py`` pins against a series that forms the partial
  sum's norm at every term.
* ``kernel_action`` turns an action between the kernel's form, which
  writes ``A v`` into a zeroed output, and the returning form of the
  suites' actions and of that series.
* ``taylor_series`` runs the package's Taylor kernel on a returning action.
* ``phase_rotated`` multiplies every spin orbital by a phase: a complex
  Hamiltonian with the spectrum of a real one, whose runs must follow the
  real one's to rounding (``test_solver.py``).
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from cqesim import evolution
from cqesim.fock import Determinant, SparseOperator, StateVector
from cqesim.models import PairingModel, SpherePoint, dressed_states, pairing_basis
from cqesim.residuals import energy

CREATE = "create"
ANNIHILATE = "annihilate"


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


def dense_expm_apply(op: SparseOperator, psi: StateVector, scale: complex = 1.0) -> StateVector:
    """Apply ``exp(scale * op)`` by forming the full matrix exponential."""
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    if psi.n_ancilla != 0:
        raise ValueError("dense_expm_apply expects an ancilla-free state")
    mat = scipy.linalg.expm(scale * op.dense())
    return StateVector(psi.basis, mat @ psi.amplitudes, 0, psi.success_prob)


def to_sphere(model: PairingModel, psi: StateVector, tol: float = 1e-8) -> SpherePoint:
    """Project a sector state onto sphere coordinates.

    Raises if the state has weight outside span{G, M, X} (up to global
    phase) beyond ``tol``, which would mean the trajectory left the sphere.
    """
    if psi.basis != pairing_basis():
        raise ValueError("state does not live on the pairing sector")
    amps = psi.amplitudes / np.linalg.norm(psi.amplitudes)
    states = dressed_states(model)
    frame = np.column_stack([states[name].amplitudes for name in ("G", "M", "X")])
    coeffs = frame.conj().T @ amps
    residual_norm = float(np.linalg.norm(amps - frame @ coeffs))
    if residual_norm > tol:
        raise ValueError(f"state leaks off the sphere by {residual_norm:.3e}")
    # Rotate the global phase so the coefficients are real.
    pivot = coeffs[int(np.argmax(np.abs(coeffs)))]
    coeffs = coeffs * np.conj(pivot) / abs(pivot)
    if np.max(np.abs(coeffs.imag)) > tol:
        raise ValueError("state is not a real combination of the sphere frame")
    g, m, x = (float(c) for c in coeffs.real)
    norm = np.sqrt(g * g + m * m + x * x)
    return SpherePoint(g / norm, m / norm, x / norm)


def kernel_action(action, returning: bool = False):
    """An action in the other of its two forms.

    The package's Taylor kernel calls ``matvec(v, out)``, which writes
    ``A v`` into the zeroed vector ``out``; the suites' actions and their
    reference series call ``action(v)``, which returns ``A v``.  By default
    ``action`` returns and the result writes; with ``returning=True``
    ``action`` writes and the result returns, into a vector of ``v``'s length.
    """
    if returning:

        def form(v):
            out = np.zeros(len(v), dtype=complex)
            action(v, out)
            return out

    else:

        def form(v, out):
            out[...] = action(v)

    return form


def taylor_series(action, norm1: float, vec: np.ndarray, scale: complex = 1.0) -> tuple[np.ndarray, float]:
    """The package's ``exp(scale J) vec`` and its squared norm, from the
    returning action ``action(v) = J v`` and ``norm1 = |J|_1``: a block of
    J's terms on vec (``evolution._Terms``) summed by the kernel
    ``evolution._taylor_series``."""
    block = evolution._Terms(vec, np.vdot(vec, vec).real, kernel_action(action), norm1)
    return evolution._taylor_series(block, scale)


def block_exp_dilated(op: SparseOperator, psi: StateVector, scale: complex) -> np.ndarray:
    """Amplitudes of ``exp(scale * op)`` on both branches of a dilated state,
    as one Taylor series over the (dim, 2) block of the branches."""
    matrix, dim = op.matrix, len(psi.basis)

    def block_action(w):
        return (matrix @ w.reshape(2, dim).T).T.ravel()

    return taylor_series(block_action, op.norm1, psi.amplitudes, scale)[0]


def _block_vstep(apply_j, norm1: float, delta: float, amplitudes: np.ndarray) -> np.ndarray:
    """``exp(i delta Y_a x J)`` from the action ``apply_j`` of J on the
    (dim, 2) block of both branches."""
    dim = len(amplitudes) // 2

    def action(w):
        jw = apply_j(w.reshape(2, dim).T)  # columns J u and J v
        return np.concatenate([jw[:, 1], -jw[:, 0]])

    return taylor_series(action, norm1, amplitudes, delta)[0]


def block_dilated_step(op: SparseOperator, psi: StateVector, delta: float) -> np.ndarray:
    """Amplitudes of ``apply_dilated(psi, op, delta)`` from the block action."""
    matrix = op.matrix
    return _block_vstep(lambda block: matrix @ block, op.norm1, delta, psi.amplitudes)


def block_probe(ham: SparseOperator, psi: StateVector, delta: float) -> np.ndarray:
    """Amplitudes of ``probe_state(ham, psi, delta)`` from the block action
    ``(H - E) b = H b - E b``."""
    psi = psi.normalized()
    e = energy(ham, psi)
    matrix = ham.matrix
    start = evolution.prepare_dilated(psi).amplitudes
    return _block_vstep(lambda block: matrix @ block - e * block, ham.shifted_norm1(e), delta, start)


def phase_rotated(ham: SparseOperator, phases: np.ndarray) -> tuple[SparseOperator, np.ndarray]:
    """``H' = U H U^+`` under ``a_p -> exp(i phi_p) a_p``, and the diagonal of U.

    U is ``diag(exp(i sum_{p in D} phi_p))`` over the determinants D, so
    ``H'`` keeps H's structure and takes the data ``h u[row] conj(u[column])``.
    It is built through the public constructor from a complex CSR matrix,
    which takes the arrays as given.
    """
    basis, m = ham.basis, ham.csr
    occupied = (np.array(basis.determinants)[:, None] >> np.arange(basis.n_spin_orbitals)) & 1
    u = np.exp(1j * (occupied @ phases))
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    data = m.data * u[rows] * np.conj(u[m.indices])
    return SparseOperator(basis, sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)), u
