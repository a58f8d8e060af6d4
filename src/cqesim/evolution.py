"""Non-unitary two-body exponentials: exact action and ancilla dilation.

Exact route
-----------
``apply_exp_exact`` applies ``exp(scale * J)`` to a state with a scaled
Taylor recursion (never forming a matrix exponential); with
``renormalize=True`` the output is normalized and the retained weight
``min(1, |out|^2 / |in|^2)`` is folded into ``success_prob``.

Dilated route
-------------
A single ancilla qubit turns ``exp(d J)`` into the unitary
``U = exp(i d Y_a x J)`` on the doubled space: in block form on
``[ancilla-0 ; ancilla-1]`` amplitudes,

    U [u; v] = [cos(dJ) u + sin(dJ) v,  -sin(dJ) u + cos(dJ) v].

Starting from the ancilla in ``|+>`` the ancilla-0 branch carries
``(cos + sin)(dJ) psi / sqrt(2) = exp(dJ) psi / sqrt(2) + O(d^2)``, so one
V-step realizes the non-unitary product-ansatz factor up to a second-order
dilation error; ``reset_ancilla`` performs the post-selection and books the
success probability.

Residual estimator
------------------
``estimate_residual_w`` reads contracted residuals off the probe state
``exp(i d Y_a x (H - E)) |+> psi``: the ancilla-Z channel of the pair
excitation ``a+_i a+_j a_l a_k`` yields the anticommutator residual S and
the ancilla-Y channel the commutator residual A, each with O(d^2) bias and
exactly even in d for real problems.  With ``shots`` set, every Hermitian
observable (real and imaginary part per channel) is sampled from its
eigenbasis with multinomial counts, which reproduces hardware shot noise
exactly rather than through a Gaussian surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    _excitations,
    pair_adjoint,
)
from .residuals import compute_2rdm, energy

__all__ = [
    "apply_exp_exact",
    "prepare_dilated",
    "apply_dilated",
    "ancilla_branch",
    "reset_ancilla",
    "probe_state",
    "estimate_residual_w",
    "canonical_elements",
    "pair_excitation_matrix",
    "EstimatorConfig",
    "DilationPolicy",
    "DELTA_EXACT_DEFAULT",
    "DELTA_SHOT_DEFAULT",
]

DELTA_EXACT_DEFAULT = 1e-3
DELTA_SHOT_DEFAULT = 0.1

_MAX_TAYLOR_TERMS = 60
_TERM_STOP = 1e-16
_TERM_FAIL = 1e-13


def _expm_multiply(matrix, vec: np.ndarray) -> np.ndarray:
    """``exp(matrix) @ vec`` by segmented Taylor summation.

    The matrix is split into ``2^s`` segments so each has 1-norm at most
    0.5, then each segment is summed to machine precision.  Raises if the
    series fails to converge (NaN/Inf or slow term decay), which would
    signal a bogus norm estimate rather than a physics problem.
    """
    norm1 = float(np.max(np.abs(matrix).sum(axis=0))) if matrix.nnz else 0.0
    if not math.isfinite(norm1):
        raise RuntimeError("generator matrix contains non-finite entries")
    if norm1 == 0.0:
        return vec.astype(complex, copy=True)
    segments = 1 << max(0, math.ceil(math.log2(norm1 / 0.5)))
    seg_matrix = matrix * (1.0 / segments)
    out = vec.astype(complex, copy=True)
    for _ in range(segments):
        acc = out.copy()
        term = out
        small_streak = 0
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            term = seg_matrix @ term / k
            acc += term
            ratio = np.linalg.norm(term) / max(np.linalg.norm(acc), 1e-300)
            if not np.isfinite(ratio):
                raise RuntimeError("matrix exponential series produced non-finite values")
            small_streak = small_streak + 1 if ratio < _TERM_STOP else 0
            if small_streak >= 2:
                break
        else:
            if ratio > _TERM_FAIL:
                raise RuntimeError(
                    f"matrix exponential series still decaying at term {_MAX_TAYLOR_TERMS}"
                )
        out = acc
    return out


def apply_exp_exact(
    op: SparseOperator, psi: StateVector, scale: complex = 1.0, renormalize: bool = False
) -> StateVector:
    """Apply ``exp(scale * op)`` to the system register of a state.

    On a dilated state the exponential acts identically on both ancilla
    branches (``renormalize`` is disallowed there; norm accounting happens
    only at ancilla resets).  With ``renormalize=True`` the result is
    normalized and the retained weight ``min(1, |out|^2/|in|^2)``
    multiplies ``success_prob``; this is the classical-exact stand-in for
    the post-selected dilated step.
    """
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    if psi.n_ancilla == 1:
        if renormalize:
            raise ValueError("renormalize is not meaningful on a dilated state")
        dim = len(psi.basis)
        out = np.concatenate(
            [
                _expm_multiply(op.matrix * scale, psi.amplitudes[:dim]),
                _expm_multiply(op.matrix * scale, psi.amplitudes[dim:]),
            ]
        )
        return StateVector(psi.basis, out, 1, psi.success_prob)
    out = _expm_multiply(op.matrix * scale, psi.amplitudes)
    if not renormalize:
        return StateVector(psi.basis, out, 0, psi.success_prob)
    norm_in = np.linalg.norm(psi.amplitudes)
    norm_out = np.linalg.norm(out)
    if norm_out == 0.0:
        raise RuntimeError("exponential step annihilated the state")
    retained = min(1.0, float(norm_out / norm_in) ** 2)
    return StateVector(psi.basis, out / norm_out, 0, psi.success_prob * retained)


# ---------------------------------------------------------------------------
# Single-ancilla dilation
# ---------------------------------------------------------------------------


def prepare_dilated(psi: StateVector) -> StateVector:
    """Attach an ancilla in ``|+>``: amplitudes ``[psi; psi] / sqrt(2)``."""
    if psi.n_ancilla != 0:
        raise ValueError("state already carries an ancilla")
    amps = np.concatenate([psi.amplitudes, psi.amplitudes]) / np.sqrt(2.0)
    return StateVector(psi.basis, amps, 1, psi.success_prob)


def apply_dilated(psi: StateVector, op: SparseOperator, delta: float) -> StateVector:
    """Evolve a dilated state by ``exp(i delta Y_a x op)``.

    The generator is assembled as the block matrix
    ``[[0, delta*J], [-delta*J, 0]]`` and applied with the same Taylor
    recursion as the exact route.  For Hermitian ``op`` (the intended use:
    dilating a non-unitary Hermitian generator) the step is exactly
    unitary; norm conservation is never assumed downstream either way.
    """
    if psi.n_ancilla != 1:
        raise ValueError("apply_dilated expects a single-ancilla state")
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    block = sp.bmat(
        [[None, delta * op.matrix], [-delta * op.matrix, None]], format="csr"
    )
    out = _expm_multiply(block, psi.amplitudes)
    return StateVector(psi.basis, out, 1, psi.success_prob)


def ancilla_branch(psi: StateVector, outcome: int = 0) -> StateVector:
    """Unnormalized ancilla branch as a bare sector state (no collapse).

    This is a classical diagnostic peek: ``success_prob`` is untouched and
    the dilated state remains valid.
    """
    if psi.n_ancilla != 1:
        raise ValueError("ancilla_branch expects a single-ancilla state")
    if outcome not in (0, 1):
        raise ValueError("ancilla outcome must be 0 or 1")
    dim = len(psi.basis)
    block = psi.amplitudes[:dim] if outcome == 0 else psi.amplitudes[dim:]
    return StateVector(psi.basis, block, 0, psi.success_prob)


def reset_ancilla(psi: StateVector) -> StateVector:
    """Post-select the ancilla-0 branch and book its probability.

    Returns the normalized sector state with
    ``success_prob *= |u|^2 / |[u; v]|^2``.
    """
    if psi.n_ancilla != 1:
        raise ValueError("reset_ancilla expects a single-ancilla state")
    dim = len(psi.basis)
    u = psi.amplitudes[:dim]
    total = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    kept = float(np.vdot(u, u).real)
    if kept == 0.0:
        raise RuntimeError("ancilla-0 branch has zero weight; nothing to post-select")
    return StateVector(psi.basis, u / np.sqrt(kept), 0, psi.success_prob * kept / total)


# ---------------------------------------------------------------------------
# Contracted-residual estimator on the dilated probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """How the sampled execution path measures residuals."""

    variant: str = "cse"
    delta: float | None = None
    shots: int | None = None
    seed: int | None = None


RESET_MODES = ("never", "wolfe", "every_k")


@dataclass(frozen=True)
class DilationPolicy:
    """How the dilated execution path slices V-steps and resets its ancilla.

    ``epsilon`` caps the scale of one ancilla V-step; a larger Hermitian
    factor is realized as equal sub-steps.  ``reset_mode`` picks when the
    ancilla is projected back onto the kept branch and re-prepared: "wolfe"
    resets on a failed sufficient-decrease check or after
    ``max_steps_between_resets`` V-steps since the last reset, whichever
    fires first; "every_k" uses only the step cap; "never" leaves the
    register untouched until the final readout.  Consecutive V-steps of the
    same generator compose exactly, so ``epsilon`` changes the realized
    state only through the resets interleaved between sub-steps.
    """

    epsilon: float = 0.5
    reset_mode: str = "wolfe"
    wolfe_c1: float = 1e-4
    max_steps_between_resets: int = 10

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}; expected one of {RESET_MODES}")
        if not 0.0 < self.wolfe_c1 < 1.0:
            raise ValueError("wolfe_c1 must lie in (0, 1)")
        if self.max_steps_between_resets < 1:
            raise ValueError("max_steps_between_resets must be at least 1")


def probe_state(ham: SparseOperator, psi: StateVector, delta: float) -> StateVector:
    """Dilated probe ``exp(i delta Y_a x (H - E)) |+> psi`` (psi normalized first)."""
    psi = psi.normalized()
    e = energy(ham, psi)
    shifted = SparseOperator(
        ham.basis, ham.matrix - e * sp.identity(len(ham.basis), format="csr")
    )
    return apply_dilated(prepare_dilated(psi), shifted, delta)


def canonical_elements(n_spin_orbitals: int) -> tuple[tuple[int, int, int, int], ...]:
    """Independent residual elements: ``i < j``, ``k < l``, pair(ij) <= pair(kl).

    Every other element follows from antisymmetry plus the (anti-)Hermitian
    structure of the S and A tensors.
    """
    pairs = [
        (i, j) for i in range(n_spin_orbitals) for j in range(i + 1, n_spin_orbitals)
    ]
    out = []
    for a, (i, j) in enumerate(pairs):
        for i2, j2 in pairs[a:]:
            out.append((i, j, i2, j2))
    return tuple(out)


def pair_excitation_matrix(basis: Basis, i: int, j: int, k: int, l: int) -> np.ndarray:
    """Dense sector matrix of ``a+_i a+_j a_l a_k``: one column of the excitation pattern.

    The column is that of the canonical index order ``k < l``, ``i < j``,
    each swap flipping the sign; a repeated index gives zero.
    """
    n = basis.n_spin_orbitals
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    if i == j or k == l:
        return out
    sign = 0.25  # the pattern stores 4 <D'| a+_i a+_j a_l a_k |D>
    if i > j:
        i, j, sign = j, i, -sign
    if k > l:
        k, l, sign = l, k, -sign
    ex = _excitations(basis)
    col = ((k * n + l) * n + i) * n + j
    span = slice(ex.by_index.indptr[col], ex.by_index.indptr[col + 1])
    links = ex.by_index.indices[span]
    out[ex.rows[links], ex.indices[links]] = sign * ex.by_index.data[span]
    return out


def _fill_images(out: np.ndarray, i, j, k, l, value: complex, sign_adjoint: float):
    """Scatter one canonical element to all index images of an S/A tensor."""
    for a, b, sa in ((i, j, 1.0), (j, i, -1.0)):
        for c, d, sb in ((k, l, 1.0), (l, k, -1.0)):
            out[a, b, c, d] = sa * sb * value
            out[c, d, a, b] = sa * sb * sign_adjoint * np.conj(value)


def estimate_residual_w(
    ham: SparseOperator,
    psi: StateVector,
    variant: str = "cse",
    delta: float | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> TwoBodyTensor:
    """Estimate a contracted residual tensor from the dilated probe state.

    Exact mode (``shots=None``) evaluates every channel expectation in
    closed form on the probe; the only deviation from the true residual is
    the O(delta^2) dilation bias.  Shot mode draws multinomial samples from
    the eigenbasis of each canonically independent Hermitian observable and
    requires a seed.

    Returns the S tensor for ``variant='hcse'``, A for ``'acse'`` and
    ``(S + A) / 2`` for ``'cse'``.
    """
    if variant not in ("cse", "hcse", "acse"):
        raise ValueError(f"unknown residual variant {variant!r}")
    if shots is not None:
        if shots <= 0:
            raise ValueError("shots must be positive")
        if seed is None:
            raise ValueError("shot sampling requires a seed for reproducibility")
    if delta is None:
        delta = DELTA_EXACT_DEFAULT if shots is None else DELTA_SHOT_DEFAULT
    if delta == 0.0:
        raise ValueError("delta must be nonzero")

    n = psi.basis.n_spin_orbitals
    upsilon = probe_state(ham, psi, delta)
    top = ancilla_branch(upsilon, 0)
    bottom = ancilla_branch(upsilon, 1)

    need_s = variant in ("cse", "hcse")
    need_a = variant in ("cse", "acse")

    if shots is None:
        s_tensor = a_tensor = None
        if need_s:
            z = compute_2rdm(top).tensor - compute_2rdm(bottom).tensor
            s_tensor = z / delta
        if need_a:
            cross = compute_2rdm(top, bottom).tensor
            y = -1j * (cross - pair_adjoint(cross))
            a_tensor = -1j * y / delta
    else:
        s_tensor, a_tensor = _sample_probe(
            psi.basis, top.amplitudes, bottom.amplitudes, delta, shots, seed, need_s, need_a
        )

    if variant == "hcse":
        out = s_tensor
    elif variant == "acse":
        out = a_tensor
    else:
        out = 0.5 * (s_tensor + a_tensor)
    return TwoBodyTensor(n, out)


def _sample_probe(
    basis: Basis,
    top: np.ndarray,
    bottom: np.ndarray,
    delta: float,
    shots: int,
    seed: int,
    need_s: bool,
    need_a: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Multinomial shot sampling of every canonical channel observable."""
    n = basis.n_spin_orbitals
    rng = np.random.default_rng(seed)
    s_out = np.zeros((n, n, n, n), dtype=complex) if need_s else None
    a_out = np.zeros((n, n, n, n), dtype=complex) if need_a else None

    def sample_mean(values: np.ndarray, probs: np.ndarray) -> float:
        probs = np.clip(probs.real, 0.0, None)
        total = probs.sum()
        if not np.isfinite(total) or total <= 0:
            raise RuntimeError("invalid outcome distribution in shot sampler")
        counts = rng.multinomial(shots, probs / total)
        return float(counts @ values) / shots

    for i, j, k, l in canonical_elements(n):
        gamma = pair_excitation_matrix(basis, i, j, k, l)
        if not gamma.any():
            continue
        z_val = 0.0 + 0.0j
        y_val = 0.0 + 0.0j
        for part, weight in (("re", 1.0), ("im", 1j)):
            herm = 0.5 * (gamma + gamma.conj().T) if part == "re" else (
                (gamma - gamma.conj().T) / 2j
            )
            evals, evecs = np.linalg.eigh(herm)
            o_top = evecs.conj().T @ top
            o_bot = evecs.conj().T @ bottom
            values = np.concatenate([evals, -evals])
            if need_s:
                probs = np.concatenate([np.abs(o_top) ** 2, np.abs(o_bot) ** 2])
                z_val += weight * sample_mean(values, probs)
            if need_a:
                plus = (o_top - 1j * o_bot) / np.sqrt(2.0)
                minus = (o_top + 1j * o_bot) / np.sqrt(2.0)
                probs = np.concatenate([np.abs(plus) ** 2, np.abs(minus) ** 2])
                y_val += weight * sample_mean(values, probs)
        diag = (i, j) == (k, l)
        if need_s:
            s_el = z_val / delta
            if diag:
                s_el = 0.5 * (s_el + np.conj(s_el))
            _fill_images(s_out, i, j, k, l, s_el, +1.0)
        if need_a:
            a_el = -1j * y_val / delta
            if diag:
                a_el = 0.5 * (a_el - np.conj(a_el))
            _fill_images(a_out, i, j, k, l, a_el, -1.0)
    return s_out, a_out
