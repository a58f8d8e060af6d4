"""Non-unitary two-body exponentials: exact action and ancilla dilation.

Every exponential below runs through one Taylor kernel, ``_taylor_series``:
it takes the action of the generator on a vector and the generator's exact
1-norm (``norm1``, the largest of the column sums an operator keeps) and
sums segmented Taylor series from matrix-vector products alone, so no
matrix (scaled, shifted, block or exponential) is built per call.  Segments
have 1-norm at most theta_40 = 6.0 of Al-Mohy & Higham, at most
``_MAX_SEGMENTS`` of them, and a segment's series stops on two negligible
terms only where the 1-norm bound already makes the terms contract.  The
partial sum's norm is formed only for terms that a triangle bound cannot
prove large; the last one is exact, and a renormalized step reads it.  The
terms come from one recurrence, ``t_k = G t_{k-1} / (s k)``, which a fresh
segment runs inline: each action returns a new array, which the kernel
scales in place.  At the benchmark's sizes (dim <= 72) a product costs
about as much as a numpy call, so the kernel spends no call, copy or
wrapper per term that the recurrence does not need.  ``_FixedStart``
keeps the terms ``(J / |J|_1)^k psi / k!`` of one generator on one state
as the rows of one block, each product made straight into its row, so
the first segment of ``exp(eta J) psi`` costs no product once a larger
eta has made them: a line search's trials from the same psi pay each
product once.  A trial sums that segment as one column of coefficients
times the block's rows and one reduction over them, which adds the rows
in order and so has the bits of the term-by-term sum.  Its stops come
from the kept term norms alone: the triangle bound and the lower bound
``|psi| - sum_j |c_j t_j|`` decide most terms, and only a term between
the two forms the exact partial sum.  An operator is a
``SparseOperator``: the Hamiltonian, or a solver step factor whose CSR
data sits on the sector's shared structure arrays.  Every product reads
the operator's bare CSR arrays (``SparseOperator.csr``) through
``fock._csr_product``, the sparsetools kernel behind scipy's ``@`` without
its dispatch, so products are bit-identical to ``@`` and no exponential
imports scipy.  The ancilla actions (a unitary factor on both branches,
the V-step, the probe) run one vector product per branch, each into its
half of one zeroed output, bit for bit the columns of the (dim, 2) block
product.  The exception is a V-step of one Taylor segment on a register
whose two halves are equal, as ``prepare_dilated`` makes them and a
unitary factor keeps them: each term of its block generator has halves
``+-p_k``, so one product per term serves both branches, with the same
bits (``_dilated_step``).  The probe of every estimate is such a step, and
so is the dilated register's first V-step after a reset.  The states that
come out are formed by ``StateVector._closed``, without the public
constructor's cast, checks and copy.

Exact route
-----------
``apply_exp_exact`` applies ``exp(scale * J)`` to a state through the
action ``scale * (J v)``; with ``renormalize=True`` the output is
normalized and the retained weight ``min(1, |out|^2 / |in|^2)`` is folded
into ``success_prob``.

Dilated route
-------------
A single ancilla qubit turns ``exp(d J)`` into the unitary
``U = exp(i d Y_a x J)`` on the doubled space: in block form on
``[ancilla-0 ; ancilla-1]`` amplitudes,

    U [u; v] = [cos(dJ) u + sin(dJ) v,  -sin(dJ) u + cos(dJ) v].

Its generator ``[[0, dJ], [-dJ, 0]]`` is applied as its action
``[dJ v; -dJ u]`` on the stacked branches, and its 1-norm is ``|d|`` times
that of J.  Starting from the ancilla in ``|+>`` the ancilla-0 branch carries
``(cos + sin)(dJ) psi / sqrt(2) = exp(dJ) psi / sqrt(2) + O(d^2)``, so one
V-step realizes the non-unitary product-ansatz factor up to a second-order
dilation error; ``reset_ancilla`` performs the post-selection and books the
success probability.  V-steps of one generator compose exactly,
``U(d1) U(d2) = U(d1 + d2)``, so the solver applies every run of slices
between two resets as one V-step (``DilationPolicy``).  A unitary factor
``exp(d J)`` acts identically on both branches and runs as one Taylor series
over both branches (``apply_exp_exact``).

Residual estimator
------------------
``_estimate_links`` reads contracted residuals off the probe state
``exp(i d Y_a x (H - E)) |+> psi``, a V-step with the action
``(H - E) v = H v - E v`` (no shifted H is built) and the 1-norm of
``H - E`` read off column sums that H keeps.  The ancilla-Z channel
of the pair excitation ``a+_i a+_j a_l a_k`` yields the anticommutator
residual S and the ancilla-Y channel the commutator residual A, each with
O(d^2) bias and exactly even in d for real problems.  A pair excitation is
a signed partial matching of determinants, so each Hermitian observable
(real and imaginary part per channel) has at most the three outcome values
{-v, 0, +v}; the class probabilities are quadratic forms read off the
sector's excitation pattern, one product with ``|P^T|`` and one with
``P^T`` (``fock._transition_elements``) for every vector of both channels,
and no eigenbasis is ever formed (``pair_excitation_matrix`` with a dense
``eigh`` is the test oracle).  The per-element tables (each element's
pattern column, the diagonal and drawn masks, the outcome values) are
fields of the pattern, built once with it, and the classes are written
into one preallocated array.  Both modes read these classes: exact mode
takes the expectation ``v (P+ - P-)``, and with ``shots`` set every
observable gets multinomial counts over its classes, all drawn in one
call, which reproduces hardware shot noise exactly rather than through a
Gaussian surrogate.  The measured elements are the sector's linked
canonical elements, which are its links ``m`` with pair(ij) <= pair(kl)
(``_Excitations.upper``), each read through the pattern column of its pair
adjoint.  Their S and A values form the link vector of R = (S + A) / 2
(see ``fock``), which
``residuals.residual_channel`` maps to the requested channel with the
sector's link adjoint, as it does for the exactly contracted residual.
The solver reads that link vector; ``estimate_residual_w`` checks its
inputs and expands it to the n^4 tensor returned (``fock._link_tensor``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    _csr_product,
    _excitations,
    _link_operator,
    _link_tensor,
    _transition_elements,
)
from .residuals import RESIDUAL_VARIANTS, energy, residual_channel

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
    "RESET_MODES",
    "DELTA_EXACT_DEFAULT",
    "DELTA_SHOT_DEFAULT",
]

DELTA_EXACT_DEFAULT = 1e-3
DELTA_SHOT_DEFAULT = 0.1

_THETA = 6.0  # 1-norm per Taylor segment: theta_40 of Al-Mohy & Higham
_MAX_TAYLOR_TERMS = 60
# most segments of one exponential, a 1-norm of 6 000, far past the steps of
# any converging run: a larger generator raises, since a unitary one never
# overflows and would sum its segments for as long as its norm is large
_MAX_SEGMENTS = 1000
_TERM_STOP = 1e-16
_TERM_FAIL = 1e-13
# factor on the squared triangle bound of |acc|: it covers the rounding of the
# norms and sums the bound and |acc|^2 are made of, below 1e-8 under dimension 1e7
_BOUND_MARGIN = 1.0 + 1e-6
# the squared ratio-test factors, formed once with the bits of the per-term products
_STOP2 = _TERM_STOP**2
_STOP2_BOUND = _TERM_STOP**2 * _BOUND_MARGIN
# rows of a _FixedStart's block before it first doubles; a line-search trial of
# the benchmark's workloads reads a median of 5 to 12 kept terms, at most 22
_KEPT_ROWS = 16
# the signs of p_k in the top and bottom halves of the k-th term of
# [[0, D], [-D, 0]] on [p; p], by k % 4: + + - - ... and + - - + ...
_BRANCH_SIGNS = ((np.add, np.add), (np.add, np.subtract), (np.subtract, np.subtract), (np.subtract, np.add))


def _taylor_series(
    matvec, norm1: float, vec: np.ndarray, first=None, one_branch: bool = False
) -> tuple[np.ndarray, float]:
    """``exp(G) @ vec`` and its exact squared norm, from the action
    ``matvec(v) = G v``, a new array that the kernel may scale in place,
    and the 1-norm of G.

    G is split into ``s = max(1, ceil(|G|_1 / theta))`` equal segments with
    ``theta = 6.0``, the theta_40 of Al-Mohy & Higham (SIAM J. Sci. Comput.
    33, 488 (2011)): a degree-40 Taylor polynomial of a segment of 1-norm at
    most theta_40 meets double precision; more than ``_MAX_SEGMENTS``
    segments raise before any product.  Each segment's series is summed
    from matrix-vector products alone and stops after two consecutive terms
    below ``_TERM_STOP`` relative to the partial sum, but only once
    ``(k + 1) s > |G|_1``: from there every later term is bounded by the
    last one times ``|G|_1 / (s (k + 1)) < 1``, so a small term cannot be
    followed by a large one.  A generator of 1-norm at most 0.5 takes one
    segment.  Raises if the series fails to converge (NaN/Inf, or terms
    still decaying at ``_MAX_TAYLOR_TERMS``), which would signal a bogus
    norm rather than a physics problem.

    The ratio test needs ``|acc|`` only where a term may be small: the
    partial sum obeys the triangle bound ``|acc| <= |v| + sum_j |t_j|``, made
    from the term norms the recurrence computes anyway, and a term above
    ``_TERM_STOP`` times the bound (with ``_BOUND_MARGIN`` over its
    rounding) fails the test whatever ``|acc|`` is, so its ``|acc|^2`` is
    never formed.  Every other term, a non-finite one, one under a
    non-finite bound and the last allowed one take the exact norm, so the
    stops, the errors and the output bits are those of a test that forms
    ``|acc|^2`` at every term.  Each segment ends on an exact ``|acc|^2``,
    so the last one is the output's squared norm, which renormalization
    reads instead of forming it again.

    A fresh segment runs the term recurrence inline, ``t_k = G t_{k-1} /
    (s k)``, scaling each new product in place.  ``first(s)`` serves the
    first segment instead, with the same stops and bits, and returns its
    sum and exact squared norm: ``_FixedStart._first_segment`` sums it from
    the kept terms ``(J / |J|_1)^k vec / k!`` of ``vec`` under a generator
    J with ``G = phase |G|_1 J / |J|_1``, whose k-th term is
    ``(phase |G|_1 / s)^k`` times the k-th kept one.  The kernel then reads
    neither ``vec`` nor its norm, except at ``|G|_1 = 0``.

    ``one_branch=True`` sums one segment (``|G|_1 <= theta``) of the block
    generator ``G = [[0, D], [-D, 0]]`` on a register ``vec = [p_0; p_0]``
    whose halves are equal, from ``matvec(v) = D v`` on one half: the k-th
    term is ``[+-p_k; +-p_k]`` with ``p_k = D p_{k-1} / k``, signs ``+ + -
    - ...`` on top and ``+ - - + ...`` below, so each term costs one
    product.  Its squared norm is ``2 |p_k|^2``, and each half of the sum
    takes ``p_k`` by addition or subtraction, which gives the bits of the
    two-branch action.
    """
    if not math.isfinite(norm1):
        raise RuntimeError("generator matrix contains non-finite entries")
    if norm1 == 0.0 or first is None:
        out = vec.astype(complex, copy=True)
        acc2 = np.vdot(out, out).real  # |out|^2; each segment ends on an exact |acc|^2
        if norm1 == 0.0:
            return out, acc2
    segments = max(1, math.ceil(norm1 / _THETA))
    if segments > _MAX_SEGMENTS:
        raise RuntimeError(f"generator 1-norm {norm1:.4g} needs over {_MAX_SEGMENTS} Taylor segments")
    if first is not None:
        out, acc2 = first(segments)
    for _ in range(segments - (first is not None)):
        term = out
        acc = out.copy()
        if one_branch:
            half = len(out) // 2
            term, top, bottom = out[:half], acc[:half], acc[half:]
        bound = math.sqrt(acc2)  # the triangle bound on |acc|
        small_streak = 0
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            term = matvec(term)
            term *= 1.0 / (segments * k)
            term2 = np.vdot(term, term).real
            if one_branch:
                term2 *= 2.0
                on_top, on_bottom = _BRANCH_SIGNS[k % 4]
                on_top(top, term, out=top)
                on_bottom(bottom, term, out=bottom)
            else:
                acc += term
            bound += math.sqrt(term2)
            # a NaN or Inf term or bound fails this comparison and takes the exact norm
            if k < _MAX_TAYLOR_TERMS and term2 > _STOP2_BOUND * (bound * bound):
                small_streak = 0
                continue
            # squared norms: the ratio test |term| < tol |acc| without square roots
            acc2 = np.vdot(acc, acc).real
            _check_finite(term2, acc2)
            small_streak = small_streak + 1 if term2 <= _STOP2 * acc2 else 0
            if small_streak >= 2 and (k + 1) * segments > norm1:
                break
        else:
            _check_converged(term2, acc2)
        out = acc
    return out, acc2


def _check_finite(term2: float, acc2: float):
    if not (math.isfinite(term2) and math.isfinite(acc2)):
        raise RuntimeError("matrix exponential series produced non-finite values")


def _check_converged(term2: float, acc2: float):
    """Raise if the last allowed term is still above ``_TERM_FAIL`` relative to the sum."""
    if term2 > _TERM_FAIL**2 * acc2:
        raise RuntimeError(f"matrix exponential series still decaying at term {_MAX_TAYLOR_TERMS}")


def _booked(prob: float) -> float:
    """A booked ``success_prob`` product; one that underflows to 0.0 books
    ``math.ulp(0.0)`` (5e-324) instead, so the state stays valid and a
    reported 5e-324 reads as "below the float64 range"."""
    return prob or math.ulp(0.0)


def _renormalized(psi: StateVector, out: np.ndarray, norm2_out: float, norm2_in: float) -> StateVector:
    """``out`` normalized, with the retained weight ``min(1, |out|^2 / |psi|^2)``
    folded into ``success_prob`` (``_booked``); ``norm2_out`` is ``|out|^2``
    and ``norm2_in`` is ``|psi|^2``."""
    if norm2_out == 0.0:
        raise RuntimeError("exponential step annihilated the state")
    retained = min(1.0, float(norm2_out / norm2_in))
    out /= math.sqrt(norm2_out)
    return StateVector._closed(psi.basis, out, 0, _booked(psi.success_prob * retained))


def _scaled_product(matrix, scale: complex):
    """The action ``v -> scale * (matrix @ v)``, scaled in place."""

    def action(v):
        product = _csr_product(matrix, v)
        return np.multiply(scale, product, out=product)

    return action


def apply_exp_exact(
    op: SparseOperator, psi: StateVector, scale: complex = 1.0, renormalize: bool = False
) -> StateVector:
    """Apply ``exp(scale * op)`` to the system register of a state.

    ``op`` is a sector operator or a solver step factor (``fock._link_operator``).

    On a dilated state the exponential acts identically on both ancilla
    branches, as one Taylor series over the two, whose action writes each
    branch's product into its half of one output (``renormalize`` is
    disallowed there; norm accounting happens only at ancilla resets).
    With ``renormalize=True`` the result is normalized and the retained
    weight ``min(1, |out|^2/|in|^2)`` multiplies ``success_prob``; this is
    the classical-exact stand-in for the post-selected dilated step.
    """
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    matrix = op.csr
    norm1 = abs(scale) * op.norm1

    if psi.n_ancilla == 1:
        if renormalize:
            raise ValueError("renormalize is not meaningful on a dilated state")
        dim = len(psi.basis)

        def branches_action(w):  # each branch's product into its half of one output
            out = np.zeros(2 * dim, dtype=complex)
            _csr_product(matrix, w[:dim], out=out[:dim])
            _csr_product(matrix, w[dim:], out=out[dim:])
            return np.multiply(scale, out, out=out)

        out = _taylor_series(branches_action, norm1, psi.amplitudes)[0]
        return StateVector._closed(psi.basis, out, 1, psi.success_prob)

    out, norm2 = _taylor_series(_scaled_product(matrix, scale), norm1, psi.amplitudes)
    if not renormalize:
        return StateVector._closed(psi.basis, out, 0, psi.success_prob)
    return _renormalized(psi, out, norm2, np.vdot(psi.amplitudes, psi.amplitudes).real)


class _FixedStart:
    """``exp(eta J) psi`` with renormalization, for many step sizes eta from one bare state psi.

    It keeps the Taylor terms ``t_k = (J / |J|_1)^k psi / k!`` of its
    generator on its state as the rows of one block, ``rows``: row 0 is
    psi, and ``norms2[k]`` is ``|t_k|^2``, so ``len(norms2) - 1`` terms are
    made.  A missing term is made when a trial first needs it, one product
    ``t_k = J t_{k-1} / (|J|_1 k)`` straight into its zeroed row, and the
    block doubles when it runs out of rows.  The first Taylor segment of
    every eta is summed from these rows (``_first_segment``); later segments
    act on vectors that change with eta and run the kernel's recurrence.
    The result equals ``apply_exp_exact(op, psi, scale=eta,
    renormalize=True)`` up to rounding.
    """

    def __init__(self, op: SparseOperator, psi: StateVector):
        self.op = op
        self.psi = psi
        self.rows = np.zeros((_KEPT_ROWS, len(psi.amplitudes)), dtype=complex)
        self.rows[0] = psi.amplitudes
        self.norms2 = [np.vdot(self.rows[0], self.rows[0]).real]

    def _extend(self) -> float:
        """Make the next kept term, ``t_k = J t_{k-1} / (|J|_1 k)``, in its
        zeroed row, doubling the block when it is full; returns ``|t_k|^2``."""
        k = len(self.norms2)
        if k == len(self.rows):
            grown = np.zeros((2 * k, self.rows.shape[1]), dtype=complex)
            grown[:k] = self.rows
            self.rows = grown
        row = self.rows[k]
        _csr_product(self.op.csr, self.rows[k - 1], out=row)
        row *= 1.0 / (self.op.norm1 * k)
        self.norms2.append(np.vdot(row, row).real)
        return self.norms2[k]

    def _sum(self, coeffs: list) -> tuple[np.ndarray, float]:
        """``sum_k coeffs[k] t_k`` over rows 0..K and its squared norm.

        The reduction adds the scaled rows in order, so the sum has the bits
        of ``acc = psi; acc += c_k t_k`` term by term; a gemv sums in
        another order.  A complex column multiplies as the scalar ``c_k``
        does, and a real one would be cast element by element.
        """
        column = np.array(coeffs, dtype=complex)[:, None]
        acc = np.add.reduce(column * self.rows[: len(coeffs)], axis=0)
        return acc, np.vdot(acc, acc).real

    def _first_segment(self, phase: complex, norm1: float, segments: int) -> tuple[np.ndarray, float]:
        """The first of the kernel's ``segments`` segments of ``exp(G) psi``
        with ``G = phase |G|_1 J / |J|_1`` and ``|G|_1 = norm1``, and its
        exact squared norm.

        Its k-th term is ``c_k t_k``, with ``c_k`` the sequential product of
        k ratios ``phase |G|_1 / s``.  The stops are those of the kernel's
        ratio test and are decided from the kept ``|t_k|^2`` alone: besides
        the kernel's triangle bound, ``|acc| >= |psi| - sum_j |c_j t_j|``
        bounds the partial sum from below (both with ``_BOUND_MARGIN`` over
        their rounding), a term under ``_TERM_STOP`` times that lower bound
        is small whatever ``|acc|`` is, and only a term between the two
        bounds (or the last allowed one) forms the exact partial sum.
        """
        ratio = phase * norm1 / segments
        norms2 = self.norms2
        norm = math.sqrt(norms2[0])
        coeffs = [1.0]
        power = 1.0
        bound = norm  # the triangle bound on |acc|
        small_streak = 0
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            power *= ratio
            term2 = abs(power) ** 2 * (norms2[k] if k < len(norms2) else self._extend())
            coeffs.append(power)
            bound += math.sqrt(term2)
            acc = None
            # a NaN or Inf term or bound fails both comparisons and takes the exact norm
            if k < _MAX_TAYLOR_TERMS and term2 > _STOP2_BOUND * (bound * bound):
                small_streak = 0
                continue
            lower = norm / _BOUND_MARGIN - (bound - norm) * _BOUND_MARGIN  # a lower bound on |acc|
            proven_small = lower > 0.0 and term2 * _BOUND_MARGIN <= _STOP2 * (lower * lower)
            if k == _MAX_TAYLOR_TERMS or not proven_small:
                acc, acc2 = self._sum(coeffs)
                _check_finite(term2, acc2)
                if term2 > _STOP2 * acc2:
                    small_streak = 0
                    continue
            small_streak += 1
            if small_streak >= 2 and (k + 1) * segments > norm1:
                break
        else:
            _check_converged(term2, acc2)
        return (acc, acc2) if acc is not None else self._sum(coeffs)

    def apply(self, eta: complex) -> StateVector:
        norm1 = abs(eta) * self.op.norm1
        first = partial(self._first_segment, eta / abs(eta) if eta else 1.0, norm1)
        out, norm2 = _taylor_series(_scaled_product(self.op.csr, eta), norm1, self.rows[0], first)
        return _renormalized(self.psi, out, norm2, self.norms2[0])


# ---------------------------------------------------------------------------
# Single-ancilla dilation
# ---------------------------------------------------------------------------


def prepare_dilated(psi: StateVector) -> StateVector:
    """Attach an ancilla in ``|+>``: amplitudes ``[psi; psi] / sqrt(2)``."""
    if psi.n_ancilla != 0:
        raise ValueError("state already carries an ancilla")
    amps = np.concatenate([psi.amplitudes, psi.amplitudes]) / np.sqrt(2.0)
    return StateVector._closed(psi.basis, amps, 1, psi.success_prob)


def apply_dilated(psi: StateVector, op: SparseOperator, delta: float) -> StateVector:
    """Evolve a dilated state by ``exp(i delta Y_a x op)`` (``op`` as in ``apply_exp_exact``).

    The generator ``[[0, delta*J], [-delta*J, 0]]`` is applied as its action
    ``[delta J v; -delta J u]`` on the stacked branches ``[u; v]``, with the
    same Taylor kernel as the exact route; its 1-norm is ``|delta|`` times
    that of J.  For Hermitian ``op`` (the intended use: dilating a
    non-unitary Hermitian generator) the step is exactly unitary; norm
    conservation is never assumed downstream either way.
    """
    if psi.n_ancilla != 1:
        raise ValueError("apply_dilated expects a single-ancilla state")
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    return _dilated_step(psi, partial(_csr_product, op.csr), op.norm1, delta)


def _dilated_step(psi: StateVector, apply_j, norm1: float, delta: float) -> StateVector:
    """``exp(i delta Y_a x J)`` on a dilated state from the 1-norm of J and
    its action ``apply_j(v, out=vec)``, which writes ``J v`` into a zeroed
    vector of the sector's length.

    A register whose halves are bit for bit equal, as ``prepare_dilated``
    makes them and a unitary factor keeps them, takes one product per
    Taylor term where the step is one segment (``|delta| |J|_1 <= theta``):
    the kernel's ``one_branch`` series, with the bits of the two-branch
    one.  Every other step writes each branch's product into its half of
    one zeroed output.
    """
    dim = len(psi.basis)
    amps = psi.amplitudes
    norm1 = abs(delta) * norm1
    if norm1 <= _THETA and amps[:dim].tobytes() == amps[dim:].tobytes():

        def branch_action(v):  # delta J v on one branch
            out = np.zeros(dim, dtype=complex)
            apply_j(v, out=out)
            return np.multiply(delta, out, out=out)

        out = _taylor_series(branch_action, norm1, amps, one_branch=True)[0]
    else:

        def action(w):  # [delta J v; -delta J u] of w = [u; v]
            out = np.zeros(2 * dim, dtype=complex)
            top, bottom = out[:dim], out[dim:]
            apply_j(w[dim:], out=top)
            apply_j(w[:dim], out=bottom)
            np.multiply(delta, top, out=top)
            np.multiply(-delta, bottom, out=bottom)
            return out

        out = _taylor_series(action, norm1, amps)[0]
    return StateVector._closed(psi.basis, out, 1, psi.success_prob)


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
    block = psi.amplitudes[:dim] if outcome == 0 else psi.amplitudes[dim:]  # a read-only view
    return StateVector._closed(psi.basis, block, 0, psi.success_prob)


def reset_ancilla(psi: StateVector) -> StateVector:
    """Post-select the ancilla-0 branch and book its probability.

    Returns the normalized sector state with
    ``success_prob *= |u|^2 / |[u; v]|^2``, booked by ``_booked``.
    """
    if psi.n_ancilla != 1:
        raise ValueError("reset_ancilla expects a single-ancilla state")
    dim = len(psi.basis)
    u = psi.amplitudes[:dim]
    total = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    kept = float(np.vdot(u, u).real)
    if kept == 0.0:
        raise RuntimeError("ancilla-0 branch has zero weight; nothing to post-select")
    return StateVector._closed(psi.basis, u / np.sqrt(kept), 0, _booked(psi.success_prob * kept / total))


# ---------------------------------------------------------------------------
# Contracted-residual estimator on the dilated probe
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    """Whether a config field holds an integer: a Python or numpy integer,
    but not a ``bool``, which ``asdict`` would write into a report as
    ``true``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class EstimatorConfig:
    """How the sampled execution path measures residuals; the one check of estimator inputs."""

    delta: float | None = None
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.shots is not None:
            if not _is_integer(self.shots) or self.shots <= 0:
                raise ValueError("shots must be a positive integer")
            if self.seed is None:
                raise ValueError("shot sampling requires a seed for reproducibility")
        if self.seed is not None and not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta != 0.0):
            raise ValueError("delta must be finite and nonzero")

    @property
    def probe_delta(self) -> float:
        """The probe's delta: ``delta``, or its default for the mode
        (``DELTA_EXACT_DEFAULT``, or ``DELTA_SHOT_DEFAULT`` with shots)."""
        if self.delta is not None:
            return self.delta
        return DELTA_EXACT_DEFAULT if self.shots is None else DELTA_SHOT_DEFAULT


RESET_MODES = ("never", "wolfe", "every_k")


@dataclass(frozen=True)
class DilationPolicy:
    """How the dilated execution path slices V-steps and resets its ancilla.

    ``epsilon`` caps the scale of one ancilla V-step; a larger Hermitian
    factor is realized as equal sub-steps.  ``reset_mode`` picks when the
    ancilla is projected back onto the kept branch and re-prepared: "wolfe"
    resets on a failed sufficient-decrease check (the solver's Armijo
    slope of 1e-4) or after
    ``max_steps_between_resets`` V-steps since the last reset, whichever
    fires first; "every_k" uses only the step cap; "never" leaves the
    register untouched until the final readout.  Consecutive V-steps of the
    same generator compose exactly, so ``epsilon`` changes the realized
    state only through the resets interleaved between sub-steps: the solver
    counts ``ceil(eta / epsilon)`` sub-steps toward the cap but applies all
    those between two resets as one V-step.
    """

    epsilon: float = 0.5
    reset_mode: str = "wolfe"
    max_steps_between_resets: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if self.reset_mode not in RESET_MODES:
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}; expected one of {RESET_MODES}")
        steps = self.max_steps_between_resets
        if not _is_integer(steps) or steps < 1:
            raise ValueError("max_steps_between_resets must be an integer of at least 1")


def probe_state(ham: SparseOperator, psi: StateVector, delta: float) -> StateVector:
    """Dilated probe ``exp(i delta Y_a x (H - E)) |+> psi`` (psi normalized first).

    The V-step of ``apply_dilated`` with the action ``(H - E) v = H v - E v``
    and the exact 1-norm of ``H - E``, read off the column sums that H keeps
    (``SparseOperator.shifted_norm1``); no shifted matrix is built.  The
    ancilla starts in ``|+>``, so a probe of one Taylor segment (``|delta|
    |H - E|_1 <= 6``, 0.2 to 0.3 on H4 at the shot default) makes one
    product per term (``_dilated_step``).
    """
    psi = psi.normalized()
    e = energy(ham, psi)
    matrix = ham.csr

    def apply_shifted(v, out):
        _csr_product(matrix, v, out=out)
        out -= e * v

    return _dilated_step(prepare_dilated(psi), apply_shifted, ham.shifted_norm1(e), delta)


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
    each swap flipping the sign; a repeated index gives zero.  It is built
    as the operator of the link vector that holds the sign at the element's
    link (``_link_operator``), so it reads the pattern as the solver does.
    """
    n = basis.n_spin_orbitals
    support = _excitations(basis).support
    links = np.zeros(len(support), dtype=complex)
    if i != j and k != l:
        sign = 0.25  # the pattern stores 4 <D'| a+_i a+_j a_l a_k |D>
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        flat = ((k * n + l) * n + i) * n + j
        link = np.searchsorted(support, flat)
        if link < len(support) and support[link] == flat:
            links[link] = sign
    return _link_operator(links, basis).dense()


def estimate_residual_w(
    ham: SparseOperator,
    psi: StateVector,
    variant: str = "cse",
    delta: float | None = None,
    shots: int | None = None,
    seed: int | None = None,
) -> TwoBodyTensor:
    """Estimate a contracted residual tensor from the dilated probe state.

    Every linked canonical element of a measured channel has the outcome
    classes {+v, -v, 0} of ``_outcome_classes``.  Exact mode (``shots=None``)
    takes their expectation ``v (P+ - P-)``, so the only deviation from the
    true residual is the O(delta^2) dilation bias.  Shot mode draws one
    multinomial per element and part over the same classes, which gives the
    sample mean the distribution of sampling its eigenbasis, and requires a
    seed.  ``delta``, ``shots`` and ``seed`` obey the rules of
    ``EstimatorConfig``, which also gives the default delta.

    The result is the n^4 tensor (``fock._link_tensor``) of the link vector
    that ``_estimate_links`` measures: R for ``'cse'``, S (Z channel only)
    for ``'hcse'`` and A (Y channel only) for ``'acse'``.  S comes out
    exactly pair-Hermitian and A exactly pair-anti-Hermitian, in shot mode
    too, and the tensor vanishes off the index images of the sector's links.
    """
    if variant not in RESIDUAL_VARIANTS:
        raise ValueError(f"unknown residual variant {variant!r}")
    config = EstimatorConfig(delta=delta, shots=shots, seed=seed)  # raises on a bad delta, shots or seed
    links = _estimate_links(ham, psi, variant, config.probe_delta, shots, seed)
    return TwoBodyTensor._closed(psi.basis.n_spin_orbitals, _link_tensor(psi.basis, links))


def _estimate_links(
    ham: SparseOperator, psi: StateVector, variant: str, delta: float, shots: int | None, seed: int | None
) -> np.ndarray:
    """The link vector (``fock``) of the channel ``estimate_residual_w`` measures.

    The inputs are not checked: the solver passes those its ``CqeConfig``
    checked, and ``delta`` is resolved (``EstimatorConfig.probe_delta``).
    Both measured channels come from one ``_outcome_classes`` pass, and in
    shot mode all draws from one multinomial call, the Z rows before the Y
    rows, over the parts ``_Excitations.drawn`` (a diagonal element's Im
    part is zero and takes no draw).  The measured S and A form the link vector of R = (S + A) / 2,
    with the channel not measured set to zero, and ``residual_channel``
    maps it to the variant's channel with the sector's link adjoint.
    """
    basis = psi.basis
    dim = len(basis)
    probe = probe_state(ham, psi, delta).amplitudes
    top, bottom = probe[:dim], probe[dim:]
    channels = []
    if variant != "acse":  # ancilla Z
        channels.append((top, bottom))
    if variant != "hcse":  # ancilla Y
        turned = 1j * bottom
        channels.append(((top - turned) / np.sqrt(2.0), (top + turned) / np.sqrt(2.0)))
    probs = _outcome_classes(basis, channels)
    ex = _excitations(basis)
    if shots is None:
        mean = probs[..., 0] - probs[..., 1]
    else:
        rows = np.clip(probs[:, ex.drawn], 0.0, None)
        total = rows.sum(axis=2, keepdims=True)
        if not np.all(np.isfinite(total)) or np.any(total <= 0):
            raise RuntimeError("invalid outcome distribution in shot sampler")
        counts = np.random.default_rng(seed).multinomial(shots, (rows / total).reshape(-1, 3))
        mean = np.zeros(probs.shape[:3])
        mean[:, ex.drawn] = ((counts[:, 0] - counts[:, 1]) / shots).reshape(len(channels), -1)
    readout = ex.outcome * (mean[:, 0] + 1j * mean[:, 1])
    s = readout[0] / delta if variant != "acse" else 0.0
    a = -1j * readout[-1] / delta if variant != "hcse" else 0.0
    # S is pair-Hermitian and A pair-anti-Hermitian, so R is (s + a) / 2 at
    # each element (i, j, k, l) and conj(s - a) / 2 at its pair adjoint
    # (k, l, i, j), the link of the element's pattern column
    raw = np.zeros(len(ex.support), dtype=complex)
    raw[ex.upper] = 0.5 * (s + a)
    raw[ex.column] = 0.5 * np.conj(s - a)
    return residual_channel(raw, variant, ex.pair_adjoint)


def _outcome_classes(basis: Basis, channels) -> np.ndarray:
    """Closed-form outcome classes of probe channels for every measured element.

    A channel ``(x, y)`` reads the Hermitian part ``(G + G^+)/2`` ("Re") and
    the anti-Hermitian part ``(G - G^+)/2i`` ("Im") of
    ``G = a+_i a+_j a_l a_k``: an eigenvalue ``lam`` of the part counts as
    ``+lam`` on ``x`` and as ``-lam`` on ``y``.  Since ``G|D> = s|D'>`` is a
    signed partial matching of determinants, an off-diagonal element has
    both parts with spectrum {-1/2, 0, 1/2} on disjoint 2x2 blocks, and with

        m(x) = 1/2 sum_links (|x_D|^2 + |x_D'|^2),   g(x) = <x|G|x>

    the classes are ``P(+1/2) = m(x) + Re g(x) + m(y) - Re g(y)`` and
    ``P(-1/2) = m(x) - Re g(x) + m(y) + Re g(y)`` (Im g for the Im part).  A
    diagonal element is ``n_i n_j`` with spectrum {0, 1}: ``P(+1) = m(x)``,
    ``P(-1) = m(y)``, and its Im part vanishes.  ``P(0)`` is the rest of
    ``|x|^2 + |y|^2``.  The m and g of every vector of every channel come
    from one product each with ``|P^T|`` and ``P^T`` (``_transition_elements``)
    on the block of their pattern-row inputs.

    The elements are the sector's linked canonical elements (i, j, k, l),
    the links ``_Excitations.upper`` in ascending order, and each reads the
    pattern column of ``G``, the link of its pair adjoint (k, l, i, j)
    (``_Excitations.column``).  Returns the probabilities of +v, -v and 0,
    shape (channels, 2, elements, 3) for the Re and Im parts, where v is
    the element's outcome value ``_Excitations.outcome`` (1/2, or 1 on the
    diagonal).  They are written into that array in the operation order of
    the formulas above, ``m(x) + Re g(x) + m(y) - Re g(y)`` and so on.
    """
    ex = _excitations(basis)
    vecs = np.array([v for pair in channels for v in pair]).T  # columns x0, y0, x1, y1, ...
    weight = np.abs(vecs) ** 2
    pair_weight = np.take(weight, ex.rows, 0) + np.take(weight, ex.indices, 0)
    m = _csr_product(ex.magnitudes, pair_weight)
    g = _transition_elements(basis, vecs, vecs)
    m = np.take(m.T, ex.column, 1) / 8.0  # (vectors, elements)
    g = np.take(g.T, ex.column, 1) / 4.0
    mx, my = m[0::2, None], m[1::2, None]  # (channels, 1, elements)
    # (channels, 2, elements): views of the Re and Im parts of g
    parts = g.view(float).reshape(len(g), -1, 2).transpose(0, 2, 1)
    gx, gy = parts[0::2], parts[1::2]
    probs = np.empty((len(channels), 2, len(ex.upper), 3))
    plus, minus, rest = probs[..., 0], probs[..., 1], probs[..., 2]
    np.add(mx, gx, out=plus)
    plus += my
    plus -= gy
    np.subtract(mx, gx, out=minus)
    minus += my
    minus += gy
    # a diagonal element has P(+1) = m(x), P(-1) = m(y) and no Im part
    np.copyto(plus[:, 0], mx[:, 0], where=ex.diagonal)
    np.copyto(minus[:, 0], my[:, 0], where=ex.diagonal)
    probs[:, 1, ex.diagonal, :2] = 0.0
    for c, (x, y) in enumerate(channels):
        np.subtract(np.vdot(x, x).real + np.vdot(y, y).real, plus[c], out=rest[c])
    rest -= minus
    return probs
