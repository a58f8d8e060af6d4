"""Non-unitary two-body exponentials: exact action and ancilla dilation.

Every exponential below runs through one Taylor kernel, ``_taylor_series``:
it takes the action of the generator on a vector and the generator's exact
1-norm (``norm1``, the largest of the column sums an operator keeps) and
sums segmented Taylor series from matrix-vector products alone, so no
matrix (scaled, shifted, block or exponential) is built per call.  Segments
have 1-norm at most theta_40 = 6.0 of Al-Mohy & Higham, at most
``_MAX_SEGMENTS`` of them, and a segment's series stops on two negligible
terms only where the 1-norm bound already makes the terms contract.  Every
segment is summed one way, from one block of terms (``_Terms``): row k
holds ``t_k = A t_{k-1} / (d k)``, made the first time it is needed by one
action straight into its zeroed row, and one ratio-test loop decides the
stops from the term norms alone where a triangle bound or a lower bound
can (both with a margin over their rounding), forming the exact partial
sum only for a term between the two and the last allowed one.  That sum
is one reduction over the rows under a coefficient column, which adds the
rows in order and so has the bits of the term-by-term sum; the last one is
exact, and a renormalized step reads it.  A fresh segment's block runs
the scaled action with ``d = s`` and takes no column.  ``_FixedStart``
keeps the block of ``(J / |J|_1)^k psi / k!`` for one generator on one
state, so the first segment of ``exp(eta J) psi`` sums it under the powers
of ``phase |G|_1 / s`` and costs no product once a larger eta has made the
terms: a line search's trials from the same psi pay each product once.
At the benchmark's sizes (dim <= 72) a product costs about as much as a
numpy call, so a term costs its action, one scaling and one norm, and no
call, copy or wrapper more.  An operator is a ``SparseOperator``: the
Hamiltonian, or a solver step factor whose CSR data sits on the sector's
shared structure arrays.  Every product reads
the operator's bare CSR arrays (``SparseOperator.csr``) through
``fock._csr_product``, the sparsetools kernel behind scipy's ``@`` without
its dispatch, so products are bit-identical to ``@`` and no exponential
imports scipy.  Every exponential on a dilated register (a unitary factor
on both branches, the V-step, the probe) runs through one ancilla kernel,
``_dilated_step``, which takes the branch map of its generator: the
identity map of a unitary factor or the rotation of a V-step and a probe.
It runs one vector product per branch, each into its half of one zeroed
output, bit for bit the columns of the (dim, 2) block product, except for
an exponential of one Taylor segment on a register whose ancilla is
untouched, its two halves bit for bit equal as ``prepare_dilated`` makes
them and a unitary factor keeps them (``_ancilla_untouched``, the one
test of it, which the solver's register also reads to book no
probability): each term of its block generator has halves ``+-p_k``, so
a one-branch block holds the ``p_k``, one product per term serves both
branches, and the map's sign columns of its reduction give both halves
with the same bits.  The probe of every estimate is such a step, and so
is the dilated register's first unitary factor or V-step after a reset.
The states that come out are formed by
``StateVector._closed``, without the public constructor's cast, checks
and copy.

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
``exp(d J)`` acts identically on both branches, the generator ``[[dJ, 0],
[0, dJ]]`` with action ``[dJ u; dJ v]``, and runs through the same kernel
as a V-step (``apply_exp_exact``).

Residual estimator
------------------
``_estimate_links`` reads contracted residuals off the probe state
``exp(i d Y_a x (H - E)) |+> psi``, a V-step with the action
``(H - E) v = H v - E v`` (no shifted H is built) and the 1-norm of
``H - E`` read off column sums that H keeps.  The solver hands the
estimate the energy it has just measured, so the probe forms no second
``H psi``; the public ``probe_state`` and ``estimate_residual_w``
normalize psi and compute E themselves.  The ancilla-Z channel
of the pair excitation ``a+_i a+_j a_l a_k`` yields the anticommutator
residual S and the ancilla-Y channel the commutator residual A, each with
O(d^2) bias and exactly even in d for real problems.  A pair excitation is
a signed partial matching of determinants, so each Hermitian observable
(real and imaginary part per channel) has at most the three outcome values
{-v, 0, +v}; the class probabilities are quadratic forms read off the
sector's excitation pattern, and no eigenbasis is ever formed
(``pair_excitation_matrix`` with a dense ``eigh`` is the test oracle).
One class pass (``_outcome_classes``) works from the probe's halves t
and b alone, taken as one (2, dim) block: every class of both channels
follows from m(t) + m(b), one product with ``|P^T|``, and from g(t) -
g(b) (Z) and ``d = <b|G|t> - <t|G|b>`` (Y), the two columns of one
product with ``P^T``.  ``_estimate_links`` decides in one place which
parts are formed and drawn: all four for a complex H or psi, and only Re
Z and Im Y when both are exactly real, since the other two then have
zero mean and carry only shot noise (Smart & Mazziotti, Phys. Rev. Lett.
126, 070504 (2021)); a sampled run of a real problem therefore stays
exactly real.  Both modes read these classes: exact mode takes the
expectation ``v (P+ - P-)``, and with ``shots`` set every formed part
gets multinomial counts over its classes, all drawn in one call, which
reproduces hardware shot noise exactly rather than through a Gaussian
surrogate.  The measured elements are the sector's linked
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
from itertools import combinations, combinations_with_replacement

import numpy as np

from .fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    _csr_product,
    _excitations,
    _link_tensor,
    antisymmetrize,
    two_body_to_operator,
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
# factor on the squared triangle bound of |acc| and on the lower bound: it covers
# the rounding of the norms and sums the bounds and |acc|^2 are made of, below
# 1e-8 under dimension 1e7
_BOUND_MARGIN = 1.0 + 1e-6
# the squared ratio-test factors, formed once with the bits of the per-term products
_STOP2 = _TERM_STOP**2
_STOP2_BOUND = _TERM_STOP**2 * _BOUND_MARGIN
# the signs of p_k in the top and bottom halves of the k-th term of a
# generator on [p; p], by k % 4, as columns of a one-branch block's (2, K)
# reduction, K <= 61, indexed by whether the branch map rotates: + + + + ...
# on both halves under the identity map [[D, 0], [0, D]] of a unitary factor,
# and + + - - ... on top and + - - + ... below under the rotation [[0, D],
# [-D, 0]] of a V-step or a probe
_BRANCH_SIGNS = (
    np.ones((2, 64, 1), dtype=complex),
    np.tile(np.array([[1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex), 16)[..., None],
)


def _taylor_series(matvec, norm1: float, vec: np.ndarray, kept=None) -> tuple[np.ndarray, float]:
    """``exp(G) @ vec`` and its exact squared norm, from the action
    ``matvec(v, out)``, which writes ``G v`` into the zeroed vector ``out``,
    and the 1-norm of G.

    G is split into ``s = max(1, ceil(|G|_1 / theta))`` equal segments with
    ``theta = 6.0``, the theta_40 of Al-Mohy & Higham (SIAM J. Sci. Comput.
    33, 488 (2011)): a degree-40 Taylor polynomial of a segment of 1-norm at
    most theta_40 meets double precision, so a generator of 1-norm up to 6.0
    takes one segment; more than ``_MAX_SEGMENTS`` segments raise before any
    product, and so does a non-finite 1-norm, whether G's entries or its
    scale make it.  Each segment is one block of terms (``_Terms``) from the
    segment's start, ``t_k = G t_{k-1} / (s k)``, summed by its one
    ratio-test loop.

    ``kept = (terms, phase)`` serves the first segment from a block already
    made instead: the kept terms ``(J / |J|_1)^k vec / k!`` of ``vec`` under
    a generator J with ``G = phase |G|_1 J / |J|_1`` (``_FixedStart``), whose
    k-th term is ``(phase |G|_1 / s)^k`` times the k-th kept one.  The kernel
    then reads neither ``vec`` nor its norm.
    """
    if not math.isfinite(norm1):
        raise RuntimeError(f"generator 1-norm {norm1} is not finite")
    segments = max(1, math.ceil(norm1 / _THETA))
    if segments > _MAX_SEGMENTS:
        raise RuntimeError(f"generator 1-norm {norm1:.4g} needs over {_MAX_SEGMENTS} Taylor segments")
    if kept is None:
        out, out2 = vec, np.vdot(vec, vec).real
    else:
        terms, phase = kept
        out, out2 = terms._segment(norm1, segments, phase * norm1 / segments)
    for _ in range(segments - (kept is not None)):
        out, out2 = _Terms(out, out2, matvec, segments)._segment(norm1, segments)
    return out, out2


class _Terms:
    """The Taylor terms ``t_k = A t_{k-1} / (d k)`` of one segment start
    ``t_0`` as the rows of one block, and the one loop that sums them.

    Row 0 holds the start, and ``norms2[0]`` is the start's squared norm.
    Term k is made the first time the loop needs it, one action
    ``A t_{k-1}`` straight into its zeroed row, scaled in place, with
    ``norms2[k] = |t_k|^2``, so ``len(norms2) - 1`` terms are made.  No
    segment makes more than ``_MAX_TAYLOR_TERMS`` terms, so the block is
    allocated once with a row for each.  A fresh segment of the kernel takes
    its scaled action and ``d = s``.  A block given ``signs`` is a
    one-branch block, the one segment of an ancilla exponential on a
    register ``[p_0; p_0]`` with equal halves (``_dilated_step``): it starts
    from the top half ``p_0`` with the register's squared norm and holds
    the halves ``p_k``, so its term k has squared norm ``2 norms2[k]`` and
    its halves take the caller's sign columns, one of ``_BRANCH_SIGNS``.
    """

    def __init__(self, start: np.ndarray, norm2: float, action, divisor: float, signs: np.ndarray | None = None):
        self.rows = np.zeros((_MAX_TAYLOR_TERMS + 1, len(start)), dtype=complex)
        self.rows[0] = start
        self.norms2 = [norm2]
        self.action = action
        self.divisor = divisor
        self.signs, self.weight = signs, (1.0 if signs is None else 2.0)

    def _sum(self, count: int, coeffs: list | None) -> tuple[np.ndarray, float]:
        """``sum_k c_k t_k`` over rows 0..count-1 and its squared norm.

        ``c_k`` is ``coeffs[k]`` where given, else the sign columns of a
        one-branch block, whose (2, count) reduction, raveled, is ``[top;
        bottom]``, else 1: a fresh segment takes no column.  The reduction
        adds the rows in order, so the sum has the bits of ``acc = t_0; acc
        += c_k t_k`` term by term; a gemv sums in another order.  A complex
        column multiplies as the scalar ``c_k`` does, and a real one would
        be cast element by element.
        """
        rows = self.rows[:count]
        if coeffs is not None:
            rows = np.array(coeffs, dtype=complex)[:, None] * rows
        elif self.signs is not None:
            rows = self.signs[:, :count] * rows
        acc = np.add.reduce(rows, axis=-2).ravel()
        return acc, np.vdot(acc, acc).real

    def _segment(self, norm1: float, segments: int, ratio: complex | None = None) -> tuple[np.ndarray, float]:
        """One of the kernel's ``segments`` segments of ``exp(G)`` with
        ``|G|_1 = norm1``, summed from this block, and its exact squared
        norm; with ``ratio``, the k-th term is ``ratio^k t_k``, the power a
        sequential product.

        The series stops after two consecutive terms below ``_TERM_STOP``
        relative to the partial sum, but only once ``(k + 1) s > |G|_1``:
        from there every later term is bounded by the last one times
        ``|G|_1 / (s (k + 1)) < 1``, so a small term cannot be followed by a
        large one.  It raises if the series fails (NaN/Inf, or terms still
        decaying at ``_MAX_TAYLOR_TERMS``), which would signal a bogus norm
        rather than a physics problem.

        The stops are decided from the term norms alone where they can be:
        the triangle bound ``|acc| <= |t_0| + sum_j |c_j t_j|`` proves a term
        above ``_TERM_STOP`` times it not small, and the lower bound ``|acc|
        >= |t_0| - sum_j |c_j t_j|`` proves a term under ``_TERM_STOP`` times
        it small, both with ``_BOUND_MARGIN`` over their rounding.  Only a
        term between the two, a non-finite one or the last allowed one forms
        the exact partial sum, so the stops, the errors and the output bits
        are those of a test that forms ``|acc|^2`` at every term.  The
        segment ends on an exact ``|acc|^2``, so the last one is the
        output's squared norm, which renormalization reads.
        """
        rows, norms2, weight = self.rows, self.norms2, self.weight
        norm = math.sqrt(norms2[0])
        coeffs = None if ratio is None else [1.0]
        power = 1.0
        bound = norm  # the triangle bound on |acc|
        small_streak = 0
        for k in range(1, _MAX_TAYLOR_TERMS + 1):
            if k == len(norms2):
                row = rows[k]
                self.action(rows[k - 1], row)
                row *= 1.0 / (self.divisor * k)
                norms2.append(np.vdot(row, row).real)
            if coeffs is not None:
                power *= ratio
                coeffs.append(power)
                weight = abs(power) ** 2
            term2 = weight * norms2[k]
            bound += math.sqrt(term2)
            acc = None
            # a NaN or Inf term or bound fails both comparisons and takes the exact norm
            if k < _MAX_TAYLOR_TERMS and term2 > _STOP2_BOUND * (bound * bound):
                small_streak = 0
                continue
            lower = norm / _BOUND_MARGIN - (bound - norm) * _BOUND_MARGIN  # a lower bound on |acc|
            proven_small = lower > 0.0 and term2 * _BOUND_MARGIN <= _STOP2 * (lower * lower)
            if k == _MAX_TAYLOR_TERMS or not proven_small:
                # squared norms: the ratio test |term| < tol |acc| without square roots
                acc, acc2 = self._sum(k + 1, coeffs)
                if not (math.isfinite(term2) and math.isfinite(acc2)):
                    raise RuntimeError("matrix exponential series produced non-finite values")
                if term2 > _STOP2 * acc2:
                    small_streak = 0
                    continue
            small_streak += 1
            if small_streak >= 2 and (k + 1) * segments > norm1:
                break
        else:
            if term2 > _TERM_FAIL**2 * acc2:
                raise RuntimeError(f"matrix exponential series still decaying at term {_MAX_TAYLOR_TERMS}")
        return (acc, acc2) if acc is not None else self._sum(k + 1, coeffs)


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


def _scaled(apply_j, scale: complex):
    """The action ``scale * (J v)`` from ``apply_j(v, out=vec)``, which
    writes ``J v`` into the zeroed ``vec``, scaled there."""

    def action(v, out):
        apply_j(v, out=out)
        np.multiply(scale, out, out=out)

    return action


def apply_exp_exact(
    op: SparseOperator, psi: StateVector, scale: complex = 1.0, renormalize: bool = False
) -> StateVector:
    """Apply ``exp(scale * op)`` to the system register of a state.

    ``op`` is a sector operator or a solver step factor (``fock._link_operator``).

    On a dilated state the exponential acts identically on both ancilla
    branches: it is the ancilla kernel ``_dilated_step`` under the identity
    branch map, so an untouched ancilla makes one product per term where
    the factor fits one Taylor segment (``renormalize`` is disallowed
    there; norm accounting happens only at ancilla resets).  With
    ``renormalize=True`` the result is normalized and the retained weight
    ``min(1, |out|^2/|in|^2)`` multiplies ``success_prob``; this is the
    classical-exact stand-in for the post-selected dilated step.
    """
    if op.basis != psi.basis:
        raise ValueError("operator and state use different bases")
    apply_j = partial(_csr_product, op.csr)
    if psi.n_ancilla == 1:
        if renormalize:
            raise ValueError("renormalize is not meaningful on a dilated state")
        return _dilated_step(psi, apply_j, op.norm1, scale, rotation=False)
    out, norm2 = _taylor_series(_scaled(apply_j, scale), abs(scale) * op.norm1, psi.amplitudes)
    if not renormalize:
        return StateVector._closed(psi.basis, out, 0, psi.success_prob)
    return _renormalized(psi, out, norm2, np.vdot(psi.amplitudes, psi.amplitudes).real)


class _FixedStart(_Terms):
    """``exp(eta J) psi`` with renormalization, for many step sizes eta from one bare state psi.

    Its block keeps the Taylor terms ``t_k = (J / |J|_1)^k psi / k!`` of its
    generator on its state (row 0 is psi), so the first Taylor segment of
    every eta sums these rows and makes only the terms that no earlier eta
    made: a line search's trials from the same psi pay each product once.
    Later segments act on vectors that change with eta and sum fresh
    blocks.  The result equals ``apply_exp_exact(op, psi, scale=eta,
    renormalize=True)`` up to rounding.
    """

    def __init__(self, op: SparseOperator, psi: StateVector):
        matrix = op.csr
        amps = psi.amplitudes

        def action(v, out):  # J v, looking _csr_product up at each product
            _csr_product(matrix, v, out=out)

        # a zero operator's terms are zero under any divisor, and the kernel returns psi
        super().__init__(amps, np.vdot(amps, amps).real, action, op.norm1 or 1.0)
        self.op = op
        self.psi = psi

    def apply(self, eta: complex) -> StateVector:
        norm1 = abs(eta) * self.op.norm1
        kept = (self, eta / abs(eta) if eta else 1.0)
        out, norm2 = _taylor_series(_scaled(partial(_csr_product, self.op.csr), eta), norm1, self.rows[0], kept)
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
    return _dilated_step(psi, partial(_csr_product, op.csr), op.norm1, delta, rotation=True)


def _ancilla_untouched(psi: StateVector) -> bool:
    """Whether a dilated register's ancilla is still the ``|+>`` that
    ``prepare_dilated`` attached: its two halves are bit for bit equal, as
    ``prepare_dilated`` makes them and a unitary factor keeps them, and a
    V-step that moves the state leaves them unequal.  The one test of an
    untouched ancilla: the ancilla kernel ``_dilated_step`` reads it to run
    a unitary factor, a V-step or a probe on one branch, and the solver's
    register to book no probability on a reset."""
    dim = len(psi.basis)
    amps = psi.amplitudes
    return amps[:dim].tobytes() == amps[dim:].tobytes()


def _dilated_step(psi: StateVector, apply_j, norm1: float, scale: complex, rotation: bool) -> StateVector:
    """The one kernel of every exponential on a dilated register, ``exp(G)
    [u; v]`` from the 1-norm of J and its action ``apply_j(v, out=vec)``,
    which writes ``J v`` into a zeroed vector of the sector's length.

    ``G`` is ``D = scale J`` under a branch map: the identity map, ``G =
    [[D, 0], [0, D]]`` with action ``[D u; D v]``, is the unitary factor
    ``exp(scale J)`` on both branches (``apply_exp_exact``), and with
    ``rotation`` the map ``G = [[0, D], [-D, 0]]`` with action ``[D v; -D
    u]`` is the V-step ``exp(i scale Y_a x J)`` (``apply_dilated``, the
    probe).  Either way ``|G|_1 = |scale| |J|_1``.

    A register whose ancilla is untouched (``_ancilla_untouched``) takes
    one product per Taylor term where the exponential is one segment
    (``|G|_1 <= theta``): G's k-th term on ``[p_0; p_0]`` is ``[+-p_k;
    +-p_k]`` with ``p_k = D p_{k-1} / k`` and the signs of the map's
    ``_BRANCH_SIGNS``, so a one-branch block (``_Terms``) of the ``p_k``
    sums the segment with the bits of the two-branch one.  Every other
    exponential writes each branch's product into its half of one zeroed
    output and scales both halves at once under the identity map, each
    half by its sign under the rotation.
    """
    dim = len(psi.basis)
    amps = psi.amplitudes
    norm1 = abs(scale) * norm1
    if norm1 <= _THETA and _ancilla_untouched(psi):
        block = _Terms(amps[:dim], np.vdot(amps, amps).real, _scaled(apply_j, scale), 1, _BRANCH_SIGNS[rotation])
        out = block._segment(norm1, 1)[0]
    else:
        first, second = (slice(dim, None), slice(dim)) if rotation else (slice(dim), slice(dim, None))

        def action(w, out):  # [D u; D v], or [D v; -D u] under the rotation, of w = [u; v]
            top, bottom = out[:dim], out[dim:]
            apply_j(w[first], out=top)
            apply_j(w[second], out=bottom)
            if rotation:
                np.multiply(scale, top, out=top)
                np.multiply(-scale, bottom, out=bottom)
            else:
                np.multiply(scale, out, out=out)

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
    ``success_prob *= |u|^2 / |[u; v]|^2``, booked by ``_booked``.  Where
    the ancilla-1 branch is negligible that product can round above the
    old probability, so the new one is capped at the old.
    """
    if psi.n_ancilla != 1:
        raise ValueError("reset_ancilla expects a single-ancilla state")
    dim = len(psi.basis)
    u = psi.amplitudes[:dim]
    total = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    kept = float(np.vdot(u, u).real)
    if kept == 0.0:
        raise RuntimeError("ancilla-0 branch has zero weight; nothing to post-select")
    prob = min(psi.success_prob, psi.success_prob * kept / total)
    return StateVector._closed(psi.basis, u / np.sqrt(kept), 0, _booked(prob))


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
    """How the sampled execution path measures residuals; the one check of estimator inputs.

    ``shots`` is a positive integer of at most ``np.iinfo(np.int64).max``,
    the most that numpy's multinomial draw takes.
    """

    delta: float | None = None
    shots: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.shots is not None:
            if not _is_integer(self.shots) or self.shots <= 0:
                raise ValueError("shots must be a positive integer")
            if self.shots > np.iinfo(np.int64).max:
                raise ValueError(f"shots {self.shots} exceed {np.iinfo(np.int64).max}, the most numpy draws")
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
    those between two resets as one V-step.  It refuses, with
    ``RuntimeError`` and before the register changes, a step whose
    ``eta / epsilon`` is not finite or that needs more than 10 000 cap
    resets (``solver._MAX_CAP_RESETS``); under "never" a finite count is
    one V-step.
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
    return _probe(ham, psi, energy(ham, psi), delta)


def _probe(ham: SparseOperator, psi: StateVector, e: float, delta: float) -> StateVector:
    """``probe_state`` of a state taken as normalized whose energy E is ``e``,
    as the solver has just read it off the state (``residuals._moments``)."""
    matrix = ham.csr

    def apply_shifted(v, out):
        _csr_product(matrix, v, out=out)
        out -= e * v

    return _dilated_step(prepare_dilated(psi), apply_shifted, ham.shifted_norm1(e), delta, rotation=True)


def canonical_elements(n_spin_orbitals: int) -> tuple[tuple[int, int, int, int], ...]:
    """Independent residual elements: ``i < j``, ``k < l``, pair(ij) <= pair(kl).

    Every other element follows from antisymmetry plus the (anti-)Hermitian
    structure of the S and A tensors.  The pairs (i, j) ascend, and each is
    followed by itself and every later pair (k, l).
    """
    pairs = combinations(range(n_spin_orbitals), 2)
    return tuple(ij + kl for ij, kl in combinations_with_replacement(pairs, 2))


def pair_excitation_matrix(basis: Basis, i: int, j: int, k: int, l: int) -> np.ndarray:
    """Dense sector matrix of ``a+_i a+_j a_l a_k``, the test oracle of the estimator.

    It is ``J[T]`` for the one-hot ``T[k, l, i, j] = 1``, antisymmetrized
    (``fock.antisymmetrize``) and assembled by the one assembly of an
    operator built from a tensor (``two_body_to_operator``), so the sign of
    a swapped index order and the zero of a repeated index come from there.
    An index outside ``[0, n_spin_orbitals)`` raises ``ValueError``.
    """
    n = basis.n_spin_orbitals
    if not all(0 <= index < n for index in (i, j, k, l)):
        raise ValueError(f"pair excitation indices {(i, j, k, l)} outside [0, {n})")
    coeffs = np.zeros((n,) * 4)
    coeffs[k, l, i, j] = 1.0
    return two_body_to_operator(TwoBodyTensor(n, antisymmetrize(coeffs)), basis).dense()


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
    psi = psi.normalized()
    links = _estimate_links(ham, psi, energy(ham, psi), variant, config.probe_delta, shots, seed)
    return TwoBodyTensor(psi.basis.n_spin_orbitals, _link_tensor(psi.basis, links))


def _estimate_links(
    ham: SparseOperator,
    psi: StateVector,
    e: float,
    variant: str,
    delta: float,
    shots: int | None,
    seed: int | None,
) -> np.ndarray:
    """The link vector (``fock``) of the channel ``estimate_residual_w`` measures.

    ``psi`` is taken as normalized with energy ``e``, which the solver has
    just read off it, and the other inputs are not checked: the solver
    passes those its ``CqeConfig`` checked, and ``delta`` is resolved
    (``EstimatorConfig.probe_delta``).  The measured channels, ancilla Z
    unless the variant is ``'acse'`` and ancilla Y unless it is ``'hcse'``,
    come from one ``_outcome_classes`` pass over the probe's halves.  This
    is the one place that decides which parts are formed and drawn: all
    four (Re and Im of each channel) for a complex H or psi, but only Re Z
    and Im Y when both are exactly real.  Then R, S and A are real, and
    the other two parts have zero mean and would add only shot noise
    (Smart & Mazziotti, Phys. Rev. Lett. 126, 070504 (2021)); they read
    exactly zero, so the link vector of a real problem is exactly real.
    In shot mode all draws come from one multinomial call, over the formed
    parts in the order Re Z, Im Z, Re Y, Im Y and, within a part, every
    element but, in an Im part, the diagonal ones (``_Excitations.diagonal``),
    whose Im part is zero and takes no draw.  An element's outcome value v
    is read off the same mask: 1 on the diagonal, else 1/2.  The measured S
    and A form the link vector of R = (S + A) / 2, with the channel not
    measured set to zero, and ``residual_channel`` maps it to the variant's
    channel with the sector's link adjoint.
    """
    basis = psi.basis
    ex = _excitations(basis)
    probe = _probe(ham, psi, e, delta).amplitudes.reshape(2, -1)
    real = not (ham.csr.data.imag.any() or psi.amplitudes.imag.any())
    # rows Z and Y by columns Re and Im: all four parts, or only Re Z and Im Y
    # (the diagonal of the mask) for a real H and a real psi
    formed = np.array([[variant != "acse"], [variant != "hcse"]]) & (np.eye(2, dtype=bool) | (not real))
    probs = _outcome_classes(basis, probe, formed)
    if shots is None:
        means = probs[..., 0] - probs[..., 1]
    else:
        # (formed parts, elements): a Re part draws every element, an Im part all but the diagonal
        drawn = (np.nonzero(formed)[1] == 0)[:, None] | ~ex.diagonal
        rows = np.clip(probs[drawn], 0.0, None)
        total = rows.sum(axis=1, keepdims=True)
        if not np.all(np.isfinite(total)) or np.any(total <= 0):
            raise RuntimeError("invalid outcome distribution in shot sampler")
        counts = np.random.default_rng(seed).multinomial(shots, rows / total)
        means = np.zeros(drawn.shape)
        means[drawn] = (counts[:, 0] - counts[:, 1]) / shots
    mean = np.zeros((2, 2, len(ex.upper)))
    mean[formed] = means
    z, y = np.where(ex.diagonal, 1.0, 0.5) * (mean[:, 0] + 1j * mean[:, 1])
    s, a = z / delta, -1j * y / delta
    # S is pair-Hermitian and A pair-anti-Hermitian, so R is (s + a) / 2 at
    # each element (i, j, k, l) and conj(s - a) / 2 at its pair adjoint
    # (k, l, i, j), the link of the element's pattern column
    raw = np.zeros(len(ex.support), dtype=complex)
    raw[ex.upper] = 0.5 * (s + a)
    raw[ex.column] = 0.5 * np.conj(s - a)
    return residual_channel(raw, variant, ex.pair_adjoint)


def _outcome_classes(basis: Basis, halves: np.ndarray, formed: np.ndarray) -> np.ndarray:
    """Closed-form outcome classes of the probe's channels for every measured element.

    ``halves`` is the probe as one (2, dim) block, its ancilla branches t
    and b (a view of the probe's amplitudes serves).  The Z
    channel is the pair ``(x, y) = (t, b)`` and the Y channel the pair
    ``((t - i b) / sqrt 2, (t + i b) / sqrt 2)``.  A channel reads the
    Hermitian part ``(G + G^+)/2`` ("Re") and the anti-Hermitian part
    ``(G - G^+)/2i`` ("Im") of ``G = a+_i a+_j a_l a_k``: an eigenvalue
    ``lam`` of the part counts as ``+lam`` on x and as ``-lam`` on y.  Since
    ``G|D> = s|D'>`` is a signed partial matching of determinants, an
    off-diagonal element has both parts with spectrum {-1/2, 0, 1/2} on
    disjoint 2x2 blocks, and with

        m(x) = 1/2 sum_links (|x_D|^2 + |x_D'|^2),   g(x) = <x|G|x>

    its classes are ``P(+-1/2) = M +- Re c`` (``Im c`` for the Im part), with
    ``M = m(x) + m(y)`` and ``c = g(x) - g(y)``.  A diagonal element is
    ``n_i n_j`` with spectrum {0, 1} and ``m = g``: ``P(+1) = m(x) = (M +
    Re c) / 2`` and ``P(-1) = m(y) = (M - Re c) / 2``, and its Im part
    vanishes.  ``P(0)`` is the rest of ``|x|^2 + |y|^2 = |t|^2 + |b|^2``.

    So every class of both channels follows from the halves alone:
    ``M = m(t) + m(b)`` for either channel, ``c = g(t) - g(b)`` for Z and
    ``c = i d`` for Y, where ``d = <b|G|t> - <t|G|b>``.  (The Y channel's
    ``m(x) - m(y)``, ``|P^T|`` on the weights ``2 Im(conj(t) b)``, is
    ``-Im d`` wherever a diagonal element reads it.)  M is one product with
    ``|P^T|`` and the c of both channels the two columns of one product
    with ``P^T``, each on its pattern-row inputs, since m and g are linear
    in them.

    ``formed`` is a (2, 2) mask of the parts to form, rows Z and Y and
    columns Re and Im, which ``_estimate_links`` decides.  The elements
    are the sector's linked canonical elements (i, j, k, l), the links
    ``_Excitations.upper`` in ascending order, and each reads the pattern
    column of ``G``, the link of its pair adjoint (k, l, i, j)
    (``_Excitations.column``).  Returns the probabilities of +v, -v and 0,
    shape (formed parts, elements, 3) in the order Re Z, Im Z, Re Y, Im Y,
    where v is the element's outcome value (1/2, or 1 on the diagonal,
    ``_Excitations.diagonal``).
    """
    ex = _excitations(basis)
    top, bottom = halves
    weight = np.abs(top) ** 2 + np.abs(bottom) ** 2
    pair_weight = np.take(weight, ex.rows) + np.take(weight, ex.indices)
    both = np.take(_csr_product(ex.magnitudes, pair_weight), ex.column) / 8.0
    t_row, b_row = np.take(halves.conj(), ex.rows, 1)
    t_col, b_col = np.take(halves, ex.indices, 1)
    pairs = np.stack([t_row * t_col - b_row * b_col, b_row * t_col - t_row * b_col], axis=1)  # g(t) - g(b), d
    c = np.take(_csr_product(ex.by_link, pairs), ex.column, 0) / 4.0
    c[:, 1] *= 1j
    channel, part = np.nonzero(formed)
    c = c[:, channel].T  # the c of each formed part's channel
    signal = np.where(part[:, None], c.imag, c.real)
    # P(+-v) per part is scale (M +- signal): 1/2 on the diagonal's Re part, 0 on its Im part
    scale = np.where(ex.diagonal, np.array([[0.5], [0.0]])[part], 1.0)
    probs = np.empty((len(part), len(ex.upper), 3))
    plus, minus, rest = probs.transpose(2, 0, 1)
    np.multiply(scale, both + signal, out=plus)
    np.multiply(scale, both - signal, out=minus)
    np.subtract(np.vdot(top, top).real + np.vdot(bottom, bottom).real, plus, out=rest)
    rest -= minus
    return probs
