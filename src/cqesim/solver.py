"""Iterative contracted-equation solver over products of two-body exponentials.

Each iteration contracts the chosen residual channel on the current state,
takes its negative as a two-body generator, splits the generator into its
anti-Hermitian (unitary) and Hermitian (non-unitary) parts, and moves

    psi  <-  normalize( exp(eta J_H) exp(eta J_A) psi ),

with eta chosen by the configured line search.  The channel determines the
fixed-point set:

    cse    J = -R        stationary only on eigenstates
    hcse   J = -S        stationary only on eigenstates (S Hermitian)
    acse   J = -A        purely unitary flow; stationary wherever the
                         commutator residual vanishes, which includes
                         non-eigenstates

Execution styles share this loop and differ in how the state moves and
where the step direction comes from:

    exact     closed-form exponential action, residuals contracted exactly
    dilated   the state lives on a single-ancilla register; the Hermitian
              factor runs as ancilla V-steps capped at the policy's epsilon
              and the ancilla is reset on a failed sufficient-decrease
              check or a step-count cap, accumulating the post-selection
              probability
    sampled   exact state updates, but the step direction comes from the
              shot-sampled probe estimator with a per-iteration seed
              spawned deterministically from the configured one

In exact and dilated execution the generator is a nonlinear conjugate
direction rather than the bare negated residual: with ``sd`` the projected
steepest direction of this iteration,

    J = sd + beta J_prev,   beta = max(0, Re<sd, sd - sd_prev> / |sd_prev|^2)

(Polak-Ribiere+, Nocedal & Wright ch. 5), falling back to ``sd`` whenever
``J`` is not a descent direction.  Conjugacy lets the flow cross the shallow
valleys of near-degenerate systems such as the square H4, where steepest
descent zig-zags.  Sampled execution keeps ``J = sd``: differences of two
shot estimates are mostly noise.

Iteration records always carry the exactly contracted diagnostic norms of
all three channels; in sampled execution the termination test uses the
estimated norm, since that is all the measurement protocol can see.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .evolution import (
    DilationPolicy,
    EstimatorConfig,
    ancilla_branch,
    apply_dilated,
    apply_exp_exact,
    estimate_residual_w,
    prepare_dilated,
    reset_ancilla,
)
from .fock import (
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    tensor_norm,
    two_body_to_operator,
)
from .residuals import RESIDUAL_VARIANTS, energy, residual_channel, residual_cse, variance

__all__ = [
    "LineSearch",
    "CqeConfig",
    "IterationRecord",
    "CqeResult",
    "cqe_run",
    "hf_state",
    "direction_from_residual",
    "EXECUTION_MODES",
    "LINE_SEARCH_KINDS",
]

EXECUTION_MODES = ("exact", "dilated", "sampled")
LINE_SEARCH_KINDS = ("fixed", "backtracking", "golden")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 32  # bracket shrinks by invphi each pass: 0.618**32 ~ 2e-7
_PARABOLIC_STEPS = 3
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class LineSearch:
    """Step-size rule for one iteration.

    kind "fixed" always proposes ``eta0`` and accepts it only if the energy
    does not increase; "backtracking" shrinks from ``eta0`` by ``shrink``
    until the Armijo sufficient-decrease test with slope ``c1`` passes;
    "golden" runs a bounded golden-section minimization of E(eta) on
    [0, eta0] and, when its minimizer does not lower the energy (E(eta)
    need not be unimodal), falls back to the Armijo backtracking from
    ``eta0``.  A trial whose exponential overflows counts as E = +inf.

    In exact and dilated execution the first eta of the backtracking
    sequence that passes the Armijo test opens an expanding bracket: eta
    grows by ``1 / shrink`` while the energy keeps falling, at most
    ``max_shrinks`` times (trials already made are reused), and
    up to three parabolic steps then refine the minimum inside the
    bracket.  A refined eta is kept only if it passes the Armijo test and
    lies below the best bracketed trial, and gains within the solver's
    monotonicity slack count as none, so rounding-level wiggles of E(eta)
    never displace an honest step.  Sampled execution backtracks only.
    """

    kind: str = "backtracking"
    eta0: float = 0.5
    shrink: float = 0.5
    c1: float = 1e-4
    max_shrinks: int = 20

    def __post_init__(self):
        if self.kind not in LINE_SEARCH_KINDS:
            raise ValueError(f"unknown line search {self.kind!r}; expected one of {LINE_SEARCH_KINDS}")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0.0 < self.c1 < 1.0:
            raise ValueError("c1 must lie in (0, 1)")
        if self.max_shrinks < 0:
            raise ValueError("max_shrinks must be nonnegative")


@dataclass(frozen=True)
class CqeConfig:
    """Solver controls; defaults reproduce the exact full-residual flow."""

    variant: str = "cse"
    execution: str = "exact"
    max_iterations: int = 200
    residual_tolerance: float = 1e-6
    line_search: LineSearch = field(default_factory=LineSearch)
    estimator: EstimatorConfig | None = None
    dilation: DilationPolicy = field(default_factory=DilationPolicy)

    def __post_init__(self):
        if self.variant not in RESIDUAL_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {RESIDUAL_VARIANTS}")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution {self.execution!r}; expected one of {EXECUTION_MODES}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.residual_tolerance <= 0:
            raise ValueError("residual_tolerance must be positive")
        if self.execution == "sampled":
            est = self.estimator
            if est is None or est.shots is None or est.seed is None:
                raise ValueError("sampled execution needs an EstimatorConfig with shots and seed")


@dataclass(frozen=True)
class IterationRecord:
    """State metrics at the top of one iteration plus the step taken from it.

    The three norms are the exactly contracted diagnostics of the full,
    Hermitian and anti-Hermitian residual channels.  ``eta`` is 0.0 when
    the loop terminated here without stepping.  ``wall_time`` is measured
    but deliberately excluded from serialized reports so equal-seed runs
    stay byte-identical.
    """

    n: int
    energy: float
    variance: float
    norm_r: float
    norm_s: float
    norm_a: float
    eta: float
    success_prob: float
    wall_time: float


@dataclass(frozen=True)
class CqeResult:
    status: str                      # converged | stalled | max_iterations
    iterations: tuple[IterationRecord, ...]
    state: StateVector
    energy: float
    residual_norm: float
    variance: float

    @property
    def success_prob(self) -> float:
        return self.state.success_prob


def hf_state(ham: SparseOperator) -> StateVector:
    """Lowest-diagonal determinant (mean-field seed); bitmask breaks ties."""
    diag = np.round(np.real(ham.matrix.diagonal()), 12)
    k = int(np.argmin(diag))  # basis is bitmask-sorted, so first minimum wins
    amps = np.zeros(len(ham.basis), dtype=complex)
    amps[k] = 1.0
    return StateVector(ham.basis, amps)


def direction_from_residual(tensor: TwoBodyTensor, variant: str) -> TwoBodyTensor:
    """Descent generator ``-residual`` with its exact symmetry re-imposed.

    The projection is a no-op for exactly contracted residuals and removes
    sampling noise that would leak into the wrong symmetry sector for
    estimated ones.  For hcse and acse the projection is half the channel
    of ``-residual``: ``(J + J^+) / 2`` or ``(J - J^+) / 2``.
    """
    coeffs = residual_channel(-tensor.coeffs, variant)
    return TwoBodyTensor(tensor.n_spin_orbitals, coeffs if variant == "cse" else 0.5 * coeffs)


def _slope(variant: str, direction: TwoBodyTensor, steepest: TwoBodyTensor) -> float:
    """Energy derivative at eta = 0 along ``direction``.

    Follows from dE/deta = 2 Re<J, R>: the steepest direction is -R for
    cse, -S = -(R + R^+) for hcse and -A = -(R - R^+) for acse, and the
    cross term between Hermitian and anti-Hermitian tensors is imaginary,
    so a direction of the channel's symmetry has 2 Re<J, R> equal to
    ``-c Re<J, steepest>`` with c = 2 for cse and 1 otherwise.
    """
    overlap = float(np.real(np.vdot(direction.coeffs, steepest.coeffs)))
    return -2.0 * overlap if variant == "cse" else -overlap


def _conjugate(steepest: TwoBodyTensor, previous, variant: str) -> tuple[TwoBodyTensor, float]:
    """Polak-Ribiere+ direction and its slope; ``previous`` is (sd, J) or None."""
    if previous is not None:
        sd_prev, d_prev = previous
        beta = max(
            0.0,
            float(np.real(np.vdot(steepest.coeffs, steepest.coeffs - sd_prev.coeffs)))
            / sd_prev.norm() ** 2,
        )
        if beta > 0.0:
            direction = steepest + d_prev * beta
            slope = _slope(variant, direction, steepest)
            if slope < 0.0:
                return direction, slope
    return steepest, _slope(variant, steepest, steepest)


class _Stalled(Exception):
    pass


class _StepPlan:
    """One iteration's generator split, realized lazily per trial eta."""

    def __init__(self, ham: SparseOperator, psi: StateVector, direction: TwoBodyTensor):
        self.ham = ham
        self.psi = psi
        self.op_a = two_body_to_operator(direction.antihermitian_part(), psi.basis)
        self.op_h = two_body_to_operator(direction.hermitian_part(), psi.basis)
        self._trials: dict[float, tuple[StateVector | None, float]] = {}

    def _realize(self, eta: float) -> tuple[StateVector | None, float]:
        """Trial state and energy; a step whose exponential fails (a Taylor
        series that overflows) is booked at energy +inf, so every search
        rejects it."""
        if eta not in self._trials:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    out = apply_exp_exact(self.op_a, self.psi, scale=eta, renormalize=True)
                    out = apply_exp_exact(self.op_h, out, scale=eta, renormalize=True)
                self._trials[eta] = (out, energy(self.ham, out))
            except RuntimeError:
                self._trials[eta] = (None, math.inf)
        return self._trials[eta]

    def trial(self, eta: float) -> StateVector:
        return self._realize(eta)[0]

    def trial_energy(self, eta: float) -> float:
        return self._realize(eta)[1]


def _search_fixed(plan: _StepPlan, ls: LineSearch, e0: float, slope: float) -> float:
    if plan.trial_energy(ls.eta0) <= e0 + _MONOTONE_SLACK:
        return ls.eta0
    raise _Stalled


def _search_armijo(plan: _StepPlan, ls: LineSearch, e0: float, slope: float) -> float:
    eta = ls.eta0
    for _ in range(ls.max_shrinks + 1):
        if plan.trial_energy(eta) <= e0 + ls.c1 * eta * slope:
            return eta
        eta *= ls.shrink
    raise _Stalled


def _search_backtracking(plan: _StepPlan, ls: LineSearch, e0: float, slope: float) -> float:
    """Grow the Armijo-accepted eta while E falls, then refine the bracket by parabolas.

    Only gains beyond ``_MONOTONE_SLACK`` count.  Where E(eta) has
    saturated (a non-unitary flow nearing its projection limit) or sits at
    the float64 floor, its rounding noise would otherwise grow eta toward
    overflow, or pick steps that make no progress on the residual.
    """
    eta = _search_armijo(plan, ls, e0, slope)
    points = [(0.0, e0), (eta, plan.trial_energy(eta))]
    for _ in range(ls.max_shrinks):
        grown = points[-1][0] / ls.shrink
        points.append((grown, plan.trial_energy(grown)))
        if points[-1][1] >= points[-2][1] - _MONOTONE_SLACK:
            break
    else:
        return points[-1][0]  # still falling at the growth cap
    (a, fa), (b, fb), (c, fc) = points[-3:]
    best, e_best = b, fb
    for _ in range(_PARABOLIC_STEPS):
        if min(fa, fc) - fb <= _MONOTONE_SLACK:
            break  # flat bracket: nothing to resolve
        p = (b - a) * (fb - fc)
        q = (b - c) * (fb - fa)
        x = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q)
        if not a < x < c or x == b:
            break
        fx = plan.trial_energy(x)
        if fx < fb:
            if x < b:
                c, fc = b, fb
            else:
                a, fa = b, fb
            b, fb = x, fx
        elif x < b:
            a, fa = x, fx
        else:
            c, fc = x, fx
    if fb < e_best - _MONOTONE_SLACK and fb <= e0 + ls.c1 * b * slope:
        return b
    return best


def _search_golden(plan: _StepPlan, ls: LineSearch, e0: float, slope: float) -> float:
    a, b = 0.0, ls.eta0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = plan.trial_energy(c), plan.trial_energy(d)
    for _ in range(_GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = plan.trial_energy(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = plan.trial_energy(d)
    eta = 0.5 * (a + b)
    if eta > 0 and plan.trial_energy(eta) <= e0 + _MONOTONE_SLACK:
        return eta
    # E(eta) of a unitary flow need not be unimodal on [0, eta0]
    return _search_armijo(plan, ls, e0, slope)


_SEARCHES = {
    "fixed": _search_fixed,
    "backtracking": _search_backtracking,
    "golden": _search_golden,
}


class _DilatedRegister:
    """Single-ancilla register executing accepted steps with V-slices."""

    def __init__(self, ham: SparseOperator, psi: StateVector, policy: DilationPolicy):
        self.ham = ham
        self.policy = policy
        self.state = prepare_dilated(psi)
        self.steps_since_reset = 0

    def peek(self) -> StateVector:
        return ancilla_branch(self.state, 0).normalized()

    def _reset(self):
        self.state = prepare_dilated(reset_ancilla(self.state))
        self.steps_since_reset = 0

    def _maybe_cap_reset(self):
        if self.policy.reset_mode == "never":
            return
        if self.steps_since_reset >= self.policy.max_steps_between_resets:
            self._reset()

    def execute(self, op_a: SparseOperator, op_h: SparseOperator, eta: float, e0: float, slope: float):
        # the unitary factor acts directly on both branches
        self.state = apply_exp_exact(op_a, self.state, scale=eta)
        slices = max(1, math.ceil(eta / self.policy.epsilon))
        delta = eta / slices
        for _ in range(slices):
            self.state = apply_dilated(self.state, op_h, delta)
            self.steps_since_reset += 1
            self._maybe_cap_reset()
        if self.policy.reset_mode == "wolfe":
            achieved = energy(self.ham, ancilla_branch(self.state, 0))
            if achieved > e0 + self.policy.wolfe_c1 * eta * slope:
                self._reset()

    def finish(self) -> StateVector:
        return reset_ancilla(self.state)


def cqe_run(
    ham: SparseOperator, config: CqeConfig | None = None, initial: StateVector | None = None
) -> CqeResult:
    """Run the solver loop until the residual criterion, stall, or budget.

    The returned records describe each visited state and the step taken
    from it; the result fields describe the final state, which for the
    dilated execution is the post-selected (ancilla-reset) register.
    """
    config = config or CqeConfig()
    if not ham.is_hermitian():
        raise ValueError("hamiltonian must be Hermitian")
    psi = (initial if initial is not None else hf_state(ham)).normalized()
    if psi.basis != ham.basis:
        raise ValueError("initial state and Hamiltonian use different bases")
    if psi.n_ancilla:
        raise ValueError("pass an ancilla-free initial state")

    register = _DilatedRegister(ham, psi, config.dilation) if config.execution == "dilated" else None
    sampled = config.execution == "sampled"
    search = _SEARCHES[config.line_search.kind]
    if sampled and search is _search_backtracking:
        search = _search_armijo  # no stretching of a step along a shot-noisy direction
    records: list[IterationRecord] = []
    status = "max_iterations"
    previous = None  # (steepest, taken) directions of the last step, for conjugacy

    def measured_norm_and_direction(state: StateVector, iteration: int, raw: np.ndarray):
        if sampled:
            est = config.estimator
            step_seed = int(
                np.random.SeedSequence(entropy=est.seed, spawn_key=(iteration,)).generate_state(1)[0]
            )
            est_tensor = estimate_residual_w(
                ham, state, variant=config.variant,
                delta=est.delta, shots=est.shots, seed=step_seed,
            )
            return est_tensor.norm(), direction_from_residual(est_tensor, config.variant)
        tensor = TwoBodyTensor(state.basis.n_spin_orbitals, residual_channel(raw, config.variant))
        return tensor.norm(), direction_from_residual(tensor, config.variant)

    for n in range(config.max_iterations):
        tic = time.perf_counter()
        if register is not None:
            psi = register.peek()
        e_now = energy(ham, psi)
        var_now = variance(ham, psi)
        prob_now = psi.success_prob
        raw = residual_cse(ham, psi).coeffs
        norm_r, norm_s, norm_a = (tensor_norm(residual_channel(raw, v)) for v in RESIDUAL_VARIANTS)
        res_norm, steepest = measured_norm_and_direction(psi, n, raw)

        def record(eta_taken: float):
            records.append(
                IterationRecord(
                    n=n,
                    energy=e_now,
                    variance=var_now,
                    norm_r=norm_r,
                    norm_s=norm_s,
                    norm_a=norm_a,
                    eta=eta_taken,
                    success_prob=prob_now,
                    wall_time=time.perf_counter() - tic,
                )
            )

        if res_norm <= config.residual_tolerance:
            record(0.0)
            status = "converged"
            break

        direction, slope = _conjugate(steepest, None if sampled else previous, config.variant)
        if slope == 0.0:
            record(0.0)
            status = "stalled"
            break
        previous = (steepest, direction)
        plan = _StepPlan(ham, psi, direction)
        try:
            eta = search(plan, config.line_search, e_now, slope)
        except _Stalled:
            record(0.0)
            status = "stalled"
            break

        if register is None:
            psi = plan.trial(eta)
        else:
            register.execute(plan.op_a, plan.op_h, eta, e_now, slope)
        record(eta)

    if register is not None:
        psi = register.finish()
    final_raw = residual_cse(ham, psi).coeffs
    if sampled:
        final_norm, _ = measured_norm_and_direction(psi, config.max_iterations, final_raw)
    else:
        final_norm = tensor_norm(residual_channel(final_raw, config.variant))
    return CqeResult(
        status=status,
        iterations=tuple(records),
        state=psi,
        energy=energy(ham, psi),
        residual_norm=final_norm,
        variance=variance(ham, psi),
    )
