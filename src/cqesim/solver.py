"""Iterative contracted-equation solver over products of two-body exponentials.

Each iteration contracts the chosen residual channel on the current state,
takes its negative as a two-body generator J and moves

    psi  <-  normalize( exp(eta J) psi )                    (exact, sampled)
    psi  <-  normalize( exp(eta J_H) exp(eta J_A) psi )     (dilated)

with eta chosen by the configured line search (``LineSearch``).  The second
form splits J into its anti-Hermitian (unitary) part J_A and Hermitian
(non-unitary) part J_H, which is how a device runs the non-unitary part on
an ancilla; it agrees with exp(eta J) to first order in eta, so both have
the same initial slope.  Only the dilated register runs the split; every
state update the simulator performs exactly takes one exponential, which
serves every trial of its line search from one set of Taylor terms on psi.
The step rules are constants of this module: backtracking halves eta down
a grid of at most 20 halvings of ``eta0``, and one sufficient-decrease
slope of 1e-4 serves the Armijo test, the acceptance and the stop of the
interpolated steps and the dilated Wolfe reset.  The channel determines
the fixed-point set:

    cse    J = -R        stationary only on eigenstates
    hcse   J = -S        stationary only on eigenstates (S Hermitian)
    acse   J = -A        purely unitary flow; stationary wherever the
                         commutator residual vanishes, which includes
                         non-eigenstates

Execution styles share this loop and differ in how the state moves and
where the step direction comes from:

    exact     closed-form action of exp(eta J), residuals contracted exactly
    dilated   the state lives on a single-ancilla register; the Hermitian
              factor runs as ancilla V-slices capped at the policy's
              epsilon, fused into one V-step per reset interval, and the
              ancilla is reset on a failed sufficient-decrease check or a
              slice-count cap, accumulating the post-selection probability
    sampled   exact updates by exp(eta J), but the step direction comes
              from the shot-sampled probe estimator with a per-iteration
              seed spawned deterministically from the configured one

The steepest direction ``sd`` of an iteration is the negated channel:
``-R``, ``-S`` or ``-A``, exactly contracted or, in sampled execution,
estimated.  Both carry the channel's symmetry exactly, so ``sd`` needs no
projection.  In exact and dilated execution the generator is a nonlinear
conjugate direction rather than ``sd`` itself:

    J = sd + beta J_prev,   beta = max(0, Re<sd, sd - sd_prev> / |sd_prev|^2)

(Polak-Ribiere+, Nocedal & Wright ch. 5), falling back to ``sd`` whenever
``J`` is not a descent direction.  Conjugacy lets the flow cross the shallow
valleys of near-degenerate systems such as the square H4, where steepest
descent zig-zags.  Sampled execution keeps ``J = sd``: differences of two
shot estimates are mostly noise.

Every two-body quantity of the loop is a link vector (see ``fock``): the
canonical entries of the tensor at the sector's links, the only elements
that act inside the sector.  The raw residual, its three channels and
their norms, PR+ (beta, the direction and its slope) and the step's
Hermitian/anti-Hermitian split are all formed on link vectors, and the
operator of the direction or of each factor is ``P @ c``.  Norms and
products stay those of the n^4 tensors, ``|T| = 2 |c|`` and
``<T, T'> = 4 <c, c'>``; beta is a ratio of products, so it is the same in
either coordinates.  In sampled execution
the estimator hands the loop the measured channel's link vector
(``evolution._estimate_links``), with the probe delta that
``EstimatorConfig`` resolves, so no execution style forms an n^4 tensor.
The probe reuses the energy the measurement has just read off the state,
so it neither normalizes the state again nor forms a second ``H psi``.

One pass of the loop measures the state, tests the residual, picks eta
with one step rule (fixed, the sampled resumed Armijo halving, or
backtracking), appends one ``IterationRecord`` and then either leaves,
on convergence or a stall, or takes the step.  A stall is a zero slope or
a search that finds no eta; both end the pass through ``_Stalled``.  The
final state is measured by the same helper as every visited one, with
the iteration index ``max_iterations`` for its sampled seed.

The measurement reads the exactly contracted diagnostic norms of all
three channels, split from the raw residual with one pair-adjoint gather
(``residuals._residual_channels``, as the step plan's split is); in exact
and dilated execution the termination test reads the diagnostic norm of
the variant's channel, and in sampled execution the estimated norm, since
that is all the measurement protocol can see.  A visited state pays one
product ``H psi``: its energy, variance and raw residual are all read off
it (``residuals._moments``).  In exact and sampled execution that is the
product its trial energy was read off, which the step plan keeps; a
dilated state is a peeked register branch and forms its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .evolution import (
    DilationPolicy,
    EstimatorConfig,
    _ancilla_untouched,
    _estimate_links,
    _FixedStart,
    _is_integer,
    ancilla_branch,
    apply_dilated,
    apply_exp_exact,
    prepare_dilated,
    reset_ancilla,
)
from .fock import (
    SparseOperator,
    StateVector,
    _csr_product,
    _excitations,
    _link_norm,
    _link_operator,
    _rdm2_links,
)
from .residuals import (
    RESIDUAL_VARIANTS,
    _moments,
    _rayleigh,
    _residual_channels,
    energy,
)

__all__ = [
    "LineSearch",
    "CqeConfig",
    "IterationRecord",
    "CqeResult",
    "cqe_run",
    "hf_state",
    "EXECUTION_MODES",
    "LINE_SEARCH_KINDS",
]

EXECUTION_MODES = ("exact", "dilated", "sampled")
LINE_SEARCH_KINDS = ("fixed", "backtracking")

_SHRINK = 0.5
_C1 = 1e-4  # sufficient-decrease slope: Armijo test, interpolated steps, dilated Wolfe reset
_MAX_SHRINKS = 20
_MAX_CAP_RESETS = 10_000  # the most ancilla cap resets one dilated step may make
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class LineSearch:
    """Step-size rule for one iteration.

    kind "fixed" always proposes ``eta0`` and accepts it only if the energy
    does not increase; "backtracking" halves eta from ``eta0``, at most 20
    times, until the Armijo sufficient-decrease test with slope 1e-4
    passes.  A trial whose exponential overflows counts as E = +inf.

    In exact and dilated execution the first eta of the backtracking
    sequence that passes the Armijo test is then moved, at most 20 times,
    to the minimum of the quadratic through E(0) with the exact initial
    slope and through the best trial so far, growing at most fourfold per
    step.  A moved eta is kept only if it passes the Armijo test and lies
    below the best trial, and gains within the solver's monotonicity slack
    count as none, so rounding-level wiggles of E(eta) never displace an
    honest step.  Sampled execution backtracks only, and resumes each
    iteration's halving at ``min(eta0, 2 eta_prev)``, one grid step above
    the previous iteration's accepted eta (Nocedal & Wright sec. 3.5): the
    same grid ``eta0 / 2^j`` and the same floor ``eta0 / 2^20``, with
    fewer trials spent re-rejecting steps too long for the current state.
    """

    kind: str = "backtracking"
    eta0: float = 0.5

    def __post_init__(self):
        if self.kind not in LINE_SEARCH_KINDS:
            raise ValueError(f"unknown line search {self.kind!r}; expected one of {LINE_SEARCH_KINDS}")
        if not (math.isfinite(self.eta0) and self.eta0 > 0):
            raise ValueError("eta0 must be positive and finite")


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
        if not _is_integer(self.max_iterations) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer of at least 1")
        if not (math.isfinite(self.residual_tolerance) and self.residual_tolerance > 0):
            raise ValueError("residual_tolerance must be positive and finite")
        if self.execution == "sampled" and (self.estimator is None or self.estimator.shots is None):
            raise ValueError("sampled execution needs an EstimatorConfig with shots")


@dataclass(frozen=True)
class IterationRecord:
    """State metrics at the top of one iteration plus the step taken from it.

    The three norms are the exactly contracted diagnostics of the full,
    Hermitian and anti-Hermitian residual channels.  ``eta`` is 0.0 on the
    last record of a run that converged or stalled, which took no step
    from it, and the accepted step on every other record.
    """

    n: int
    energy: float
    variance: float
    norm_r: float
    norm_s: float
    norm_a: float
    eta: float
    success_prob: float


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
    diag = np.round(np.real(ham.diagonal), 12)
    k = int(np.argmin(diag))  # basis is bitmask-sorted, so first minimum wins
    amps = np.zeros(len(ham.basis), dtype=complex)
    amps[k] = 1.0
    return StateVector(ham.basis, amps)


def _slope(variant: str, direction: np.ndarray, steepest: np.ndarray) -> float:
    """Energy derivative at eta = 0 along the link vector ``direction``.

    Follows from dE/deta = 2 Re<J, R>: the steepest direction is -R for
    cse, -S = -(R + R^+) for hcse and -A = -(R - R^+) for acse, and the
    cross term between Hermitian and anti-Hermitian tensors is imaginary,
    so a direction of the channel's symmetry has 2 Re<J, R> equal to
    ``-c Re<J, steepest>`` with c = 2 for cse and 1 otherwise.  The
    Frobenius product of two tensors is 4 times that of their link vectors.
    """
    overlap = 4.0 * float(np.real(np.vdot(direction, steepest)))
    return -2.0 * overlap if variant == "cse" else -overlap


def _conjugate(steepest: np.ndarray, previous, variant: str) -> tuple[np.ndarray, float]:
    """Polak-Ribiere+ direction and its slope on link vectors; ``previous`` is
    (sd, J) or None.  beta is a ratio of Frobenius products, so the factor 4
    of link coordinates cancels in it."""
    if previous is not None:
        sd_prev, d_prev = previous
        beta = max(
            0.0,
            float(np.real(np.vdot(steepest, steepest - sd_prev))) / float(np.vdot(sd_prev, sd_prev).real),
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
    """One iteration's step factors, built once and realized lazily per trial eta.

    ``direction`` is a link vector J (``fock``), and each factor's operator
    is its CSR data ``P @ c`` on the sector's shared CSR structure
    (``fock._link_operator``), so no matrix is assembled.  Unsplit (exact
    and sampled execution) the plan has the one factor exp(eta J).  Split
    (dilated execution only) it has exp(eta J_H) exp(eta J_A), with the
    parts ``(J -/+ J^+) / 2`` the channels of ``_residual_channels``
    halved, and an operator only for a nonzero part: an hcse direction is
    exactly pair-Hermitian and an acse one exactly pair-anti-Hermitian, so
    the other part is identically zero, ``op_a`` or ``op_h`` is None, and
    the nonzero part is J bit for bit.  Only a split plan has ``op_a`` and
    ``op_h``, which a dilated register runs.  Each operator's 1-norm is
    computed once from its column sums alone (``SparseOperator.norm1``).
    The first factor acts on the fixed psi, so every trial sums its kept
    Taylor terms (``_FixedStart``) and makes only those that no earlier
    trial made; the second, the Hermitian factor of a split cse direction,
    acts on a state that changes with eta and pays a fresh
    ``apply_exp_exact`` series per trial.  ``realize(eta)`` is a trial's
    one accessor: its state, energy and product ``H phi``, formed once per
    eta.  The searches read only the energy, through ``trial_energy``.
    """

    def __init__(self, ham: SparseOperator, psi: StateVector, direction: np.ndarray, split: bool = True):
        self.ham = ham
        self.psi = psi
        if split:
            channels = _residual_channels(direction, _excitations(psi.basis).pair_adjoint)
            parts = (0.5 * channels[v] for v in ("acse", "hcse"))
            self.op_a, self.op_h = (
                _link_operator(part, psi.basis) if np.any(part) else None for part in parts
            )
            first, *self._rest = (op for op in (self.op_a, self.op_h) if op is not None)
        else:
            first, self._rest = _link_operator(direction, psi.basis), []
        self._first = _FixedStart(first, psi)
        self._trials: dict[float, tuple[StateVector | None, float, np.ndarray | None]] = {}

    def realize(self, eta: float) -> tuple[StateVector | None, float, np.ndarray | None]:
        """Trial state, energy and product ``H phi``; the energy is bit for bit
        that of ``energy``, and the loop hands the accepted trial's product to
        ``_moments``.  A step whose exponential fails (a Taylor series that
        overflows) is booked at energy +inf, so every search rejects it.  The
        overflow warnings of such a series are silenced once per search, by
        ``cqe_run``'s ``np.errstate`` around its step rule, not per trial."""
        if eta not in self._trials:
            try:
                out = self._first.apply(eta)
                for op in self._rest:
                    out = apply_exp_exact(op, out, scale=eta, renormalize=True)
                h_out = _csr_product(self.ham.csr, out.amplitudes)
                self._trials[eta] = (out, _rayleigh(out.amplitudes, h_out)[1], h_out)
            except RuntimeError:
                self._trials[eta] = (None, math.inf, None)
        return self._trials[eta]

    def trial_energy(self, eta: float) -> float:
        return self.realize(eta)[1]


def _search_fixed(plan: _StepPlan, ls: LineSearch, e0: float) -> float:
    if plan.trial_energy(ls.eta0) <= e0 + _MONOTONE_SLACK:
        return ls.eta0
    raise _Stalled


def _search_armijo(
    plan: _StepPlan, ls: LineSearch, e0: float, slope: float, start: float = math.inf
) -> float:
    """The first eta of the grid ``eta0 * _SHRINK**j``, j = 0 .. ``_MAX_SHRINKS``,
    that lies at or below ``start`` and passes the Armijo test, tried in
    halving order.  A start below eta0 skips the grid points above it and
    keeps the floor, so it tries fewer etas, none twice."""
    eta = ls.eta0
    for _ in range(_MAX_SHRINKS + 1):
        if eta <= start and plan.trial_energy(eta) <= e0 + _C1 * eta * slope:
            return eta
        eta *= _SHRINK
    raise _Stalled


def _search_backtracking(plan: _StepPlan, ls: LineSearch, e0: float, slope: float) -> float:
    """Step from the Armijo-accepted eta to the minimum of the quadratic model.

    The model passes through (0, e0) with the exact initial ``slope`` and
    through the best trial (Nocedal & Wright eq. 3.58).  Where it has no
    minimum, eta grows by 1/``_SHRINK``; no step grows it more than
    1/``_SHRINK``^2 or reaches an eta that the Armijo phase rejected, so no
    eta is tried twice.  A step is kept only if it gains more than
    ``_MONOTONE_SLACK``: where E(eta) has saturated (a non-unitary flow
    nearing its projection limit) or sits at the float64 floor, its
    rounding noise would otherwise grow eta toward overflow, or pick steps
    that make no progress on the residual.  A kept step passes the Armijo
    test unchecked: short of the best eta it lies below the best energy,
    which passed, and the model steps past the best eta only where the best
    energy lies below e0 + slope eta / 2, far under the Armijo line at four
    times that eta.  The search stops at the first step not kept, or once
    the model's minimum lies within sqrt(``_C1``) of the best eta, where the
    model leaves less than ``_C1`` of the step's decrease on the line.
    """
    best = _search_armijo(plan, ls, e0, slope)
    e_best = plan.trial_energy(best)
    ceiling = best / _SHRINK if best < ls.eta0 else math.inf  # rejected by the Armijo phase
    for _ in range(_MAX_SHRINKS):
        q = e_best - e0 - slope * best  # the model's curvature times best^2
        x = -slope * best * best / (2.0 * q) if q > 0.0 else best / _SHRINK
        x = min(x, best / _SHRINK**2)
        if abs(x - best) <= math.sqrt(_C1) * best or x >= ceiling:
            break
        e_x = plan.trial_energy(x)
        if not e_x < e_best - _MONOTONE_SLACK:
            break
        best, e_best = x, e_x
    return best


class _DilatedRegister:
    """Single-ancilla register executing accepted steps with V-slices.

    A step of size eta is ``ceil(eta / epsilon)`` slices of equal scale,
    each counted toward the reset cap, which is ``max_steps_between_resets``
    or, under "never", unbounded (``math.inf``).  Slices of one generator
    compose exactly, so each run of slices up to the next cap reset is
    applied as one V-step of the run's summed scale: a reset interval pays
    one Taylor call, not one per slice.  A step of infinitely many slices,
    or one that needs more than ``_MAX_CAP_RESETS`` cap resets, raises
    ``RuntimeError`` before it changes the register.  It runs the accepted
    plan's own operators, so every V-step reads the 1-norm that the plan
    computed once, and a zero factor (None) is never applied.  An ancilla
    that no V-step has moved since it was prepared is still an unentangled
    ``|+>`` (``evolution._ancilla_untouched``, the test the ancilla kernel
    reads too, so a unitary factor or V-step of one Taylor segment on it
    makes one product per term): post-selecting it discards it and books
    no probability, so a purely unitary (acse) flow keeps ``success_prob``
    at 1.
    """

    def __init__(self, ham: SparseOperator, psi: StateVector, policy: DilationPolicy):
        self.ham = ham
        self.policy = policy
        self.cap = math.inf if policy.reset_mode == "never" else policy.max_steps_between_resets
        self.state = prepare_dilated(psi)
        self.steps_since_reset = 0

    def peek(self) -> StateVector:
        return ancilla_branch(self.state, 0).normalized()

    def finish(self) -> StateVector:
        """The post-selected sector state."""
        out = reset_ancilla(self.state)
        return replace(out, success_prob=self.state.success_prob) if _ancilla_untouched(self.state) else out

    def _reset(self):
        self.state = prepare_dilated(self.finish())
        self.steps_since_reset = 0

    def execute(
        self, op_a: SparseOperator | None, op_h: SparseOperator | None, eta: float, e0: float, slope: float
    ):
        ratio = eta / self.policy.epsilon
        if not math.isfinite(ratio):
            raise RuntimeError(f"a dilated step of eta {eta} is {ratio} slices of epsilon {self.policy.epsilon}")
        slices = max(1, math.ceil(ratio))
        if self.cap < math.inf and (self.steps_since_reset + slices) // self.cap > _MAX_CAP_RESETS:
            raise RuntimeError(f"a dilated step of eta {eta} needs more than {_MAX_CAP_RESETS} ancilla resets")
        if op_a is not None:  # the unitary factor acts identically on both branches
            self.state = apply_exp_exact(op_a, self.state, scale=eta)
        delta = eta / slices
        while slices:
            # the slices up to the next cap reset compose into one V-step
            run = min(slices, self.cap - self.steps_since_reset)
            # a zero Hermitian factor makes each slice the identity: none is
            # applied, but the slices still count toward the reset cap
            if op_h is not None:
                self.state = apply_dilated(self.state, op_h, run * delta)
            self.steps_since_reset += run
            slices -= run
            if self.steps_since_reset >= self.cap:
                self._reset()
        if self.policy.reset_mode == "wolfe":
            achieved = energy(self.ham, ancilla_branch(self.state, 0))
            if achieved > e0 + _C1 * eta * slope:
                self._reset()


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
    est, ls = config.estimator, config.line_search
    start = ls.eta0  # where the sampled Armijo halving resumes
    records: list[IterationRecord] = []
    status = "max_iterations"
    previous = None  # (steepest, taken) directions of the last step, for conjugacy
    h_psi = None  # H psi, where the accepted trial formed it
    adjoint = _excitations(ham.basis).pair_adjoint

    def measure(psi: StateVector, h_psi: np.ndarray | None, iteration: int):
        """Energy, variance, the three diagnostic norms, and the followed
        channel's link vector with its norm, all off the one product H psi;
        sampled runs estimate the channel with a seed spawned from the
        configured one for each iteration."""
        e, var, shifted = _moments(ham, psi, h_psi)
        channels = _residual_channels(_rdm2_links(psi.basis, psi.amplitudes, shifted), adjoint)
        norms = {v: _link_norm(channels[v]) for v in RESIDUAL_VARIANTS}
        if not sampled:
            return e, var, norms, channels[config.variant], norms[config.variant]
        seed = int(np.random.SeedSequence(entropy=est.seed, spawn_key=(iteration,)).generate_state(1)[0])
        channel = _estimate_links(ham, psi, e, config.variant, est.probe_delta, est.shots, seed)
        return e, var, norms, channel, _link_norm(channel)

    for n in range(config.max_iterations):
        if register is not None:
            psi = register.peek()
        e_now, var_now, norms, measured, res_norm = measure(psi, h_psi, n)
        eta = 0.0
        try:
            if res_norm <= config.residual_tolerance:
                status = "converged"
            else:
                steepest = -measured
                direction, slope = _conjugate(steepest, None if sampled else previous, config.variant)
                if slope == 0.0:
                    raise _Stalled
                previous = (steepest, direction)
                plan = _StepPlan(ham, psi, direction, split=register is not None)
                # a trial whose series overflows is booked at +inf (_StepPlan.realize)
                with np.errstate(over="ignore", invalid="ignore"):
                    if ls.kind == "fixed":
                        eta = _search_fixed(plan, ls, e_now)
                    elif sampled:
                        # no stretching of a step along a shot-noisy direction;
                        # each halving resumes one grid step above the last eta
                        eta = _search_armijo(plan, ls, e_now, slope, start)
                        start = min(ls.eta0, eta / _SHRINK)
                    else:
                        eta = _search_backtracking(plan, ls, e_now, slope)
        except _Stalled:
            status = "stalled"
        records.append(IterationRecord(
            n, e_now, var_now, norms["cse"], norms["hcse"], norms["acse"], eta, psi.success_prob
        ))
        if status != "max_iterations":
            break
        if register is None:
            psi, _, h_psi = plan.realize(eta)
        else:
            register.execute(plan.op_a, plan.op_h, eta, e_now, slope)

    if register is not None:
        psi = register.finish()
    e_final, var_final, _, _, final_norm = measure(psi, h_psi, config.max_iterations)
    return CqeResult(
        status=status,
        iterations=tuple(records),
        state=psi,
        energy=e_final,
        residual_norm=final_norm,
        variance=var_final,
    )
