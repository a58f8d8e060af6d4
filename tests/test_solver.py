"""Solver loop: convergence, monotonicity, execution styles, termination."""

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from cqesim import evolution, fock, residuals, solver
from cqesim.evolution import EstimatorConfig, DilationPolicy, apply_exp_exact
from cqesim.fock import (
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    build_basis,
    two_body_to_operator,
)
from cqesim.hamiltonian import build_hamiltonian, load_fixture, reduced_hamiltonian_K
from cqesim.models import (
    PairingModel,
    SpherePoint,
    build_pairing_hamiltonian,
    equator_state,
    random_sphere_point,
    sphere_state,
)
from cqesim.oracle import fci_solve
from cqesim.residuals import energy, energy_slope, residual, residual_channel, variance
from cqesim.solver import (
    CqeConfig,
    LineSearch,
    _DilatedRegister,
    _slope,
    _StepPlan,
    cqe_run,
    hf_state,
)

from _oracles import dense_expm_apply, phase_rotated


def _h2():
    ints = load_fixture("h2_d0.74")
    return ints, build_hamiltonian(ints)


def _h4():
    ints = load_fixture("h4_d1.20")
    return ints, build_hamiltonian(ints)


def _links(tensor, basis):
    """The solver's coordinates of a two-body tensor: its entries at the sector's links."""
    return tensor.coeffs.ravel()[fock._excitations(basis).support]


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        CqeConfig(variant="nope")
    with pytest.raises(ValueError):
        CqeConfig(execution="quantum")
    with pytest.raises(ValueError):
        CqeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        CqeConfig(max_iterations=5.0)
    with pytest.raises(ValueError):
        CqeConfig(max_iterations=True)  # a bool is no iteration count
    with pytest.raises(ValueError):
        CqeConfig(residual_tolerance=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_configs_reject_nonfinite_tolerance_and_step(value):
    with pytest.raises(ValueError, match="finite"):
        CqeConfig(residual_tolerance=value)
    with pytest.raises(ValueError, match="finite"):
        LineSearch(eta0=value)


def test_line_search_validation():
    with pytest.raises(ValueError):
        LineSearch(kind="newton")
    with pytest.raises(ValueError):
        LineSearch(eta0=-1.0)
    with pytest.raises(ValueError):
        LineSearch(kind="golden")
    default = LineSearch()
    assert default.kind == "backtracking"
    assert default.eta0 == pytest.approx(0.5)


def test_sampled_execution_requires_shots_and_seed():
    with pytest.raises(ValueError):
        CqeConfig(execution="sampled")
    with pytest.raises(ValueError):
        CqeConfig(execution="sampled", estimator=EstimatorConfig(shots=100))
    CqeConfig(execution="sampled", estimator=EstimatorConfig(shots=100, seed=3))


def test_slope_follows_the_direction_taken():
    # a conjugate direction is not the steepest one, so the slope fed to the
    # Armijo and dilated Wolfe tests must come from the direction itself;
    # pin it against the contraction identity and a central difference of
    # E(exp(eta J) psi), the oracle of the gradient acceptance criterion
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    basis = ham.basis
    n = basis.n_spin_orbitals
    rng = np.random.default_rng(19)
    psi = StateVector(
        basis, rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    ).normalized()
    full = residual(ham, psi, "cse")
    eps = 1e-4
    for variant in ("cse", "hcse", "acse"):
        steepest = TwoBodyTensor(n, -residual(ham, psi, variant).coeffs)
        raw = antisymmetrize(rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4))
        other = residual_channel(raw, variant)
        direction = TwoBodyTensor(
            n, steepest.coeffs * (1.0 / steepest.norm()) + other * (2.0 / np.linalg.norm(other))
        )
        slope = _slope(variant, _links(direction, basis), _links(steepest, basis))
        assert slope == pytest.approx(energy_slope(direction, full), rel=1e-12)
        op = two_body_to_operator(direction, basis)
        e_plus = energy(ham, apply_exp_exact(op, psi, scale=eps))
        e_minus = energy(ham, apply_exp_exact(op, psi, scale=-eps))
        assert slope == pytest.approx((e_plus - e_minus) / (2.0 * eps), rel=1e-5)
        # the norm formula -c |J|^2, right only for J = steepest, is far off
        c = 2.0 if variant == "cse" else 1.0
        assert abs(slope + c * direction.norm() ** 2) > 0.1 * abs(slope)


# ---------------------------------------------------------------------------
# step plans
# ---------------------------------------------------------------------------

THETA = 6.0  # the Taylor kernel's per-segment 1-norm


def _plan_inputs(variant, seed=23):
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    rng = np.random.default_rng(seed)
    basis = ham.basis
    psi = StateVector(
        basis, rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    ).normalized()
    return ham, psi, TwoBodyTensor(basis.n_spin_orbitals, -residual(ham, psi, variant).coeffs)


@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_plan_trials_match_dense_expm(variant):
    ham, psi, direction = _plan_inputs(variant)
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    factors = [op for op in (plan.op_a, plan.op_h) if op is not None]
    past_theta = 1.5 * THETA / factors[0].norm1  # the first factor takes two segments
    for eta in (1e-3, 0.5, -0.7, 0.3j, past_theta):
        ref, chained = psi, psi
        for op in factors:
            ref = dense_expm_apply(op, ref, scale=eta)
            chained = apply_exp_exact(op, chained, scale=eta, renormalize=True)
        ref = ref.amplitudes / np.linalg.norm(ref.amplitudes)
        got, _, _ = plan.realize(eta)
        assert np.linalg.norm(got.amplitudes - ref) <= 1e-12
        assert got.success_prob == pytest.approx(chained.success_prob, rel=1e-12)


@pytest.mark.parametrize("variant, built", [("cse", 2), ("hcse", 1), ("acse", 1)])
def test_plan_builds_only_nonzero_factors(monkeypatch, variant, built):
    ham, psi, direction = _plan_inputs(variant)
    calls = []

    def counted(links, basis):
        calls.append(links)
        return fock._link_operator(links, basis)

    monkeypatch.setattr(solver, "_link_operator", counted)
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    for eta in (0.5, 0.25):
        plan.trial_energy(eta)
    assert len(calls) == built
    assert (plan.op_a is None) == (variant == "hcse")
    assert (plan.op_h is None) == (variant == "acse")


def test_plan_trials_share_the_first_factor_products(monkeypatch):
    ham, psi, direction = _plan_inputs("hcse")
    products = []

    def counted(matrix, vec, out=None):
        products.append(None)
        return fock._csr_product(matrix, vec, out)

    monkeypatch.setattr(evolution, "_csr_product", counted)
    nu = _StepPlan(ham, psi, _links(direction, psi.basis)).op_h.norm1
    etas = [f * THETA / nu for f in (0.9, 0.45, 0.225, 0.675)]  # one segment each

    def products_of(trials):
        plan = _StepPlan(ham, psi, _links(direction, psi.basis))
        products.clear()
        for eta in trials:
            plan.trial_energy(eta)
        return len(products), plan

    together, plan = products_of(etas)
    alone, _ = products_of(etas[:1])
    products.clear()
    apply_exp_exact(plan.op_h, psi, scale=etas[0])
    assert together == alone == len(products) > 10


@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_unsplit_plan_trials_match_dense_expm_of_the_whole_generator(variant):
    ham, psi, direction = _plan_inputs(variant)
    whole = two_body_to_operator(direction, psi.basis)
    plan = _StepPlan(ham, psi, _links(direction, psi.basis), False)
    past_theta = 1.5 * THETA / whole.norm1  # two segments
    for eta in (1e-3, 0.5, -0.7, 0.3j, past_theta):
        ref = dense_expm_apply(whole, psi, scale=eta).amplitudes
        got, e, h_got = plan.realize(eta)
        assert np.linalg.norm(got.amplitudes - ref / np.linalg.norm(ref)) <= 1e-12
        kernel = apply_exp_exact(whole, psi, scale=eta, renormalize=True)
        assert got.success_prob == pytest.approx(kernel.success_prob, rel=1e-12)
        assert e == energy(ham, got) and np.array_equal(h_got, fock._csr_product(ham.csr, got.amplitudes))


@pytest.mark.parametrize("variant", ["hcse", "acse"])
def test_unsplit_plan_trials_equal_split_ones_where_one_part_vanishes(variant):
    # an hcse or acse direction's one nonzero part is the direction bit for
    # bit, so its exact and sampled trajectories do not depend on the split
    ham, psi, direction = _plan_inputs(variant)
    links = _links(direction, psi.basis)
    split, whole = _StepPlan(ham, psi, links), _StepPlan(ham, psi, links, False)
    past_theta = 1.5 * THETA / whole._first.op.norm1
    for eta in (1e-3, 0.5, -0.7, 0.3j, past_theta):
        (a, e_a, h_a), (b, e_b, h_b) = split.realize(eta), whole.realize(eta)
        assert np.array_equal(a.amplitudes, b.amplitudes) and np.array_equal(h_a, h_b)
        assert (e_a, a.success_prob) == (e_b, b.success_prob)


def test_unsplit_cse_plan_trials_share_all_generator_products(monkeypatch):
    # one exponential of the whole cse direction acts on the fixed psi, so
    # one-segment trials reuse the kept Taylor terms of the first; the split
    # plan's Hermitian factor pays a fresh series per trial
    ham, psi, direction = _plan_inputs("cse")
    links = _links(direction, psi.basis)
    products = []

    def counted(matrix, vec, out=None):
        products.append(None)
        return fock._csr_product(matrix, vec, out)

    monkeypatch.setattr(evolution, "_csr_product", counted)
    nu = _StepPlan(ham, psi, links, False)._first.op.norm1
    etas = [f * THETA / nu for f in (0.9, 0.45, 0.225, 0.675)]  # one segment each

    def products_of(trials, split):
        plan = _StepPlan(ham, psi, links, split)
        products.clear()
        for eta in trials:
            plan.trial_energy(eta)
        return len(products)

    assert products_of(etas, False) == products_of(etas[:1], False) > 10
    assert products_of(etas, True) > products_of(etas[:1], True)


@pytest.mark.parametrize("variant, norms", [("cse", 2), ("hcse", 1)])
def test_dilated_execute_computes_each_norm_once(monkeypatch, variant, norms):
    ham, psi, direction = _plan_inputs(variant)
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return column_sums(matrix)

    def vstep(*args):
        vsteps.append(None)
        return evolution.apply_dilated(*args)

    column_sums = fock._abs_column_sums
    vsteps = []
    monkeypatch.setattr(fock, "_abs_column_sums", counted)
    monkeypatch.setattr(solver, "apply_dilated", vstep)
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    register = _DilatedRegister(ham, psi, DilationPolicy(epsilon=0.1, reset_mode="never"))
    register.execute(plan.op_a, plan.op_h, 0.5, energy(ham, psi), -1.0)
    assert len(vsteps) == 1  # five slices, no reset between them: one fused V-step
    assert len(calls) == norms


def _dense_vstep(op, delta, amplitudes):
    """Oracle V-slice: ``expm([[0, delta J], [-delta J, 0]])`` formed densely."""
    j = op.dense()
    return scipy.linalg.expm(delta * np.block([[0 * j, j], [-j, 0 * j]])) @ amplitudes


def _per_slice_execute(ham, policy, state, steps, rotated, op_a, op_h, eta, e0, slope):
    """Oracle of ``_DilatedRegister.execute``: every epsilon-slice its own dense V-step.

    The unitary factor is a dense ``expm`` on each branch.  A reset
    post-selects the ancilla and re-prepares it; an ancilla that no slice
    rotated since its preparation books no probability.
    """
    dim = len(ham.basis)

    def reset(state, rotated):
        kept = evolution.reset_ancilla(state)
        if not rotated:
            kept = StateVector(kept.basis, kept.amplitudes, 0, state.success_prob)
        return evolution.prepare_dilated(kept), 0, False

    if op_a is not None:
        branches = [
            dense_expm_apply(op_a, evolution.ancilla_branch(state, b), scale=eta).amplitudes for b in (0, 1)
        ]
        state = StateVector(state.basis, np.concatenate(branches), 1, state.success_prob)
    slices = max(1, int(np.ceil(eta / policy.epsilon)))
    for _ in range(slices):
        if op_h is not None:
            amps = _dense_vstep(op_h, eta / slices, state.amplitudes)
            state, rotated = StateVector(state.basis, amps, 1, state.success_prob), True
        steps += 1
        if policy.reset_mode != "never" and steps >= policy.max_steps_between_resets:
            state, steps, rotated = reset(state, rotated)
    if policy.reset_mode == "wolfe":
        top = StateVector(state.basis, state.amplitudes[:dim])
        if energy(ham, top) > e0 + 1e-4 * eta * slope:
            state, steps, rotated = reset(state, rotated)
    return state, steps, rotated


# 7 slices of epsilon 0.02 from one step into an interval of cap 3: cap
# resets after slices 2 and 5; a slope of -1e6 fails the Wolfe check, +1e6 passes it
@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
@pytest.mark.parametrize(
    "mode, slope", [("never", -1.0), ("every_k", -1.0), ("wolfe", -1e6), ("wolfe", 1e6)]
)
def test_dilated_execute_matches_per_slice_dense_oracle(variant, mode, slope):
    ham, psi, direction = _plan_inputs(variant)
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    policy = DilationPolicy(epsilon=0.02, reset_mode=mode, max_steps_between_resets=3)
    eta, e0 = 0.13, energy(ham, psi)
    register = _DilatedRegister(ham, psi, policy)
    register.steps_since_reset = 1
    ref, steps, rotated = _per_slice_execute(
        ham, policy, register.state, 1, False, plan.op_a, plan.op_h, eta, e0, slope
    )
    register.execute(plan.op_a, plan.op_h, eta, e0, slope)
    assert np.linalg.norm(register.state.amplitudes - ref.amplitudes) <= 1e-12
    assert register.state.success_prob == pytest.approx(ref.success_prob, rel=1e-12)
    assert (register.steps_since_reset, evolution._ancilla_untouched(register.state)) == (steps, not rotated)
    if variant != "acse" and mode != "never":
        assert ref.success_prob < 1.0  # the cap resets booked branch weight


@pytest.mark.parametrize("mode, runs", [("never", [7]), ("every_k", [2, 3, 2])])
def test_dilated_execute_takes_one_vstep_per_reset_interval(monkeypatch, mode, runs):
    ham, psi, direction = _plan_inputs("hcse")
    deltas, resets = [], []

    def vstep(state, op, delta):
        deltas.append(delta)
        return evolution.apply_dilated(state, op, delta)

    def reset(state):
        resets.append(None)
        return evolution.reset_ancilla(state)

    monkeypatch.setattr(solver, "apply_dilated", vstep)
    monkeypatch.setattr(solver, "reset_ancilla", reset)
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    policy = DilationPolicy(epsilon=0.02, reset_mode=mode, max_steps_between_resets=3)
    register = _DilatedRegister(ham, psi, policy)
    register.steps_since_reset = 1
    register.execute(plan.op_a, plan.op_h, 0.13, energy(ham, psi), -1.0)
    assert deltas == pytest.approx([run * 0.13 / 7 for run in runs], rel=1e-15)
    assert len(resets) == len(runs) - 1


# a step of eta / epsilon = inf slices, and one of 10 001 slices with a reset
# after each, one cap reset more than solver._MAX_CAP_RESETS allows; its zero
# factor keeps those resets cheap, so the case cannot hang without the bound
@pytest.mark.parametrize(
    "policy, eta, zero, match",
    [
        (DilationPolicy(epsilon=5e-324), 0.13, False, "inf slices"),
        (DilationPolicy(epsilon=1.0, reset_mode="every_k", max_steps_between_resets=1), 10_001.0, True, "resets"),
    ],
)
def test_dilated_step_beyond_its_bounds_raises_before_it_changes_the_register(policy, eta, zero, match):
    ham, psi, direction = _plan_inputs("hcse")
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    register = _DilatedRegister(ham, psi, policy)
    state = register.state
    with pytest.raises(RuntimeError, match=match):
        register.execute(*((None, None) if zero else (plan.op_a, plan.op_h)), eta, energy(ham, psi), -1.0)
    assert register.state is state and register.steps_since_reset == 0


def test_dilated_step_within_its_bounds_runs():
    ham, psi, direction = _plan_inputs("hcse")
    plan = _StepPlan(ham, psi, _links(direction, psi.basis))
    # exactly solver._MAX_CAP_RESETS cap resets, of a zero factor
    policy = DilationPolicy(epsilon=1.0, reset_mode="every_k", max_steps_between_resets=1)
    register = _DilatedRegister(ham, psi, policy)
    register.execute(None, None, 10_000.0, energy(ham, psi), -1.0)
    assert register.steps_since_reset == 0
    # under "never" a finite count of 1.3e299 slices is one V-step and no reset
    register = _DilatedRegister(ham, psi, DilationPolicy(epsilon=1e-300, reset_mode="never"))
    register.execute(plan.op_a, plan.op_h, 0.13, energy(ham, psi), -1.0)
    assert register.steps_since_reset == math.ceil(0.13 / 1e-300)
    assert not evolution._ancilla_untouched(register.state)


# ---------------------------------------------------------------------------
# mean-field seed
# ---------------------------------------------------------------------------


def test_hf_state_picks_lowest_diagonal():
    _, ham = _h4()
    psi = hf_state(ham)
    diag = np.real(ham.matrix.diagonal())
    k = int(np.flatnonzero(psi.amplitudes)[0])
    assert diag[k] == pytest.approx(diag.min())
    assert psi.norm() == pytest.approx(1.0)


def test_hf_energy_above_fci():
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    e_hf = energy(ham, hf_state(ham))
    assert e_hf > e_fci


# ---------------------------------------------------------------------------
# exact execution
# ---------------------------------------------------------------------------


def test_exact_cse_converges_h2():
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(variant="cse", residual_tolerance=1e-8))
    assert result.status == "converged"
    assert abs(result.energy - e_fci) < 1e-9
    assert result.residual_norm <= 1e-8
    assert len(result.iterations) <= 50


@pytest.mark.parametrize("variant", ["cse", "hcse"])
def test_exact_variants_converge_h4(variant):
    _, ham = _h4()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(variant=variant))
    assert result.status == "converged", f"{variant} did not converge"
    assert abs(result.energy - e_fci) < 1e-6


def test_acse_reaches_fci_energy_h4():
    # the unitary channel shrinks its residual slowly, so the energy bound
    # is the meaningful budgeted criterion
    _, ham = _h4()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(variant="acse"))
    assert abs(result.energy - e_fci) < 1e-6


def test_energy_monotone_nonincreasing():
    _, ham = _h4()
    result = cqe_run(ham, CqeConfig())
    energies = [rec.energy for rec in result.iterations]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)


def test_records_track_state_metrics():
    _, ham = _h2()
    result = cqe_run(ham, CqeConfig(residual_tolerance=1e-8))
    first = result.iterations[0]
    psi0 = hf_state(ham)
    assert first.n == 0
    assert [rec.n for rec in result.iterations] == list(range(len(result.iterations)))
    assert first.energy == pytest.approx(energy(ham, psi0))
    assert first.variance == pytest.approx(variance(ham, psi0))
    assert first.norm_r == pytest.approx(residual(ham, psi0, "cse").norm())
    assert first.norm_s == pytest.approx(residual(ham, psi0, "hcse").norm())
    assert first.norm_a == pytest.approx(residual(ham, psi0, "acse").norm())
    assert first.norm_s**2 + first.norm_a**2 == pytest.approx(4 * first.norm_r**2)
    assert first.eta > 0
    assert result.iterations[-1].eta == 0.0
    # the exact path books the idealized post-selection weight
    probs = [rec.success_prob for rec in result.iterations]
    assert probs[0] == 1.0
    assert all(b <= a + 1e-15 for a, b in zip(probs, probs[1:]))
    # every record describes the state at the top of its iteration, which is
    # the state a run cut after that many iterations ends in
    for rec in result.iterations[1:]:
        top = cqe_run(ham, CqeConfig(residual_tolerance=1e-8, max_iterations=rec.n)).state
        assert rec.success_prob == top.success_prob
        assert rec.energy == pytest.approx(energy(ham, top), abs=1e-14)
        assert rec.norm_r == pytest.approx(residual(ham, top, "cse").norm(), abs=1e-14)


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.20"])
@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_records_read_the_public_moments_of_their_state(fixture, variant):
    # the loop reads energy, variance and residual off one product H psi per
    # state; record k must agree with the public functions on the state a
    # run cut after k iterations ends in
    ham = build_hamiltonian(load_fixture(fixture))
    config = CqeConfig(variant=variant, residual_tolerance=1e-8, max_iterations=12)
    records = cqe_run(ham, config).iterations
    assert len(records) > 2
    for rec in records[1:]:
        top = cqe_run(ham, replace(config, max_iterations=rec.n)).state
        assert rec.energy == energy(ham, top)
        assert rec.variance == pytest.approx(variance(ham, top), rel=1e-12, abs=1e-28)
        assert rec.norm_r == pytest.approx(residual(ham, top, "cse").norm(), rel=1e-12, abs=1e-15)


_SAMPLED = {"execution": "sampled", "max_iterations": 12}
_ENDINGS = [  # (fixture, config, status), for each execution
    ("h2_d0.74", CqeConfig(), "converged"),
    ("h2_d0.74", CqeConfig(residual_tolerance=1e-15), "stalled"),  # at the Armijo floor
    ("h4_d1.40", CqeConfig(line_search=LineSearch("fixed", 0.3)), "stalled"),  # fixed step rejected
    ("h4_d1.40", CqeConfig(max_iterations=3, residual_tolerance=1e-12), "max_iterations"),
    ("h2_d0.74", CqeConfig(execution="dilated"), "converged"),
    ("h2_d0.74", CqeConfig(execution="dilated", residual_tolerance=1e-15), "stalled"),
    ("h4_d1.40", CqeConfig(execution="dilated", max_iterations=3, residual_tolerance=1e-12), "max_iterations"),
    (
        "h2_d0.74",
        CqeConfig(**_SAMPLED, residual_tolerance=0.1, estimator=EstimatorConfig(shots=320000, seed=2)),
        "converged",
    ),
    ("h2_d0.74", CqeConfig(**_SAMPLED, estimator=EstimatorConfig(shots=16000, seed=1)), "stalled"),
    (
        "h4_d1.40",
        CqeConfig(**_SAMPLED, variant="hcse", estimator=EstimatorConfig(shots=16000, seed=5, delta=-0.07)),
        "max_iterations",
    ),
]


@pytest.mark.parametrize(
    "fixture, config, status",
    _ENDINGS,
    ids=[f"{fx}-{cfg.execution}-{status}-{k}" for k, (fx, cfg, status) in enumerate(_ENDINGS)],
)
def test_records_mark_where_a_run_ends(fixture, config, status):
    # one record per visited state, numbered from 0; eta is 0.0 exactly on
    # the last record of a run that converged or stalled, and positive on
    # every other record.  An exact run that ends without a step reports the
    # state of its last record, read off the same product H psi
    ham = build_hamiltonian(load_fixture(fixture))
    result = cqe_run(ham, config)
    records = result.iterations
    assert result.status == status and len(records) > 1
    assert [rec.n for rec in records] == list(range(len(records)))
    assert all(rec.eta > 0 for rec in records[:-1])
    last = records[-1]
    if status == "max_iterations":
        assert last.eta > 0 and len(records) == config.max_iterations
        return
    assert last.eta == 0.0
    if config.execution == "exact":
        norm = {"cse": last.norm_r, "hcse": last.norm_s, "acse": last.norm_a}[config.variant]
        assert (result.energy, result.variance, result.residual_norm) == (last.energy, last.variance, norm)


def _logged_plans(monkeypatch):
    """The list that every step plan built from here on is appended to."""
    plans = []
    init = _StepPlan.__init__

    def logged(plan, *args, **kwargs):
        init(plan, *args, **kwargs)
        plans.append(plan)

    monkeypatch.setattr(_StepPlan, "__init__", logged)
    return plans


@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_exact_run_pays_one_h_product_per_trial_and_one_for_its_start(monkeypatch, variant):
    # a trial's product H phi gives its energy and, once the trial is
    # accepted, the moments and residual of the next state and of the final one
    _, ham = _h4()
    products = []

    def spy(product):
        def counted(matrix, vec, *args, **kwargs):
            products.append(matrix is ham.csr)
            return product(matrix, vec, *args, **kwargs)

        return counted

    for module in (fock, residuals, evolution, solver):
        monkeypatch.setattr(module, "_csr_product", spy(module._csr_product))
    plans = _logged_plans(monkeypatch)
    result = cqe_run(ham, CqeConfig(variant=variant))
    assert result.status == "converged"
    trials = sum(state is not None for plan in plans for state, *_ in plan._trials.values())
    assert trials > len(result.iterations)
    assert sum(products) == trials + 1


@pytest.mark.parametrize("execution", ["exact", "dilated", "sampled"])
def test_only_dilated_cse_steps_by_split_factors(monkeypatch, execution):
    # exact and sampled execution build one operator of the whole direction
    # per plan; only a dilated register runs the split factors
    plans = _logged_plans(monkeypatch)
    operators = []

    def counted(links, basis):
        operators.append(None)
        return fock._link_operator(links, basis)

    monkeypatch.setattr(solver, "_link_operator", counted)
    estimator = EstimatorConfig(shots=16_000, seed=5) if execution == "sampled" else None
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    cqe_run(ham, CqeConfig(execution=execution, max_iterations=6, estimator=estimator))
    assert len(plans) == 6
    if execution == "dilated":
        assert len(operators) == 2 * len(plans)
        assert all(plan.op_a is not None and plan.op_h is not None for plan in plans)
    else:
        assert len(operators) == len(plans)
        assert not any(hasattr(plan, "op_a") or hasattr(plan, "op_h") for plan in plans)


def test_fci_seed_converges_without_stepping():
    _, ham = _h4()
    _, (ground,) = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(residual_tolerance=1e-6), initial=ground)
    assert result.status == "converged"
    assert len(result.iterations) == 1
    assert result.iterations[0].eta == 0.0
    assert result.residual_norm < 1e-9


def test_variance_vanishes_at_convergence():
    ints, ham = _h4()
    k_norm = reduced_hamiltonian_K(ints).norm()
    result = cqe_run(ham, CqeConfig(residual_tolerance=1e-8))
    assert result.variance < k_norm * result.residual_norm
    assert result.variance < 1e-8


def test_max_iterations_status():
    _, ham = _h4()
    result = cqe_run(ham, CqeConfig(max_iterations=2, residual_tolerance=1e-12))
    assert result.status == "max_iterations"
    assert len(result.iterations) == 2
    assert result.iterations[-1].eta > 0


def test_initial_state_validation():
    _, ham = _h2()
    other = build_basis(8, 4, 0)
    amps = np.zeros(len(other), dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError):
        cqe_run(ham, initial=StateVector(other, amps))


def test_hermiticity_is_checked_once_per_operator(monkeypatch):
    _, ham = _h2()
    edited = ham.matrix.copy()
    edited[0, 1] += 1e-6  # |H - H^+| = 1e-6 at (0, 1) and (1, 0)
    skewed = fock.SparseOperator(ham.basis, edited)
    deviation = fock._hermitian_deviation
    deviations = []
    monkeypatch.setattr(fock, "_hermitian_deviation", lambda m: deviations.append(None) or deviation(m))
    for _ in range(3):
        cqe_run(ham, CqeConfig(max_iterations=1))
        with pytest.raises(ValueError, match="Hermitian"):
            cqe_run(skewed, CqeConfig(max_iterations=1))
    assert not skewed.is_hermitian(9e-7) and skewed.is_hermitian(2e-6)
    assert len(deviations) == 2  # one |H - H^+| per operator


def test_fixed_eta_line_search():
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(
        ham, CqeConfig(line_search=LineSearch(kind="fixed", eta0=0.25), max_iterations=80)
    )
    assert result.status == "converged"
    assert abs(result.energy - e_fci) < 1e-6
    assert all(rec.eta in (0.25, 0.0) for rec in result.iterations)
    # an overshooting fixed step is rejected rather than accepted uphill
    overshoot = cqe_run(ham, CqeConfig(line_search=LineSearch(kind="fixed", eta0=0.4)))
    assert overshoot.status == "stalled"


class _Curve:
    """A step plan reduced to E(eta): every trial energy it is asked for is logged."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def trial_energy(self, eta):
        self.calls.append(eta)
        return self.f(eta)


def _search_curve(f, slope, eta0=0.5):
    """Run the backtracking search on E = f; return eta, the Armijo phase's
    eta and the trials after the Armijo phase, checking that no eta is tried
    twice.  The search reads the Armijo-accepted energy once more, which a
    ``_StepPlan`` serves from its cache; that is the only repeated eta."""
    ls = LineSearch(kind="backtracking", eta0=eta0)
    armijo = _Curve(f)
    first = solver._search_armijo(armijo, ls, f(0.0), slope)
    curve = _Curve(f)
    eta = solver._search_backtracking(curve, ls, f(0.0), slope)
    assert curve.calls[: len(armijo.calls) + 1] == armijo.calls + [first]
    assert Counter(curve.calls) - Counter(set(curve.calls)) == Counter({first: 1})
    return eta, first, curve.calls[len(armijo.calls) + 1 :]


@pytest.mark.parametrize("a", [0.3, 0.7, 1.3, 3.0])
def test_search_lands_on_a_quadratic_minimum_in_one_model_step(a):
    # E = e0 + s eta + a eta^2 is its own model: the step from the Armijo eta
    # lands on -s / 2a, and the next model step stays there, so the search
    # stops without another trial; the minimizers 1.67, 0.71, 0.38 and 0.17
    # lie beyond eta0 = 0.5, inside it, and below an Armijo rejection
    e0, s = -1.1, -1.0
    eta, first, model_trials = _search_curve(lambda x: e0 + s * x + a * x * x, s)
    assert eta == pytest.approx(-s / (2.0 * a), rel=1e-12)
    assert model_trials == [eta]
    assert first != eta


def test_search_grows_eta_at_most_fourfold_per_step():
    # below its tangent line (q <= 0) the model has no minimum: eta doubles
    # until the step cap, _MAX_SHRINKS steps
    e0, s = -1.1, -1.0
    eta, first, trials = _search_curve(lambda x: e0 + s * x - 0.1 * x * x, s)
    assert first == 0.5
    assert trials == [0.5 / solver._SHRINK**k for k in range(1, solver._MAX_SHRINKS + 1)]
    assert eta == trials[-1]
    # a nearly flat curvature puts the model's minimum 5e5 away: each step
    # grows eta fourfold until the minimum lies within one step
    eta, first, trials = _search_curve(lambda x: e0 + s * x + 1e-6 * x * x, s)
    ratios = [b / a for a, b in zip([first] + trials, trials)]
    assert ratios[:-1] == [solver._SHRINK**-2] * (len(trials) - 1)
    assert 1.0 < ratios[-1] < solver._SHRINK**-2
    assert eta == pytest.approx(5e5, rel=1e-9)


def test_search_rejects_an_overflowing_trial():
    # the model step to 1.25 overflows (E = +inf); the Armijo eta stands
    e0, s = -1.1, -1.0
    eta, first, trials = _search_curve(lambda x: e0 + s * x + 0.4 * x * x if x < 1.0 else np.inf, s)
    assert trials == [pytest.approx(1.25, rel=1e-12)]
    assert eta == first == 0.5


def test_search_never_returns_to_an_eta_the_armijo_phase_rejected():
    # E falls faster than its tangent up to 0.3 and jumps up beyond: the
    # Armijo phase rejects 0.5 and accepts 0.25, where q < 0 would double
    # eta back onto 0.5; the search stops instead of trying 0.5 again
    e0, s = -1.1, -1.0
    eta, first, trials = _search_curve(lambda x: e0 + s * x - x * x if x < 0.3 else 1.0, s)
    assert (eta, first, trials) == (0.25, 0.25, [])


def test_search_counts_rounding_level_gains_as_none():
    # E falls linearly to 0.6 and then only by 1e-13 per unit of eta, a
    # saturated flow at rounding level: the doubling step to 1.0 is kept,
    # the model step to 1.25 gains 2.5e-14, within the monotonicity slack
    e0, s = -1.1, -1.0
    eta, first, trials = _search_curve(lambda x: e0 - min(x, 0.6) - 1e-13 * x, s)
    assert trials == [1.0, pytest.approx(1.25, rel=1e-9)]
    assert eta == 1.0


@pytest.mark.parametrize("eta0", [0.05, 0.3, 0.5, 1.0, 2.0, 3.0])
def test_search_lowers_the_energy_of_a_double_well(eta0):
    # E(eta) has minima near 0.38, 1.9 and 3.4 and rises in between; the
    # returned eta passes the Armijo test and is no worse than the Armijo eta
    e0, s = -1.1, -2.0

    def f(x):
        return e0 - 0.5 * np.sin(4.0 * x) + 0.1 * x * x

    eta, first, _ = _search_curve(f, s, eta0)
    assert f(eta) <= f(first)
    assert f(eta) <= e0 + solver._C1 * eta * s
    assert f(eta) < e0


@pytest.mark.parametrize(
    "f", [lambda x: -1.1 + x, lambda x: np.inf], ids=["uphill", "overflow"]
)
def test_search_stalls_when_no_trial_passes_armijo(f):
    curve = _Curve(f)
    with pytest.raises(solver._Stalled):
        solver._search_backtracking(curve, LineSearch(eta0=0.5), -1.1, -1.0)
    assert curve.calls == [0.5 * solver._SHRINK**k for k in range(solver._MAX_SHRINKS + 1)]


def test_acse_stalls_on_equator_cse_does_not():
    model = PairingModel()
    ham = build_pairing_hamiltonian(model)
    start = equator_state(model, 0.3)
    (e_fci,), _ = fci_solve(ham)

    res_a = cqe_run(ham, CqeConfig(variant="acse"), initial=start)
    assert res_a.status == "converged"
    assert len(res_a.iterations) == 1
    assert res_a.energy > e_fci + 0.1

    res_c = cqe_run(ham, CqeConfig(variant="cse", residual_tolerance=1e-8), initial=start)
    assert res_c.status == "converged"
    assert abs(res_c.energy - e_fci) < 1e-8


def test_sphere_start_converges_to_ground():
    model = PairingModel()
    ham = build_pairing_hamiltonian(model)
    start = sphere_state(model, SpherePoint(0.6, 0.48, 0.64))
    (e_fci,), (ground,) = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(residual_tolerance=1e-7), initial=start)
    assert result.status == "converged"
    fidelity = abs(ground.inner(result.state)) ** 2
    assert fidelity > 1 - 1e-8


def test_tolerance_below_float_resolution_stalls_honestly():
    # an energy-compared line search cannot push the residual below the
    # float64 noise floor (~1e-8 here); the run must report the stall
    # instead of pretending to converge, while still reaching the state
    model = PairingModel()
    ham = build_pairing_hamiltonian(model)
    start = sphere_state(model, SpherePoint(0.6, 0.48, 0.64))
    _, (ground,) = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(residual_tolerance=1e-12), initial=start)
    assert result.status == "stalled"
    assert abs(ground.inner(result.state)) ** 2 > 1 - 1e-12


# ---------------------------------------------------------------------------
# dilated execution
# ---------------------------------------------------------------------------


def test_dilated_matches_exact_loosely():
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(execution="dilated", residual_tolerance=1e-6))
    assert result.status == "converged"
    assert abs(result.energy - e_fci) < 1e-6


def test_dilated_books_success_probability():
    _, ham = _h2()
    result = cqe_run(ham, CqeConfig(execution="dilated", residual_tolerance=1e-6))
    assert 0 < result.success_prob < 1
    assert result.state.n_ancilla == 0
    probs = [rec.success_prob for rec in result.iterations]
    assert probs[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


def test_dilated_reset_step_cap():
    _, ham = _h4()
    result = cqe_run(
        ham,
        CqeConfig(
            execution="dilated",
            max_iterations=8,
            residual_tolerance=1e-12,
            dilation=DilationPolicy(reset_mode="every_k", max_steps_between_resets=3),
        ),
    )
    probs = [rec.success_prob for rec in result.iterations]
    # one V-step per iteration here, so the booked probability first drops
    # at the record following the third step and then every three records
    assert probs[0] == probs[1] == probs[2] == 1.0
    assert probs[3] < 1.0
    assert probs[3] == probs[4] == probs[5]
    assert probs[6] < probs[3]


def test_dilated_never_reset_books_only_at_finish():
    _, ham = _h2()
    result = cqe_run(
        ham,
        CqeConfig(
            execution="dilated",
            max_iterations=6,
            residual_tolerance=1e-12,
            dilation=DilationPolicy(reset_mode="never"),
        ),
    )
    assert all(rec.success_prob == 1.0 for rec in result.iterations)
    assert 0 < result.success_prob < 1


def test_dilated_acse_books_no_post_selection():
    # the unitary acse flow never rotates the ancilla: each reset and the
    # final readout discard an unentangled |+> and book nothing, while the
    # V-slices of hcse and cse entangle it and cost branch weight
    _, ham = _h4()
    for variant in ("cse", "hcse", "acse"):
        result = cqe_run(ham, CqeConfig(variant=variant, execution="dilated"))
        probs = [rec.success_prob for rec in result.iterations] + [result.success_prob]
        if variant == "acse":
            assert all(p == 1.0 for p in probs)
        else:
            assert result.success_prob < 1.0


def test_dilated_epsilon_slices_with_resets_improve_fidelity():
    _, ham = _h4()
    coarse = cqe_run(
        ham,
        CqeConfig(
            execution="dilated",
            max_iterations=12,
            residual_tolerance=1e-12,
            dilation=DilationPolicy(reset_mode="every_k", max_steps_between_resets=1, epsilon=0.5),
        ),
    )
    fine = cqe_run(
        ham,
        CqeConfig(
            execution="dilated",
            max_iterations=12,
            residual_tolerance=1e-12,
            dilation=DilationPolicy(reset_mode="every_k", max_steps_between_resets=1, epsilon=0.125),
        ),
    )
    exact = cqe_run(ham, CqeConfig(max_iterations=12, residual_tolerance=1e-12))
    e_exact = [rec.energy for rec in exact.iterations]
    err_coarse = max(abs(a - b) for a, b in zip([r.energy for r in coarse.iterations], e_exact))
    err_fine = max(abs(a - b) for a, b in zip([r.energy for r in fine.iterations], e_exact))
    assert err_fine < err_coarse
    assert fine.success_prob < coarse.success_prob  # fidelity costs branch weight


def test_dilated_h4_converges():
    _, ham = _h4()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(execution="dilated", max_iterations=300))
    assert result.status == "converged"
    assert abs(result.energy - e_fci) < 1e-6
    assert 0 < result.success_prob < 1


def _armijo_calls(f, start=math.inf, eta0=0.5):
    """The accepted eta (None on a stall) and the trial etas of one Armijo
    phase on E = f from E(0) = -1.1 with slope -1, at or below ``start``."""
    curve = _Curve(f)
    try:
        eta = solver._search_armijo(curve, LineSearch(eta0=eta0), -1.1, -1.0, start)
    except solver._Stalled:
        eta = None
    return eta, curve.calls


@pytest.mark.parametrize("eta0", [0.3, 0.5, 2.0])
def test_armijo_without_start_begins_at_eta0(eta0):
    # the exact and dilated Armijo phase: halving from eta0 down the grid
    eta, calls = _armijo_calls(lambda x: -1.1 - x if x < 0.05 else 1.0, eta0=eta0)
    assert calls == [eta0 * solver._SHRINK**j for j in range(len(calls))]
    assert eta == calls[-1] < 0.05 <= calls[-2]
    assert _armijo_calls(lambda x: -1.1 - x if x < 0.05 else 1.0, eta0, eta0) == (eta, calls)
    # the grid has 21 points even where eta0 / 2^20 underflows to zero
    assert _armijo_calls(lambda x: np.inf, eta0=1e-320 * eta0)[0] is None


@pytest.mark.parametrize("eta0", [0.3, 0.5, 2.0])
def test_resumed_armijo_tries_only_grid_points_below_its_start(eta0):
    # a start five halvings down tries only grid points at or below it, in
    # halving order and none twice, and accepts the first that passes
    start = eta0 * solver._SHRINK**5
    eta, calls = _armijo_calls(lambda x: -1.1 - x if x < start / 6.0 else 1.0, start, eta0)
    assert calls == [eta0 * solver._SHRINK**j for j in range(5, 9)]
    assert eta == calls[-1]
    # where every eta passes, the start itself is taken, in one trial
    assert _armijo_calls(lambda x: -1.1 - x, start, eta0) == (start, [start])


@pytest.mark.parametrize(
    "f", [lambda x: -1.1 + x, lambda x: np.inf], ids=["uphill", "overflow"]
)
def test_resumed_armijo_stalls_at_the_unchanged_floor(f):
    # from eta0 / 2^5 the grid down to the floor eta0 / 2^20 is 16 trials
    eta, calls = _armijo_calls(f, 0.5 * solver._SHRINK**5)
    assert eta is None
    assert calls == [0.5 * solver._SHRINK**j for j in range(5, solver._MAX_SHRINKS + 1)]
    assert len(calls) == 16


# ---------------------------------------------------------------------------
# sampled execution
# ---------------------------------------------------------------------------


def test_sampled_is_deterministic_per_seed():
    _, ham = _h2()
    cfg = CqeConfig(
        execution="sampled",
        max_iterations=5,
        estimator=EstimatorConfig(shots=400, seed=11),
    )
    r1 = cqe_run(ham, cfg)
    r2 = cqe_run(ham, cfg)
    assert r1.status == r2.status
    assert [rec.energy for rec in r1.iterations] == [rec.energy for rec in r2.iterations]
    assert [rec.norm_r for rec in r1.iterations] == [rec.norm_r for rec in r2.iterations]
    assert np.array_equal(r1.state.amplitudes, r2.state.amplitudes)

    r3 = cqe_run(
        ham,
        CqeConfig(
            execution="sampled",
            max_iterations=5,
            estimator=EstimatorConfig(shots=400, seed=12),
        ),
    )
    assert [rec.energy for rec in r3.iterations] != [rec.energy for rec in r1.iterations]


def _run_digest(result):
    records = [
        (r.n, r.energy, r.variance, r.norm_r, r.norm_s, r.norm_a, r.eta, r.success_prob)
        for r in result.iterations
    ]
    return result.status, records, result.state.amplitudes.tobytes(), result.residual_norm


def test_solver_loop_skips_the_antisymmetry_check(monkeypatch):
    # Residuals, directions and estimates are antisymmetric by construction,
    # so the loop builds none of them through the checking constructor.
    _, ham = _h4()
    with pytest.raises(ValueError, match="antisymmetric"):
        TwoBodyTensor(8, np.ones((8,) * 4))
    configs = [CqeConfig(variant=v, max_iterations=8) for v in ("cse", "hcse", "acse")]
    configs.append(
        CqeConfig(execution="sampled", max_iterations=4, estimator=EstimatorConfig(shots=2000, seed=3))
    )
    checked = [_run_digest(cqe_run(ham, cfg)) for cfg in configs]

    def forbidden(self):
        raise AssertionError("the solver loop ran the n^4 antisymmetry check")

    monkeypatch.setattr(TwoBodyTensor, "__post_init__", forbidden)
    with pytest.raises(AssertionError):
        TwoBodyTensor(8, np.zeros((8,) * 4))
    assert [_run_digest(cqe_run(ham, cfg)) for cfg in configs] == checked


def _n4_spies(monkeypatch, ham):
    """Spy on every n^4 index image, pair adjoint, 2-RDM and two-body tensor;
    returns the (cleared) list of calls after showing that the spies are live."""
    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    for module in (fock, residuals, evolution, solver):
        for name in ("antisymmetrize", "pair_adjoint", "compute_2rdm"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    # every two-body tensor passes its one constructor, and so this spy
    monkeypatch.setattr(TwoBodyTensor, "__post_init__", spy("TwoBodyTensor", TwoBodyTensor.__post_init__))
    # the spies are live: the public n^4 functions call them all
    residuals.compute_2rdm(hf_state(ham))
    residuals.residual(ham, hf_state(ham), "cse")
    residuals.residual_channel(np.zeros((8,) * 4), "hcse")
    assert set(calls) == {"antisymmetrize", "pair_adjoint", "compute_2rdm", "TwoBodyTensor"}
    calls.clear()
    return calls


def test_exact_and_dilated_loops_form_no_n4_tensor(monkeypatch):
    # each iteration works on the sector's link vectors: no n^4 index image,
    # pair adjoint, 2-RDM or two-body tensor is formed
    _, ham = _h4()
    calls = _n4_spies(monkeypatch, ham)
    for variant in ("cse", "hcse", "acse"):
        for execution in ("exact", "dilated"):
            cqe_run(ham, CqeConfig(variant=variant, execution=execution, max_iterations=6))
    assert calls == []


def test_sampled_loop_forms_no_n4_tensor(monkeypatch):
    # the estimator hands the loop the link vector of the measured channel
    _, ham = _h4()
    calls = _n4_spies(monkeypatch, ham)
    estimator = EstimatorConfig(shots=2000, seed=3)
    for variant in ("cse", "hcse", "acse"):
        config = CqeConfig(variant=variant, execution="sampled", max_iterations=6, estimator=estimator)
        cqe_run(ham, config)
    assert calls == []


@pytest.mark.parametrize("eta0", [1e4, 1e9])
def test_huge_fixed_unitary_step_stalls_within_seconds(eta0):
    # a unitary factor never overflows: only the Taylor kernel's segment bound
    # ends the first trial (about 7 800 segments at eta 1e4 here), which books
    # it at energy +inf, so the fixed step is rejected
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    start = time.perf_counter()
    result = cqe_run(ham, CqeConfig(variant="acse", line_search=LineSearch("fixed", eta0)))
    assert result.status == "stalled" and len(result.iterations) == 1
    assert time.perf_counter() - start < 20.0


def test_exact_and_dilated_runs_build_no_scipy_matrix(monkeypatch):
    # once the Hamiltonian and the sector's excitation pattern exist, step
    # factors are CSR data on the pattern's structure: no run builds a scipy
    # matrix of any format
    _, ham = _h4()
    configs = [
        CqeConfig(variant=v, execution=x, max_iterations=6)
        for v in ("cse", "hcse", "acse")
        for x in ("exact", "dilated")
    ]
    before = [_run_digest(cqe_run(ham, cfg)) for cfg in configs]  # warm-up: caches fill here

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a solver run built a scipy sparse matrix")

    # every scipy matrix class runs spmatrix ahead of its own constructors
    monkeypatch.setattr(sp.spmatrix, "__init__", forbidden)
    with pytest.raises(AssertionError, match="scipy sparse matrix"):
        sp.csr_matrix((2, 2))
    assert [_run_digest(cqe_run(ham, cfg)) for cfg in configs] == before


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.40", "h4_d2.00"])
@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_sampled_search_resumes_one_grid_step_above_its_last_step(monkeypatch, fixture, variant):
    # the trajectory digest's sampled runs, and one whose small eta0 is
    # often accepted: each iteration's resumed search agrees with a cold
    # search from eta0 on the same plan wherever the cold step lies at or
    # below 2 eta_prev, and stays at or below 2 eta_prev otherwise; the
    # first iteration starts at eta0, and no start lies above it
    ham = build_hamiltonian(load_fixture(fixture))
    armijo = solver._search_armijo
    searches = []

    def paired(plan, ls, e0, slope, start=math.inf):
        warm = armijo(plan, ls, e0, slope, start)
        searches.append((start, warm, armijo(plan, ls, e0, slope)))
        return warm

    monkeypatch.setattr(solver, "_search_armijo", paired)
    skipped, capped = 0, 0
    for estimator, line_search in (
        (EstimatorConfig(shots=16000, seed=5), LineSearch()),
        (EstimatorConfig(shots=16000, seed=9), LineSearch()),
        (EstimatorConfig(shots=16000, seed=5, delta=-0.07), LineSearch()),
        (EstimatorConfig(shots=16000, seed=5), LineSearch(eta0=0.03125)),
    ):
        searches.clear()
        config = CqeConfig(
            variant=variant,
            execution="sampled",
            max_iterations=12,
            line_search=line_search,
            estimator=estimator,
        )
        result = cqe_run(ham, config)
        eta0 = line_search.eta0
        assert [warm for _, warm, _ in searches] == [rec.eta for rec in result.iterations if rec.eta]
        assert searches[0][0] == eta0
        for (_, prev, _), (start, warm, cold) in zip(searches, searches[1:]):
            assert start == min(eta0, 2.0 * prev)
            if cold <= 2.0 * prev:
                assert warm == cold
            else:
                assert warm <= 2.0 * prev
            skipped += start < eta0
            capped += prev == eta0
    assert skipped > 0 and capped > 0


def test_exact_and_dilated_searches_start_at_eta0(monkeypatch):
    # only the sampled search resumes: every exact and dilated plan's first
    # trial is eta0
    plans = _logged_plans(monkeypatch)
    for fixture in ("h2_d0.74", "h4_d1.00", "h4_d2.00"):
        ham = build_hamiltonian(load_fixture(fixture))
        for variant in ("cse", "hcse", "acse"):
            for execution in ("exact", "dilated"):
                cqe_run(ham, CqeConfig(variant=variant, execution=execution))
    assert len(plans) > 100
    assert all(next(iter(plan._trials)) == LineSearch().eta0 for plan in plans)


def _phase_rotated(fixture):
    """A fixture's Hamiltonian H, its orbital-phase rotation U H U^+ and the diagonal of U."""
    ham = build_hamiltonian(load_fixture(fixture))
    phases = np.random.default_rng(131).uniform(0.0, 2.0 * np.pi, ham.basis.n_spin_orbitals)
    return (ham, *phase_rotated(ham, phases))


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.00", "h4_d1.40", "h4_d2.00"])
@pytest.mark.parametrize("execution", ["exact", "dilated"])
@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_complex_hamiltonians_follow_their_real_rotations(fixture, execution, variant):
    # a_p -> exp(i phi_p) a_p makes H complex with the same spectrum, and
    # every step is covariant under it: energies agree to rounding per
    # iterate and at the end.  Record counts may differ, since a run's
    # last steps sit at the float floor (h4_d2.00 exact acse takes one fewer)
    ham, rotated, u = _phase_rotated(fixture)
    assert rotated.csr.data.imag.any() and rotated.is_hermitian()
    hf, hf_rotated = hf_state(ham).amplitudes, hf_state(rotated).amplitudes
    phase = np.vdot(u * hf, hf_rotated)  # U HF up to a global phase
    assert abs(phase) == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(hf_rotated, phase * u * hf, rtol=0, atol=1e-14)
    config = CqeConfig(variant=variant, execution=execution)
    real, complex_ = cqe_run(ham, config), cqe_run(rotated, config)
    assert real.status == complex_.status == "converged"
    pairs = list(zip(real.iterations, complex_.iterations))
    assert len(pairs) >= 3
    for a, b in pairs:
        assert b.energy == pytest.approx(a.energy, rel=0, abs=1e-10)
    assert complex_.energy == pytest.approx(real.energy, rel=0, abs=1e-10)


@pytest.mark.parametrize("fixture", ["h4_d1.40", "h4_d2.00"])
@pytest.mark.parametrize("variant, rows", [("cse", 656), ("hcse", 328), ("acse", 328)])
def test_sampled_runs_of_complex_hamiltonians_draw_all_four_parts(multinomial_rows, fixture, variant, rows):
    # a complex H draws both parts of every measured channel, and its
    # sampled runs still recover at least the benchmark's 0.75 of
    # E_HF - E_FCI at every seed
    _, rotated, _ = _phase_rotated(fixture)
    e_fci, e_hf = fci_solve(rotated)[0][0], energy(rotated, hf_state(rotated))
    for seed in range(1, 9):
        multinomial_rows.clear()
        config = CqeConfig(
            variant=variant, execution="sampled", max_iterations=12, estimator=EstimatorConfig(shots=16000, seed=seed)
        )
        result = cqe_run(rotated, config)
        assert multinomial_rows == [rows] * (len(result.iterations) + 1)
        assert (e_hf - result.energy) / (e_hf - e_fci) >= 0.75, seed


@pytest.mark.parametrize("variant, rows", [("cse", 328), ("hcse", 178), ("acse", 150)])
def test_sampled_runs_of_real_problems_stay_real(monkeypatch, multinomial_rows, variant, rows):
    # a real H from the real HF state: every estimate measures only Re Z and
    # Im Y, so each draws half the rows, and every state the loop visits
    # stays exactly real
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    estimate = solver._estimate_links
    imag = []

    def watched(ham, psi, *args):
        imag.append(np.abs(psi.amplitudes.imag).max())
        return estimate(ham, psi, *args)

    monkeypatch.setattr(solver, "_estimate_links", watched)
    config = CqeConfig(
        variant=variant, execution="sampled", max_iterations=12, estimator=EstimatorConfig(shots=16000, seed=5)
    )
    result = cqe_run(ham, config)
    assert len(imag) == len(result.iterations) + 1 == 13
    assert imag == [0.0] * 13 and np.abs(result.state.amplitudes.imag).max() == 0.0
    assert multinomial_rows == [rows] * 13


@pytest.mark.parametrize("seed", range(1, 11))
def test_sampled_descends_toward_ground(seed):
    # the best energy's distance from FCI is shot noise: the residual noise
    # falls like 1/sqrt(shots) and this quadratic distance like 1/shots, so
    # at 320 000 shots the bound holds for every seed, not only lucky ones
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    e_hf = energy(ham, hf_state(ham))
    result = cqe_run(
        ham,
        CqeConfig(
            execution="sampled",
            max_iterations=25,
            residual_tolerance=1e-3,
            estimator=EstimatorConfig(shots=320000, seed=seed),
        ),
    )
    best = min(rec.energy for rec in result.iterations)
    assert best < e_hf
    assert best - e_fci < 0.02 * (e_hf - e_fci)


def test_overflowing_fixed_step_is_rejected_not_raised():
    # a fixed step this large overflows the Taylor action of the
    # non-unitary factor; the trial must count as a rejected step
    model = PairingModel()
    ham = build_pairing_hamiltonian(model)
    rng = np.random.default_rng(11)
    config = CqeConfig(line_search=LineSearch(kind="fixed", eta0=40.0))
    for _ in range(3):
        start = sphere_state(model, random_sphere_point(rng))
        assert cqe_run(ham, config, initial=start).status == "stalled"


def test_backtracking_converges_where_energy_is_not_unimodal():
    # E(eta) of the unitary acse flow is not unimodal on [0, 2] here, so the
    # minimum of one bracket on [0, eta0] would not lower the energy at the first step
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    (e_fci,), _ = fci_solve(ham)
    config = CqeConfig(variant="acse", line_search=LineSearch(kind="backtracking", eta0=2.0))
    result = cqe_run(ham, config)
    assert result.status == "converged"
    assert abs(result.energy - e_fci) < 1e-6
