"""Solver loop: convergence, monotonicity, execution styles, termination."""

import numpy as np
import pytest

from cqesim.evolution import EstimatorConfig, DilationPolicy, apply_exp_exact
from cqesim.fock import (
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    build_basis,
    pair_adjoint,
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
from cqesim.residuals import energy, energy_slope, residual, variance
from cqesim.solver import (
    CqeConfig,
    LineSearch,
    _slope,
    cqe_run,
    direction_from_residual,
    hf_state,
)


def _h2():
    ints = load_fixture("h2_d0.74")
    return ints, build_hamiltonian(ints)


def _h4():
    ints = load_fixture("h4_d1.20")
    return ints, build_hamiltonian(ints)


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
        CqeConfig(residual_tolerance=0.0)


def test_line_search_validation():
    with pytest.raises(ValueError):
        LineSearch(kind="newton")
    with pytest.raises(ValueError):
        LineSearch(eta0=-1.0)
    with pytest.raises(ValueError):
        LineSearch(shrink=1.0)
    with pytest.raises(ValueError):
        LineSearch(c1=0.0)
    with pytest.raises(ValueError):
        LineSearch(max_shrinks=-1)
    default = LineSearch()
    assert default.kind == "backtracking"
    assert default.eta0 == pytest.approx(0.5)


def test_sampled_execution_requires_shots_and_seed():
    with pytest.raises(ValueError):
        CqeConfig(execution="sampled")
    with pytest.raises(ValueError):
        CqeConfig(execution="sampled", estimator=EstimatorConfig(shots=100))
    CqeConfig(execution="sampled", estimator=EstimatorConfig(shots=100, seed=3))


def test_direction_projection():
    rng = np.random.default_rng(7)
    raw = antisymmetrize(rng.normal(size=(4,) * 4) + 1j * rng.normal(size=(4,) * 4))
    t = TwoBodyTensor(4, raw)
    d_cse = direction_from_residual(t, "cse")
    assert np.allclose(d_cse.coeffs, -raw)
    d_h = direction_from_residual(t, "hcse").coeffs
    assert np.allclose(d_h, pair_adjoint(d_h))
    d_a = direction_from_residual(t, "acse").coeffs
    assert np.allclose(d_a, -pair_adjoint(d_a))
    # channel linearity: cse = (hcse + acse) / 2 elementwise
    s_dir = direction_from_residual(t.hermitian_part() * 2.0, "hcse").coeffs
    a_dir = direction_from_residual(t.antihermitian_part() * 2.0, "acse").coeffs
    assert np.allclose(d_cse.coeffs, 0.5 * (s_dir + a_dir))
    with pytest.raises(ValueError):
        direction_from_residual(t, "xyz")


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
        steepest = direction_from_residual(residual(ham, psi, variant), variant)
        raw = antisymmetrize(rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4))
        other = direction_from_residual(TwoBodyTensor(n, raw), variant)
        direction = steepest * (1.0 / steepest.norm()) + other * (2.0 / other.norm())
        slope = _slope(variant, direction, steepest)
        assert slope == pytest.approx(energy_slope(direction, full), rel=1e-12)
        op = two_body_to_operator(direction, basis)
        e_plus = energy(ham, apply_exp_exact(op, psi, scale=eps))
        e_minus = energy(ham, apply_exp_exact(op, psi, scale=-eps))
        assert slope == pytest.approx((e_plus - e_minus) / (2.0 * eps), rel=1e-5)
        # the norm formula -c |J|^2, right only for J = steepest, is far off
        c = 2.0 if variant == "cse" else 1.0
        assert abs(slope + c * direction.norm() ** 2) > 0.1 * abs(slope)


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


def test_golden_line_search():
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    result = cqe_run(ham, CqeConfig(line_search=LineSearch(kind="golden")))
    assert result.status == "converged"
    assert abs(result.energy - e_fci) < 1e-6
    # interior minimization must never pick the bracket edges exactly
    assert all(0.0 < rec.eta < 0.5 for rec in result.iterations[:-1])


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


def test_sampled_descends_toward_ground():
    _, ham = _h2()
    (e_fci,), _ = fci_solve(ham)
    e_hf = energy(ham, hf_state(ham))
    result = cqe_run(
        ham,
        CqeConfig(
            execution="sampled",
            max_iterations=25,
            residual_tolerance=1e-3,
            estimator=EstimatorConfig(shots=20000, seed=5),
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


def test_golden_falls_back_when_energy_is_not_unimodal():
    # E(eta) of the unitary acse flow is not unimodal on [0, 2] here, so the
    # golden minimizer alone would not lower the energy at the first step
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    (e_fci,), _ = fci_solve(ham)
    config = CqeConfig(variant="acse", line_search=LineSearch(kind="golden", eta0=2.0))
    result = cqe_run(ham, config)
    assert abs(result.energy - e_fci) < 1e-6
