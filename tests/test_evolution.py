"""Exponential steps, ancilla dilation, and the probe-based estimator."""

import numpy as np
import pytest
import scipy.linalg

from cqesim.evolution import (
    DilationPolicy,
    EstimatorConfig,
    ancilla_branch,
    apply_dilated,
    apply_exp_exact,
    canonical_elements,
    estimate_residual_w,
    pair_excitation_matrix,
    prepare_dilated,
    probe_state,
    reset_ancilla,
)
from cqesim.fock import (
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    hermitian_part,
    build_basis,
    pair_adjoint,
    two_body_to_operator,
)
from cqesim.hamiltonian import build_hamiltonian, load_fixture
from cqesim.oracle import dense_expm_apply
from cqesim.residuals import energy, residual_acse, residual_cse, residual_hcse

import _jw_dense as jw


def _random_state(rng, basis, complex_valued=False):
    amps = rng.normal(size=len(basis))
    if complex_valued:
        amps = amps + 1j * rng.normal(size=len(basis))
    return StateVector(basis, amps / np.linalg.norm(amps))


def _random_generator(rng, basis, hermitian=False, scale=1.0):
    n = basis.n_spin_orbitals
    t = antisymmetrize(rng.normal(size=(n,) * 4)) * scale
    if hermitian:
        t = hermitian_part(t)
    return two_body_to_operator(TwoBodyTensor(n, t), basis)


# ---------------------------------------------------------------------------
# Exact exponential action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [0.05, 1.0, -3.5])
def test_apply_exp_exact_matches_dense_expm(scale):
    rng = np.random.default_rng(70)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis)
    psi = _random_state(rng, basis, complex_valued=True)
    got = apply_exp_exact(op, psi, scale=scale)
    ref = dense_expm_apply(op, psi, scale=scale)
    np.testing.assert_allclose(got.amplitudes, ref.amplitudes, atol=1e-11)
    assert got.success_prob == psi.success_prob


def test_apply_exp_exact_renormalize_books_contraction():
    rng = np.random.default_rng(71)
    basis = build_basis(4, 2, 0)
    # Negative-semidefinite Hermitian generator: strictly contractive.
    m = rng.normal(size=(4, 4))
    op = SparseOperator(basis, -(m @ m.T) - 0.1 * np.eye(4))
    psi = _random_state(rng, basis)
    stepped = apply_exp_exact(op, psi, scale=0.3, renormalize=True)
    assert stepped.norm() == pytest.approx(1.0)
    raw = dense_expm_apply(op, psi, scale=0.3)
    assert stepped.success_prob == pytest.approx(raw.norm() ** 2, rel=1e-12)
    # Two half steps telescope to the same total success weight.
    half = apply_exp_exact(op, psi, scale=0.15, renormalize=True)
    half2 = apply_exp_exact(op, half, scale=0.15, renormalize=True)
    assert half2.success_prob == pytest.approx(stepped.success_prob, rel=1e-10)
    np.testing.assert_allclose(half2.amplitudes, stepped.amplitudes, atol=1e-11)


def test_apply_exp_exact_growth_keeps_success_at_one():
    basis = build_basis(4, 2, 0)
    op = SparseOperator(basis, np.eye(4))
    psi = StateVector(basis, np.ones(4) / 2.0)
    out = apply_exp_exact(op, psi, scale=1.0, renormalize=True)
    assert out.success_prob == 1.0


def test_apply_exp_exact_rejects_nonfinite():
    basis = build_basis(4, 2, 0)
    bad = np.zeros((4, 4))
    bad[0, 0] = np.inf
    op = SparseOperator(basis, bad)
    psi = StateVector(basis, np.ones(4) / 2.0)
    with pytest.raises(RuntimeError):
        apply_exp_exact(op, psi)


# ---------------------------------------------------------------------------
# Dilation mechanics
# ---------------------------------------------------------------------------


def test_prepare_branch_reset_roundtrip():
    rng = np.random.default_rng(72)
    basis = build_basis(4, 2, 0)
    psi = _random_state(rng, basis, complex_valued=True)
    dilated = prepare_dilated(psi)
    assert dilated.n_ancilla == 1
    assert dilated.norm() == pytest.approx(1.0)
    for outcome in (0, 1):
        branch = ancilla_branch(dilated, outcome)
        np.testing.assert_allclose(
            branch.amplitudes, psi.amplitudes / np.sqrt(2), atol=1e-15
        )
    # Resetting immediately post-selects half the weight: p = 1/2 exactly.
    reset = reset_ancilla(dilated)
    assert reset.n_ancilla == 0
    assert reset.success_prob == pytest.approx(0.5, rel=1e-14)
    np.testing.assert_allclose(reset.amplitudes, psi.amplitudes, atol=1e-14)


def test_apply_dilated_matches_block_cosine_sine():
    rng = np.random.default_rng(73)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    psi = _random_state(rng, basis, complex_valued=True)
    delta = 0.37
    dilated = apply_dilated(prepare_dilated(psi), op, delta)
    j = op.dense()
    cos_m = scipy.linalg.cosm(delta * j)
    sin_m = scipy.linalg.sinm(delta * j)
    u = psi.amplitudes / np.sqrt(2)
    top_ref = cos_m @ u + sin_m @ u
    bot_ref = -sin_m @ u + cos_m @ u
    np.testing.assert_allclose(ancilla_branch(dilated, 0).amplitudes, top_ref, atol=1e-11)
    np.testing.assert_allclose(ancilla_branch(dilated, 1).amplitudes, bot_ref, atol=1e-11)
    # Hermitian generator -> the dilated step is unitary.
    assert dilated.norm() == pytest.approx(1.0, abs=1e-12)


def test_apply_dilated_composes_for_shared_generator():
    rng = np.random.default_rng(74)
    basis = build_basis(4, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    psi = _random_state(rng, basis)
    one = apply_dilated(prepare_dilated(psi), op, 0.3)
    two = apply_dilated(apply_dilated(prepare_dilated(psi), op, 0.1), op, 0.2)
    np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-12)


def test_dilated_branch_error_is_second_order():
    rng = np.random.default_rng(75)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    psi = _random_state(rng, basis)
    errors = []
    for delta in (0.1, 0.05, 0.025):
        branch = ancilla_branch(apply_dilated(prepare_dilated(psi), op, delta), 0)
        exact = dense_expm_apply(op, psi, scale=delta)
        errors.append(np.linalg.norm(np.sqrt(2) * branch.amplitudes - exact.amplitudes))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.1)


def test_reset_ancilla_books_branch_weight():
    rng = np.random.default_rng(76)
    basis = build_basis(4, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    psi = _random_state(rng, basis)
    dilated = apply_dilated(prepare_dilated(psi), op, 0.4)
    weight = ancilla_branch(dilated, 0).norm() ** 2 / dilated.norm() ** 2
    reset = reset_ancilla(dilated)
    assert reset.success_prob == pytest.approx(weight, rel=1e-12)
    assert reset.norm() == pytest.approx(1.0)


def test_dilation_input_validation():
    basis = build_basis(4, 2, 0)
    psi = StateVector(basis, np.ones(4) / 2.0)
    dilated = prepare_dilated(psi)
    with pytest.raises(ValueError):
        prepare_dilated(dilated)
    with pytest.raises(ValueError):
        ancilla_branch(psi)
    with pytest.raises(ValueError):
        ancilla_branch(dilated, outcome=2)
    with pytest.raises(ValueError):
        reset_ancilla(psi)
    op = SparseOperator(basis, np.eye(4))
    with pytest.raises(ValueError):
        apply_dilated(psi, op, 0.1)


# ---------------------------------------------------------------------------
# Probe state and canonical elements
# ---------------------------------------------------------------------------


def test_probe_state_branches():
    rng = np.random.default_rng(77)
    ham = build_hamiltonian(load_fixture("h2_d1.00"))
    psi = _random_state(rng, ham.basis)
    delta = 0.2
    probe = probe_state(ham, psi, delta)
    m = ham.dense() - energy(ham, psi) * np.eye(len(ham.basis))
    u = psi.amplitudes / np.sqrt(2)
    top_ref = (scipy.linalg.cosm(delta * m) + scipy.linalg.sinm(delta * m)) @ u
    np.testing.assert_allclose(ancilla_branch(probe, 0).amplitudes, top_ref, atol=1e-11)
    assert probe.norm() == pytest.approx(1.0, abs=1e-12)


def test_canonical_elements_counts():
    assert len(canonical_elements(4)) == 21   # 6 pairs -> 6*7/2
    assert len(canonical_elements(8)) == 406  # 28 pairs -> 28*29/2
    for i, j, k, l in canonical_elements(6):
        assert i < j and k < l


def test_pair_excitation_matrix_matches_oracle():
    basis = build_basis(6, 3, 1)
    idx = np.array(basis.determinants)
    # the last four orders are non-canonical, and (2, 2, 1, 3) repeats an index
    for i, j, k, l in [
        (0, 1, 0, 1), (0, 2, 1, 3), (1, 4, 2, 5), (0, 1, 2, 4),
        (1, 0, 2, 4), (0, 1, 4, 2), (2, 2, 1, 3), (4, 1, 5, 2),
    ]:
        got = pair_excitation_matrix(basis, i, j, k, l)
        full = (
            jw.creator(6, i) @ jw.creator(6, j) @ jw.annihilator(6, l) @ jw.annihilator(6, k)
        )
        np.testing.assert_allclose(got, full[np.ix_(idx, idx)], atol=1e-12)
    # Cross-sector element (alpha-alpha creation on beta-beta removal): zero.
    assert not pair_excitation_matrix(basis, 0, 2, 1, 3).any()


# ---------------------------------------------------------------------------
# Residual estimator, exact mode
# ---------------------------------------------------------------------------


def test_estimator_exact_matches_residuals_to_second_order():
    rng = np.random.default_rng(78)
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    psi = _random_state(rng, ham.basis)
    refs = {
        "hcse": residual_hcse(ham, psi),
        "acse": residual_acse(ham, psi),
        "cse": residual_cse(ham, psi),
    }
    for variant, ref in refs.items():
        est = estimate_residual_w(ham, psi, variant=variant, delta=1e-3)
        assert np.max(np.abs(est.coeffs - ref.coeffs)) < 1e-4
    # cse is exactly the average of the other two channels.
    s = estimate_residual_w(ham, psi, variant="hcse", delta=1e-2)
    a = estimate_residual_w(ham, psi, variant="acse", delta=1e-2)
    c = estimate_residual_w(ham, psi, variant="cse", delta=1e-2)
    np.testing.assert_allclose(c.coeffs, 0.5 * (s.coeffs + a.coeffs), atol=1e-13)


def test_estimator_bias_is_second_order_in_delta():
    rng = np.random.default_rng(79)
    ham = build_hamiltonian(load_fixture("h2_d1.50"))
    psi = _random_state(rng, ham.basis)
    ref = residual_cse(ham, psi)
    errs = [
        np.linalg.norm(
            estimate_residual_w(ham, psi, variant="cse", delta=d).coeffs - ref.coeffs
        )
        for d in (0.1, 0.05, 0.025)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.1)


def test_estimator_is_even_in_delta():
    rng = np.random.default_rng(80)
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    psi = _random_state(rng, ham.basis)
    plus = estimate_residual_w(ham, psi, variant="cse", delta=0.07)
    minus = estimate_residual_w(ham, psi, variant="cse", delta=-0.07)
    np.testing.assert_allclose(plus.coeffs, minus.coeffs, atol=1e-12)


def test_estimator_structure_and_validation():
    rng = np.random.default_rng(81)
    ham = build_hamiltonian(load_fixture("h2_d1.25"))
    psi = _random_state(rng, ham.basis)
    s = estimate_residual_w(ham, psi, variant="hcse", delta=0.05)
    a = estimate_residual_w(ham, psi, variant="acse", delta=0.05)
    np.testing.assert_allclose(pair_adjoint(s.coeffs), s.coeffs, atol=1e-13)
    np.testing.assert_allclose(pair_adjoint(a.coeffs), -a.coeffs, atol=1e-13)
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, variant="bogus")
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, delta=0.0)
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, shots=1000)  # no seed
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, shots=-5, seed=1)


# ---------------------------------------------------------------------------
# Residual estimator, shot mode
# ---------------------------------------------------------------------------


def test_shot_mode_is_seed_deterministic():
    rng = np.random.default_rng(82)
    ham = build_hamiltonian(load_fixture("h2_d1.00"))
    psi = _random_state(rng, ham.basis)
    a = estimate_residual_w(ham, psi, variant="cse", shots=500, seed=11)
    b = estimate_residual_w(ham, psi, variant="cse", shots=500, seed=11)
    c = estimate_residual_w(ham, psi, variant="cse", shots=500, seed=12)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert np.max(np.abs(a.coeffs - c.coeffs)) > 0


def test_shot_mode_keeps_tensor_structure():
    rng = np.random.default_rng(83)
    ham = build_hamiltonian(load_fixture("h2_d1.75"))
    psi = _random_state(rng, ham.basis)
    s = estimate_residual_w(ham, psi, variant="hcse", shots=200, seed=3)
    a = estimate_residual_w(ham, psi, variant="acse", shots=200, seed=3)
    np.testing.assert_allclose(pair_adjoint(s.coeffs), s.coeffs, atol=1e-13)
    np.testing.assert_allclose(pair_adjoint(a.coeffs), -a.coeffs, atol=1e-13)
    # Default shot-mode delta is the hardware-scale 0.1.
    d = estimate_residual_w(ham, psi, variant="hcse", shots=200, seed=3)
    np.testing.assert_array_equal(d.coeffs, s.coeffs)


def test_shot_mode_converges_to_exact_probe_value():
    rng = np.random.default_rng(84)
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    psi = _random_state(rng, ham.basis)
    delta = 0.1
    exact = estimate_residual_w(ham, psi, variant="cse", delta=delta)
    sampled = estimate_residual_w(
        ham, psi, variant="cse", delta=delta, shots=400_000, seed=5
    )
    assert np.linalg.norm(sampled.coeffs - exact.coeffs) < 0.1


def test_config_dataclasses_have_expected_defaults():
    cfg = EstimatorConfig()
    assert cfg.variant == "cse" and cfg.delta is None and cfg.shots is None
    policy = DilationPolicy()
    assert policy.epsilon == pytest.approx(0.5)
    assert policy.reset_mode == "wolfe"
    assert policy.wolfe_c1 == pytest.approx(1e-4)
    assert policy.max_steps_between_resets == 10
    with pytest.raises(ValueError):
        DilationPolicy(reset_mode="sometimes")
    with pytest.raises(ValueError):
        DilationPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        DilationPolicy(wolfe_c1=1.0)
    with pytest.raises(ValueError):
        DilationPolicy(max_steps_between_resets=0)
