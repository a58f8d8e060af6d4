"""Exponential steps, ancilla dilation, and the probe-based estimator."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from cqesim import evolution
from cqesim.evolution import (
    DilationPolicy,
    EstimatorConfig,
    _csr_product,
    _outcome_classes,
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
from cqesim.residuals import (
    _moments,
    _rdm2_links,
    compute_2rdm,
    energy,
    residual_acse,
    residual_cse,
    residual_hcse,
)
from cqesim.solver import CqeConfig, _StepPlan, cqe_run, hf_state

import _jw_dense as jw
from _oracles import block_dilated_step, block_exp_dilated, block_probe, dense_expm_apply, kernel_action


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


# +-12 takes 39 Taylor segments on the generator below (1-norm 12 x 19.4 = 233)
EXP_SCALES = [0.05, 1.0, -3.5, 12.0, -12.0]


@pytest.mark.parametrize("scale", EXP_SCALES)
def test_apply_exp_exact_matches_dense_expm(scale):
    rng = np.random.default_rng(70)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis)
    psi = _random_state(rng, basis, complex_valued=True)
    got = apply_exp_exact(op, psi, scale=scale)
    ref = dense_expm_apply(op, psi, scale=scale)
    np.testing.assert_allclose(got.amplitudes, ref.amplitudes, atol=1e-11)
    assert got.success_prob == psi.success_prob


# a Hermitian generator, so the imaginary scale stays unitary
@pytest.mark.parametrize("scale", [0.05, -3.5, 12j])
def test_apply_exp_exact_acts_per_branch_on_dilated_state(scale):
    rng = np.random.default_rng(70)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    amps = rng.normal(size=2 * len(basis)) + 1j * rng.normal(size=2 * len(basis))
    dilated = StateVector(basis, amps / np.linalg.norm(amps), 1, 0.5)
    got = apply_exp_exact(op, dilated, scale=scale)
    assert got.n_ancilla == 1 and got.success_prob == 0.5
    for outcome in (0, 1):
        ref = dense_expm_apply(op, ancilla_branch(dilated, outcome), scale=scale)
        np.testing.assert_allclose(ancilla_branch(got, outcome).amplitudes, ref.amplitudes, atol=1e-11)


# one Taylor series over the (dim, 2) block: its stopping test reads the
# norm of both branches, so a faint branch is pinned relative to its own norm
@pytest.mark.parametrize("scale", [0.05, -3.5, 12j])
def test_apply_exp_exact_runs_both_branches_as_one_block(monkeypatch, scale):
    rng = np.random.default_rng(71)
    basis = build_basis(6, 2, 0)
    dim = len(basis)
    op = _random_generator(rng, basis, hermitian=True)
    amps = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    amps[dim:] *= 1e-3
    dilated = StateVector(basis, amps / np.linalg.norm(amps), 1, 0.5)
    calls = []

    def counted(*args):
        calls.append(None)
        return taylor(*args)

    taylor = evolution._taylor_series
    monkeypatch.setattr(evolution, "_taylor_series", counted)
    got = apply_exp_exact(op, dilated, scale=scale)
    assert len(calls) == 1
    for outcome in (0, 1):
        ref = dense_expm_apply(op, ancilla_branch(dilated, outcome), scale=scale).amplitudes
        err = np.linalg.norm(ancilla_branch(got, outcome).amplitudes - ref)
        assert err <= 1e-12 * np.linalg.norm(ref)


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
    with pytest.raises(RuntimeError, match="1-norm"):
        apply_exp_exact(op, psi)
    # a non-finite scale on a finite H is named by the 1-norm, not the matrix
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    with pytest.raises(RuntimeError, match="1-norm nan is not finite"):
        apply_exp_exact(ham, hf_state(ham), scale=math.nan)


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


def _dense_block_expm_apply(matrix, delta, amplitudes):
    """Oracle: ``expm([[0, delta J], [-delta J, 0]])`` formed densely."""
    block = sp.bmat([[None, delta * matrix], [-delta * matrix, None]])
    return scipy.linalg.expm(block.toarray()) @ amplitudes


@pytest.mark.parametrize("hermitian, delta", [(True, 0.37), (False, 0.37), (False, -1.6)])
def test_apply_dilated_matches_dense_block_expm(hermitian, delta):
    rng = np.random.default_rng(73)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis, hermitian=hermitian)
    amps = rng.normal(size=2 * len(basis)) + 1j * rng.normal(size=2 * len(basis))
    dilated = StateVector(basis, amps / np.linalg.norm(amps), 1, 0.25)
    got = apply_dilated(dilated, op, delta)
    ref = _dense_block_expm_apply(op.matrix, delta, dilated.amplitudes)
    np.testing.assert_allclose(got.amplitudes, ref, atol=1e-11)
    assert got.n_ancilla == 1 and got.success_prob == 0.25


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


def test_reset_of_a_negligible_ancilla_1_branch_books_at_most_the_old_probability():
    # |u|^2 / |[u; v]|^2 can round to 1 + ulp when |v| is negligible; the
    # booked product must still lie in (0, 1] and never grow
    basis = build_hamiltonian(load_fixture("h4_d1.40")).basis
    rng = np.random.default_rng(77)
    dim = len(basis)
    for _ in range(400):
        u, w = (rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(2))
        for prob in (1.0, 0.3):
            psi = StateVector(basis, np.concatenate([u, 1e-30 * w]), 1, prob)
            assert reset_ancilla(psi).success_prob <= prob


def test_booked_products_that_underflow_keep_the_least_positive_float():
    # a retained weight that takes success_prob below the float64 range books
    # math.ulp(0.0) = 5e-324 rather than 0.0, which no StateVector accepts
    rng = np.random.default_rng(76)
    basis = build_basis(4, 2, 0)
    psi = _random_state(rng, basis)
    faint = StateVector(basis, np.concatenate([1e-20 * psi.amplitudes, psi.amplitudes]), 1, 1e-300)
    reset = reset_ancilla(faint)  # kept weight 1e-40
    assert reset.success_prob == math.ulp(0.0) == 5e-324
    assert reset.norm() == pytest.approx(1.0)
    decay = SparseOperator(basis, -50.0 * np.eye(4))
    for prob, booked in ((1e-300, 5e-324), (0.5, 0.5 * math.exp(-100.0))):
        out = apply_exp_exact(decay, StateVector(basis, psi.amplitudes, 0, prob), renormalize=True)
        assert out.success_prob == pytest.approx(booked, rel=1e-12)
        assert out.norm() == pytest.approx(1.0)


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


def _hermitian_without_diagonal(rng, basis):
    """A Hermitian operator whose diagonal entries are all structurally absent."""
    m = _random_generator(rng, basis, hermitian=True).dense()
    np.fill_diagonal(m, 0.0)
    op = SparseOperator(basis, sp.csr_matrix(m))
    assert not np.any(op.matrix.tocoo().row == op.matrix.tocoo().col)
    return op


def _probe_operator(name, rng):
    if name == "no_diagonal":
        return _hermitian_without_diagonal(rng, build_basis(6, 2, 0))
    return build_hamiltonian(load_fixture(name))


@pytest.mark.parametrize("name", ["h4_d1.00", "no_diagonal"])
@pytest.mark.parametrize("delta", [0.2, -1.3])
def test_probe_state_matches_dense_block_expm(name, delta):
    rng = np.random.default_rng(77)
    ham = _probe_operator(name, rng)
    psi = _random_state(rng, ham.basis, complex_valued=True)
    probe = probe_state(ham, psi, delta)
    shifted = ham.matrix - energy(ham, psi) * sp.identity(len(ham.basis))
    ref = _dense_block_expm_apply(shifted, delta, prepare_dilated(psi).amplitudes)
    np.testing.assert_allclose(probe.amplitudes, ref, atol=1e-11)
    assert probe.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["h4_d1.00", "no_diagonal"])
def test_norm1_matches_dense_column_sums(name):
    rng = np.random.default_rng(87)
    ham = _probe_operator(name, rng)
    e = energy(ham, _random_state(rng, ham.basis))
    assert e != 0.0
    for shift, got in ((0.0, ham.norm1), (0.0, ham.shifted_norm1(0.0)), (e, ham.shifted_norm1(e))):
        dense = np.abs(ham.dense() - shift * np.eye(len(ham.basis))).sum(axis=0).max()
        assert got == pytest.approx(dense, rel=1e-14)


@pytest.mark.parametrize("name", ["h2_d0.74", "h4_d1.00", "no_diagonal"])
def test_shifted_norm1_from_kept_column_sums(name):
    # the probe's shifted 1-norm and the operator's 1-norm, which step
    # factors read, come from the column sums and diagonal that the operator
    # keeps; unshifted, they have the same bits, and all match the dense value
    rng = np.random.default_rng(88)
    ham = _probe_operator(name, rng)
    assert ham.shifted_norm1(0.0) == ham.norm1
    for shift in (0.0, energy(ham, hf_state(ham)), -3.7, 2.5):
        got = ham.shifted_norm1(shift)
        dense = np.abs(ham.dense() - shift * np.eye(len(ham.basis))).sum(axis=0).max()
        assert got == pytest.approx(dense, rel=1e-14)


def test_kernel_gets_the_exact_generator_norm(monkeypatch):
    rng = np.random.default_rng(89)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis)
    ham = _hermitian_without_diagonal(rng, basis)
    psi = _random_state(rng, basis, complex_valued=True)
    segments = []

    class Spy(evolution._Terms):  # every Taylor segment of every exponential is summed by one block
        def _segment(self, norm1, count, ratio=None):
            segments.append((norm1, count, self.signs is not None))
            return super()._segment(norm1, count, ratio)

    monkeypatch.setattr(evolution, "_Terms", Spy)
    shifted = ham.matrix - energy(ham, psi) * sp.identity(len(basis))
    # unitary factors and V-steps from a |+> ancilla run on one branch where they fit one segment
    assert 0.7 * op.norm1 > THETA >= 0.1 * op.norm1
    cases = [
        (lambda: apply_exp_exact(op, psi, scale=-2.5j), -2.5j * op.dense(), False),
        (
            lambda: apply_exp_exact(op, prepare_dilated(psi), scale=-0.1j),
            sp.block_diag([-0.1j * op.matrix] * 2).toarray(),
            True,
        ),
        (
            lambda: apply_exp_exact(op, prepare_dilated(psi), scale=0.7),
            sp.block_diag([0.7 * op.matrix] * 2).toarray(),
            False,
        ),
        (
            lambda: apply_dilated(prepare_dilated(psi), op, 0.7),
            sp.bmat([[None, 0.7 * op.matrix], [-0.7 * op.matrix, None]]).toarray(),
            False,
        ),
        (
            lambda: apply_dilated(prepare_dilated(psi), op, 0.1),
            sp.bmat([[None, 0.1 * op.matrix], [-0.1 * op.matrix, None]]).toarray(),
            True,
        ),
        (
            lambda: probe_state(ham, psi, -0.3),
            sp.bmat([[None, -0.3 * shifted], [0.3 * shifted, None]]).toarray(),
            True,
        ),
    ]
    for run, generator, one_branch in cases:
        segments.clear()
        run()
        norm1 = np.abs(generator).sum(axis=0).max()
        count = max(1, math.ceil(norm1 / THETA))
        assert [segment[1:] for segment in segments] == [(count, one_branch)] * count
        assert [segment[0] for segment in segments] == pytest.approx([norm1] * count, rel=1e-14)


def test_dilated_step_and_probe_reject_nonfinite():
    basis = build_basis(4, 2, 0)
    bad = np.zeros((4, 4))
    bad[0, 1] = bad[1, 0] = np.inf
    op = SparseOperator(basis, bad)
    psi = StateVector(basis, np.ones(4) / 2.0)
    with pytest.raises(RuntimeError, match="1-norm"):
        apply_dilated(prepare_dilated(psi), op, 0.1)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="1-norm"):
        probe_state(op, psi, 0.1)
    # a non-finite scale on a finite H is named by the 1-norm, not the matrix
    ham = build_hamiltonian(load_fixture("h2_d0.74"))
    hf = hf_state(ham)
    with pytest.raises(RuntimeError, match="1-norm inf is not finite"):
        apply_dilated(prepare_dilated(hf), ham, math.inf)
    with pytest.raises(RuntimeError, match="1-norm nan is not finite"):
        probe_state(ham, hf, math.nan)


def test_dilated_paths_build_no_matrix(monkeypatch):
    rng = np.random.default_rng(88)
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(rng, ham.basis, complex_valued=True)
    op = _random_generator(rng, ham.basis, hermitian=True, scale=0.1)

    def forbidden(*args, **kwargs):
        raise AssertionError("a V-step or probe built a sparse matrix")

    monkeypatch.setattr(sp, "bmat", forbidden)
    monkeypatch.setattr(sp, "identity", forbidden)
    assert apply_dilated(prepare_dilated(psi), op, 0.3).norm() == pytest.approx(1.0)
    assert probe_state(ham, psi, 0.1).norm() == pytest.approx(1.0)
    est = estimate_residual_w(ham, psi, variant="cse", shots=1000, seed=4)
    assert np.all(np.isfinite(est.coeffs)) and np.abs(est.coeffs).max() > 0


# ---------------------------------------------------------------------------
# Taylor segments and the CSR product
# ---------------------------------------------------------------------------


THETA = 6.0  # the kernel's per-segment 1-norm: theta_40 of Al-Mohy & Higham


def _kernel_generator(rng, kind, basis):
    n = basis.n_spin_orbitals
    t = antisymmetrize(rng.normal(size=(n,) * 4))
    t = hermitian_part(t) if kind == "hermitian" else 0.5 * (t - pair_adjoint(t))
    return two_body_to_operator(TwoBodyTensor(n, t), basis)


@pytest.mark.parametrize("norm", [0.98 * THETA, 1.02 * THETA, 2.5 * THETA])
@pytest.mark.parametrize("kind, sign", [("hermitian", 1.0), ("hermitian", -1.0), ("antihermitian", 1.0)])
def test_exact_step_across_segment_boundaries_matches_dense_expm(norm, kind, sign):
    rng = np.random.default_rng(90)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, kind, basis)
    psi = _random_state(rng, basis, complex_valued=True)
    scale = sign * norm / op.norm1
    got = apply_exp_exact(op, psi, scale=scale).amplitudes
    ref = scipy.linalg.expm(scale * op.dense()) @ psi.amplitudes
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("norm", [0.98 * THETA, 1.02 * THETA, 2.5 * THETA])
@pytest.mark.parametrize("kind", ["hermitian", "antihermitian"])
def test_dilated_step_across_segment_boundaries_matches_dense_expm(norm, kind):
    rng = np.random.default_rng(91)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, kind, basis)
    amps = rng.normal(size=2 * len(basis)) + 1j * rng.normal(size=2 * len(basis))
    dilated = StateVector(basis, amps / np.linalg.norm(amps), 1)
    delta = norm / op.norm1
    got = apply_dilated(dilated, op, delta).amplitudes
    ref = _dense_block_expm_apply(op.matrix, delta, dilated.amplitudes)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["hermitian", "antihermitian"])
def test_fixed_start_matches_dense_expm_in_any_order(kind):
    # the longest trial first, then shorter ones and both sides of the segment boundary
    rng = np.random.default_rng(98)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, kind, basis)
    psi = _random_state(rng, basis, complex_valued=True)
    start = evolution._FixedStart(op, psi)
    for norm in (2.5 * THETA, 0.3, 1.02 * THETA, 0.98 * THETA):
        for phase in (1.0, -1.0, 1j):
            eta = phase * norm / op.norm1
            got = start.apply(eta)
            ref = scipy.linalg.expm(eta * op.dense()) @ psi.amplitudes
            assert np.linalg.norm(got.amplitudes - ref / np.linalg.norm(ref)) <= 1e-13
            assert got.success_prob == pytest.approx(min(1.0, np.vdot(ref, ref).real), rel=1e-12)


def _count_products(matvec, norm1, vec):
    calls = []

    def counted(v):
        calls.append(None)
        return matvec(v)

    evolution._taylor_series(kernel_action(counted), norm1, vec)
    return len(calls)


@pytest.mark.parametrize("seed", [92, 93, 94])
def test_kernel_segments_follow_the_theta_bound(seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, "hermitian", basis)
    vec = _random_state(rng, basis, complex_valued=True).amplitudes
    norm1 = op.norm1
    products = {}
    for target in (6.0, 13.0):
        scale = target / norm1
        products[target] = _count_products(lambda v: scale * (op.matrix @ v), target, vec)
    # one segment of at most 42 terms at 1-norm 6, three at 13
    assert products[6.0] <= 42
    assert 42 < products[13.0] <= 3 * 42


def test_kernel_refuses_more_segments_than_its_bound_before_any_product():
    # a unitary factor never overflows, so without the bound a huge step
    # would sum its segments for as long as its 1-norm is large
    vec = np.arange(1.0, 5.0) + 0j
    largest = evolution._MAX_SEGMENTS * THETA
    assert _count_products(np.zeros_like, largest, vec) == evolution._MAX_SEGMENTS * 6

    def forbidden(v):
        raise AssertionError("a refused exponential made a product")

    for norm1 in (np.nextafter(largest, np.inf), 1e12):
        with pytest.raises(RuntimeError, match="Taylor segments"):
            evolution._taylor_series(forbidden, norm1, vec)


@pytest.mark.parametrize("norm1, segments, per_segment", [(0.3, 1, 2), (6.0, 1, 6), (13.0, 3, 4)])
def test_kernel_stops_only_where_terms_contract(norm1, segments, per_segment):
    # A zero action makes every term vanish at once; the two-term streak may
    # end a segment only once (k + 1) * segments > norm1.
    vec = np.arange(1.0, 5.0) + 0j
    count = _count_products(np.zeros_like, norm1, vec)
    assert count == segments * per_segment


def _reference_taylor(matvec, norm1, vec, first=None):
    """The kernel's segmented series with ``|acc|^2`` formed at every term:
    the stops, errors and output bits that ``_taylor_series`` must keep.

    Every term comes from this function's own recurrence.  ``first =
    (unit, divisor, phase)`` serves the first segment as ``_FixedStart``
    serves the kernel: from the terms ``(J / divisor)^k vec / k!`` of the
    action ``unit(v) = J v``, scaled by ``(phase norm1 / s)^k``.
    """
    out = vec.astype(complex, copy=True)
    if norm1 == 0.0:
        return out
    segments = max(1, int(np.ceil(norm1 / THETA)))
    for segment in range(segments):
        if segment == 0 and first is not None:
            action, divisor, ratio = first[0], first[1], first[2] * norm1 / segments
        else:
            action, divisor, ratio = matvec, segments, 1.0
        made = out
        acc = out.copy()
        power = 1.0
        streak = 0
        for k in range(1, evolution._MAX_TAYLOR_TERMS + 1):
            made = action(made)
            made *= 1.0 / (divisor * k)
            term, term2 = made, np.vdot(made, made).real
            if ratio != 1.0:
                power *= ratio
                term, term2 = power * term, abs(power) ** 2 * term2
            acc += term
            acc2 = np.vdot(acc, acc).real
            if not (np.isfinite(term2) and np.isfinite(acc2)):
                raise RuntimeError("non-finite")
            streak = streak + 1 if term2 <= evolution._TERM_STOP**2 * acc2 else 0
            if streak >= 2 and (k + 1) * segments > norm1:
                break
        else:
            if term2 > evolution._TERM_FAIL**2 * acc2:
                raise RuntimeError("still decaying")
        out = acc
    return out


def _counted(action, calls):
    """``action``, appending to ``calls`` once per product."""

    def counted(*args, **kwargs):
        calls.append(None)
        return action(*args, **kwargs)

    return counted


def _counted_run(kernel, matvec, norm1, vec):
    calls = []
    return kernel(_counted(matvec, calls), norm1, vec), len(calls)


def _kernel_output(matvec, norm1, vec):
    return evolution._taylor_series(kernel_action(matvec), norm1, vec)[0]


def _assert_kernel_matches_reference(matvec, norm1, vec):
    got, got_products = _counted_run(_kernel_output, matvec, norm1, vec)
    ref, ref_products = _counted_run(_reference_taylor, matvec, norm1, vec)
    assert got_products == ref_products
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("norm1", [0.3, 6.0, 13.0])
@pytest.mark.parametrize("kind", ["hermitian", "antihermitian"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kernel_norm_skips_keep_the_stops_and_bits(norm1, kind, sign):
    # the partial-sum norm is skipped only where the triangle bound proves the
    # term is not small, so products and bits equal those of a norm at every term
    rng = np.random.default_rng(99)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, kind, basis)
    vec = _random_state(rng, basis, complex_valued=True).amplitudes
    scale = sign * norm1 / op.norm1
    _assert_kernel_matches_reference(lambda v: scale * _csr_product(op.matrix, v), norm1, vec)


@pytest.mark.parametrize("c", [6.0, 13.0, 24.0])
def test_kernel_norm_skips_keep_the_stops_and_bits_on_a_contracting_shift(c):
    # |acc| = exp(-c) |v| sits far under the bound |v| exp(c): most norms are taken
    vec = np.arange(1.0, 5.0) + 1j * np.arange(4.0, 0.0, -1.0)
    _assert_kernel_matches_reference(lambda v: -c * v, c, vec)


@pytest.mark.parametrize("norm1", [0.3, 6.0, 13.0])
@pytest.mark.parametrize("phase", [1.0, -1.0, 1j])
def test_kernel_norm_skips_keep_the_stops_and_bits_on_kept_terms(monkeypatch, norm1, phase):
    # a line-search trial as the solver runs it: the first segment reads the
    # terms (J / |J|_1)^k psi / k! that _FixedStart keeps, and every product,
    # kept or fresh, goes through evolution._csr_product
    rng = np.random.default_rng(100)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, "hermitian", basis)
    psi = _random_state(rng, basis, complex_valued=True)
    eta = phase * norm1 / op.norm1
    products = []
    monkeypatch.setattr(evolution, "_csr_product", _counted(_csr_product, products))
    start = evolution._FixedStart(op, psi)
    got = start.apply(eta)
    first_products, kept = len(products), len(start.norms2) - 1
    products.clear()
    again = start.apply(eta)  # every kept term it reads is made already
    monkeypatch.undo()

    calls = []
    unit = _counted(lambda v: _csr_product(op.csr, v), calls)
    action = _counted(lambda v: eta * _csr_product(op.csr, v), calls)
    first = (unit, op.norm1, eta / abs(eta))
    ref = _reference_taylor(action, abs(eta) * op.norm1, psi.amplitudes, first)
    ref /= math.sqrt(np.vdot(ref, ref).real)
    assert kept > 0
    assert first_products == len(calls)
    assert len(products) == len(calls) - kept
    assert np.array_equal(got.amplitudes, ref)
    assert np.array_equal(again.amplitudes, ref)


def _assert_kept_trial_matches_reference(monkeypatch, start, eta):
    """One ``_FixedStart`` trial against ``_reference_taylor``: the same bits,
    and products only for the kept terms it lacked and its fresh segments."""
    op, psi = start.op, start.psi
    kept = len(start.norms2) - 1
    products = []
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_csr_product", _counted(_csr_product, products))
        got = start.apply(eta)
    first_calls, calls = [], []
    unit = _counted(lambda v: _csr_product(op.csr, v), first_calls)
    action = _counted(lambda v: eta * _csr_product(op.csr, v), calls)
    ref = _reference_taylor(action, abs(eta) * op.norm1, psi.amplitudes, (unit, op.norm1, eta / abs(eta)))
    ref /= math.sqrt(np.vdot(ref, ref).real)
    assert np.array_equal(got.amplitudes, ref)
    assert len(start.norms2) - 1 == max(kept, len(first_calls))
    assert len(products) == max(0, len(first_calls) - kept) + len(calls)


@pytest.mark.parametrize("phase", [1.0, -1.0, 1j])
def test_kept_terms_keep_their_bits_as_more_are_made(monkeypatch, phase):
    # the first trial makes many kept terms; the later ones read terms made
    # by an earlier trial and, past them, make more
    rng = np.random.default_rng(108)
    basis = build_basis(8, 4, 0)
    op = _kernel_generator(rng, "hermitian", basis)
    start = evolution._FixedStart(op, _random_state(rng, basis, complex_valued=True))
    for norm1 in (0.98 * THETA, 0.3, 2.5 * THETA):
        _assert_kept_trial_matches_reference(monkeypatch, start, phase * norm1 / op.norm1)


def test_zero_norm_leaves_the_amplitudes_as_they_are():
    # a generator of 1-norm 0 takes the kernel's one segment: its series stops
    # after two zero terms and returns its start; np.array_equal counts -0.0
    # and +0.0 as equal, the one way the sum may differ from the start
    rng = np.random.default_rng(110)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    zero = SparseOperator(basis, np.zeros((len(basis), len(basis))))
    assert zero.norm1 == 0.0
    psi = _random_state(rng, basis, complex_valued=True)
    amps = psi.amplitudes
    normalized = amps / math.sqrt(np.vdot(amps, amps).real)
    fresh = prepare_dilated(psi)
    rotated = apply_dilated(fresh, op, 0.3)
    assert not np.array_equal(rotated.amplitudes[: len(basis)], rotated.amplitudes[len(basis) :])
    cases = [
        (apply_exp_exact(op, psi, 0.0), amps),
        (apply_exp_exact(op, psi, 0.0, renormalize=True), normalized),
        (evolution._FixedStart(op, psi).apply(0.0), normalized),
        (apply_exp_exact(zero, psi, 1.0), amps),
        (apply_exp_exact(zero, psi, -2.5, renormalize=True), normalized),
        (apply_exp_exact(zero, rotated, 1.0), rotated.amplitudes),
        (evolution._FixedStart(zero, psi).apply(0.7), normalized),
    ]
    for register in (fresh, rotated):
        cases += [
            (apply_dilated(register, op, 0.0), register.amplitudes),
            (apply_dilated(register, zero, 0.5), register.amplitudes),
        ]
    for got, want in cases:
        assert np.array_equal(got.amplitudes, want)
        assert got.success_prob == psi.success_prob


@pytest.mark.parametrize("c", [6.0, 13.0, 24.0])
def test_kept_terms_form_the_partial_sum_where_the_bounds_cannot_decide(monkeypatch, c):
    # |acc| = exp(-c d) |psi| sits far under the triangle bound, and the lower
    # bound |psi| - sum |c_j t_j| is negative: the terms between the two take
    # the exact partial sum, and those it finds not small keep the series going
    basis = build_basis(4, 2, 0)
    op = SparseOperator(basis, np.diag(np.linspace(0.5, 1.0, len(basis))))
    start = evolution._FixedStart(op, _random_state(np.random.default_rng(109), basis, complex_valued=True))
    sums = []
    monkeypatch.setattr(start, "_sum", _counted(start._sum, sums))
    _assert_kept_trial_matches_reference(monkeypatch, start, -c / op.norm1)
    assert len(sums) > 2


@pytest.mark.parametrize("norm1", [0.3, 6.0, 13.0])
def test_kernel_norm_skips_keep_the_stops_and_bits_on_dilated_blocks(monkeypatch, norm1):
    # the stacked V-step action and the (dim, 2) block of a unitary factor,
    # taken from the calls the dilated routes make
    rng = np.random.default_rng(101)
    basis = build_basis(6, 2, 0)
    op = _random_generator(rng, basis, hermitian=True)
    amps = rng.normal(size=2 * len(basis)) + 1j * rng.normal(size=2 * len(basis))
    dilated = StateVector(basis, amps / np.linalg.norm(amps), 1)
    delta = norm1 / op.norm1
    calls = []
    monkeypatch.setattr(evolution, "_taylor_series", lambda *args: calls.append(args) or (args[2], None))
    apply_dilated(dilated, op, delta)
    apply_exp_exact(op, dilated, scale=-1j * delta)
    monkeypatch.undo()
    assert [norm for _, norm, _ in calls] == pytest.approx([norm1, norm1], rel=1e-14)
    for matvec, norm1, vec in calls:
        _assert_kernel_matches_reference(kernel_action(matvec, returning=True), norm1, vec)


def test_kernel_norm_skips_keep_a_streak_broken_by_a_large_term():
    # t1 = eps e2 is small, t2 = 3 eps e1 is not and skips its norm, t3 and t4
    # are tiny: the stated 1-norm lets the streak stop at once, so a skipped
    # norm that failed to reset the streak would stop one term early
    eps = 0.9e-16
    g = np.array([[0.0, 6.0], [eps, 0.0]])
    vec = np.array([1.0, 0.0], dtype=complex)
    _, products = _counted_run(_reference_taylor, lambda v: g @ v, 0.3, vec)
    assert products == 4
    _assert_kernel_matches_reference(lambda v: g @ v, 0.3, vec)


@pytest.mark.parametrize("width", [36, 400, 4900])
@pytest.mark.parametrize("ratio", [0.37, -0.52, 0.3j])
def test_summed_rows_have_the_bits_of_the_term_by_term_loop(width, ratio):
    # _FixedStart sums a trial's first segment as np.add.reduce(c[:, None] * T,
    # axis=0), the reduction of (c[:, None] * T).sum(axis=0), over rows 0..K of
    # its block; numpy adds the rows in order, so the sum is bit for bit
    # acc = T[0]; acc += c_k T[k].  A numpy release that changes this
    # reduction order fails here before the trajectory tests do
    rng = np.random.default_rng(110)
    held = rng.normal(size=(24, width)) + 1j * rng.normal(size=(24, width))
    coeffs = [1.0]
    for _ in range(len(held) - 1):
        coeffs.append(coeffs[-1] * ratio)
    for rows in (9, len(held)):  # a row slice of the larger block, and all of it
        acc = held[0].copy()
        for k in range(1, rows):
            acc += coeffs[k] * held[k]
        scaled = np.array(coeffs[:rows], dtype=complex)[:, None] * held[:rows]
        assert np.array_equal(scaled.sum(axis=0), acc)
        assert np.array_equal(np.add.reduce(scaled, axis=0), acc)


@pytest.mark.parametrize(
    "matvec, norm1, message",
    [
        (lambda v: 50.0 * v, 0.4, "still decaying"),  # a 1-norm far too small
        (lambda v: np.full_like(v, np.inf), 1.0, "non-finite"),
        (lambda v: np.full_like(v, np.nan), 1.0, "non-finite"),
    ],
)
def test_kernel_norm_skips_keep_the_errors(matvec, norm1, message):
    vec = np.arange(1.0, 5.0) + 0j
    for kernel in (_kernel_output, _reference_taylor):
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(RuntimeError, match=message):
            kernel(matvec, norm1, vec)


def _csr_cases():
    rng = np.random.default_rng(95)
    dense = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    dense[rng.random((7, 7)) < 0.5] = 0.0
    empty_rows = dense.copy()
    empty_rows[[0, 3, 6]] = 0.0
    wide = sp.csr_matrix(dense)
    wide.indices = wide.indices.astype(np.int64)
    wide.indptr = wide.indptr.astype(np.int64)
    return {
        "plain": sp.csr_matrix(dense),
        "empty_rows": sp.csr_matrix(empty_rows),
        "int64": wide,
    }


@pytest.mark.parametrize("case", ["plain", "empty_rows", "int64"])
def test_csr_product_is_bitwise_matmul(case):
    matrix = _csr_cases()[case]
    assert case != "int64" or matrix.indices.dtype == np.int64
    assert case != "empty_rows" or np.any(np.diff(matrix.indptr) == 0)
    rng = np.random.default_rng(96)
    stacked = rng.normal(size=14) + 1j * rng.normal(size=14)
    vector = stacked[:7]
    block = stacked.reshape(2, 7).T  # F-ordered view of both branches
    assert not block.flags.c_contiguous
    for operand in (vector, block):
        got = _csr_product(matrix, operand)
        want = matrix @ operand
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_exponentials_bypass_scipy_matmul(monkeypatch):
    rng = np.random.default_rng(97)
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(rng, ham.basis, complex_valued=True)
    op = _random_generator(rng, ham.basis, hermitian=True, scale=0.1)
    before = (
        apply_exp_exact(op, psi, scale=-0.7),
        apply_dilated(prepare_dilated(psi), op, 0.3),
        probe_state(ham, psi, 0.1),
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("an exponential went through scipy's @ dispatch")

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", forbidden)
    after = (
        apply_exp_exact(op, psi, scale=-0.7),
        apply_dilated(prepare_dilated(psi), op, 0.3),
        probe_state(ham, psi, 0.1),
    )
    for x, y in zip(before, after):
        assert np.array_equal(x.amplitudes, y.amplitudes)


def test_csr_product_into_halves_is_bitwise_the_block_columns():
    # the ancilla actions' vector products into the halves of one zeroed
    # output against the block product they replaced
    rng = np.random.default_rng(102)
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    dim = len(ham.basis)
    for _ in range(200):
        stacked = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        out = np.zeros(2 * dim, dtype=complex)
        _csr_product(ham.csr, stacked[:dim], out=out[:dim])
        _csr_product(ham.csr, stacked[dim:], out=out[dim:])
        block = _csr_product(ham.csr, stacked.reshape(2, dim).T)
        assert np.array_equal(out, block.T.ravel())


def _h4_step_factors():
    """The Hamiltonian and both step factors of the first cse step on h4_d1.40."""
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    psi = hf_state(ham)
    plan = _StepPlan(ham, psi, -_rdm2_links(psi.basis, psi.amplitudes, _moments(ham, psi)[2]))
    assert plan.op_a is not None and plan.op_h is not None
    return ham, {"h4_anti": plan.op_a, "h4_herm": plan.op_h}


def _dilated_state(rng, basis):
    amps = rng.normal(size=2 * len(basis)) + 1j * rng.normal(size=2 * len(basis))
    return StateVector(basis, amps / np.linalg.norm(amps), 1, 0.5)


def _fresh_registers(rng, ham, factors):
    """A dilated register as ``prepare_dilated`` leaves it and after a
    unitary factor, both with bitwise equal halves, and one with a
    success probability below 1."""
    psi = _random_state(rng, ham.basis, complex_valued=True)
    fresh = prepare_dilated(StateVector(ham.basis, psi.amplitudes, 0, 0.5))
    rotated = apply_exp_exact(factors["h4_anti"], fresh, scale=0.3)
    for register in (fresh, rotated):
        assert ancilla_branch(register, 0).amplitudes.tobytes() == ancilla_branch(register, 1).amplitudes.tobytes()
    return [fresh, rotated]


# steps within one Taylor segment and across several of them, on random
# registers and on the fresh ones whose one-segment V-steps run on one branch
@pytest.mark.parametrize("size", [0.05, 1.3, 5.9, 15.0])
@pytest.mark.parametrize("factor", ["h4_anti", "h4_herm", "random"])
def test_ancilla_actions_equal_the_block_formulation_bit_for_bit(factor, size):
    rng = np.random.default_rng(103)
    ham, factors = _h4_step_factors()
    op = factors.get(factor) or _random_generator(rng, ham.basis, hermitian=True)
    step = size / op.norm1
    registers = [_dilated_state(rng, ham.basis) for _ in range(3)] + _fresh_registers(rng, ham, factors)
    for dilated in registers:
        got = apply_dilated(dilated, op, step)
        assert np.array_equal(got.amplitudes, block_dilated_step(op, dilated, step))
        assert got.n_ancilla == 1 and got.success_prob == 0.5
        for scale in (step, -step, 1j * step):
            got = apply_exp_exact(op, dilated, scale=scale)
            assert np.array_equal(got.amplitudes, block_exp_dilated(op, dilated, scale))
            assert got.n_ancilla == 1 and got.success_prob == 0.5


# a probe of one Taylor segment runs on one branch; at delta = 4.0 the H4
# probes take more than one segment and run on both branches
@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.00", "h4_d1.40"])
@pytest.mark.parametrize("delta", [1e-3, -0.07, 0.8, 4.0])
def test_probe_state_equals_the_block_formulation_bit_for_bit(fixture, delta):
    rng = np.random.default_rng(104)
    ham = build_hamiltonian(load_fixture(fixture))
    for psi in (hf_state(ham), _random_state(rng, ham.basis, complex_valued=True)):
        probe = probe_state(ham, psi, delta)
        assert np.array_equal(probe.amplitudes, block_probe(ham, psi, delta))
        norm1 = abs(delta) * ham.shifted_norm1(energy(ham, psi.normalized()))
        if delta != 4.0:
            assert norm1 <= THETA
        elif fixture.startswith("h4"):
            assert norm1 > THETA


def _taylor_terms(reference, *args):
    """The Taylor terms of a block-formulation reference run: one block action each."""
    calls = []
    kernel = evolution._taylor_series
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolution, "_taylor_series", lambda matvec, *rest: kernel(_counted(matvec, calls), *rest))
        reference(*args)
    return len(calls)


@pytest.mark.parametrize("size", [0.05, 1.3, 5.9, 15.0])
def test_v_steps_from_a_plus_ancilla_make_one_product_per_term(monkeypatch, size):
    # a register with equal halves needs one sector product per Taylor term
    # where the V-step or unitary factor is one segment; any other needs one
    # per branch
    rng = np.random.default_rng(106)
    ham, factors = _h4_step_factors()
    op, anti = factors["h4_herm"], factors["h4_anti"]
    step, scale = size / op.norm1, size / anti.norm1
    fresh, rotated = _fresh_registers(rng, ham, factors)
    stepped = apply_dilated(fresh, op, 0.01)
    psi = _random_state(rng, ham.basis, complex_valued=True)
    delta = size / ham.shifted_norm1(energy(ham, psi))
    cases = [
        (lambda: apply_dilated(fresh, op, step), _taylor_terms(block_dilated_step, op, fresh, step), 1),
        (lambda: apply_dilated(rotated, op, step), _taylor_terms(block_dilated_step, op, rotated, step), 1),
        (lambda: probe_state(ham, psi, delta), _taylor_terms(block_probe, ham, psi, delta), 1),
        (lambda: apply_dilated(stepped, op, step), _taylor_terms(block_dilated_step, op, stepped, step), 2),
        (lambda: apply_exp_exact(anti, fresh, scale), _taylor_terms(block_exp_dilated, anti, fresh, scale), 1),
        (lambda: apply_exp_exact(anti, rotated, scale), _taylor_terms(block_exp_dilated, anti, rotated, scale), 1),
        (lambda: apply_exp_exact(anti, stepped, scale), _taylor_terms(block_exp_dilated, anti, stepped, scale), 2),
    ]
    products = []
    monkeypatch.setattr(evolution, "_csr_product", _counted(_csr_product, products))
    for run, terms, per_term in cases:
        products.clear()
        run()
        assert len(products) == terms * (per_term if size <= THETA else 2)


def test_returned_states_are_read_only():
    # states formed without the public constructor's copy keep its invariants:
    # complex amplitudes of the register's length, read-only, success in (0, 1]
    rng = np.random.default_rng(105)
    ham, factors = _h4_step_factors()
    op = factors["h4_herm"]
    psi = _random_state(rng, ham.basis, complex_valued=True)
    dilated = prepare_dilated(psi)
    stepped = apply_dilated(dilated, op, 0.3)
    states = [
        psi.normalized(),
        stepped.normalized(),
        apply_exp_exact(op, psi, scale=0.3),
        apply_exp_exact(op, psi, scale=0.3, renormalize=True),
        apply_exp_exact(op, dilated, scale=0.3),
        evolution._FixedStart(op, psi).apply(0.3),
        dilated,
        stepped,
        ancilla_branch(stepped, 0),
        ancilla_branch(stepped, 1),
        reset_ancilla(stepped),
        probe_state(ham, psi, 0.1),
        hf_state(ham),
    ]
    for execution, estimator in (("exact", None), ("dilated", None), ("sampled", EstimatorConfig(shots=500, seed=3))):
        config = CqeConfig(execution=execution, estimator=estimator, max_iterations=3)
        states.append(cqe_run(ham, config).state)
    for state in states:
        amps = state.amplitudes
        assert amps.dtype == complex and amps.shape == (len(ham.basis) * 2**state.n_ancilla,)
        assert 0.0 < state.success_prob <= 1.0
        assert not amps.flags.writeable
        with pytest.raises(ValueError):
            amps[0] = 1.0


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


def test_pair_excitation_matrix_refuses_indices_outside_the_orbitals():
    basis = build_basis(8, 4, 0)
    for element in [(0, 8, 1, 2), (-1, 2, 0, 1), (0, 1, -2, 3), (0, 1, 2, 11)]:
        with pytest.raises(ValueError, match="outside"):
            pair_excitation_matrix(basis, *element)
    # a repeated index is in range and gives the zero matrix
    for element in [(3, 3, 0, 1), (0, 1, 7, 7)]:
        got = pair_excitation_matrix(basis, *element)
        assert got.shape == (len(basis),) * 2 and not got.any()


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
    psi = _random_state(rng, ham.basis, complex_valued=True)
    s = estimate_residual_w(ham, psi, variant="hcse", delta=0.05)
    a = estimate_residual_w(ham, psi, variant="acse", delta=0.05)
    np.testing.assert_array_equal(pair_adjoint(s.coeffs), s.coeffs)
    np.testing.assert_array_equal(pair_adjoint(a.coeffs), -a.coeffs)
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, variant="bogus")
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, delta=0.0)
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, shots=1000)  # no seed
    with pytest.raises(ValueError):
        estimate_residual_w(ham, psi, shots=-5, seed=1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta"):
            estimate_residual_w(ham, psi, delta=bad)


def _two_rdm_oracle(ham, psi, variant, delta):
    """Exact channel means as transition 2-RDMs of the probe's ancilla branches:
    S = (G(top) - G(bottom)) / delta and A = -(G(top, bottom) - G^+) / delta."""
    probe = probe_state(ham, psi, delta)
    top, bottom = ancilla_branch(probe, 0), ancilla_branch(probe, 1)
    s = (compute_2rdm(top).tensor - compute_2rdm(bottom).tensor) / delta
    cross = compute_2rdm(top, bottom).tensor
    a = -(cross - pair_adjoint(cross)) / delta
    return {"hcse": s, "acse": a, "cse": 0.5 * (s + a)}[variant]


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.00"])
@pytest.mark.parametrize("delta", [1e-3, 0.1, -0.07])
@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_exact_estimator_matches_transition_rdm_oracle(fixture, delta, variant):
    rng = np.random.default_rng(87)
    ham = build_hamiltonian(load_fixture(fixture))
    psi = _random_state(rng, ham.basis, complex_valued=True)
    got = estimate_residual_w(ham, psi, variant=variant, delta=delta).coeffs
    ref = _two_rdm_oracle(ham, psi, variant, delta)
    assert np.abs(ref).max() > 1e-3
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


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
    psi = _random_state(rng, ham.basis, complex_valued=True)
    s = estimate_residual_w(ham, psi, variant="hcse", shots=200, seed=3)
    a = estimate_residual_w(ham, psi, variant="acse", shots=200, seed=3)
    np.testing.assert_array_equal(pair_adjoint(s.coeffs), s.coeffs)
    np.testing.assert_array_equal(pair_adjoint(a.coeffs), -a.coeffs)
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


def _measured_elements(basis):
    """The (i, j, k, l) of each element the estimator measures, decoded from its link."""
    ex = evolution._excitations(basis)
    n = basis.n_spin_orbitals
    return np.stack(np.unravel_index(ex.support[ex.upper], (n,) * 4), axis=1)


def _merged_eigh_classes(gamma, part, x, y, value):
    """Oracle: sample-mean outcome classes from a dense eigh of one Hermitian part."""
    herm = (gamma + gamma.conj().T) / 2 if part == 0 else (gamma - gamma.conj().T) / 2j
    evals, evecs = np.linalg.eigh(herm)
    outcomes = np.concatenate([evals, -evals])
    probs = np.concatenate([np.abs(evecs.conj().T @ x) ** 2, np.abs(evecs.conj().T @ y) ** 2])
    classes = [np.isclose(outcomes, v, atol=1e-9) for v in (value, -value, 0.0)]
    stray = probs[~(classes[0] | classes[1] | classes[2])].sum()
    return np.array([probs[c].sum() for c in classes]), stray


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.00"])
def test_outcome_classes_match_eigh_oracle(fixture):
    # the estimator measures the sector's linked canonical elements, the
    # links with pair(ij) <= pair(kl) (``upper``); every other canonical
    # element acts as zero in the sector, so it carries no signal
    rng = np.random.default_rng(85)
    ham = build_hamiltonian(load_fixture(fixture))
    basis = ham.basis
    psi = _random_state(rng, basis, complex_valued=True)
    delta = 0.1
    probe = probe_state(ham, psi, delta)
    top = ancilla_branch(probe, 0).amplitudes
    bottom = ancilla_branch(probe, 1).amplitudes
    channels = {
        "z": (top, bottom),
        "y": ((top - 1j * bottom) / np.sqrt(2.0), (top + 1j * bottom) / np.sqrt(2.0)),
    }
    n = basis.n_spin_orbitals
    elements = _measured_elements(basis)
    measured = set(map(tuple, elements.tolist()))
    for e in canonical_elements(n):
        if e not in measured:
            assert not np.any(pair_excitation_matrix(basis, *e))
    readout = {}
    halves = probe.amplitudes.reshape(2, -1)
    classes = _outcome_classes(basis, halves, np.ones((2, 2), dtype=bool)).reshape(2, 2, -1, 3)
    # 1/2, or 1 on the diagonal elements n_i n_j, those with (i, j) = (k, l)
    value = np.where((elements[:, :2] != elements[:, 2:]).any(axis=1), 0.5, 1.0)
    for (name, (x, y)), probs in zip(channels.items(), classes):
        for e, (i, j, k, l) in enumerate(elements):
            gamma = pair_excitation_matrix(basis, i, j, k, l)
            for part in (0, 1):
                ref, stray = _merged_eigh_classes(gamma, part, x, y, value[e])
                np.testing.assert_allclose(probs[part, e], ref, rtol=0, atol=1e-12)
                assert stray < 1e-12
        # the mean of the channel, sum v (P+ - P-), is its exact expectation
        mean = value * (probs[:, :, 0] - probs[:, :, 1])
        readout[name] = mean[0] + 1j * mean[1]
    s_exact = estimate_residual_w(ham, psi, variant="hcse", delta=delta).coeffs
    a_exact = estimate_residual_w(ham, psi, variant="acse", delta=delta).coeffs
    i, j, k, l = elements.T
    assert np.abs(readout["z"].imag).max() > 1e-6  # the complex state reaches Im g
    np.testing.assert_allclose(readout["z"] / delta, s_exact[i, j, k, l], rtol=0, atol=1e-12)
    np.testing.assert_allclose(-1j * readout["y"] / delta, a_exact[i, j, k, l], rtol=0, atol=1e-12)


ESTIMATOR_SETTINGS = (
    {"delta": 1e-3}, {"delta": -0.07}, {"shots": 500, "seed": 3}, {"shots": 16000, "seed": 3}
)


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.00"])
@pytest.mark.parametrize("state", ["hf", "complex"])
@pytest.mark.parametrize("variant", ["cse", "hcse", "acse"])
def test_estimate_links_are_the_link_entries_of_the_estimate(fixture, state, variant):
    # the solver's sampled branch reads the link vector itself; it must hold
    # the bits of the n^4 estimate at the sector's links (the sign of an
    # exact zero aside), exact and shot mode alike
    ham = build_hamiltonian(load_fixture(fixture))
    rng = np.random.default_rng(91)
    psi = hf_state(ham) if state == "hf" else _random_state(rng, ham.basis, complex_valued=True)
    support = evolution._excitations(ham.basis).support
    for kwargs in ESTIMATOR_SETTINGS:
        config = EstimatorConfig(**kwargs)
        delta, shots, seed = config.probe_delta, config.shots, config.seed
        normalized = psi.normalized()
        e = energy(ham, normalized)
        links = evolution._estimate_links(ham, normalized, e, variant, delta, shots, seed)
        tensor = estimate_residual_w(ham, psi, variant=variant, **kwargs).coeffs
        assert (links + 0.0).tobytes() == (tensor.ravel()[support] + 0.0).tobytes()


def test_one_multinomial_call_draws_as_one_call_per_channel():
    # the estimate draws the Z rows and then the Y rows in one multinomial
    # call: the stream of one call per channel, so same-seed draws stay as they were
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(np.random.default_rng(92), ham.basis, complex_valued=True)
    delta, shots, seed = 0.1, 2000, 7
    halves = probe_state(ham, psi, delta).amplitudes.reshape(2, -1)
    classes = _outcome_classes(ham.basis, halves, np.ones((2, 2), dtype=bool)).reshape(2, 2, -1, 3)
    elements = _measured_elements(ham.basis)
    i, j, k, l = elements.T
    off = (i != k) | (j != l)  # a diagonal element's Im part takes no draw
    drawn = np.stack([np.ones_like(off), off])
    value = np.where(off, 0.5, 1.0)
    # the pattern's tables mark the same diagonal and read the adjoint columns
    ex = evolution._excitations(ham.basis)
    assert np.array_equal(ex.diagonal, ~off) and np.array_equal(ex.column, ex.adjoint[ex.upper])
    rng = np.random.default_rng(seed)
    readout = []
    for probs in classes:
        rows = np.clip(probs[drawn], 0.0, None)
        counts = rng.multinomial(shots, rows / rows.sum(axis=1, keepdims=True))
        mean = np.zeros(drawn.shape)
        mean[drawn] = (counts[:, 0] - counts[:, 1]) / shots
        readout.append(value * (mean[0] + 1j * mean[1]))
    s, a = readout[0] / delta, -1j * readout[1] / delta
    est = estimate_residual_w(ham, psi, variant="cse", delta=delta, shots=shots, seed=seed).coeffs
    i, j, k, l = elements[off].T  # R = (S + A) / 2 at each measured off-diagonal element
    assert np.abs(a[off]).max() > 0 and np.abs(s[off]).max() > 0
    np.testing.assert_array_equal(est[i, j, k, l], (0.5 * (s + a))[off])


def _four_part_readouts(ham, psi, delta):
    """Oracle: the Z and Y readouts of the measured elements with all four
    parts, Re and Im of each channel, from dense pair excitation matrices.
    An element's mean v (P+ - P-) is g(x) - g(y) with g(x) = <x|G|x>: off the
    diagonal v = 1/2 and P+ - P- = 2 (g(x) - g(y)), and on it v = 1 and
    P+ - P- = m(x) - m(y), where m = g."""
    probe = probe_state(ham, psi, delta)
    top, bottom = ancilla_branch(probe, 0).amplitudes, ancilla_branch(probe, 1).amplitudes
    channels = {
        "z": (top, bottom),
        "y": ((top - 1j * bottom) / np.sqrt(2.0), (top + 1j * bottom) / np.sqrt(2.0)),
    }
    elements = _measured_elements(ham.basis)
    readout = {name: np.zeros(len(elements), dtype=complex) for name in channels}
    for e, (i, j, k, l) in enumerate(elements):
        gamma = pair_excitation_matrix(ham.basis, i, j, k, l)
        for name, (x, y) in channels.items():
            readout[name][e] = np.vdot(x, gamma @ x) - np.vdot(y, gamma @ y)
    return elements, readout


@pytest.mark.parametrize("fixture", ["h2_d0.74", "h4_d1.00", "h4_d2.00"])
@pytest.mark.parametrize("state", ["hf", "real"])
def test_real_states_measure_only_re_z_and_im_y(fixture, state):
    # for a real H and a real psi the Im Z and Re Y parts have zero mean;
    # the estimate equals the four-part readout with those parts zeroed,
    # and is exactly real
    ham = build_hamiltonian(load_fixture(fixture))
    psi = hf_state(ham) if state == "hf" else _random_state(np.random.default_rng(93), ham.basis)
    for delta in (1e-3, -0.07):
        elements, readout = _four_part_readouts(ham, psi, delta)
        assert np.all(readout["z"].imag == 0.0) and np.all(readout["y"].real == 0.0)
        s, a = readout["z"].real / delta, readout["y"].imag / delta
        assert np.abs(s).max() > 1e-3 and np.abs(a).max() > 1e-3
        i, j, k, l = elements.T
        for variant, at_element, at_adjoint in (
            ("cse", 0.5 * (s + a), 0.5 * (s - a)), ("hcse", s, s), ("acse", a, -a)
        ):
            est = estimate_residual_w(ham, psi, variant=variant, delta=delta).coeffs
            assert not est.imag.any()
            np.testing.assert_allclose(est[i, j, k, l], at_element, rtol=0, atol=1e-12)
            np.testing.assert_allclose(est[k, l, i, j], at_adjoint, rtol=0, atol=1e-12)


def test_complex_states_draw_all_four_parts(multinomial_rows):
    # a complex state reaches every part: each draws its shots, and every
    # part's 3-sigma coverage over 10 seeds holds as criterion 6 forms it,
    # with single-shot variances from the dense eigh classes
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    basis = ham.basis
    psi = _random_state(np.random.default_rng(94), basis, complex_valued=True)
    delta, shots = 0.1, 16000
    probe = probe_state(ham, psi, delta)
    top, bottom = ancilla_branch(probe, 0).amplitudes, ancilla_branch(probe, 1).amplitudes
    channels = ((top, bottom), ((top - 1j * bottom) / np.sqrt(2.0), (top + 1j * bottom) / np.sqrt(2.0)))
    elements = _measured_elements(basis)
    # 1/2, or 1 on the diagonal elements n_i n_j, those with (i, j) = (k, l)
    value = np.where((elements[:, :2] != elements[:, 2:]).any(axis=1), 0.5, 1.0)
    var = np.zeros((2, 2, len(elements)))  # (channel Z/Y, part Re/Im, element)
    for e, (i, j, k, l) in enumerate(elements):
        gamma = pair_excitation_matrix(basis, i, j, k, l)
        for c, (x, y) in enumerate(channels):
            for part in (0, 1):
                (plus, minus, _), _ = _merged_eigh_classes(gamma, part, x, y, value[e])
                var[c, part, e] = value[e] ** 2 * (plus + minus) - (value[e] * (plus - minus)) ** 2
    sigma = np.sqrt(var / shots) / delta
    i, j, k, l = elements.T
    off = (i != k) | (j != l)

    def split(r):  # S and A at each element from R = (S + A) / 2 and R at its pair adjoint
        at_adjoint = np.conj(r[k, l, i, j])
        return r[i, j, k, l] + at_adjoint, r[i, j, k, l] - at_adjoint

    s_exact, a_exact = split(estimate_residual_w(ham, psi, variant="cse", delta=delta).coeffs)
    within = {name: [] for name in ("re z", "im z", "re y", "im y")}
    for seed in range(10):
        s, a = split(estimate_residual_w(ham, psi, variant="cse", delta=delta, shots=shots, seed=seed).coeffs)
        err_s, err_a = s - s_exact, a - a_exact
        # Re(A) comes from the Im part of the Y channel and Im(A) from its Re part
        within["re z"].append(np.abs(err_s.real) <= 3.0 * sigma[0, 0] + 1e-12)
        within["im z"].append((np.abs(err_s.imag) <= 3.0 * sigma[0, 1] + 1e-12)[off])
        within["re y"].append(np.abs(err_a.imag) <= 3.0 * sigma[1, 0] + 1e-12)
        within["im y"].append((np.abs(err_a.real) <= 3.0 * sigma[1, 1] + 1e-12)[off])
    assert multinomial_rows == [656] * 10
    assert (sigma[:, :, off] > 1e-3).all()
    for name, checks in within.items():
        assert np.mean(checks) >= 0.99, name


def test_probe_delta_defaults_by_mode():
    assert EstimatorConfig().probe_delta == evolution.DELTA_EXACT_DEFAULT
    assert EstimatorConfig(shots=10, seed=1).probe_delta == evolution.DELTA_SHOT_DEFAULT
    assert EstimatorConfig(delta=-0.07, shots=10, seed=1).probe_delta == -0.07


def test_shot_mode_forms_no_eigenbasis(monkeypatch):
    rng = np.random.default_rng(86)
    ham = build_hamiltonian(load_fixture("h4_d1.00"))
    psi = _random_state(rng, ham.basis, complex_valued=True)

    def forbidden(*args, **kwargs):
        raise AssertionError("the shot path must not form an eigenbasis")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(evolution, "pair_excitation_matrix", forbidden)
    est = estimate_residual_w(ham, psi, variant="cse", shots=1000, seed=4)
    assert np.all(np.isfinite(est.coeffs)) and np.abs(est.coeffs).max() > 0


def test_config_dataclasses_have_expected_defaults():
    cfg = EstimatorConfig()
    assert cfg.delta is None and cfg.shots is None
    policy = DilationPolicy()
    assert policy.epsilon == pytest.approx(0.5)
    assert policy.reset_mode == "wolfe"
    assert policy.max_steps_between_resets == 10
    with pytest.raises(ValueError):
        DilationPolicy(reset_mode="sometimes")
    with pytest.raises(ValueError):
        DilationPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        DilationPolicy(max_steps_between_resets=0)
    with pytest.raises(ValueError):
        DilationPolicy(max_steps_between_resets=2.5)
    with pytest.raises(ValueError):
        DilationPolicy(max_steps_between_resets=True)


@pytest.mark.parametrize(
    "kwargs",
    [{"shots": 0, "seed": 1}, {"shots": -3, "seed": 1}, {"delta": 0.0},
     {"delta": float("nan")}, {"delta": float("inf")}, {"shots": 100},
     {"shots": 100.5, "seed": 1}, {"shots": 100, "seed": 1.5}, {"shots": 100, "seed": -1},
     {"shots": True, "seed": 1}, {"shots": 5, "seed": True}, {"shots": 2**63, "seed": 1}],
)
def test_estimator_config_rejects_bad_values_at_construction(kwargs):
    with pytest.raises(ValueError):
        EstimatorConfig(**kwargs)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_dilation_policy_rejects_nonfinite_epsilon(value):
    with pytest.raises(ValueError, match="finite"):
        DilationPolicy(epsilon=value)
