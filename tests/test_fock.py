"""Bitmask fermion algebra vs. a dense Jordan-Wigner oracle."""

import importlib.machinery
import importlib.util
import re
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from cqesim import fock
from cqesim.fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    build_basis,
    _excitations,
    _link_norm,
    _link_operator,
    _link_tensor,
    hermitian_part,
    one_body_to_operator,
    pair_adjoint,
    two_body_to_operator,
)
from cqesim.evolution import canonical_elements
from cqesim.hamiltonian import build_hamiltonian, load_fixture

import _jw_dense as jw
from _oracles import ANNIHILATE, CREATE, apply_string


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------


def test_build_basis_two_spatial_orbitals_singlet():
    basis = build_basis(4, 2, 0)
    # alpha on bits {0, 2}, beta on bits {1, 3}; sorted by bitmask value.
    assert basis.determinants == (0b0011, 0b0110, 0b1001, 0b1100)
    assert len(basis) == 4
    assert basis.index_of(0b0110) == 1
    assert 0b1001 in basis and 0b0101 not in basis


def test_build_basis_sizes():
    assert len(build_basis(8, 4, 0)) == 36      # C(4,2)^2
    assert len(build_basis(8, 4, 2)) == 16      # C(4,3)*C(4,1)
    assert len(build_basis(8, 2, 0)) == 16
    assert len(build_basis(6, 3, 1)) == 9
    assert len(build_basis(4, 0, 0)) == 1


def test_build_basis_rejects_bad_sectors():
    with pytest.raises(ValueError):
        build_basis(5, 2, 0)          # odd orbital count
    with pytest.raises(ValueError):
        build_basis(4, 3, 0)          # N and 2Sz of different parity
    with pytest.raises(ValueError):
        build_basis(4, 2, 6)          # more alpha electrons than orbitals
    with pytest.raises(ValueError):
        build_basis(4, 6, 0)          # more electrons than spin orbitals


def test_basis_is_sorted_and_in_sector():
    basis = build_basis(8, 4, 0)
    dets = basis.determinants
    assert list(dets) == sorted(dets)
    for det in dets:
        assert bin(det).count("1") == 4
        n_alpha = bin(det & 0x55).count("1")
        n_beta = bin(det & 0xAA).count("1")
        assert n_alpha - n_beta == 0


# ---------------------------------------------------------------------------
# Operator strings on determinants: the brute-force oracle of tests/_oracles.py
# ---------------------------------------------------------------------------


def test_apply_string_frozen_examples():
    # a_0 on |0101>: no occupied orbitals below 0.
    assert apply_string(0b0101, [(ANNIHILATE, 0)]) == (0b0100, +1)
    # a_2 on |0101>: orbital 0 occupied below 2 -> odd parity.
    assert apply_string(0b0101, [(ANNIHILATE, 2)]) == (0b0001, -1)
    # a+_1 a_0 on |0101>: a_0 gives +|0100>, then a+_1 sees nothing below 1.
    assert apply_string(0b0101, [(CREATE, 1), (ANNIHILATE, 0)]) == (0b0110, +1)
    # a+_3 a_0 on |0101>: after a_0, orbital 2 is occupied below 3.
    assert apply_string(0b0101, [(CREATE, 3), (ANNIHILATE, 0)]) == (0b1100, -1)


def test_apply_string_vanishing_cases():
    assert apply_string(0b0101, [(ANNIHILATE, 1)]) is None
    assert apply_string(0b0101, [(CREATE, 0)]) is None
    assert apply_string(0b0101, [(CREATE, 1), (ANNIHILATE, 1)]) is None


def test_apply_string_rejects_garbage():
    with pytest.raises(ValueError):
        apply_string(0b01, [("destroy", 0)])
    with pytest.raises(ValueError):
        apply_string(0b01, [(ANNIHILATE, -1)])


def test_apply_string_number_operator_identity():
    # a+_p a_p acts as the occupation number with sign +1.
    for det in (0b0101, 0b1111, 0b1010):
        for p in range(4):
            got = apply_string(det, [(CREATE, p), (ANNIHILATE, p)])
            if det & (1 << p):
                assert got == (det, +1)
            else:
                assert got is None


def test_apply_string_matches_jordan_wigner():
    rng = np.random.default_rng(7)
    n = 6
    for _ in range(200):
        det = int(rng.integers(0, 2 ** n))
        length = int(rng.integers(1, 5))
        ops = [
            (CREATE if rng.integers(2) else ANNIHILATE, int(rng.integers(n)))
            for _ in range(length)
        ]
        mat = jw.string_matrix(n, ops)
        column = mat[:, det]
        got = apply_string(det, ops)
        if got is None:
            assert not column.any()
        else:
            new_det, sign = got
            expected = np.zeros(2 ** n)
            expected[new_det] = sign
            np.testing.assert_array_equal(column, expected)


# ---------------------------------------------------------------------------
# Tensor index algebra
# ---------------------------------------------------------------------------


def _random_antisym(rng, n, density=0.2, hermitian=False, complex_valued=True):
    raw = rng.normal(size=(n, n, n, n))
    if complex_valued:
        raw = raw + 1j * rng.normal(size=(n, n, n, n))
    raw *= rng.random(size=raw.shape) < density
    t = antisymmetrize(raw)
    if hermitian:
        t = hermitian_part(t)
    return t


def test_antisymmetrize_is_projection():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
    t = antisymmetrize(raw)
    np.testing.assert_allclose(antisymmetrize(t), t, atol=1e-14)
    np.testing.assert_allclose(t, -t.transpose(1, 0, 2, 3), atol=1e-14)
    np.testing.assert_allclose(t, -t.transpose(0, 1, 3, 2), atol=1e-14)


def test_antisymmetrize_preserves_operator():
    rng = np.random.default_rng(1)
    n = 4
    raw = rng.normal(size=(n, n, n, n))
    raw *= rng.random(size=raw.shape) < 0.1
    direct = jw.two_body_matrix(n, raw)
    projected = jw.two_body_matrix(n, antisymmetrize(raw))
    np.testing.assert_allclose(direct, projected, atol=1e-12)


def test_pair_adjoint_involution_and_parts():
    rng = np.random.default_rng(2)
    t = _random_antisym(rng, 4)
    np.testing.assert_allclose(pair_adjoint(pair_adjoint(t)), t, atol=1e-14)
    h = hermitian_part(t)
    a = 0.5 * (t - pair_adjoint(t))
    np.testing.assert_allclose(h + a, t, atol=1e-14)
    np.testing.assert_allclose(pair_adjoint(h), h, atol=1e-14)
    np.testing.assert_allclose(pair_adjoint(a), -a, atol=1e-14)


def test_pair_matrix_and_norm():
    # the (ij),(kl) pair matrix of T is its C-order reshape to (n^2, n^2)
    rng = np.random.default_rng(3)
    t = _random_antisym(rng, 4)
    m = t.reshape(16, 16)
    assert m.shape == (16, 16)
    assert m[1 * 4 + 2, 3 * 4 + 0] == t[1, 2, 3, 0]
    assert TwoBodyTensor(4, t).norm() == pytest.approx(np.linalg.norm(m))
    # Pair adjoint is the conjugate transpose in the matrix view.
    np.testing.assert_allclose(pair_adjoint(t).reshape(16, 16), m.conj().T, atol=1e-14)


def test_two_body_tensor_validates_antisymmetry():
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 1, 2, 3] = 1.0  # missing the -1 partners
    with pytest.raises(ValueError):
        TwoBodyTensor(4, bad)
    good = antisymmetrize(bad)
    for n, coeffs in ((4, good), (0, np.zeros((0, 0, 0, 0)))):  # an empty tensor is accepted too
        t = TwoBodyTensor(n, coeffs)
        assert t.norm() == pytest.approx(np.linalg.norm(coeffs))
        np.testing.assert_array_equal(t.coeffs, coeffs)
        assert t.coeffs.dtype == complex and not t.coeffs.flags.writeable


# ---------------------------------------------------------------------------
# Two-body operator assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, n_elec, sz",
    # the last four sectors have empty and near-full excitation patterns
    [(4, 2, 0), (6, 2, 0), (6, 3, 1), (8, 4, 0), (4, 1, 1), (4, 0, 0), (6, 5, 1), (6, 6, 0)],
)
def test_two_body_to_operator_matches_jordan_wigner(n, n_elec, sz):
    rng = np.random.default_rng(n * 100 + n_elec * 10 + sz)
    basis = build_basis(n, n_elec, sz)
    t = _random_antisym(rng, n, density=0.05)
    op = two_body_to_operator(TwoBodyTensor(n, t), basis)
    dense = jw.project(basis, jw.two_body_matrix(n, t))
    np.testing.assert_allclose(op.dense(), dense, atol=1e-12)


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 3, 1), (8, 4, 0)])
def test_one_body_to_operator_matches_jordan_wigner(n, n_elec, sz):
    rng = np.random.default_rng(n * 100 + n_elec * 10 + sz + 1)
    basis = build_basis(n, n_elec, sz)
    # complex Hermitian, spin-flip entries included: they leave the sector
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    op = one_body_to_operator(h, basis)
    dense = jw.project(basis, jw.one_body_matrix(n, h))
    np.testing.assert_allclose(op.dense(), dense, atol=1e-12)


def test_one_body_to_operator_needs_two_electrons():
    # assembled through the pair identity sum_l a+_k a+_l a_l a_i = (N - 1) a+_k a_i
    with pytest.raises(ValueError):
        one_body_to_operator(np.eye(4), build_basis(4, 1, 1))
    with pytest.raises(ValueError):
        one_body_to_operator(np.eye(4), build_basis(4, 0, 0))


def test_two_body_to_operator_hermitian_and_adjoint():
    rng = np.random.default_rng(11)
    basis = build_basis(6, 2, 0)
    t = _random_antisym(rng, 6, density=0.1)
    op = two_body_to_operator(TwoBodyTensor(6, t), basis)
    op_adj = two_body_to_operator(TwoBodyTensor(6, pair_adjoint(t)), basis)
    np.testing.assert_allclose(op_adj.dense(), op.dense().conj().T, atol=1e-12)
    herm = two_body_to_operator(TwoBodyTensor(6, hermitian_part(t)), basis)
    assert herm.is_hermitian()
    anti = two_body_to_operator(TwoBodyTensor(6, 0.5 * (t - pair_adjoint(t))), basis)
    np.testing.assert_allclose(anti.dense(), -anti.dense().conj().T, atol=1e-12)


def test_two_body_to_operator_rejects_mismatched_sizes():
    basis = build_basis(4, 2, 0)
    t = TwoBodyTensor(6, np.zeros((6, 6, 6, 6)))
    with pytest.raises(ValueError):
        two_body_to_operator(t, basis)


# ---------------------------------------------------------------------------
# Link coordinates
# ---------------------------------------------------------------------------


def _canonical(n):
    return [(i, j, k, l) for i in range(n) for j in range(i + 1, n)
            for k in range(n) for l in range(k + 1, n)]


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 2, 0), (6, 3, 1), (6, 5, 1), (4, 1, 1)])
def test_links_are_the_canonical_elements_acting_in_the_sector(n, n_elec, sz):
    # the oracle: a canonical element is a link iff its Jordan-Wigner matrix has a sector block
    basis = build_basis(n, n_elec, sz)
    acting = []
    for e in _canonical(n):
        unit = np.zeros((n,) * 4)
        unit[e] = 1.0
        if np.any(jw.project(basis, jw.two_body_matrix(n, unit))):
            acting.append(np.ravel_multi_index(e, (n,) * 4))
    np.testing.assert_array_equal(_excitations(basis).support, acting)


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 3, 1), (8, 4, 0), (8, 4, 2), (6, 6, 0), (4, 1, 1)])
def test_link_adjoint_is_an_involution_on_the_support(n, n_elec, sz):
    ex = _excitations(build_basis(n, n_elec, sz))
    i, j, k, l = np.unravel_index(ex.support, (n,) * 4)
    assert np.all(i < j) and np.all(k < l)
    np.testing.assert_array_equal(ex.support[ex.adjoint], np.ravel_multi_index((k, l, i, j), (n,) * 4))
    np.testing.assert_array_equal(ex.adjoint[ex.adjoint], np.arange(len(ex.support)))
    links = np.arange(len(ex.support)) * (1.0 + 2.0j)
    np.testing.assert_array_equal(ex.pair_adjoint(ex.pair_adjoint(links)), links)
    # the estimator's measured links are the linked canonical elements, in
    # the order of canonical_elements, which fixes the order of its draws
    linked = set(ex.support.tolist())
    upper = np.unravel_index(ex.support[ex.upper], (n,) * 4)
    assert list(zip(*(axis.tolist() for axis in upper))) == [
        e for e in canonical_elements(n) if np.ravel_multi_index(e, (n,) * 4) in linked
    ]


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 2, 0), (6, 3, 1)])
def test_two_body_to_operator_drops_unlinked_elements(n, n_elec, sz):
    rng = np.random.default_rng(n * 10 + n_elec + sz)
    basis = build_basis(n, n_elec, sz)
    support = _excitations(basis).support
    t = _random_antisym(rng, n, density=0.3)
    linked = _link_tensor(basis, t.ravel()[support])
    unlinked = t - linked
    assert np.abs(unlinked).max() > 0.1
    np.testing.assert_allclose(jw.project(basis, jw.two_body_matrix(n, unlinked)), 0.0, atol=1e-12)
    assert two_body_to_operator(TwoBodyTensor(n, unlinked), basis).matrix.count_nonzero() == 0
    op = two_body_to_operator(TwoBodyTensor(n, t), basis)
    np.testing.assert_allclose(op.dense(), jw.project(basis, jw.two_body_matrix(n, t)), atol=1e-12)
    np.testing.assert_array_equal(op.dense(), _link_operator(t.ravel()[support], basis).dense())


@pytest.mark.parametrize("n, n_elec, sz", [(4, 2, 0), (6, 3, 1), (8, 4, 0)])
def test_link_products_are_a_quarter_of_the_frobenius_products(n, n_elec, sz):
    rng = np.random.default_rng(n + 7 * n_elec + sz)
    basis = build_basis(n, n_elec, sz)
    support = _excitations(basis).support
    a, b = (_link_tensor(basis, _random_antisym(rng, n, density=1.0).ravel()[support]) for _ in range(2))
    a_links, b_links = a.ravel()[support], b.ravel()[support]
    assert 4.0 * np.vdot(a_links, b_links) == pytest.approx(np.vdot(a, b), rel=1e-13)
    assert _link_norm(a_links) == pytest.approx(np.linalg.norm(a), rel=1e-13)


# ---------------------------------------------------------------------------
# State vectors
# ---------------------------------------------------------------------------


def test_state_vector_normalization_and_inner():
    basis = build_basis(4, 2, 0)
    psi = StateVector(basis, np.array([3.0, 0.0, 4.0, 0.0]))
    assert psi.norm() == pytest.approx(5.0)
    unit = psi.normalized()
    assert unit.norm() == pytest.approx(1.0)
    assert unit.success_prob == 1.0
    phi = StateVector(basis, np.array([1.0, 0.0, 0.0, 0.0]))
    assert unit.inner(phi) == pytest.approx(0.6)


def test_state_vector_validation():
    basis = build_basis(4, 2, 0)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(3))
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(4), n_ancilla=2)
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(4), success_prob=0.0)
    psi = StateVector(basis, np.ones(4))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0


# ---------------------------------------------------------------------------
# CSR arrays, the sparsetools extension and the scipy view
# ---------------------------------------------------------------------------


def _skewed_h4():
    """The H4 Hamiltonian plus a random complex sparse part, off its structure too."""
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    dim = len(ham.basis)
    skew = sp.random(dim, dim, density=0.05, random_state=np.random.default_rng(41), format="csr")
    return ham, SparseOperator(ham.basis, ham.matrix + (1e-3 - 2e-3j) * skew)


def test_operator_reads_equal_scipy_ones():
    # the Hermiticity deviation, diagonal and dense form are read off the
    # CSR arrays, bit for bit as scipy reads the matrix given, on a Hermitian
    # and on a skewed operator, on one given with every entry stored twice
    # (the operator sums them, scipy keeps them and sums them on reading) and
    # on one with rows that store no diagonal
    ham, skewed = _skewed_h4()
    assert ham.is_hermitian() and not skewed.is_hermitian(1e-4)
    base = skewed.matrix
    twice = np.repeat(np.arange(base.nnz), 2)  # each entry stored twice, split 0.3 and 0.7 - 0.1i
    parts = base.data[twice] * np.tile([0.3, 0.7 - 0.1j], base.nnz)
    doubled = sp.csr_matrix((parts, base.indices[twice], 2 * base.indptr), shape=base.shape)
    assert not doubled.has_canonical_format and doubled.nnz == 2 * base.nnz
    rows = np.repeat(np.arange(base.shape[0]), np.diff(base.indptr))
    on = rows == base.indices
    keep = ~on | (rows % 3 != 0)  # rows 0, 3, 6, ... lose their stored diagonal entry
    indptr = np.searchsorted(rows[keep], np.arange(base.shape[0] + 1))
    holed = sp.csr_matrix((base.data[keep], base.indices[keep], indptr), shape=base.shape)
    assert on.sum() == base.shape[0] and holed.nnz == base.nnz - len(range(0, base.shape[0], 3))
    given = [(ham, ham.matrix), (skewed, skewed.matrix)]
    for op, m in given + [(SparseOperator(ham.basis, m), m) for m in (doubled, holed)]:
        assert op._deviation == fock._hermitian_deviation(op.csr) == abs(m - m.getH()).max()
        assert np.array_equal(op.diagonal, m.diagonal()) and not op.diagonal.flags.writeable
        assert np.array_equal(op.dense(), m.toarray())


def test_entries_stored_twice_are_summed_on_a_copy():
    # H4 with every entry stored as a 1.5 and a -0.5 part: the 1-norms read
    # the summed entries, not |1.5 a| + |0.5 a|, and the caller's arrays stay
    # as given, also where scipy's cast of real data to complex shares the
    # structure arrays
    ham = build_hamiltonian(load_fixture("h4_d1.40"))
    m = ham.csr
    twice = np.repeat(np.arange(len(m.data)), 2)
    parts = m.data[twice] * np.tile([1.5, -0.5], len(m.data))
    names = ("data", "indices", "indptr")
    for data in (parts, parts.real):
        split = sp.csr_matrix((data, m.indices[twice], 2 * m.indptr), shape=m.shape)
        given = [getattr(split, name).tobytes() for name in names]
        op = SparseOperator(ham.basis, split)
        dense = split.toarray()
        assert op.norm1 == pytest.approx(np.abs(dense).sum(axis=0).max(), rel=1e-14)
        shifted = np.abs(dense + np.eye(len(dense))).sum(axis=0).max()
        assert op.shifted_norm1(-1.0) == pytest.approx(shifted, rel=1e-14)
        assert [getattr(split, name).tobytes() for name in names] == given
        assert not split.has_canonical_format and op.matrix.has_canonical_format


def test_matrix_is_a_scipy_view_of_the_operator_arrays():
    ham, skewed = _skewed_h4()
    links = np.random.default_rng(42).normal(size=len(_excitations(ham.basis).support)) + 0j
    for op in (ham, skewed, _link_operator(links, ham.basis)):
        m = op.matrix
        assert type(m) is sp.csr_matrix and m.dtype == complex and op.matrix is m
        for name in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(m, name), getattr(op.csr, name))
    given = ham.matrix.copy()
    assert SparseOperator(ham.basis, given).matrix is given
    # a dense matrix converts to the arrays that scipy forms, zeros left out
    dense = skewed.dense()
    got, want = SparseOperator(ham.basis, dense).csr, sp.csr_matrix(dense)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_sparsetools_is_loaded_by_itself(tmp_path, monkeypatch):
    # the one extension module that both the package and scipy.sparse use
    from scipy.sparse import _sparsetools

    assert fock._sparsetools is _sparsetools is sys.modules["scipy.sparse._sparsetools"]
    # an installed scipy without the compiled file: the error names where it looked
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse" / "_sparsetools"))):
        fock._load_sparsetools()
