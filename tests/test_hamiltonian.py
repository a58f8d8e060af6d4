"""FCIDUMP I/O, Hamiltonian assembly, and the reduced two-body form."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from cqesim import fock, models
from cqesim.fock import TwoBodyTensor, build_basis, two_body_to_operator
from cqesim.hamiltonian import (
    FIXTURE_DIR_ENV,
    IntegralSet,
    build_hamiltonian,
    list_fixtures,
    load_fixture,
    parse_fcidump,
    reduced_hamiltonian_K,
    write_fcidump,
)

import _jw_dense as jw


def _random_integrals(rng, n, core=0.3):
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    eri = rng.normal(size=(n, n, n, n))
    acc = np.zeros_like(eri)
    for perm in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)):
        acc += eri.transpose(perm)
    return IntegralSet(n, 2, 0, core, h, acc / 8.0)


def _dense_reference(integrals):
    """Full-space Hamiltonian built directly from the definition via the oracle."""
    n = integrals.n_orbitals
    m = 2 * n
    dim = 2 ** m
    h_so = np.zeros((m, m))
    for p in range(n):
        for q in range(n):
            for s in (0, 1):
                h_so[2 * p + s, 2 * q + s] = integrals.h[p, q]
    out = integrals.core * np.eye(dim) + jw.one_body_matrix(m, h_so)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = integrals.eri[p, q, r, s]
                    if v == 0.0:
                        continue
                    for sig in (0, 1):
                        for tau in (0, 1):
                            term = (
                                jw.creator(m, 2 * p + sig)
                                @ jw.creator(m, 2 * r + tau)
                                @ jw.annihilator(m, 2 * s + tau)
                                @ jw.annihilator(m, 2 * q + sig)
                            )
                            out += 0.5 * v * term
    return out


# ---------------------------------------------------------------------------
# FCIDUMP parsing and the canonical writer
# ---------------------------------------------------------------------------


def test_fixture_files_round_trip_exactly():
    names = list_fixtures()
    assert len(names) == 15
    for name in names:
        integrals = load_fixture(name)
        text = write_fcidump(integrals)
        assert write_fcidump(parse_fcidump(text)) == text


def test_parser_handles_header_variants():
    body = "  0.5000000000000000E+00    1    1    1    1\n" \
           " -0.2000000000000000E+01    1    1    0    0\n" \
           "  0.7000000000000000E+00    0    0    0    0\n"
    canonical = "&FCI NORB=1,NELEC=2,MS2=0,\n ORBSYM=1,\n ISYM=1,\n&END\n" + body
    slash = "&FCI NORB=1,NELEC=2,ORBSYM=1,\n /\n" + body
    a = parse_fcidump(canonical)
    b = parse_fcidump(slash)
    assert a.n_orbitals == b.n_orbitals == 1
    assert a.ms2 == b.ms2 == 0
    assert a.core == b.core == 0.7
    assert a.h[0, 0] == -2.0
    assert a.eri[0, 0, 0, 0] == 0.5
    np.testing.assert_array_equal(a.h, b.h)


def test_parser_ignores_orbital_energy_records():
    text = "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n" + \
           "  1.0000000000000000E+00    1    1    1    1\n" + \
           " -0.5000000000000000E+00    1    0    0    0\n" + \
           "  0.0000000000000000E+00    0    0    0    0\n"
    integrals = parse_fcidump(text)
    assert integrals.h[0, 0] == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        "NORB=2 missing header\n",
        "&FCI NELEC=2,MS2=0,&END\n 0.0 0 0 0 0\n",
        "&FCI NORB=1,NELEC=2,MS2=0,&END\n 1.0 1 1 1\n",
        "&FCI NORB=1,NELEC=2,MS2=0,&END\n 1.0 3 1 1 1\n",
        "&FCI NORB=1,NELEC=2,MS2=0,&END\n 1.0 1 1 1 0\n",
        # a one-body record with a zero first index, which would wrap to the last orbital
        "&FCI NORB=2,NELEC=2,MS2=0,&END\n 0.5 0 2 0 0\n",
        "&FCI NORB=1,NELEC=2,MS2=0,\n 1.0 1 1 1 1\n",  # neither &END nor /
        "&FCI NORB=0,NELEC=2,MS2=0,&END\n",
    ],
)
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_fcidump(bad)


@pytest.mark.parametrize(
    "record, part",
    [("nan 1 1 0 0", "h"), ("nan 1 1 1 1", "eri"), ("inf 1 1 1 1", "eri"), ("inf 0 0 0 0", "core")],
)
def test_parser_rejects_non_finite_integrals(record, part):
    # the record overrides the fixture's value at its indices; a NaN or inf
    # passes the symmetry checks, so only the finiteness check can name it
    text = write_fcidump(load_fixture("h2_d0.74")) + record + "\n"
    with pytest.raises(ValueError, match=f"^non-finite integral in {part}$"):
        parse_fcidump(text)


def test_writer_is_deterministic_and_sparse():
    rng = np.random.default_rng(31)
    integrals = _random_integrals(rng, 3)
    text = write_fcidump(integrals)
    assert text == write_fcidump(integrals)
    # Zero entries are skipped; the core line is always present.
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    sparse = IntegralSet(2, 2, 0, 0.0, h, np.zeros((2, 2, 2, 2)))
    lines = write_fcidump(sparse).strip().splitlines()
    assert lines[-1].split()[1:] == ["0", "0", "0", "0"]
    assert len(lines) == 4 + 1 + 1  # header, one h record, core


def test_integral_set_validation():
    with pytest.raises(ValueError):
        IntegralSet(2, 2, 0, 0.0, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4))
    bad_eri = np.zeros((2, 2, 2, 2))
    bad_eri[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError):
        IntegralSet(2, 2, 0, 0.0, np.zeros((2, 2)), bad_eri)
    with pytest.raises(ValueError):
        IntegralSet(2, 2, 0, 0.0, np.zeros((2, 2)), np.zeros((2,) * 4), orbsym=(1,))
    with pytest.raises(ValueError, match="non-finite integral in core"):
        IntegralSet(2, 2, 0, float("-inf"), np.zeros((2, 2)), np.zeros((2,) * 4))
    with pytest.raises(ValueError, match="h shape"):
        IntegralSet(2, 2, 0, 0.0, np.zeros((3, 3)), np.zeros((2,) * 4))
    with pytest.raises(ValueError, match="eri shape"):
        IntegralSet(2, 2, 0, 0.0, np.zeros((2, 2)), np.zeros((2,) * 3))


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_orb, n_elec, sz", [(2, 2, 0), (3, 2, 0), (3, 3, 1)])
def test_build_hamiltonian_matches_definition(n_orb, n_elec, sz):
    rng = np.random.default_rng(40 + n_orb + n_elec)
    integrals = _random_integrals(rng, n_orb)
    basis = build_basis(2 * n_orb, n_elec, sz)
    ham = build_hamiltonian(dataclasses.replace(integrals, n_electrons=n_elec, ms2=sz))
    assert ham.basis == basis
    ref = jw.project(basis, _dense_reference(integrals))
    np.testing.assert_allclose(ham.dense(), ref, atol=1e-11)
    assert ham.is_hermitian()


def test_build_hamiltonian_uses_header_sector():
    integrals = load_fixture("h2_d0.74")
    ham = build_hamiltonian(integrals)
    assert ham.basis.n_electrons == 2
    assert ham.basis.sz_twice == 0
    assert len(ham.basis) == 4


def test_diagonal_matches_slater_condon():
    integrals = load_fixture("h4_d1.20")
    ham = build_hamiltonian(integrals)
    n = integrals.n_orbitals
    h_so = np.kron(integrals.h, np.eye(2))
    # (PQ|RS) over spin orbitals: spin-diagonal in each chemist pair.
    eri_so = np.zeros((2 * n,) * 4)
    for p in range(2 * n):
        for q in range(2 * n):
            if p % 2 != q % 2:
                continue
            for r in range(2 * n):
                for s in range(2 * n):
                    if r % 2 != s % 2:
                        continue
                    eri_so[p, q, r, s] = integrals.eri[p // 2, q // 2, r // 2, s // 2]
    diag = ham.dense().diagonal().real
    for idx, det in enumerate(ham.basis.determinants):
        occ = [p for p in range(2 * n) if det >> p & 1]
        e = integrals.core + sum(h_so[p, p] for p in occ)
        e += 0.5 * sum(
            eri_so[p, p, q, q] - eri_so[p, q, q, p] for p in occ for q in occ if p != q
        )
        assert diag[idx] == pytest.approx(e, abs=1e-10), f"det {det:b}"


# ---------------------------------------------------------------------------
# Reduced two-body form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture, dim", [("h2_d1.00", 4), ("h4_d1.40", 36)])
def test_reduced_hamiltonian_reconstructs_sector_matrix(fixture, dim):
    integrals = load_fixture(fixture)
    ham = build_hamiltonian(integrals)
    assert len(ham.basis) == dim
    k = reduced_hamiltonian_K(integrals)
    rebuilt = two_body_to_operator(k, ham.basis).dense() + integrals.core * np.eye(dim)
    assert np.max(np.abs(rebuilt - ham.dense())) < 1e-10


def test_reduced_hamiltonian_random_integrals_and_sector():
    rng = np.random.default_rng(55)
    integrals = _random_integrals(rng, 3)
    for n_elec, sz in ((2, 0), (3, 1), (4, 0)):
        basis = build_basis(6, n_elec, sz)
        sector = dataclasses.replace(integrals, n_electrons=n_elec, ms2=sz)
        ham = build_hamiltonian(sector)
        k = reduced_hamiltonian_K(sector)
        rebuilt = two_body_to_operator(k, basis).dense() + integrals.core * np.eye(len(basis))
        assert np.max(np.abs(rebuilt - ham.dense())) < 1e-10
        assert isinstance(k, TwoBodyTensor)


def test_reduced_hamiltonian_needs_two_electrons():
    integrals = load_fixture("h2_d0.74")
    with pytest.raises(ValueError):
        reduced_hamiltonian_K(dataclasses.replace(integrals, n_electrons=1))


# ---------------------------------------------------------------------------
# Fixture loading
# ---------------------------------------------------------------------------


def test_load_fixture_by_stem_or_filename():
    a = load_fixture("h2_d0.50")
    b = load_fixture("h2_d0.50.fcidump")
    np.testing.assert_array_equal(a.h, b.h)
    assert a.core == b.core


def test_load_fixture_unknown_name():
    with pytest.raises(FileNotFoundError, match="h2_d0.50"):
        load_fixture("no_such_system")


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = load_fixture("h2_d0.74")
    (tmp_path / "custom.fcidump").write_text(write_fcidump(src))
    monkeypatch.setenv(FIXTURE_DIR_ENV, str(tmp_path))
    assert list_fixtures() == ["custom"]
    loaded = load_fixture("custom")
    np.testing.assert_array_equal(loaded.eri, src.eri)


# ---------------------------------------------------------------------------
# The numpy-built CSR arrays against the scipy-built ones
# ---------------------------------------------------------------------------


def _h6_chain():
    """The linear H6 chain of 1.0 angstrom spacing, from the fixture generator.

    Its integrals are exactly those of its FCIDUMP text: the generator's
    two-electron tensor is 8-fold symmetric bit for bit, as a parsed one is.
    """
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    integrals, _ = module.build_integral_set([(0.0, 0.0, float(i)) for i in range(6)], 6)
    reparsed = parse_fcidump(write_fcidump(integrals))
    for part in ("h", "eri"):
        assert np.array_equal(getattr(reparsed, part), getattr(integrals, part)), part
    assert reparsed.core == integrals.core
    return integrals


def _coulomb_only(core=0.7):
    """Diagonal h and only (pp|qq) integrals: most of J[K]'s stored entries are exact zeros."""
    eri = np.zeros((3, 3, 3, 3))
    for p in range(3):
        for q in range(3):
            eri[p, p, q, q] = 0.5 + 0.1 * (p + q)
    return IntegralSet(3, 2, 0, core, np.diag([-1.0, -0.5, 0.2]), eri)


def _system(name):
    """Basis, two-body tensor, core energy and built Hamiltonian of a test system.

    The pairing model's operator is built from its tensor alone, not by
    ``build_hamiltonian``, and has core 0.0.
    """
    if name == "pairing":
        model = models.PairingModel()
        ham = models.build_pairing_hamiltonian(model)
        return ham.basis, models._pairing_tensor(model), 0.0, ham
    built = {
        "h6_chain": _h6_chain,
        "coulomb_only": _coulomb_only,
        "coulomb_only_zero_core": lambda: _coulomb_only(0.0),
    }
    integrals = built[name]() if name in built else load_fixture(name)
    ham = build_hamiltonian(integrals)
    return ham.basis, reduced_hamiltonian_K(integrals), integrals.core, ham


def _scipy_pattern(basis):
    """``P^T``, the links and the sector's (row, column) of every nonzero, as
    scipy built them: each lowering joined with every lowering of its image,
    COO -> CSR."""
    n, dim = basis.n_spin_orbitals, len(basis)
    det, pair, sign, image = fock._lowerings(basis)
    groups = {}
    for k, m in enumerate(image.tolist()):
        groups.setdefault(m, []).append(k)
    ket, bra = np.array([(k, b) for group in groups.values() for k in group for b in group]).T
    unique, nonzero = np.unique(det[bra] * dim + det[ket], return_inverse=True)
    support, link = np.unique(pair[ket] * n * n + pair[bra], return_inverse=True)
    data = 4.0 * sign[bra] * sign[ket] + 0j
    by_link = sp.csr_matrix((data, (link, nonzero)), shape=(len(support), len(unique)))
    return by_link, support, np.divmod(unique, dim)


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize(
    "name", [*list_fixtures(), "pairing", "h6_chain", "coulomb_only", "coulomb_only_zero_core"]
)
def test_numpy_built_arrays_equal_scipy_built_ones(name):
    # P^T and |P^T| are scipy's COO -> CSR of the lowering join, and the
    # Hamiltonian is scipy's J[K] + core * identity, array for array; that
    # sum stores no zero, at a zero core too, and J[K] of the Coulomb-only
    # set stores many
    basis, tensor, core, ham = _system(name)
    by_link, support, (rows, cols) = _scipy_pattern(basis)
    ex = fock._excitations(basis)
    assert np.array_equal(ex.support, support)
    _assert_same_csr(ex.by_link, by_link)
    _assert_same_csr(ex.magnitudes, abs(by_link))
    dim = len(basis)
    j_k = sp.csr_matrix((by_link.T @ tensor.coeffs.ravel()[support], (rows, cols)), shape=(dim, dim))
    _assert_same_csr(ham.csr, j_k + core * sp.identity(dim, format="csr"))
