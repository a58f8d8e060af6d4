"""Molecular Hamiltonians: FCIDUMP I/O and sector-operator assembly.

Integrals live in a spatial-orbital basis with chemist notation
``(pq|rs)`` and 8-fold symmetry.  Spin orbitals interleave spins,
``P = 2p + sigma`` with sigma 0 for alpha and 1 for beta, so

    H = core + sum_pq h[p,q] sum_s a+_ps a_qs
             + 1/2 sum_pqrs (pq|rs) sum_st a+_ps a+_rt a_st a_qs.

``reduced_hamiltonian_K`` folds the one-body part into a pure two-body
coefficient tensor K (core excluded): on the N-electron sector,
``J[K] + core * I`` equals the Hamiltonian exactly, which is the property
tests pin down.  This makes the full energy and the energy variance
expressible through two-body expectation values alone, and it is how
``build_hamiltonian`` assembles the sector matrix: ``fock._tensor_operator``
of K with the integrals' core, the one assembly of every operator built
from a tensor, so this module forms no CSR array itself.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .fock import (
    SparseOperator,
    TwoBodyTensor,
    _one_body_coeffs,
    _tensor_operator,
    antisymmetrize,
    build_basis,
)

__all__ = [
    "IntegralSet",
    "parse_fcidump",
    "write_fcidump",
    "build_hamiltonian",
    "reduced_hamiltonian_K",
    "load_fixture",
    "list_fixtures",
    "FIXTURE_DIR_ENV",
]

FIXTURE_DIR_ENV = "CQESIM_FIXTURE_DIR"


@dataclass(frozen=True)
class IntegralSet:
    """Spatial-orbital integrals plus the sector bookkeeping from the header."""

    n_orbitals: int
    n_electrons: int
    ms2: int
    core: float
    h: np.ndarray          # (n, n) symmetric one-electron matrix
    eri: np.ndarray        # (n, n, n, n) chemist (pq|rs), 8-fold symmetric
    orbsym: tuple[int, ...] = ()
    isym: int = 1

    def __post_init__(self):
        n = self.n_orbitals
        h = np.asarray(self.h, dtype=float)
        eri = np.asarray(self.eri, dtype=float)
        if h.shape != (n, n):
            raise ValueError(f"h shape {h.shape} does not match n_orbitals={n}")
        if eri.shape != (n, n, n, n):
            raise ValueError(f"eri shape {eri.shape} does not match n_orbitals={n}")
        # a NaN or inf would pass the symmetry tests below and fail later as non-Hermitian
        for name, values in (("h", h), ("eri", eri), ("core", self.core)):
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite integral in {name}")
        if np.max(np.abs(h - h.T), initial=0.0) > 1e-10:
            raise ValueError("one-electron matrix is not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(eri - eri.transpose(perm)), initial=0.0) > 1e-10:
                raise ValueError("eri tensor lacks 8-fold chemist symmetry")
        orbsym = tuple(self.orbsym) if self.orbsym else tuple([1] * n)
        if len(orbsym) != n:
            raise ValueError(f"orbsym length {len(orbsym)} does not match n_orbitals={n}")
        h = h.copy()
        h.setflags(write=False)
        eri = eri.copy()
        eri.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "eri", eri)
        object.__setattr__(self, "orbsym", orbsym)

    @property
    def n_spin_orbitals(self) -> int:
        return 2 * self.n_orbitals


# ---------------------------------------------------------------------------
# FCIDUMP text format
# ---------------------------------------------------------------------------

_HEADER_KV = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([^=&/]*?)(?=(?:[,\s][A-Za-z0-9_]+\s*=)|$)")


def parse_fcidump(text: str) -> IntegralSet:
    """Parse an FCIDUMP string (namelist header plus ``value i j k l`` records).

    One-body records carry ``k = l = 0`` and a nonzero ``i``, the scalar
    core term carries four zero indices, and orbital-energy records (``j =
    k = l = 0``) are ignored.  Indices in the file are 1-based, so any other
    record with a zero index (``v 0 j 0 0`` among them) is an unsupported
    index pattern.
    """
    upper = text.upper()
    start = upper.find("&FCI")
    if start < 0:
        raise ValueError("missing &FCI namelist header")
    end = upper.find("&END")
    header_len = 4
    if end < 0:
        # Some writers terminate the namelist with a bare slash.
        end = upper.find("/")
        header_len = 1
    if end < 0:
        raise ValueError("missing &END terminator in FCIDUMP header")
    header = " ".join(text[start + 4 : end].split())
    fields: dict[str, str] = {}
    for key, value in _HEADER_KV.findall(header):
        fields[key.upper()] = value.strip().rstrip(",").strip()
    try:
        n = int(fields["NORB"])
        nelec = int(fields["NELEC"])
    except KeyError as exc:
        raise ValueError(f"FCIDUMP header is missing {exc}") from exc
    ms2 = int(fields.get("MS2", "0"))
    isym = int(fields.get("ISYM", "1"))
    orbsym_text = fields.get("ORBSYM", "")
    orbsym = tuple(int(tok) for tok in re.split(r"[,\s]+", orbsym_text) if tok)
    if n <= 0:
        raise ValueError(f"NORB must be positive, got {n}")

    core = 0.0
    h = np.zeros((n, n))
    eri = np.zeros((n, n, n, n))
    for line in text[end + header_len :].splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"malformed FCIDUMP record: {line!r}")
        value = float(parts[0])
        i, j, k, l = (int(p) for p in parts[1:])
        if min(i, j, k, l) < 0 or max(i, j, k, l) > n:
            raise ValueError(f"orbital index out of range in record: {line!r}")
        if i == j == k == l == 0:
            core = value
        elif i and k == 0 and l == 0:
            if j == 0:
                continue  # orbital-energy record, not used
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        elif i and j and k and l:
            for a, b, c, d in (
                (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
            ):
                eri[a - 1, b - 1, c - 1, d - 1] = value
        else:
            raise ValueError(f"unsupported index pattern in record: {line!r}")
    return IntegralSet(n, nelec, ms2, core, h, eri, orbsym, isym)


def write_fcidump(integrals: IntegralSet) -> str:
    """Serialize to canonical FCIDUMP text.

    The layout is fixed (two-body block over unique compound indices with
    ``i >= j``, ``k >= l``, ``ij >= kl``; then one-body with ``i >= j``;
    then the core line) and floats are printed with 17 significant digits,
    so parse -> write is byte-stable and equal integrals serialize equally.
    """
    n = integrals.n_orbitals
    orbsym = ",".join(str(s) for s in integrals.orbsym)
    lines = [
        f"&FCI NORB={n},NELEC={integrals.n_electrons},MS2={integrals.ms2},",
        f" ORBSYM={orbsym},",
        f" ISYM={integrals.isym},",
        "&END",
    ]

    def record(value: float, i: int, j: int, k: int, l: int) -> str:
        return f"{value:24.16E}{i:5d}{j:5d}{k:5d}{l:5d}"

    for i in range(1, n + 1):
        for j in range(1, i + 1):
            ij = i * (i - 1) // 2 + j
            for k in range(1, i + 1):
                for l in range(1, k + 1):
                    if k * (k - 1) // 2 + l > ij:
                        continue
                    value = integrals.eri[i - 1, j - 1, k - 1, l - 1]
                    if value != 0.0:
                        lines.append(record(value, i, j, k, l))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            value = integrals.h[i - 1, j - 1]
            if value != 0.0:
                lines.append(record(value, i, j, 0, 0))
    lines.append(record(integrals.core, 0, 0, 0, 0))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Spin-orbital assembly
# ---------------------------------------------------------------------------


def _two_body_coeffs(eri: np.ndarray) -> np.ndarray:
    """Raw (non-antisymmetrized) coefficient tensor of the Coulomb term.

    With the package convention ``J[T] = sum T[i,j,k,l] a+_k a+_l a_j a_i``
    the Coulomb operator corresponds to ``T[i,j,k,l] = (ki|lj)/2`` over spin
    orbitals, spin-diagonal within each chemist pair.
    """
    n = eri.shape[0]
    eye2 = np.eye(2)
    eri_so = np.einsum("pqrs,ab,cd->paqbrcsd", eri, eye2, eye2).reshape(
        2 * n, 2 * n, 2 * n, 2 * n
    )
    return 0.5 * eri_so.transpose(1, 3, 0, 2)


def build_hamiltonian(
    integrals: IntegralSet,
    n_electrons: int | None = None,
    sz_twice: int | None = None,
) -> SparseOperator:
    """Sector matrix of the molecular Hamiltonian.

    The sector defaults to the electron count and spin projection recorded
    in the integral header.  The matrix is ``J[K] + core`` with K from
    ``reduced_hamiltonian_K``, so the sector needs at least two electrons.
    It is assembled as every operator of a tensor is
    (``fock._tensor_operator``), with the integrals' core: the arrays are
    those of scipy's ``J[K] + core * identity``, which stores no zero.
    """
    n_elec = integrals.n_electrons if n_electrons is None else n_electrons
    sz = integrals.ms2 if sz_twice is None else sz_twice
    basis = build_basis(integrals.n_spin_orbitals, n_elec, sz)
    return _tensor_operator(reduced_hamiltonian_K(integrals, basis.n_electrons), basis, integrals.core)


def reduced_hamiltonian_K(integrals: IntegralSet, n_electrons: int | None = None) -> TwoBodyTensor:
    """Two-body coefficient tensor reconstructing ``H - core`` on the sector.

    The one-body part is absorbed via the pair-counting identity
    ``sum_l a+_k a+_l a_l a_i = (N - 1) a+_k a_i`` on N-electron states, so
    the tensor depends on the electron count it is built for.
    """
    n_elec = integrals.n_electrons if n_electrons is None else n_electrons
    h_so = np.kron(integrals.h, np.eye(2))  # interleaved spin orbitals
    raw = _two_body_coeffs(integrals.eri) + _one_body_coeffs(h_so, n_elec)
    return TwoBodyTensor(integrals.n_spin_orbitals, antisymmetrize(raw))


# ---------------------------------------------------------------------------
# Bundled fixtures
# ---------------------------------------------------------------------------


def _fixture_dir() -> Path:
    override = os.environ.get(FIXTURE_DIR_ENV)
    if override:
        return Path(override)
    return Path(resources.files("cqesim") / "fixtures")


def list_fixtures() -> list[str]:
    """Stems of all bundled (or overridden) FCIDUMP fixtures, sorted."""
    return sorted(p.stem for p in _fixture_dir().glob("*.fcidump"))


def load_fixture(name: str) -> IntegralSet:
    """Load a bundled FCIDUMP by stem or filename.

    The directory can be redirected with the ``CQESIM_FIXTURE_DIR``
    environment variable.
    """
    path = _fixture_dir() / f"{name.removesuffix('.fcidump')}.fcidump"
    if not path.is_file():
        known = ", ".join(list_fixtures()) or "(none)"
        raise FileNotFoundError(f"no fixture {name!r}; available: {known}")
    return parse_fcidump(path.read_text())
