"""A two-body pairing ladder with an exactly solvable Bloch-sphere picture.

The model lives on four spatial levels (eight spin orbitals, bits
``2p`` / ``2p+1`` for level ``p``) filled with four electrons at Sz = 0.
Levels 0 and 1 host pair A, levels 2 and 3 pair B; each pair either sits
intact in its lower level (diagonal energy ``e0/2``) or its upper level
(``e3/2``), and a pair-hop amplitude ``t`` connects the two:

    H = (e0/2)(n0 n1 + n4 n5) + (e3/2)(n2 n3 + n6 n7)
        + t (a+_2 a+_3 a_1 a_0 + a+_6 a+_7 a_5 a_4 + h.c.)

All terms are two-body strings, so the model is exactly representable by
the solver's ansatz.  The four intact-pair determinants span a block on
which H factorizes into two independent two-level systems with pair matrix
``[[e0/2, t], [t, e3/2]]``; with the ladder constraint ``2 e1 = e0 + e3``
the block spectrum is ``{e1 - 2w, e1, e1, e1 + 2w}``,
``w = sqrt((e3 - e0)^2 / 16 + t^2)``.

Dressing each pair with its eigenvectors ``u-`` and ``u+`` gives the
product states G (ground), X (doubly excited) and the symmetric middle
state M; real unit combinations ``g G + m M + x X`` form a sphere that the
solver's trajectories can be projected onto.  On the ``m = 0`` equator the
subsystem density matrices are diagonal in the pair eigenbasis, so the
commutator residual vanishes identically while the anticommutator residual
stays finite away from the poles: equatorial states are exactly stationary
for the commutator-driven flow but not for the anticommutator-driven one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    Basis,
    SparseOperator,
    StateVector,
    TwoBodyTensor,
    antisymmetrize,
    build_basis,
    two_body_to_operator,
)
from .oracle import _fix_phase

__all__ = [
    "PairingModel",
    "PAIRING_DETERMINANTS",
    "pairing_basis",
    "build_pairing_hamiltonian",
    "dressed_pair_vectors",
    "dressed_states",
    "SpherePoint",
    "sphere_state",
    "equator_state",
    "equator_states",
    "random_sphere_point",
]

N_SPIN_ORBITALS = 8
N_ELECTRONS = 4
SZ_TWICE = 0

# Intact-pair determinants in block order: (A low, B low), (A low, B high),
# (A high, B low), (A high, B high).
PAIRING_DETERMINANTS = (0b00110011, 0b11000011, 0b00111100, 0b11001100)


@dataclass(frozen=True)
class PairingModel:
    """Ladder parameters, all finite; ``e1`` must be the midpoint of ``e0`` and ``e3``."""

    e0: float = 0.0
    e1: float = 1.0
    e3: float = 2.0
    t: float = 0.5

    def __post_init__(self):
        for name in ("e0", "e1", "e3", "t"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} must be finite")
        if abs(2.0 * self.e1 - (self.e0 + self.e3)) > 1e-12:
            raise ValueError(
                f"ladder constraint violated: 2*e1 = {2 * self.e1} but e0 + e3 = {self.e0 + self.e3}"
            )
        if self.gap_half == 0.0:
            raise ValueError("degenerate pair problem (e0 == e3 and t == 0) has no dressed basis")

    @property
    def gap_half(self) -> float:
        """Half the block gap: ``w = sqrt((e3 - e0)^2 / 16 + t^2)``."""
        return float(np.hypot((self.e3 - self.e0) / 4.0, self.t))

    def pair_matrix(self) -> np.ndarray:
        """Single-pair two-level Hamiltonian ``[[e0/2, t], [t, e3/2]]``."""
        return np.array([[self.e0 / 2.0, self.t], [self.t, self.e3 / 2.0]])


def pairing_basis() -> Basis:
    return build_basis(N_SPIN_ORBITALS, N_ELECTRONS, SZ_TWICE)


def build_pairing_hamiltonian(model: PairingModel) -> SparseOperator:
    """Assemble H strictly from two-body strings on the (4, 0) sector."""
    return two_body_to_operator(_pairing_tensor(model), pairing_basis())


def _pairing_tensor(model: PairingModel) -> TwoBodyTensor:
    """The two-body coefficient tensor of the model's H."""
    n = N_SPIN_ORBITALS
    raw = np.zeros((n, n, n, n))
    # n_p n_q = a+_p a+_q a_q a_p for p != q: coefficient slot T[p,q,p,q].
    for p, q, e in ((0, 1, model.e0), (4, 5, model.e0), (2, 3, model.e3), (6, 7, model.e3)):
        raw[p, q, p, q] += e / 2.0
    # Pair hops and their adjoints: a+_k a+_l a_j a_i sits at T[i,j,k,l].
    for i, j, k, l in ((0, 1, 2, 3), (2, 3, 0, 1), (4, 5, 6, 7), (6, 7, 4, 5)):
        raw[i, j, k, l] += model.t
    return TwoBodyTensor(n, antisymmetrize(raw))


def dressed_pair_vectors(model: PairingModel) -> tuple[np.ndarray, np.ndarray]:
    """Pair eigenvectors ``(u_minus, u_plus)`` with deterministic signs
    (``oracle._fix_phase``: the largest entry positive)."""
    _, vecs = np.linalg.eigh(model.pair_matrix())
    return _fix_phase(vecs[:, 0]), _fix_phase(vecs[:, 1])


def _block_vectors(model: PairingModel) -> dict[str, np.ndarray]:
    """Dressed product states as coefficient 4-vectors over the block dets."""
    um, up = dressed_pair_vectors(model)
    g = np.kron(um, um)
    x = np.kron(up, up)
    m_sym = (np.kron(um, up) + np.kron(up, um)) / np.sqrt(2.0)
    m_anti = (np.kron(um, up) - np.kron(up, um)) / np.sqrt(2.0)
    return {"G": g, "M": m_sym, "X": x, "M_anti": m_anti}


def _block_state(vec4: np.ndarray) -> StateVector:
    basis = pairing_basis()
    amps = np.zeros(len(basis), dtype=complex)
    for det, coeff in zip(PAIRING_DETERMINANTS, vec4):
        amps[basis.index_of(det)] = coeff
    return StateVector(basis, amps)


def dressed_states(model: PairingModel) -> dict[str, StateVector]:
    """Sector states G, M, X spanning the sphere, plus the decoupled M_anti."""
    return {name: _block_state(v) for name, v in _block_vectors(model).items()}


@dataclass(frozen=True)
class SpherePoint:
    """Real coefficients ``(g, m, x)`` of a unit state ``g G + m M + x X``."""

    g: float
    m: float
    x: float

    def __post_init__(self):
        norm = np.sqrt(self.g ** 2 + self.m ** 2 + self.x ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"sphere point has norm {norm}, expected 1")


def sphere_state(model: PairingModel, point: SpherePoint) -> StateVector:
    """The sector state addressed by a sphere point."""
    vecs = _block_vectors(model)
    vec4 = point.g * vecs["G"] + point.m * vecs["M"] + point.x * vecs["X"]
    return _block_state(vec4)


def equator_state(model: PairingModel, theta: float) -> StateVector:
    """Equatorial state ``cos(theta) G + sin(theta) X`` (theta = 0 gives G)."""
    return sphere_state(model, SpherePoint(np.cos(theta), 0.0, np.sin(theta)))


def equator_states(model: PairingModel, n: int) -> list[StateVector]:
    """``n`` equatorial samples at midpoint angles ``2 pi (k + 1/2) / n``.

    The midpoint offset keeps every sample away from the poles (G and X
    themselves, where both residual channels vanish).
    """
    if n <= 0:
        raise ValueError("need a positive number of samples")
    return [equator_state(model, 2.0 * np.pi * (k + 0.5) / n) for k in range(n)]


def random_sphere_point(rng: np.random.Generator) -> SpherePoint:
    """Uniform point on the sphere (normalized Gaussian triple)."""
    vec = rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    return SpherePoint(*vec)
