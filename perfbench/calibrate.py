"""Machine-speed calibration: a fixed kernel timed next to every measured job.

The benchmark runs on shared hosts whose speed wanders by tens of percent
over minutes, which moves every wall time of a run together.  The kernel
here is fixed code that never touches ``cqesim``.  It mixes the kinds of
work the solver does: small dense linear algebra and multinomial sampling
(the shot estimator), small sparse products (generator assembly) and plain
interpreter work (the solver loop).  Timing it right next to a job measures
how fast the machine runs at that moment.

``reference_seconds(wall, kernel)`` rescales a wall time to a machine on
which the kernel takes ``REFERENCE_S``.  The benchmark reports its timings
in these reference seconds, so that a slow moment of the host does not
read as a slow program.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.1  # kernel seconds on the reference machine

_DIM = 36           # sector dimension of the H4 fixtures
_DENSE_STEPS = 250
_SPARSE_STEPS = 60
_PYTHON_STEPS = 120000

_rng = np.random.default_rng(20230301)
_herm = _rng.standard_normal((_DIM, _DIM))
_herm = _herm + _herm.T
_vec = _rng.standard_normal(_DIM)
_small = sp.random(6, 6, density=0.5, random_state=7, format="csr")
_stack = sp.random(_DIM, _DIM, density=0.2, random_state=8, format="csr")


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(_DENSE_STEPS):
        evals, evecs = np.linalg.eigh(_herm)
        probs = np.abs(evecs.T @ _vec) ** 2
        rng.multinomial(1000, probs / probs.sum()) @ evals
    total = sp.csr_matrix((_DIM, _DIM))
    for _ in range(_SPARSE_STEPS):
        mid = sp.kron(_small, sp.identity(_DIM // 6, format="csr"))
        total = total + (_stack.T @ mid @ _stack).tocsr()
    table = {}
    for i in range(_PYTHON_STEPS):
        table[(i * 7) % 1009] = table.get((i * 13) % 1009, 0) + i
    return time.perf_counter() - start


def reference_seconds(wall: float, kernel: float) -> float:
    """``wall`` seconds rescaled to a machine on which the kernel takes ``REFERENCE_S``."""
    return wall * REFERENCE_S / kernel
