"""Correctness checks and trajectory digests for benchmark runs.

``check_run`` raises ``CheckFailure`` on a result no correct solver can
produce: an energy below the FCI ground state, exact or sampled energies
that rise between records, a success probability outside (0, 1] or rising
between records, or an unknown status.  The benchmark aborts on it.
Missing an accuracy target is not a violation; the caller counts it as a
failed operation.

``digest`` condenses each run to status, iteration count, final energy
rounded to 1e-10 and final success probability, so two sets of runs of the
same code (traced or not) can be compared exactly.

Nothing here imports ``cqesim``: results are read through their attributes
(``status``, ``energy``, ``success_prob``, ``iterations`` with ``energy``
and ``success_prob``), so tests can plant violating results.
"""

from __future__ import annotations

import hashlib
import json

STATUSES = ("converged", "stalled", "max_iterations")
BELOW_FCI_SLACK = 1e-9      # Ha
ENERGY_RISE_SLACK = 1e-12   # Ha, the solver's own monotonicity slack
PROB_RISE_SLACK = 1e-12     # relative


class CheckFailure(Exception):
    pass


def check_run(label: str, result, e_fci: float, execution: str) -> None:
    """Raise ``CheckFailure`` if ``result`` violates an invariant of the solver."""
    if result.status not in STATUSES:
        raise CheckFailure(f"{label}: unknown status {result.status!r}")
    if not result.energy >= e_fci - BELOW_FCI_SLACK:
        raise CheckFailure(f"{label}: final energy {result.energy!r} below E_FCI {e_fci!r}")

    probs = [rec.success_prob for rec in result.iterations] + [result.success_prob]
    for n, p in enumerate(probs):
        if not 0.0 < p <= 1.0:
            raise CheckFailure(f"{label}: success_prob {p!r} outside (0, 1] at record {n}")
    for n in range(1, len(probs)):
        if probs[n] > probs[n - 1] * (1.0 + PROB_RISE_SLACK):
            raise CheckFailure(f"{label}: success_prob rises at record {n}")

    if execution in ("exact", "sampled"):
        energies = [rec.energy for rec in result.iterations] + [result.energy]
        for n in range(1, len(energies)):
            if not energies[n] <= energies[n - 1] + ENERGY_RISE_SLACK:
                raise CheckFailure(f"{label}: energy rises at record {n}")


def trajectory(label: str, result) -> list:
    """The digest entry of one run; ``result`` is ``None`` when the run raised."""
    if result is None:
        return [label, "error"]
    return [
        label,
        result.status,
        len(result.iterations),
        f"{result.energy:.10f}",
        f"{result.success_prob:.10e}",
    ]


def digest(entries: list) -> str:
    """Short stable hash over the trajectory entries of one pass."""
    blob = json.dumps(entries, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
