"""Tests of the benchmark's own checker and tracer (no cqesim needed).

    python3 -m pytest perfbench/test_checker.py
"""

import re
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import CheckFailure, check_run, digest, trajectory  # noqa: E402
from tracer import Tracer  # noqa: E402

E_FCI = -2.0


def planted(energies, probs, status="max_iterations", final=None):
    """A result shaped like ``CqeResult``; the final state repeats the last record."""
    records = tuple(types.SimpleNamespace(energy=e, success_prob=p) for e, p in zip(energies, probs))
    final_e, final_p = final if final is not None else (energies[-1], probs[-1])
    return types.SimpleNamespace(status=status, iterations=records, energy=final_e, success_prob=final_p)


def test_valid_result_passes():
    check_run("ok", planted([-1.5, -1.9, -2.0], [1.0, 0.9, 0.8]), E_FCI, "exact")


@pytest.mark.parametrize(
    "result, execution, message",
    [
        (planted([-1.5, -2.1], [1.0, 1.0]), "exact", "below E_FCI"),
        (planted([-1.5, -1.4, -1.6], [1.0, 1.0, 1.0]), "exact", "energy rises"),
        (planted([-1.5, -1.4, -1.6], [1.0, 1.0, 1.0]), "sampled", "energy rises"),
        (planted([-1.5, -1.6], [1.0, 1.2]), "dilated", "outside (0, 1]"),
        (planted([-1.5, -1.6], [0.5, 0.0]), "exact", "outside (0, 1]"),
        (planted([-1.5, -1.6, -1.7], [0.9, 0.5, 0.6]), "dilated", "success_prob rises"),
        (planted([-1.5, -1.6], [1.0, 0.9], final=(-1.6, 0.95)), "exact", "success_prob rises"),
        (planted([-1.5, -1.6], [1.0, 1.0], status="diverged"), "exact", "unknown status"),
    ],
)
def test_planted_violation_fires(result, execution, message):
    with pytest.raises(CheckFailure, match=re.escape(message)):
        check_run("planted", result, E_FCI, execution)


def test_dilated_energy_may_rise():
    check_run("dilated", planted([-1.5, -1.4, -1.9], [1.0, 0.5, 0.4]), E_FCI, "dilated")


def test_digest_rounds_energy_to_1e10():
    base = planted([-1.5, -1.9], [1.0, 0.8])
    near = planted([-1.5, -1.9], [1.0, 0.8], final=(-1.9 + 1e-13, 0.8))
    far = planted([-1.5, -1.9], [1.0, 0.8], final=(-1.9 + 1e-9, 0.8))
    same = digest([trajectory("a", base)])
    assert digest([trajectory("a", near)]) == same
    assert digest([trajectory("a", far)]) != same
    assert digest([trajectory("a", None)]) != same


def test_tracer_patches_restores_and_nests():
    module = types.ModuleType("fake_solver")
    module.inner = lambda x: x + 1
    module.run = lambda x: module.inner(x) * 2
    original = module.inner
    tracer = Tracer()
    with tracer.patch(module, {"inner": "layer.inner", "absent": "layer.absent"}):
        tracer.run = "job"
        assert tracer.call("solver.cqe_run", module.run, 1) == 4
    assert module.inner is original
    assert tracer.missing == ["fake_solver.absent"]
    (inner, *_, inner_parent, inner_run), (outer, *_, outer_parent, _) = tracer.spans[1], tracer.spans[0]
    assert (outer, outer_parent) == ("solver.cqe_run", -1)
    assert (inner, inner_parent, inner_run) == ("layer.inner", 0, "job")
    totals = tracer.totals()
    calls, incl, own = totals["solver.cqe_run"]
    assert calls == 1 and own == pytest.approx(incl - totals["layer.inner"][1])


def test_tracer_repatching_accumulates_spans_once_per_missing_name():
    module = types.ModuleType("fake_solver")
    module.inner = lambda x: x + 1
    tracer = Tracer()
    for _ in range(2):
        with tracer.patch(module, {"inner": "layer.inner", "absent": "layer.absent"}):
            module.inner(1)
    assert tracer.missing == ["fake_solver.absent"]
    assert tracer.totals()["layer.inner"][0] == 2
