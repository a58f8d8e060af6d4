"""Spans around the solver's calls into each layer, taken from outside ``src/``.

The solver reaches every layer through names it imported into
``cqesim.solver``; ``Tracer.patch`` swaps those names for timing wrappers
and restores them afterwards.  Wrapping a function where it is defined
would miss these calls, because the solver holds its own reference.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``run`` the label of the
``cqe_run`` call it belongs to.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

# cqesim.solver attribute -> span name.  Layers are the modules under src/cqesim.
SOLVER_CALLS = {
    "two_body_to_operator": "fock.generator",
    "apply_exp_exact": "evolution.exp",
    "apply_dilated": "evolution.vstep",
    "reset_ancilla": "evolution.reset",
    "estimate_residual_w": "evolution.estimate",
    "residual_cse": "residuals.residual",
    "energy": "residuals.energy",
    "variance": "residuals.variance",
}
RUN_SPAN = "solver.cqe_run"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run = ""
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patch(self, module, calls: dict = SOLVER_CALLS):
        """Trace ``module``'s calls through the names in ``calls`` while inside."""
        originals = {}
        for attr, name in calls.items():
            if not hasattr(module, attr):
                absent = f"{module.__name__}.{attr}"
                if absent not in self.missing:
                    self.missing.append(absent)
                continue
            originals[attr] = getattr(module, attr)
            setattr(module, attr, self.wrap(name, originals[attr]))
        try:
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def totals(self) -> dict:
        """Per span name: ``(calls, inclusive seconds, self seconds)``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls, incl, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, incl + (end - start), own + (end - start - inner))
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "run": run,
                }) + "\n")
