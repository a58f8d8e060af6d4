"""Time the solver's exponential and estimator layers of one pass of each benchmark workload, replayed in process.

Usage:  python scripts/layer_replay.py ROOT [--repeats N]

``ROOT`` is a checkout root.  ``cqesim`` is imported from ``ROOT/src``, and
one pass of each workload of ``ROOT/perfbench/workloads.py`` at workload
seed 1 is built and run with that module, which is only read (no bytecode
is written).  During each pass three layers of the calls the solver makes
are recorded:

* ``trials``: every step plan's first-factor operator, its state and its
  trial etas, replayed through ``_FixedStart.apply``, one fresh
  ``_FixedStart`` per plan as the solver builds them;
* ``estimates``: the arguments of every ``evolution._estimate_links`` call
  (the Hamiltonian, the state, its measured energy where the checkout
  passes it, the variant, the probe delta, the shots and the seed);
* ``dilated``: the arguments of every ``apply_dilated`` and
  ``apply_exp_exact`` call.

Every layer with calls is then replayed ``N`` times (default 30).  One line
per workload and layer gives the number of calls, the median and the
minimum milliseconds of one replay, and one SHA-256 over every output's
bytes: a state's amplitudes or an estimate's link vector, plus 0.0, as
``trajectory_digest.py`` hashes them; a call that raises ``RuntimeError``
(a failed trial) hashes as ``failed``.  Run it on two checkouts, in
alternation, to compare the layers' bits and times on one machine.
"""

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _output(call, *args, **kwargs):
    """A call's output as hashed: its amplitudes or array plus 0.0, or ``failed``."""
    try:
        out = call(*args, **kwargs)
    except RuntimeError:
        return b"failed"
    return getattr(out, "amplitudes", out) + 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from cqesim import evolution, solver

    layers = {}  # layer name -> its recorded calls, of the pass being run

    class Recording(evolution._FixedStart):
        def __init__(self, op, psi):
            super().__init__(op, psi)
            self.etas = []
            layers["trials"].append((op, psi, self.etas))

        def apply(self, eta):
            self.etas.append(eta)
            return super().apply(eta)

    def recorded(name, layer):
        original = getattr(evolution, name)

        def record(*call, **kwargs):
            layers[layer].append((original, call, kwargs))
            return original(*call, **kwargs)

        return record

    def trials(plans):
        for op, psi, etas in plans:
            start = evolution._FixedStart(op, psi)
            for eta in etas:
                yield _output(start.apply, eta)

    def calls(recorded_calls):
        for call, call_args, kwargs in recorded_calls:
            yield _output(call, *call_args, **kwargs)

    replays = {"trials": trials, "estimates": calls, "dilated": calls}
    patched = {
        "_FixedStart": Recording,
        "_estimate_links": recorded("_estimate_links", "estimates"),
        "apply_dilated": recorded("apply_dilated", "dilated"),
        "apply_exp_exact": recorded("apply_exp_exact", "dilated"),
    }
    for workload_name in workloads.WORKLOADS:
        layers.update((layer, []) for layer in replays)
        workload = workloads.build_workload(workload_name, 1, root)
        systems, _ = workloads.prepare(workload)
        for name, stand_in in patched.items():
            setattr(solver, name, stand_in)
        for job in workload.jobs:
            solver.cqe_run(systems[job.system].ham, job.config)
        for name in patched:
            setattr(solver, name, getattr(evolution, name))

        for layer, replay in replays.items():
            recorded_calls = layers[layer]
            if not recorded_calls:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                digest = hashlib.sha256()
                outputs = list(replay(recorded_calls))
                for out in outputs:
                    digest.update(out)
                times = []
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    for _ in replay(recorded_calls):
                        pass
                    times.append(1e3 * (time.perf_counter() - t0))
            print(f"{workload_name} {layer}: {len(outputs)} calls; replay median "
                  f"{statistics.median(times):.2f} ms, min {min(times):.2f} ms; {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
