"""Time the line-search trials of one benchmark pass, replayed in process.

Usage:  python scripts/trial_replay.py ROOT [--workload W] [--repeats N]

``ROOT`` is a checkout root.  ``cqesim`` is imported from ``ROOT/src``, and
one pass of workload ``W`` (default ``sweep_exact``, workload seed 1) is
built and run with ``ROOT/perfbench/workloads.py``, which is only read (no
bytecode is written).  During that pass every step plan's first-factor
operator, its state and its trial etas are recorded.  The trials are then
replayed through ``_FixedStart.apply``, one fresh ``_FixedStart`` per plan
as the solver builds them, ``N`` times (default 30).  It prints the median
and the minimum milliseconds of one replay, and one SHA-256 over every
trial state's amplitude bytes (plus 0.0, as ``trajectory_digest.py`` hashes
them; a failed trial hashes as ``failed``).  Run it on two checkouts, in
alternation, to compare their trial bits and times on one machine.
"""

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--workload", default="sweep_exact")
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from cqesim import evolution, solver

    plans = []  # (operator, state, trial etas) of every step plan, in run order

    class Recording(evolution._FixedStart):
        def __init__(self, op, psi):
            super().__init__(op, psi)
            self.etas = []
            plans.append((op, psi, self.etas))

        def apply(self, eta):
            self.etas.append(eta)
            return super().apply(eta)

    workload = workloads.build_workload(args.workload, 1, root)
    systems, _ = workloads.prepare(workload)
    solver._FixedStart = Recording
    for job in workload.jobs:
        solver.cqe_run(systems[job.system].ham, job.config)
    solver._FixedStart = evolution._FixedStart

    def replay(digest=None):
        with np.errstate(over="ignore", invalid="ignore"):
            for op, psi, etas in plans:
                start = evolution._FixedStart(op, psi)
                for eta in etas:
                    try:
                        out = start.apply(eta).amplitudes + 0.0
                    except RuntimeError:
                        out = b"failed"
                    if digest is not None:
                        digest.update(out)

    digest = hashlib.sha256()
    replay(digest)
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        replay()
        times.append(1e3 * (time.perf_counter() - t0))
    trials = sum(len(etas) for _, _, etas in plans)
    print(f"{args.workload}: {len(plans)} plans, {trials} trials; replay median "
          f"{statistics.median(times):.2f} ms, min {min(times):.2f} ms; trials {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
