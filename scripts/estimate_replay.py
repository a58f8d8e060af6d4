"""Time the residual estimates of one ``h4_sampled`` pass, replayed in process.

Usage:  python scripts/estimate_replay.py ROOT [--repeats N]

``ROOT`` is a checkout root.  ``cqesim`` is imported from ``ROOT/src``, and
one pass of the ``h4_sampled`` workload at workload seed 1 is built and run
with ``ROOT/perfbench/workloads.py``, which is only read (no bytecode is
written).  During that pass the arguments of every call the solver makes to
``evolution._estimate_links`` are recorded: the Hamiltonian, the state, its
measured energy (where the checkout passes it), the variant, the probe
delta, the shots and the seed.  The calls are then replayed ``N`` times
(default 30).  It prints the median and the minimum milliseconds of one
replay, and one SHA-256 over every returned link vector's bytes (plus 0.0,
as ``trajectory_digest.py`` hashes them).  Run it on two checkouts, in
alternation, to compare the estimator layer's time on one machine.
"""

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path


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

    calls = []  # the positional arguments of every estimate, in run order

    def recording(*call):
        calls.append(call)
        return evolution._estimate_links(*call)

    workload = workloads.build_workload("h4_sampled", 1, root)
    systems, _ = workloads.prepare(workload)
    solver._estimate_links = recording
    for job in workload.jobs:
        solver.cqe_run(systems[job.system].ham, job.config)
    solver._estimate_links = evolution._estimate_links

    def replay(digest=None):
        for call in calls:
            links = evolution._estimate_links(*call)
            if digest is not None:
                digest.update(links + 0.0)

    digest = hashlib.sha256()
    replay(digest)
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        replay()
        times.append(1e3 * (time.perf_counter() - t0))
    print(f"h4_sampled: {len(calls)} estimates; replay median {statistics.median(times):.2f} ms, "
          f"min {min(times):.2f} ms; links {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
