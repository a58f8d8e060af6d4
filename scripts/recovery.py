"""Print the energy recovery of every ``h4_sampled`` job of workload seeds 1-8.

Usage:  python scripts/recovery.py ROOT
        python scripts/recovery.py ROOT_A ROOT_B

``ROOT`` is a checkout root.  Its own ``perfbench/workloads.py`` builds the
jobs (``build_workload``, ``prepare``), and its ``src`` provides ``cqesim``;
neither is written to.  One line per job goes to stdout: the workload
seed, the job label, the run's status and record count, and its recovery
(E_HF - E) / (E_HF - E_FCI), the share that ``workloads.miss`` tests.  The
last line gives the least and the median recovery.  With two roots, each
is run in a process of its own, both outputs are printed, and then every
job whose recovery moved, with both values.
"""

import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 9)


def main(root: str) -> None:
    root = Path(root).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cqesim
    from workloads import build_workload, prepare

    assert Path(cqesim.__file__).is_relative_to(root / "src"), cqesim.__file__
    shares = []
    for seed in SEEDS:
        workload = build_workload("h4_sampled", seed, root)
        systems, _ = prepare(workload)
        for job in workload.jobs:
            system = systems[job.system]
            result = cqesim.cqe_run(system.ham, job.config)
            shares.append((system.e_hf - result.energy) / (system.e_hf - system.e_fci))
            print(f"s{seed} {job.label} {result.status} {len(result.iterations)} {shares[-1]:.4f}")
    print(f"least {min(shares):.4f} median {statistics.median(shares):.4f} over {len(shares)} jobs")


def compare(root_a: str, root_b: str) -> None:
    """Run each root in a fresh process, print both, then the jobs that moved."""
    sides = []
    for root in (root_a, root_b):
        command = [sys.executable, __file__, root]
        out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
        print(f"{root}:\n{out}")
        sides.append({" ".join(line.split()[:2]): line.split()[-1] for line in out.splitlines()[:-1]})
    moved = [f"{job}: {a} -> {sides[1][job]}" for job, a in sides[0].items() if sides[1].get(job) != a]
    print("\n".join(moved + [f"{len(moved)} of {len(sides[0])} jobs moved"]))


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        raise SystemExit(__doc__)
