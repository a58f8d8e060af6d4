"""Cold-start time of cqesim, phase by phase, in fresh interpreter processes.

Usage:  python scripts/coldstart.py [SRC_DIR ...] [--processes N] [--fixtures NAME ...]

Each ``SRC_DIR`` holds a ``cqesim`` package; the default is ``src`` beside
this script's parent.  The script starts ``N`` fresh processes per
``SRC_DIR`` (default 10), the directories taking turns, each with one BLAS
thread.  A process reports wall seconds for

    start    interpreter start: from the spawn to the child's first statement
    numpy    ``import numpy``
    cqesim   ``import cqesim``
    build    ``parse_fcidump`` and ``build_hamiltonian`` of every fixture
    fci      ``fci_solve`` of every Hamiltonian
    total    spawn to exit, as the parent sees it

and the ``scipy`` modules loaded when it is done.  The fixtures default to
every bundled one, the systems of ``perfbench``'s ``sweep_exact`` set-up.
Prints one JSON document: per ``SRC_DIR`` every process and the median of
each phase.  ``perfbench``'s traced phases start after the import, so they
cannot show this split.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ("start", "numpy", "cqesim", "build", "fci", "total")

CHILD = """
import time
started = time.time()
import sys
src, paths = sys.argv[1], sys.argv[2:]
texts = [open(p).read() for p in paths]
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path.insert(0, src)
import cqesim
t2 = time.perf_counter()
hams = [cqesim.build_hamiltonian(cqesim.parse_fcidump(text)) for text in texts]
t3 = time.perf_counter()
for ham in hams:
    cqesim.fci_solve(ham)
t4 = time.perf_counter()
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import json
print(json.dumps([started, t1 - t0, t2 - t1, t3 - t2, t4 - t3, scipy]))
"""


def one_process(src: Path, paths: list[Path]) -> dict:
    """Phase seconds and loaded scipy modules of one fresh process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", CHILD, str(src), *map(str, paths)]
    spawned = time.time()
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env)
    total = time.time() - spawned
    started, numpy, cqesim, build, fci, scipy = json.loads(done.stdout)
    seconds = dict(zip(PHASES, (started - spawned, numpy, cqesim, build, fci, total)))
    return {"seconds": {k: round(v, 5) for k, v in seconds.items()}, "scipy_modules": scipy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    parser.add_argument("--processes", type=int, default=10)
    parser.add_argument("--fixtures", nargs="*", default=None, help="fixture stems (default: all bundled)")
    args = parser.parse_args(argv)
    fixture_dir = ROOT / "src" / "cqesim" / "fixtures"
    stems = args.fixtures or sorted(p.stem for p in fixture_dir.glob("*.fcidump"))
    paths = [fixture_dir / f"{stem}.fcidump" for stem in stems]
    runs = {str(src): [] for src in args.src}
    for _ in range(args.processes):
        for src in args.src:
            runs[str(src)].append(one_process(src.resolve(), paths))
    report = {
        "python": sys.version.split()[0],
        "fixtures": stems,
        "processes": args.processes,
        "sources": {
            src: {
                "median_s": {k: round(statistics.median(r["seconds"][k] for r in rs), 5) for k in PHASES},
                "scipy_modules": sorted({m for r in rs for m in r["scipy_modules"]}),
                "runs": rs,
            }
            for src, rs in runs.items()
        },
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
