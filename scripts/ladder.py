"""Size ladder above the bundled fixtures: H6 and H8 chain runs, in one process.

Usage:  python scripts/ladder.py > BENCH_ladder.json

Builds linear H6 chains of 0.9, 1.0 and 1.2 angstrom spacing and the H8
chain of 1.0 angstrom with ``scripts/make_fixtures.build_integral_set``,
whose integrals are exactly
those of their FCIDUMP text (``parse_fcidump(write_fcidump(x))`` equals x),
as the bundled fixtures are made.  The H6 residual tails follow rounding:
from a two-electron tensor that is 8-fold symmetric only to rounding, H6
``cse`` took 676 iterations instead of 576, and ``hcse`` and ``acse``
swapped a stall and a convergence, so a change to the tails is read on
three geometries, not on one run's total.  It times, with one BLAS thread:

    H6   ``cse``, ``hcse`` and ``acse`` at each spacing, to convergence or a
         stall, with the iteration budget raised to 5 000 (the default 200
         stops them early)
    H8   ``cse`` for a fixed 15 iterations

Per rung the set-up is split into the excitation pattern
(``fock._excitations``), the rest of ``build_hamiltonian`` (assembly) and
``fci_solve``.  The pattern is cached per sector, so the three H6 rungs
share it and only the first builds it (the others read about 0 s).  Per
run it reports wall seconds, iterations (records, as ``perfbench`` and
``trajectory_digest.py`` count them), status, the first
iteration whose energy is within 1e-6 Ha of FCI (the state after the last
record counts as one more iteration) and the final energy error.
Statuses and iteration counts are deterministic; wall times are not.
Prints one JSON document.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import numpy as np
import scipy

from cqesim import CqeConfig, build_basis, build_hamiltonian, cqe_run, fci_solve
from cqesim.fock import _excitations
from make_fixtures import build_integral_set

WITHIN_HA = 1e-6  # the energy error that "first_within_1e-6" asks for
RUNGS = (  # (name, atoms, spacing in angstrom, variants, iteration budget)
    ("h6_chain_d0.90", 6, 0.9, ("cse", "hcse", "acse"), 5000),
    ("h6_chain_d1.00", 6, 1.0, ("cse", "hcse", "acse"), 5000),
    ("h6_chain_d1.20", 6, 1.2, ("cse", "hcse", "acse"), 5000),
    ("h8_chain", 8, 1.0, ("cse",), 15),
)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, round(time.perf_counter() - start, 4)


def set_up(n_atoms: int, spacing: float):
    """Hamiltonian, FCI energy and the set-up split of the H_n chain of the given spacing."""
    integrals, _ = build_integral_set([(0.0, 0.0, spacing * i) for i in range(n_atoms)], n_atoms)
    basis = build_basis(integrals.n_spin_orbitals, integrals.n_electrons, integrals.ms2)
    ex, pattern_s = _timed(_excitations, basis)  # kept in its cache for build_hamiltonian
    ham, assembly_s = _timed(build_hamiltonian, integrals)
    (energies, _), fci_s = _timed(fci_solve, ham)
    split = {
        "dim": len(basis),
        "links": len(ex.support),
        "sector_nonzeros": len(ex.rows),
        "pattern_s": pattern_s,
        "assembly_s": assembly_s,
        "fci_s": fci_s,
    }
    return ham, float(energies[0]), split


def run(ham, e_fci: float, variant: str, max_iterations: int) -> dict:
    result, wall_s = _timed(cqe_run, ham, CqeConfig(variant=variant, max_iterations=max_iterations))
    energies = [rec.energy for rec in result.iterations] + [result.energy]
    within = next((n for n, e in enumerate(energies) if e - e_fci <= WITHIN_HA), None)
    return {
        "variant": variant,
        "max_iterations": max_iterations,
        "wall_s": wall_s,
        "iterations": len(result.iterations),
        "status": result.status,
        "first_within_1e-6": within,
        "final_error_ha": result.energy - e_fci,
    }


def main() -> int:
    report = {
        "what": "size ladder: 0.9, 1.0 and 1.2 A H6 chains and the 1.0 A H8 chain built in-process, with the "
        "integrals of their FCIDUMP text, exact execution, default CqeConfig apart from variant and max_iterations",
        "command": "python scripts/ladder.py",
        "env": f"nproc={os.cpu_count()} blas_threads=1 python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__}",
        "rungs": {},
    }
    for name, n_atoms, spacing, variants, max_iterations in RUNGS:
        ham, e_fci, split = set_up(n_atoms, spacing)
        runs = [run(ham, e_fci, variant, max_iterations) for variant in variants]
        report["rungs"][name] = {"e_fci": e_fci, "set_up": split, "runs": runs}
    report["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
