"""Benchmark workloads: which solver runs each one issues and what counts as solved.

Every workload is a fixed list of ``cqe_run`` jobs over a few molecular
systems, built from the workload seed alone.  Inputs are the bundled H2/H4
FCIDUMP fixtures of the checkout.

This module imports ``cqesim``; the caller puts the checkout's ``src``
directory on ``sys.path`` first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cqesim import (
    CqeConfig,
    DilationPolicy,
    EstimatorConfig,
    build_hamiltonian,
    energy,
    fci_solve,
    hf_state,
    parse_fcidump,
)

WORKLOADS = ("sweep_exact", "h4_sampled", "h4_dilated")

SAMPLED_SHOTS = 16000
SAMPLED_ITERATIONS = 12
SAMPLED_FIXTURES = ("h4_d1.40", "h4_d2.00")
VARIANTS = ("cse", "hcse", "acse")

# Accuracy targets.  A run that misses its target counts as a failed operation.
EXACT_TOLERANCE = 1e-6        # Ha from FCI: release criterion 1
SAMPLED_RECOVERY = 0.75       # share of E_HF - E_FCI recovered


@dataclass(frozen=True)
class Job:
    label: str
    system: str
    config: CqeConfig


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    systems: dict          # system name -> FCIDUMP path
    jobs: tuple            # Job, in run order
    target: str            # "fci" or "recovery"
    tolerance: float


@dataclass(frozen=True)
class System:
    """A prepared system: sector Hamiltonian and its reference energies."""

    ham: object
    e_fci: float
    e_hf: float


def build_workload(name: str, seed: int, root: Path) -> Workload:
    """The workload's jobs and input files for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    fixtures = root / "src" / "cqesim" / "fixtures"

    if name == "sweep_exact":
        systems = {p.stem: p for p in sorted(fixtures.glob("h[24]_*.fcidump"))}
        jobs = [
            Job(f"{stem}/{v}", stem, CqeConfig(variant=v))
            for stem in systems
            for v in (("cse",) if stem.startswith("h2_") else VARIANTS)
        ]
        rng.shuffle(jobs)
        return Workload(name, seed, systems, tuple(jobs), "fci", EXACT_TOLERANCE)

    systems = {stem: fixtures / f"{stem}.fcidump" for stem in SAMPLED_FIXTURES}
    if name == "h4_sampled":
        pairs = [(stem, v) for stem in systems for v in VARIANTS]
        est_seeds = np.random.SeedSequence(seed).generate_state(len(pairs))
        jobs = []
        for (stem, v), est_seed in zip(pairs, est_seeds.tolist()):
            config = CqeConfig(
                variant=v,
                execution="sampled",
                max_iterations=SAMPLED_ITERATIONS,
                estimator=EstimatorConfig(shots=SAMPLED_SHOTS, seed=est_seed),
            )
            jobs.append(Job(f"{stem}/{v}/s{est_seed}", stem, config))
        return Workload(name, seed, systems, tuple(jobs), "recovery", SAMPLED_RECOVERY)

    dilated = (
        ("hcse", DilationPolicy(epsilon=0.05, reset_mode="wolfe")),
        ("cse", DilationPolicy(epsilon=0.1, reset_mode="every_k")),
    )
    jobs = [
        Job(f"{stem}/{v}/{policy.reset_mode}", stem,
            CqeConfig(variant=v, execution="dilated", dilation=policy))
        for stem in systems
        for v, policy in dilated
    ]
    rng.shuffle(jobs)
    return Workload(name, seed, systems, tuple(jobs), "fci", EXACT_TOLERANCE)


def prepare(workload: Workload) -> tuple[dict, dict]:
    """Build every system of the workload and time the set-up layers in process.

    Returns ``(systems, seconds)`` where ``seconds`` sums the parse, build
    and FCI phases over all systems.
    """
    systems = {}
    seconds = {"hamiltonian.parse_s": 0.0, "hamiltonian.build_s": 0.0, "oracle.fci_s": 0.0}
    for stem, path in workload.systems.items():
        text = path.read_text()
        t0 = time.perf_counter()
        integrals = parse_fcidump(text)
        t1 = time.perf_counter()
        ham = build_hamiltonian(integrals)
        t2 = time.perf_counter()
        e_fci = float(fci_solve(ham)[0][0])
        t3 = time.perf_counter()
        seconds["hamiltonian.parse_s"] += t1 - t0
        seconds["hamiltonian.build_s"] += t2 - t1
        seconds["oracle.fci_s"] += t3 - t2
        systems[stem] = System(ham, e_fci, energy(ham, hf_state(ham)))
    return systems, seconds


def miss(workload: Workload, result, system: System) -> str | None:
    """Why one run missed the workload's accuracy target, or ``None`` if it met it."""
    if workload.target == "recovery":
        share = (system.e_hf - result.energy) / (system.e_hf - system.e_fci)
        return None if share >= workload.tolerance else f"recovered {share:.3f} of E_HF - E_FCI"
    error = abs(result.energy - system.e_fci)
    return None if error <= workload.tolerance else f"|E - E_FCI| = {error:.3e} Ha"
