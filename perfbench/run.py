"""Benchmark of the cqesim solver library through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and measures that checkout's ``src/``,
never an installed copy.  One process serves one workload as a closed
loop: it issues the workload's ``cqe_run`` jobs back to back, pass after
pass, while another pass still fits in ``--seconds`` (at least one pass).
Every result is checked against the FCI oracle; a violated invariant
aborts with a non-zero exit and no result line.

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (median over
passes of the summed ``cqe_run`` time), ``setup_s`` (median of
fresh-process set-ups, half taken before the passes and half after),
``solved_frac`` (share of runs meeting the accuracy target) and
``peak_rss_mb``.  Both timings are in reference seconds: each wall time
is rescaled by a fixed calibration kernel timed right next to it (see
``calibrate.py``), so that the host's wandering speed cancels out.

``--trace 1`` runs every job twice back to back, once plain and once with
spans around the solver's calls into each layer, and reports the per-layer
metrics, including the tracing overhead as the median traced/plain time
ratio of those pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that misses
its workload's accuracy target, or raises, is a failed operation.
"""

import os

# Pin BLAS threads before numpy loads; set-up probes inherit the pin.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checker
from tracer import RUN_SPAN, SOLVER_CALLS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The machine's speed wanders over seconds, so probes taken in one burst all
# see the same moment; half run before the measured passes and half after.
SETUP_PROBES = 8
# Calibration kernel time as a share of job time in a pass.  The host's
# speed also jumps within fractions of a second, so the kernel needs a fair
# share of the pass to track the speed the jobs saw.
KERNEL_SHARE = 0.2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def setup_times(workload, probes) -> list[tuple[float, float]]:
    """(cold set-up seconds, kernel seconds) of ``probes`` fresh processes in turn."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in workload.systems.values()]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds, kernel = (float(t) for t in done.stdout.split())
        times.append((seconds, kernel))
    return times


def run_job(job, ham, cqe_run, tracer=None):
    """One ``cqe_run`` call: (wall seconds, result, or None if it raised)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = cqe_run(ham, job.config)
        else:
            result = tracer.call(RUN_SPAN, cqe_run, ham, job.config)
    except Exception as exc:  # a raising run is a failed operation, reported below
        result = None
        print(f"error {job.label}: {exc!r}")
    return time.perf_counter() - start, result


def run_pass(workload, systems, solver):
    """Issue every job once, each right after one or more runs of the calibration kernel.

    Before each job the kernel runs until its time so far in the pass is at
    least ``KERNEL_SHARE`` of the job time so far, and at least once.
    Returns (summed cqe_run wall seconds, [(job, result)], mean kernel seconds).
    """
    seconds = 0.0
    kernel = 0.0
    kernel_runs = 0
    outcomes = []
    for job in workload.jobs:
        before = kernel_runs
        while kernel_runs == before or kernel < KERNEL_SHARE * seconds:
            kernel += calibrate.kernel_seconds()
            kernel_runs += 1
        took, result = run_job(job, systems[job.system].ham, solver.cqe_run)
        seconds += took
        outcomes.append((job, result))
    return seconds, outcomes, kernel / kernel_runs


def run_paired_pass(workload, systems, solver, tracer):
    """Issue every job twice back to back, once plain and once traced.

    The order within a pair alternates from job to job, so neither side
    always runs second.  Returns the plain pass and the traced pass, each
    as ``run_pass`` gives it, and the traced/plain time ratio of each pair.
    """
    passes = {False: [0.0, []], True: [0.0, []]}
    ratios = []
    for index, job in enumerate(workload.jobs):
        ham = systems[job.system].ham
        took = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.run = job.label
                with tracer.patch(solver):
                    took[traced] = run_job(job, ham, solver.cqe_run, tracer)
            else:
                took[traced] = run_job(job, ham, solver.cqe_run)
        for traced, (seconds, result) in took.items():
            passes[traced][0] += seconds
            passes[traced][1].append((job, result))
        ratios.append(took[True][0] / took[False][0])
    return tuple(passes[False]), tuple(passes[True]), ratios


def measure(one_pass, seconds):
    """Call ``one_pass`` until the next call would overrun ``seconds``; at least once."""
    runs = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runs.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return runs


def evaluate(workload, systems, outcomes):
    """Check one pass; returns (digest, misses, log10 success probabilities)."""
    import workloads

    entries, misses, log_probs = [], [], []
    for job, result in outcomes:
        entries.append(checker.trajectory(job.label, result))
        if result is None:
            misses.append(f"{job.label}: raised")
            continue
        system = systems[job.system]
        checker.check_run(job.label, result, system.e_fci, job.config.execution)
        log_probs.append(math.log10(result.success_prob))
        why = workloads.miss(workload, result, system)
        if why is not None:
            misses.append(f"{job.label}: {why}")
    return checker.digest(entries), misses, log_probs


def layer_metrics(tracer, runs, ratios, setup_layers) -> dict:
    """Per-layer counts, mean times and shares from the traced passes."""
    passes = len(runs)
    totals = tracer.totals()
    solve_total = totals[RUN_SPAN][1]
    metrics = {}
    for name in SOLVER_CALLS.values():
        calls, incl, own = totals.get(name, (0, 0.0, 0.0))
        if name == "evolution.reset":
            metrics["evolution.resets"] = (calls / passes, "count")
            continue
        metrics[f"{name}_calls"] = (calls / passes, "count")
        metrics[f"{name}_ms_per_call"] = (1e3 * incl / calls if calls else 0.0, "ms/call")
        metrics[f"{name}_share"] = (own / solve_total, "ratio")

    results = [r for _, outcomes in runs for _, r in outcomes if r is not None]
    iterations = sum(len(r.iterations) for r in results)
    trials = totals.get("residuals.energy", (0,))[0] - iterations
    exp_calls = totals.get("evolution.exp", (0,))[0]
    metrics["solver.iterations"] = (iterations / passes, "count")
    metrics["solver.trials_per_iter"] = (trials / iterations if iterations else 0.0, "ratio")
    metrics["solver.exp_calls_per_trial"] = (exp_calls / trials if trials > 0 else 0.0, "ratio")
    metrics["solver.self_share"] = (totals[RUN_SPAN][2] / solve_total, "ratio")
    for status in ("converged", "stalled", "max_iterations"):
        count = sum(r.status == status for r in results)
        metrics[f"solver.{status}"] = (count / passes, "count")
    for name, value in setup_layers.items():
        metrics[name] = (value, "s")
    metrics["trace.solve_s"] = (statistics.median(s for s, _ in runs), "s")
    metrics["trace.overhead"] = (statistics.median(ratios) - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cqesim" / "__init__.py").is_file():
        print(f"perfbench: no cqesim package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cqesim
    import cqesim.solver

    if Path(cqesim.__file__).resolve().parent != (SRC / "cqesim").resolve():
        print(f"perfbench: imported cqesim from {cqesim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    workload = workloads.build_workload(args.workload, args.seed, ROOT)
    probes = SETUP_PROBES if args.trace == 0 else 0
    setups = setup_times(workload, probes // 2)
    systems, setup_layers = workloads.prepare(workload)
    print(f"systems {' '.join(workload.systems)}; jobs {len(workload.jobs)}")

    try:
        tracer = None
        if args.trace:
            tracer = Tracer()
            paired = measure(lambda: run_paired_pass(workload, systems, cqesim.solver, tracer),
                             args.seconds)
            runs = [plain for plain, _, _ in paired]
            traced = [t for _, t, _ in paired]
            ratios = [r for _, _, pass_ratios in paired for r in pass_ratios]
        else:
            runs = measure(lambda: run_pass(workload, systems, cqesim.solver), args.seconds)
        evaluated = [evaluate(workload, systems, run[1]) for run in runs]
        if tracer is not None:
            evaluated += [evaluate(workload, systems, o) for _, o in traced]
        digests = {d for d, _, _ in evaluated}
        if len(digests) != 1:
            raise checker.CheckFailure(f"trajectory digests differ between passes: {sorted(digests)}")
    except checker.CheckFailure as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 3
    setups += setup_times(workload, probes - probes // 2)

    digest, misses, log_probs = evaluated[0]
    attempted = len(workload.jobs) * len(evaluated)
    failed = sum(len(m) for _, m, _ in evaluated)
    print(f"passes {len(runs)}: " + " ".join(f"{run[0]:.3f}s" for run in runs) + f"; digest {digest}")
    for miss in misses:
        print(f"failed {miss}")

    solved_frac = (1.0 - len(misses) / len(workload.jobs), "ratio")
    log10_success_prob = (statistics.median(log_probs) if log_probs else 0.0, "log10")
    if args.trace == 0:
        kernels = [k for _, _, k in runs] + [k for _, k in setups]
        print("calibration kernel mean per pass, then per probe: "
              + " ".join(f"{k * 1e3:.1f}ms" for k in kernels)
              + f"; reference {calibrate.REFERENCE_S * 1e3:g}ms")
        print(f"wall solve_s {statistics.median(s for s, _, _ in runs):.4f} s, "
              f"setup_s {statistics.median(s for s, _ in setups):.4f} s")
        metrics = {
            "solve_s": (statistics.median(calibrate.reference_seconds(s, k)
                                          for s, _, k in runs), "s"),
            "setup_s": (statistics.median(calibrate.reference_seconds(s, k)
                                          for s, k in setups), "s"),
            "solved_frac": solved_frac,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        shown = {**metrics, "log10_success_prob": log10_success_prob}
    else:
        metrics = layer_metrics(tracer, traced, ratios, setup_layers)
        metrics["solver.solved_frac"] = solved_frac
        metrics["evolution.log10_success_prob"] = log10_success_prob
        shown = metrics
        stem = f"trace-{args.workload}-s{args.seed}"
        tracer.write(OUT / f"{stem}.jsonl")
        (OUT / f"{stem}-counts.json").write_text(json.dumps({
            "env": env, "passes": len(traced), "digest": digest,
            "totals": {k: list(v) for k, v in sorted(tracer.totals().items())},
            "not_traced": tracer.missing,
        }, indent=1) + "\n")
        for name in tracer.missing:
            print(f"not traced: {name} is absent")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")

    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
