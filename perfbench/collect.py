"""Run the benchmark over many seeds and summarise its spread; writes the baseline.

    python3 perfbench/collect.py --seeds 1-10 [--sets 2] [--workloads a,b]
                                 [--trace-seed 1] [--out perfbench/BASELINE.json]

Each set runs every workload once per seed, each run a fresh process of
``run.py`` with the ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric it reports the median, the quartiles and the spread
(interquartile distance over the median), the change of each later set's
median against the first, and whether every set gave the same trajectory
digest per seed.  ``--trace-seed`` adds one traced run per workload for the
per-layer numbers.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end number each per-layer metric should move, and where.
LAYER_MAP = {
    "fock.generator_*": "solve_s on sweep_exact (~60 %) and h4_dilated (~46 %); "
                        "~5 % on h4_sampled, where no change is expected",
    "evolution.estimate_*": "solve_s on h4_sampled only (~89 %); zero elsewhere",
    "evolution.vstep_*, evolution.resets": "solve_s on h4_dilated only",
    "evolution.exp_*": "solve_s on sweep_exact (~24 %) and h4_dilated",
    "residuals.residual_*, residuals.energy_*, residuals.variance_*": "solve_s; each <= 4 % today",
    "solver.iterations, solver.trials_per_iter, solver.exp_calls_per_trial":
        "solve_s and solved_frac on sweep_exact; log10_success_prob on h4_dilated",
    "solver.self_share, solver.converged, solver.stalled, solver.max_iterations":
        "solve_s (loop overhead) and why runs stop",
    "hamiltonian.parse_s, hamiltonian.build_s, oracle.fci_s":
        "setup_s; work moved into set-up also shows in peak_rss_mb",
    "solver.solved_frac, evolution.log10_success_prob":
        "run quality; failed operations in the result line carry the same misses",
    "trace.solve_s, trace.overhead": "cost of tracing itself: median traced/plain ratio of paired runs",
}


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    info = {"result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("env "):
            info["env"] = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", line[4:]))
        elif line.startswith("passes "):
            info["digest"] = line.rsplit("digest ", 1)[1]
        elif line.startswith("wall "):
            info["wall"] = {k: float(v) for k, v in re.findall(r"(\w+) ([\d.]+) s", line)}
    return info


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    runs = {name: [] for name in names}
    env = {}
    for set_no in range(args.sets):
        for seed in args.seeds:
            for name in names:
                info = run_once(spec, name, seed, 0)
                env = info.get("env", env)
                runs[name].append({"set": set_no, "seed": seed, "digest": info["digest"],
                                   "failed": info["result"]["failed"],
                                   "wall": info.get("wall", {}),
                                   "metrics": {k: v["value"] for k, v in info["result"]["metrics"].items()}})
                print(f"set {set_no} seed {seed} {name}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[name][-1]["metrics"].items())
                      + " wall " + " ".join(f"{k}={v:.4g}" for k, v in runs[name][-1]["wall"].items()),
                      flush=True)

    summary = {"env": env, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "sets": args.sets, "layer_map": LAYER_MAP, "workloads": {}}
    ok = True
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in names:
        entry = {"why": whys[name], "end_to_end": {}, "runs": runs[name]}
        for metric in bounds:
            per_set = [stats([r["metrics"][metric] for r in runs[name] if r["set"] == s])
                       for s in range(args.sets)]
            first = per_set[0]["median"]
            drift = [p["median"] / first - 1.0 for p in per_set[1:]]
            entry["end_to_end"][metric] = {"sets": per_set, "median_change": drift}
            flag = ""
            if any(p["spread"] > bounds[metric] / 3 for p in per_set):
                flag = "  SPREAD > bound/3"
            worse = [d if lower_better[metric] else -d for d in drift]
            if any(w > bounds[metric] for w in worse):
                flag += "  MEDIAN WORSE > bound"
            print(f"{name:12s} {metric:12s} " + " | ".join(
                f"median {p['median']:.4g} spread {p['spread']:.3f}" for p in per_set)
                + (f" | change {', '.join(f'{d:+.3f}' for d in drift)}" if drift else "") + flag)
            ok &= not flag
        digests = {}
        for r in runs[name]:
            digests.setdefault(str(r["seed"]), set()).add(r["digest"])
        entry["digests"] = {seed: sorted(d) for seed, d in digests.items()}
        if any(len(d) > 1 for d in digests.values()):
            print(f"{name}: trajectory digests differ between sets")
            ok = False
        if args.trace_seed is not None:
            info = run_once(spec, name, args.trace_seed, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "digest": info["digest"],
                                  "metrics": info["result"]["metrics"]}
            if info["digest"] not in digests.get(str(args.trace_seed), {info["digest"]}):
                print(f"{name}: traced digest differs from untraced")
                ok = False
        summary["workloads"][name] = entry

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, default=sorted) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
