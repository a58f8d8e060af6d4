"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage:  python scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
                [--pairs N] [--seconds S] [--first-seed K] > BENCH_x.json

``PARENT`` and ``CHANGE`` are checkout roots, each with its own
``perfbench/run.py`` and ``src/``.  For every workload, pair i runs
``perfbench/run.py --workload W --seed K+i --seconds S`` once in each
checkout, one after the other, parent first in even pairs and change first
in odd ones, so that a drift of the host's speed falls on both sides.  Each
pair has its own seed, and every run is a fresh process.

For each end-to-end metric that ``BENCHMARK.json`` in ``CHANGE`` lists, the
summary on stderr gives each side's median and quartiles (inclusive
method) over the pairs, and the number of pairs in which the change read
better, by the metric's ``better`` direction; a tie counts for neither
side.  It also gives each side's failed and attempted operations summed
over its runs.  A run that exits non-zero stops the script with its
output.  Stdout gets one JSON document with the same summary and every
run's metrics, keyed by workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in a checkout."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} in {root} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Each side's median and quartiles per metric, the pairs the change won,
    and each side's failed and attempted operations."""
    stats = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        stats[name] = {"unit": metric["unit"], "better": metric["better"], "change_wins": wins}
        for side in SIDES:
            quartiles = statistics.quantiles(values[side], n=4, method="inclusive")
            stats[name][side] = {"median": quartiles[1], "quartiles": [quartiles[0], quartiles[2]]}
    operations = {
        side: {key: sum(pair[side][key] for pair in pairs) for key in ("failed", "attempted")}
        for side in SIDES
    }
    return {"pairs": len(pairs), "stats": stats, "operations": operations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    report = {"command": f"perfbench/run.py --seconds {args.seconds:g}", "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} solve_s {pair[side]['metrics']['solve_s']['value']:.5f}" for side in order
            ), file=sys.stderr)
        result = summary(pairs, metrics)
        for name, stat in result["stats"].items():
            print(f"{workload} {name} ({stat['unit']}, {stat['better']} is better): " + "; ".join(
                f"{side} median {stat[side]['median']:.5g} quartiles "
                f"{stat[side]['quartiles'][0]:.5g}-{stat[side]['quartiles'][1]:.5g}" for side in SIDES
            ) + f"; change won {stat['change_wins']} of {result['pairs']}", file=sys.stderr)
        print(f"{workload} operations failed/attempted: " + ", ".join(
            f"{side} {ops['failed']}/{ops['attempted']}" for side, ops in result["operations"].items()
        ), file=sys.stderr)
        result["runs"] = [
            {"seed": pair["seed"], "first": pair["first"],
             **{side: {k: v["value"] for k, v in pair[side]["metrics"].items()} for side in SIDES}}
            for pair in pairs
        ]
        report["workloads"][workload] = result
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
