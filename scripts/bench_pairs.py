#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, with the gain and regression verdicts.

    scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--pairs 10] [--seconds 20] [--seed-base 1]

Runs perfbench/run.py of each checkout (trace off) once per pair, on seed
seed-base + i for pair i, alternating which side goes first. Each side
builds into its own CARGO_TARGET_DIR (DIR/.bench_build). For every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the pairs each side won (ties count for neither) and a verdict:

  gain        the change won at least 9/10 of the pairs, and its median is
              better than the parent's by more than the parent's IQR
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  not a regression, but the parent's own IQR is wider than
              the bound, and not every change run beats every parent run
  held        none of the above

Every run must report correct and failed == 0; the script stops otherwise.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {checkout} seed {seed}: perfbench failed")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) != 0:
        sys.exit(f"bench_pairs: {checkout} seed {seed}: incorrect result "
                 f"(correct={result.get('correct')}, "
                 f"failed={result.get('failed')})")
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(change wins, parent wins, verdict) of one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gap = sign * (cm - pm)  # > 0: the change is better
    if wins >= math.ceil(0.9 * len(parent)) and gap > q3 - q1:
        return wins, losses, "gain"
    if -gap > bound * abs(pm):
        return wins, losses, "regression"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if q3 - q1 > bound * abs(pm) and not all_better:
        return wins, losses, "unresolved"
    return wins, losses, "held"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    if parent == change:
        sys.exit("bench_pairs: --parent and --change name the same checkout")

    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(run_side(checkout, args.workload, seed,
                                       args.seconds))
        p, c = runs["parent"][-1], runs["change"][-1]
        shown = ", ".join(
            f"{m['name']} {p['metrics'][m['name']]['value']:.4g}/"
            f"{c['metrics'][m['name']]['value']:.4g}" for m in metrics)
        print(f"pair {i + 1} seed {seed} first={order[0]} "
              f"attempted {p['attempted']}/{c['attempted']}: {shown}",
              flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}")
    print(f"{'metric':<18} {'parent median [q1-q3]':>30} "
          f"{'change median [q1-q3]':>30} {'wins c/p':>9}  verdict")
    for m in metrics:
        name = m["name"]
        pv = [r["metrics"][name]["value"] for r in runs["parent"]]
        cv = [r["metrics"][name]["value"] for r in runs["change"]]
        wins, losses, what = verdict(pv, cv, m["better"], m["bound"])

        def cell(values: list) -> str:
            q1, q3 = quartiles(values)
            return (f"{statistics.median(values):.4g} "
                    f"[{q1:.4g}-{q3:.4g}]")

        print(f"{name:<18} {cell(pv):>30} {cell(cv):>30} "
              f"{wins:>3}/{losses:<3}  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
