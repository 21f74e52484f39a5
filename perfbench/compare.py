#!/usr/bin/env python3
"""Alternating parent/change comparison on one workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload NAME \
        [--pairs 10] [--seed-base 100] [--trace 0]

PARENT_DIR and CHANGE_DIR are two checkouts with the same perfbench/. Pair
i runs both on seed SEED_BASE + i, the parent first on even i and the
change first on odd i. For every metric it prints each side's median and
quartiles, the share of pairs the change won, and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's spread is wider than the bound, and not every
              change run beat every parent run
  same        none of the above
  failed      the change failed more evaluations, summed over its runs,
              than the parent: every metric gets this verdict, never gain
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, options, seed):
    command = [sys.executable, "perfbench/run.py", "--workload",
               options.workload, "--seed", str(seed), "--seconds",
               str(options.seconds), "--trace", str(options.trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: run.py failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {checkout} seed {seed}: {result['failed']} of "
              f"{result['attempted']} evaluations failed", file=sys.stderr)
    return ({name: m["value"] for name, m in result["metrics"].items()},
            result["failed"], result["attempted"])


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(parent) and abs(p_med - c_med) > q3 - q1 and \
            sign * (p_med - c_med) > 0:
        return wins, "gain"
    if bound is not None and p_med != 0 and \
            sign * (c_med - p_med) / abs(p_med) > bound:
        return wins, "regressed"
    if bound is not None and p_med != 0 and (q3 - q1) / abs(p_med) > bound \
            and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()
    spec = json.loads((options.change / "BENCHMARK.json").read_text())
    options.seconds = spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    samples = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    attempted = {"parent": 0, "change": 0}
    for i in range(options.pairs):
        seed = options.seed_base + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            metrics, side_failed, side_attempted = run_side(
                getattr(options, side), options, seed)
            samples[side].append(metrics)
            failed[side] += side_failed
            attempted[side] += side_attempted
        print(f"pair {i + 1}/{options.pairs} done", file=sys.stderr)

    for side in ("parent", "change"):
        print(f"{side}: {failed[side]} of {attempted[side]} evaluations "
              "failed")
    more_failures = failed["change"] > failed["parent"]

    print(f"{'metric':32s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s}  wins  verdict")
    for name in samples["parent"][0]:
        parent = [s[name] for s in samples["parent"]]
        change = [s[name] for s in samples["change"]]
        wins, outcome = verdict(parent, change, declared[name]["better"],
                                declared[name].get("bound"))
        if more_failures:
            outcome = "failed"
        cells = []
        for values in (parent, change):
            q1, med, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{statistics.median(values):.5g} "
                         f"[{q1:.5g}, {q3:.5g}]")
        print(f"{name:32s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{wins:2d}/{len(parent)}  {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
