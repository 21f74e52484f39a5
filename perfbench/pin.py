#!/usr/bin/env python3
"""Pins the input pool and reference rows of a benchmark workload.

    python3 perfbench/pin.py WORKLOAD [--candidates 64]

Each candidate input is one scenario seed for the workload's specs. The
candidates are screened with one traced rep each (three at a time: only
the deterministic work counts are used). The 3 × POOL_SIZE candidates
closest to the median counts then run one untraced rep each, whose rows
must equal the traced rows, and the pool keeps the POOL_SIZE of them whose
counts and peak RSS lie closest to the medians, so that the benchmark's
spread across seeds measures the program rather than the draw. run.py maps
`--seed N` to pool entry N mod len(pool) and checks every rep's rows
against that entry's pinned CSV.

Re-pin only when a change is meant to alter the figure rows; a pinned
reference that stops matching is a correctness failure, not a nuisance.
"""

import argparse
import json
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor

import run

SEED_BASE = 1000
POOL_SIZE = 10  # ten consecutive --seed values cover the pool once
# Deterministic per-layer counts that track each workload's host work.
COST_COUNTS = {
    "figure_sweep": ["graph.nodes", "sim.converge_events",
                     "sim.reconverge_events"],
    "oracle_sweep": ["graph.nodes"],
    "packet_faults": ["sim.converge_events", "sim.reconverge_events"],
    "packet_load": ["sim.converge_events", "sim.traffic_events"],
    "wire_fleet": ["proto.control_bytes"],
}


def traced_counts(workload, scenario_seed):
    csv = run.OUT_DIR / f"{workload}.pin{scenario_seed}.csv"
    report = run.launch("traced", run.spec_args(workload, scenario_seed), csv)
    rows = csv.read_text()
    csv.unlink()
    usable = (not report["errors"] and report["failed"] == 0 and
              report["layers"]["net.digest_mismatches"] == 0)
    counts = {name: report["layers"][name] for name in COST_COUNTS[workload]}
    return {"scenario_seed": scenario_seed, "usable": usable, "rows": rows,
            "cap_hits": report["cap_hits"], "counts": counts}


def untraced_rep(workload, candidate):
    """An untraced rep of a candidate; its rows must equal the traced ones."""
    seed = candidate["scenario_seed"]
    csv = run.OUT_DIR / f"{workload}.pin{seed}.csv"
    report = run.launch("rep", run.spec_args(workload, seed), csv)
    rows = csv.read_text()
    csv.unlink()
    if rows != candidate["rows"] or report["cap_hits"] != candidate["cap_hits"]:
        raise run.BenchError(f"seed {seed}: untraced rows differ from traced "
                             "rows")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("--candidates", type=int, default=64)
    options = parser.parse_args()
    workload = options.workload

    run.adopt_orphans()
    run.build()
    run.OUT_DIR.mkdir(exist_ok=True)
    seeds = range(SEED_BASE, SEED_BASE + options.candidates)
    with ThreadPoolExecutor(max_workers=3) as pool:
        screened = list(pool.map(lambda s: traced_counts(workload, s), seeds))
    run.stray_daemons()
    candidates = [c for c in screened if c["usable"]]
    if len(candidates) < POOL_SIZE:
        raise run.BenchError(f"only {len(candidates)} usable candidates")
    # median_low: a target some candidate's counts attain exactly.
    medians = {name: statistics.median_low(c["counts"][name]
                                           for c in candidates)
               for name in COST_COUNTS[workload]}

    def distance(candidate):
        return max(abs(candidate["counts"][name] / medians[name] - 1.0)
                   for name in medians if medians[name] > 0)

    # Peak RSS also varies with the input; it comes from an untraced rep
    # (the traced one also holds the spans), run for the 3 × POOL_SIZE
    # candidates closest by counts.
    shortlist = sorted(candidates, key=distance)[:3 * POOL_SIZE]
    with ThreadPoolExecutor(max_workers=3) as pool:
        reps = list(pool.map(lambda c: untraced_rep(workload, c), shortlist))
    if run.stray_daemons():
        raise run.BenchError("a rep left daemon processes running")
    rss_median = statistics.median(r["peak_rss_mb"] for r in reps)
    for c, r in zip(shortlist, reps):
        c["peak_rss_mb"] = r["peak_rss_mb"]

    def overall(candidate):
        return max(distance(candidate),
                   abs(candidate["peak_rss_mb"] / rss_median - 1.0))

    kept = sorted(sorted(shortlist, key=overall)[:POOL_SIZE],
                  key=lambda c: c["scenario_seed"])
    inputs = [{"scenario_seed": c["scenario_seed"], "cap_hits": c["cap_hits"],
               "counts": c["counts"], "peak_rss_mb": c["peak_rss_mb"],
               "csv": c["rows"]} for c in kept]
    for entry in inputs:
        print(f"kept seed {entry['scenario_seed']} counts={entry['counts']} "
              f"peak_rss_mb={entry['peak_rss_mb']:.2f}")

    reference = {
        "specs": run.WORKLOADS[workload],
        "selection": {"candidates": options.candidates,
                      "counts": COST_COUNTS[workload],
                      "medians": dict(medians, peak_rss_mb=rss_median),
                      "max_distance": max(overall(c) for c in kept)},
        "inputs": inputs,
    }
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"pinned {len(kept)} of {len(candidates)} candidates to {path} "
          f"(max count distance {reference['selection']['max_distance']:.4f})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as error:
        print(f"pin: {error}", file=sys.stderr)
        sys.exit(1)
