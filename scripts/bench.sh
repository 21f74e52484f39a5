#!/usr/bin/env bash
# Builds the benchmarks in Release and records the results at the repo
# root, so successive PRs leave a perf trajectory:
#   BENCH_micro.json — google-benchmark micro suites
#   BENCH_sweep.json — wall-clock of end-to-end qolsr_eval sweeps, the
#                      wire backend's process fleets included
# A run replaces each file's numbers and keeps its `notes` list, the
# hand-written before/after record of earlier changes.
# Usage:
#
#   scripts/bench.sh [--quick]
#
# --quick lowers the per-benchmark minimum time and shrinks the sweep
# (smoke run, noisier).
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BUILD_DIR="${BENCH_BUILD_DIR:-build-bench}"
MIN_TIME="0.5"
SWEEP_RUNS="10"
SWEEP_REPS="2"
if [[ "${1:-}" == "--quick" ]]; then
  MIN_TIME="0.05"
  SWEEP_RUNS="5"
  SWEEP_REPS="1"
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target micro_selection micro_path micro_sim micro_forwarding qolsr_eval \
  qolsr_node qolsr_switch

# Host metadata embedded in both result files: without it, numbers like a
# threads=0 vs threads=1 parity are uninterpretable (was the runner
# single-core? which compiler and flags produced the binary?).
cache_var() {
  sed -n "s/^$1:[^=]*=//p" "$BUILD_DIR/CMakeCache.txt" | head -1
}
CXX_COMPILER="$(cache_var CMAKE_CXX_COMPILER)"
export QOLSR_BENCH_HOST_JSON="$(python3 -c 'import json, sys; print(json.dumps({
    "hardware_concurrency": int(sys.argv[1]),
    "compiler": sys.argv[2],
    "build_type": sys.argv[3],
    "cxx_flags": sys.argv[4].strip(),
    "uname": sys.argv[5],
}))' "$(nproc)" "$("$CXX_COMPILER" --version | head -1)" \
    "$(cache_var CMAKE_BUILD_TYPE)" \
    "$(cache_var CMAKE_CXX_FLAGS) $(cache_var CMAKE_CXX_FLAGS_RELEASE)" \
    "$(uname -srm)")"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

for bench in micro_selection micro_path micro_sim micro_forwarding; do
  "$BUILD_DIR/$bench" \
    --benchmark_format=json \
    --benchmark_min_time="$MIN_TIME" \
    >"$TMP_DIR/$bench.json"
done

python3 - "$TMP_DIR" "$ROOT/BENCH_micro.json" <<'PY'
import json
import os
import subprocess
import sys

tmp_dir, out_path = sys.argv[1], sys.argv[2]

notes = []  # each change's before/after record, carried over
if os.path.exists(out_path):
    with open(out_path) as f:
        notes = json.load(f).get("notes", [])
merged = {"context": None,
          "host": json.loads(os.environ["QOLSR_BENCH_HOST_JSON"]),
          "commit": "", "notes": notes, "benchmarks": []}
for name in ("micro_selection", "micro_path", "micro_sim",
             "micro_forwarding"):
    with open(f"{tmp_dir}/{name}.json") as f:
        data = json.load(f)
    if merged["context"] is None:
        merged["context"] = data.get("context", {})
    for bench in data.get("benchmarks", []):
        bench["suite"] = name
        merged["benchmarks"].append(bench)
try:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
except OSError:
    commit = ""
merged["commit"] = commit
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out_path} ({len(merged['benchmarks'])} benchmarks)")
PY

# End-to-end sweep timing through the runtime engine (qolsr_eval), best of
# $SWEEP_REPS wall-clock reps each: the paper's Fig. 6 experiment
# (bandwidth, the concave first-hop engine) single-threaded for
# determinism and with all cores, and its Fig. 7 experiment (delay, the
# additive engine) single-threaded.
python3 - "$BUILD_DIR/qolsr_eval" "$ROOT/BENCH_sweep.json" \
    "$SWEEP_RUNS" "$SWEEP_REPS" <<'PY'
import json
import os
import subprocess
import sys
import time

binary, out_path, runs, reps = (sys.argv[1], sys.argv[2], sys.argv[3],
                                int(sys.argv[4]))
host = json.loads(os.environ["QOLSR_BENCH_HOST_JSON"])
notes = []  # each change's before/after record, carried over
if os.path.exists(out_path):
    with open(out_path) as f:
        notes = json.load(f).get("notes", [])
results = []
for figure, threads in (("6", "1"), ("6", "0"), ("7", "1")):
    flags = [f"--figure={figure}", f"--runs={runs}", "--seed=42",
             f"--threads={threads}", "--format=csv"]
    timings = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([binary, *flags], check=True,
                       stdout=subprocess.DEVNULL)
        timings.append(time.perf_counter() - start)
    results.append({"name": f"fig{figure}_sweep/runs={runs}/threads={threads}",
                    "flags": flags, "reps": reps,
                    "best_seconds": min(timings),
                    "mean_seconds": sum(timings) / len(timings)})

# Packet-backend point: the same engine but with a per-run discrete-event
# control plane (HELLO/TC flooding to measured convergence). Scaled-down
# field/densities — the full paper field converges thousands of nodes per
# run — so the trajectory tracks simulator cost, not deployment size.
packet_flags = ["--backend=packet", "--densities=10,20",
                f"--runs={min(int(runs), 3)}", "--seed=42", "--threads=1",
                "--field=500x500", "--format=csv"]
timings = []
for _ in range(reps):
    start = time.perf_counter()
    subprocess.run([binary, *packet_flags], check=True,
                   stdout=subprocess.DEVNULL)
    timings.append(time.perf_counter() - start)
results.append({"name": f"packet_sweep/runs={min(int(runs), 3)}/threads=1",
                "flags": packet_flags, "reps": reps,
                "best_seconds": min(timings),
                "mean_seconds": sum(timings) / len(timings)})

# Wire-backend point: every (run, protocol) is a fleet of real qolsr_node
# daemons plus a switch (qolsr_eval spawns them from next to itself),
# digest-checked against an in-process twin. Its 60 fleets overlap under
# the harness's 64-process budget, so the point tracks how well they do:
# each fleet idles through its convergence dwell, so wall clock, not CPU,
# is the cost.
wire_flags = ["--backend=wire", "--field=250x250", "--densities=6,8",
              "--runs=6", "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,"
              "topology_filtering,fnbp", "--seed=42", "--threads=1",
              "--format=csv"]
timings = []
for _ in range(reps):
    start = time.perf_counter()
    subprocess.run([binary, *wire_flags], check=True,
                   stdout=subprocess.DEVNULL)
    timings.append(time.perf_counter() - start)
results.append({"name": "wire_sweep/runs=6/threads=1", "flags": wire_flags,
                "reps": reps, "best_seconds": min(timings),
                "mean_seconds": sum(timings) / len(timings)})

# Single canned-figure points on the packet backend, one run each: the
# figure-L load point exercises the steady-state forwarding path under
# concurrent flows (the knowledge-cache + route-memo hot path), the
# figure-R loss point the fault/re-convergence machinery. Timed once —
# these are minutes-scale trajectory markers, not tight micro numbers.
for figure, point in (("L", "4.0"), ("R", "0.2")):
    flags = [f"--figure={figure}", f"--densities={point}", "--runs=1",
             "--seed=7", "--threads=1", "--format=csv"]
    start = time.perf_counter()
    subprocess.run([binary, *flags], check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    results.append({"name": f"fig{figure}_point/{point}/runs=1/threads=1",
                    "flags": flags, "reps": 1,
                    "best_seconds": elapsed, "mean_seconds": elapsed})
try:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
except OSError:
    commit = ""
with open(out_path, "w") as f:
    json.dump({"commit": commit, "notes": notes, "host": host,
               "benchmarks": results}, f, indent=1)
print(f"wrote {out_path} ({len(results)} sweep timings)")
PY
