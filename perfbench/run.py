#!/usr/bin/env python3
"""End-to-end benchmark of the QOLSR/FNBP evaluation engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the qolsr_bench binary
plus the qolsr_node/qolsr_switch daemons) into .bench_build/, then:

  --trace 0  launches one cold qolsr_bench process per rep until S seconds
             have passed and reports the end-to-end metrics as medians over
             the reps: wall_s, cpu_s, peak_rss_mb and setup_s.
  --trace 1  alternates untraced and traced reps for S seconds and reports
             the per-layer metrics (medians over the traced reps), the
             tracing overhead and the span coverage.

Every rep's figure rows are checked against the pinned reference of its
input (perfbench/references/), and every traced rep's rows against the
untraced rep's, byte for byte. The last line of stdout is the JSON result;
the lines before it print every metric by name with its unit.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BIN_DIR = BUILD_DIR / "bin"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "references"

# Each workload is a list of qolsr_eval specs run back to back in one rep;
# run.py appends the input's --seed. Why each one exists: README.md.
WORKLOADS = {
    "figure_sweep": [["--figure=6", "--runs=1"], ["--figure=7", "--runs=1"],
                     ["--figure=R", "--densities=0.2", "--field=500x500",
                      "--runs=1"]],
    "oracle_sweep": [["--figure=6", "--runs=1"], ["--figure=7", "--runs=1"]],
    "packet_faults": [["--figure=R", "--densities=0.2", "--field=500x500",
                       "--runs=2"]],
    "packet_load": [["--figure=L", "--densities=4", "--field=500x500",
                     "--runs=2"]],
    "wire_fleet": [["--backend=wire", "--field=250x250", "--densities=6",
                    "--runs=2"]],
}
COMMON_FLAGS = ["--threads=1", "--format=csv"]
SETUP_PROBES = 20    # extra set-up-only launches per run, for setup_s
MIN_REPS = 3         # untraced reps per run, even past --seconds
REP_TIMEOUT_S = 150  # a rep that takes longer is killed and counted failed
DAEMONS = ("qolsr_node", "qolsr_switch")
PR_SET_CHILD_SUBREAPER = 36


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a source checkout (no CMakeLists.txt"
                         " or src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "qolsr_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")


def build_metadata():
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": version,
        "cxx_flags": flags,
        "build_type": build_type,
        "commit": source_revision(),
    }


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


# ------------------------------------------------------------- references --

def load_reference(workload):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"no pinned reference {path}")
    reference = json.loads(path.read_text())
    if reference.get("specs") != WORKLOADS[workload]:
        raise BenchError(f"{path} was pinned for other specs; re-pin it with "
                         "perfbench/pin.py")
    return reference


def spec_args(workload, scenario_seed):
    args = []
    for spec in WORKLOADS[workload]:
        if args:
            args.append("--next")
        args += spec + COMMON_FLAGS + [f"--seed={scenario_seed}"]
    return args


def compare_rows(produced, pinned):
    """Evaluations in `pinned` and how many of them `produced` got wrong.

    Each CSV data row aggregates `runs` evaluations of one protocol at one
    sweep point; a row that differs, or is missing, fails all of them.
    """
    produced_lines = produced.splitlines()
    attempted = failed = 0
    runs_col = None
    for i, line in enumerate(pinned.splitlines()):
        cells = line.split(",")
        if "runs" in cells:  # a header row starts a new block
            runs_col = cells.index("runs")
            header_ok = i < len(produced_lines) and produced_lines[i] == line
            continue
        runs = int(cells[runs_col])
        attempted += runs
        if not header_ok or i >= len(produced_lines) or \
                produced_lines[i] != line:
            failed += runs
    if len(produced_lines) != len(pinned.splitlines()):
        failed = max(failed, 1)
    return attempted, failed


# ---------------------------------------------------------------- launch --

def adopt_orphans():
    """Makes this process the reaper of every descendant that outlives its
    parent, so that the daemons of a killed rep can be waited for here."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("prctl(PR_SET_CHILD_SUBREAPER) failed: "
                         f"{os.strerror(ctypes.get_errno())}")


def launch(mode, args, out_csv, spans=None):
    """Runs one cold qolsr_bench process; returns its report plus the
    set-up time and the CPU time (its own and its reaped children's) the
    parent measures.

    The process leads a process group of its own, which the wire daemons
    and switch it forks join, and its report goes to a file rather than a
    pipe those children would hold open. A rep past REP_TIMEOUT_S gets the
    whole group killed, so it fails instead of hanging the benchmark."""
    command = [str(BIN_DIR / "qolsr_bench"), mode, "--out", str(out_csv)]
    if spans is not None:
        command += ["--spans", str(spans)]
    command += ["--"] + args
    report_path = out_csv.with_suffix(".report")
    timed_out = threading.Event()

    def kill_group(pgid):
        timed_out.set()
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(report_path, "wb") as report_file:
        stdout_to_file = [(os.POSIX_SPAWN_DUP2, report_file.fileno(), 1)]
        spawned_ns = time.monotonic_ns()
        pid = os.posix_spawn(command[0], command, os.environ,
                             file_actions=stdout_to_file, setpgroup=0)
    timer = threading.Timer(REP_TIMEOUT_S, kill_group, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    if timed_out.is_set():
        while True:  # the group's killed orphans, now children of this one
            try:
                os.waitpid(-pid, 0)
            except ChildProcessError:
                break
        raise BenchError(f"qolsr_bench {mode} killed after {REP_TIMEOUT_S} s")
    code = os.waitstatus_to_exitcode(status)
    lines = report_path.read_text().strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"qolsr_bench {mode} exited with {code}")
    report = json.loads(lines[-1])
    report["setup_s"] = (report["t_first_run_ns"] - spawned_ns) / 1e9
    report["setup_in_main_s"] = (report["t_first_run_ns"] -
                                 report["t_main_ns"]) / 1e9
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    return report


def alive(pid):
    """Whether `pid` runs; a zombie has ended, whoever is to reap it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def stray_daemons():
    """Kills and counts qolsr_node/qolsr_switch processes of this build
    that outlived their rep; waits until they are gone."""
    ours = {str((BIN_DIR / name).resolve()) for name in DAEMONS}
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if os.readlink(entry / "exe") in ours:
                found.append(int(entry.name))
        except OSError:
            continue
    for pid in found:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while any(alive(pid) for pid in found):
        if time.monotonic() > deadline:
            raise BenchError(f"stray daemons {found} survived SIGKILL")
        time.sleep(0.05)
    for pid in found:  # orphans were adopted by this process
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return len(found)


class Rep:
    """One launched rep, checked against the pinned rows."""

    def __init__(self, mode, workload, entry, tag):
        self.scenario_seed = entry["scenario_seed"]
        out_csv = OUT_DIR / f"{workload}.{tag}.csv"
        spans = OUT_DIR / f"{workload}.spans.tsv" if mode == "traced" else None
        try:
            self.report = launch(mode, spec_args(workload,
                                                 entry["scenario_seed"]),
                                 out_csv, spans)
            self.rows = out_csv.read_text()
        except (BenchError, OSError, ValueError) as error:
            log(f"{mode} rep failed: {error}")
            self.report, self.rows = None, ""
        self.attempted, self.failed = compare_rows(self.rows, entry["csv"])
        strays = stray_daemons()
        if self.report is not None:
            for error in self.report["errors"]:
                log(f"{mode} rep: {error}")
            cap_drift = abs(self.report["cap_hits"] - entry["cap_hits"])
            self.failed += cap_drift
        if strays:
            log(f"{mode} rep left {strays} daemon process(es) running")
        if self.report is None or strays:
            self.failed = self.attempted
        self.failed = min(self.failed, self.attempted)
        if self.failed:
            log(f"{mode} rep: {self.failed}/{self.attempted} evaluations "
                "differ from the pinned reference or failed")


# ---------------------------------------------------------------- metrics --

def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def end_to_end(reps, launches):
    good = [r.report for r in reps if r.report is not None]
    if not good:
        raise BenchError("no rep completed")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in launches),
    }


def per_layer(traced, untraced, launches):
    good = [r.report for r in traced if r.report is not None]
    if not good:
        raise BenchError("no traced rep completed")
    names = good[0]["layers"].keys()
    layers = {name: statistics.median(r["layers"][name] for r in good)
              for name in names}
    traced_wall = statistics.median(r["wall_s"] for r in good)
    untraced_wall = statistics.median(r.report["wall_s"] for r in untraced
                                      if r.report is not None)
    layers["eval.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall
                                                 - 1.0)
    # The program's own share of setup_s: main() to the first run issued.
    layers["eval.setup_ms"] = 1e3 * statistics.median(
        r["setup_in_main_s"] for r in launches)
    return layers


def print_metrics(title, values, units, samples):
    print(f"{title} (median of {samples}):")
    for name in sorted(values):
        print(f"  {name:32s} {values[name]:>16.6g} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    e2e_units, layer_units = declared_metrics()
    adopt_orphans()
    build()
    reference = load_reference(options.workload)
    inputs = reference["inputs"]
    index = options.seed % len(inputs)

    def entry_of(rep):
        """--trace 0 walks the pool from the seed's entry, one entry per
        rep, so that a run's median spans the pool and the pool entries'
        different costs do not spread the medians of different seeds.
        --trace 1 keeps the seed's entry, so its counts repeat exactly."""
        step = 0 if options.trace else rep
        return inputs[(index + step) % len(inputs)]

    OUT_DIR.mkdir(exist_ok=True)
    meta = build_metadata()
    meta.update(workload=options.workload, seed=options.seed,
                input_index=index, scenario_seed=inputs[index]["scenario_seed"],
                trace=options.trace)

    stray_daemons()
    # Untraced launches, set-up-only and full reps: the set-up samples.
    launches = [launch("setup", spec_args(options.workload,
                                          entry_of(i)["scenario_seed"]),
                       OUT_DIR / f"{options.workload}.setup.csv")
                for i in range(SETUP_PROBES)]

    # Reps continue while the next one (as long as the last) still ends
    # within --seconds; --trace 1 steps in untraced+traced pairs.
    untraced, traced = [], []
    started = last = time.monotonic()
    while True:
        now = time.monotonic()
        step, last = now - last, now
        minimum = 1 if options.trace else MIN_REPS
        if len(untraced) >= minimum and now + step > started + options.seconds:
            break
        entry = entry_of(len(untraced))
        untraced.append(Rep("rep", options.workload, entry, "rep"))
        if untraced[-1].report is not None:
            launches.append(untraced[-1].report)
        if options.trace:
            rep = Rep("traced", options.workload, entry, "traced")
            if rep.report is not None and rep.rows != untraced[-1].rows:
                log("traced rep's rows differ from the untraced rep's")
                rep.failed = rep.attempted
            traced.append(rep)

    reps = untraced + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    e2e = end_to_end(untraced, launches)
    print_metrics("end-to-end", e2e, e2e_units, f"{len(untraced)} reps")
    print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} ratio "
          f"({failed}/{attempted} evaluations)")
    metrics = e2e
    if options.trace:
        layers = per_layer(traced, untraced, launches)
        if set(layers) != set(layer_units):
            raise BenchError("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(layers) ^ set(layer_units))}")
        print_metrics("per-layer", layers, layer_units,
                      f"{len(traced)} traced reps")
        metrics = layers
    elif set(e2e) != set(e2e_units):
        raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    units = layer_units if options.trace else e2e_units

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, meta=meta, end_to_end=e2e,
                  samples={"setup_s": [r["setup_s"] for r in launches],
                           "setup_in_main_s": [r["setup_in_main_s"]
                                               for r in launches],
                           "untraced": [r.report for r in untraced],
                           "untraced_scenario_seeds": [r.scenario_seed
                                                       for r in untraced],
                           "traced": [r.report for r in traced]})
    (OUT_DIR / f"{options.workload}.seed{options.seed}.trace{options.trace}"
     ".json").write_text(json.dumps(record, indent=1))
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(f"perfbench: {error}")
        sys.exit(1)
