#pragma once

#include <cstddef>
#include <cstdint>

#include "eval/figures.hpp"
#include "util/table.hpp"

namespace qolsr::bench {

/// Command-line knobs shared by the ablation harnesses:
///   --runs=N     runs per density (default 100, the paper's setting;
///                QOLSR_BENCH_RUNS overrides the default)
///   --seed=S     base RNG seed (default 42)
///   --threads=T  run_sweep worker threads (default 0 = hardware
///                concurrency; timing runs pass 1 for determinism)
///   --csv        additionally emit CSV after the table
struct BenchArgs {
  FigureConfig config;
  bool csv = false;
};

BenchArgs parse_args(int argc, char** argv);

/// Prints the standard harness banner + table (+ CSV when asked).
void emit(const BenchArgs& args, const char* title, const util::Table& table);

}  // namespace qolsr::bench
