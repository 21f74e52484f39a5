#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "eval/experiment.hpp"

namespace qolsr {

/// Shared knobs of the figure-reproduction harness. Defaults are the
/// paper's (100 runs); qolsr_eval's --runs/--seed/--threads override them
/// for quick deterministic passes. threads == 0 means hardware
/// concurrency.
struct FigureConfig {
  std::size_t runs = 100;
  std::uint64_t seed = 42;
  unsigned threads = 0;
};

/// Pipe-separated list of the valid --figure names ("6|7|8|9|M|R|L|B"),
/// for error messages and usage text.
std::string figure_names();

/// Resolves a --figure value — a paper figure number (6–9) or one of the
/// repository's letter figures (M mobility, R robustness, L load, B
/// Byzantine), letters case-insensitive — to its canned spec: the
/// figure's qolsr_eval flag row (eval/figures.cpp) run through
/// parse_experiment_spec, then the config's runs, seed and threads.
/// Throws ExperimentError naming the valid figures on an unknown value.
ExperimentSpec figure_by_name(std::string_view name,
                              const FigureConfig& config = {});

}  // namespace qolsr
