#pragma once

#include <cstddef>
#include <cstdint>

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

/// The canned ExperimentSpec behind one of the paper's Figs. 6–9: the
/// figure's metric and densities, the paper's three contenders
/// (qolsr_mpr2, topology_filtering, fnbp) in legend order, and the
/// config's runs/seed/threads. Throws ExperimentError for figures outside
/// 6–9. `qolsr_eval --figure=N` runs it and prints the figure's tables.
ExperimentSpec figure_spec(int figure, const FigureConfig& config = {});

/// "Fig. M" — the repository's canned mobility figure (the paper stops at
/// static snapshots): delivery ratio vs. node speed under random-waypoint
/// motion, all five selectors, bandwidth metric. Each sweep point fixes
/// the waypoint speed (1..20 m/s) at the paper's deployment density
/// (δ = 20); epochs model 1 s HELLO periods with a 5-epoch TC refresh lag
/// (OLSR's default TC_INTERVAL/HELLO_INTERVAL ratio), so the delivery
/// curves measure what each heuristic's advertised set is worth while it
/// is going stale. `qolsr_eval --figure=M` starts from this spec.
ExperimentSpec figure_m_spec(const FigureConfig& config = {});

/// "Fig. R" — the repository's canned robustness figure: delivery ratio
/// vs. ambient frame-loss probability (0..0.4) under the packet backend,
/// all five selectors, bandwidth metric, any-connected multi-hop pairs at
/// fixed density δ = 10. Eight data probes per run resolve the delivery
/// ratio, every failed probe is classified (blackhole / loop / medium
/// loss), and one scheduled single-node crash per run times
/// re-convergence. The loss = 0 column is byte-identical to a fault-free
/// packet sweep — the pin CI holds it to. `qolsr_eval --figure=R` starts
/// from this spec.
ExperimentSpec figure_r_spec(const FigureConfig& config = {});

/// "Fig. L" — the repository's canned load figure: traffic delivery ratio
/// and p95 latency vs. offered load under the packet backend, all five
/// selectors, bandwidth metric, any-connected pairs at fixed density
/// δ = 10. Each sweep point multiplies a 16-flow Poisson workload by the
/// load value; links drain at a capacity proportional to their bandwidth
/// QoS, so the selectors that advertise (and route over) high-bandwidth
/// links keep delivering while the others saturate — the curves separate
/// as load grows. `qolsr_eval --figure=L` starts from this spec.
ExperimentSpec figure_l_spec(const FigureConfig& config = {});

/// "Fig. B" — the repository's canned Byzantine-robustness figure:
/// delivery ratio and poisoned-route count vs. adversary roster fraction
/// (0..0.3) under the packet backend, all five selectors, bandwidth
/// metric, any-connected multi-hop pairs at fixed density δ = 10. Each
/// sweep point subverts that fraction of the nodes (blackhole and liar
/// roles round-robin), the runtime invariant monitor counts the protocol
/// violations as they form, and eight data probes per run resolve how much
/// delivery each selector's relay choices surrender to the roster. The
/// fraction = 0 column is byte-identical to an honest packet sweep — the
/// pin CI holds it to. `qolsr_eval --figure=B` starts from this spec.
ExperimentSpec figure_b_spec(const FigureConfig& config = {});

/// Pipe-separated list of the valid --figure names ("6|7|8|9|M|R|L|B"),
/// for error messages and usage text.
std::string figure_names();

/// The one figure table every consumer shares: resolves a --figure value —
/// a paper figure number or a canned letter figure, letters
/// case-insensitive — to its spec. Throws ExperimentError naming the valid
/// figures on an unknown value; adding a figure is one row in the table.
ExperimentSpec figure_by_name(std::string_view name,
                              const FigureConfig& config = {});

}  // namespace qolsr
