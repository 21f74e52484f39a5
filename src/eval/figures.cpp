#include "eval/figures.hpp"

#include <cctype>
#include <sstream>
#include <vector>

namespace qolsr {

namespace {

/// One canned figure: its --figure name and the qolsr_eval flags that
/// build it, so `qolsr_eval <flags> --runs=N` replays the figure. The
/// FigureConfig supplies runs, seed and threads. figure_names() and the
/// unknown-name error both derive from this table.
struct FigureRow {
  std::string_view name;
  std::string_view flags;
};

constexpr FigureRow kFigures[] = {
    // The paper's Figs. 6-9: the three contenders in legend order (the
    // default --selectors) over the figure's metric and densities. 6 and 8
    // read the set-size and overhead columns of one bandwidth sweep, 7 and
    // 9 those of one delay sweep.
    {"6", "--name=fig6_ans_size_bandwidth --metric=bandwidth "
          "--densities=10,15,20,25,30,35"},
    {"7", "--name=fig7_ans_size_delay --metric=delay "
          "--densities=5,10,15,20,25,30"},
    {"8", "--name=fig8_bandwidth_overhead --metric=bandwidth "
          "--densities=10,15,20,25,30,35"},
    {"9", "--name=fig9_delay_overhead --metric=delay "
          "--densities=5,10,15,20,25,30"},
    // Fig. M (the paper stops at static snapshots): delivery ratio vs.
    // random-waypoint speed in m/s at the paper's density δ = 20. Long
    // multi-hop flows: staleness compounds per traversed hop, which the
    // paper's 2-hop pairs would hide. One epoch is one HELLO period and TC
    // refreshes every 5 epochs (OLSR's TC/HELLO interval ratio), so the
    // curves measure what each advertised set is worth while it goes
    // stale.
    {"M", "--name=figM_delivery_vs_speed --metric=bandwidth "
          "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,fnbp "
          "--axis=speed --densities=1,5,10,15,20 --degree=20 --pairs=any "
          "--mobility=waypoint --epochs=50 --epoch-duration=1 --refresh=5"},
    // Fig. R: delivery ratio vs. ambient frame-loss probability on the
    // packet backend at δ = 10. Multi-hop flows: every traversed hop is
    // another chance for the medium to eat the frame. Eight probes resolve
    // the per-run delivery ratio in 1/8 steps instead of {0, 1}; one crash
    // per run times re-convergence while the loss column measures
    // steady-state degradation. The loss = 0 column is byte-identical to a
    // fault-free packet sweep.
    {"R", "--name=figR_delivery_vs_loss --backend=packet --metric=bandwidth "
          "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,fnbp "
          "--axis=loss --densities=0,0.1,0.2,0.3,0.4 --degree=10 --pairs=any "
          "--probes=8 --crash=1@10"},
    // Fig. L: traffic delivery ratio and p95 latency vs. the load
    // multiplier of a 16-flow Poisson workload, packet backend, δ = 10.
    // Links drain at a capacity proportional to their bandwidth QoS, so
    // the selectors that advertise (and route over) high-bandwidth links
    // keep delivering while the others saturate. Multi-hop flows:
    // congestion compounds per traversed hop, and relay links near a
    // flow's gateway saturate first.
    {"L", "--name=figL_qos_under_load --backend=packet --metric=bandwidth "
          "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,fnbp "
          "--axis=load --densities=0.25,0.5,1,2,4 --degree=10 --pairs=any "
          "--traffic=poisson --pattern=uniform --flows=16 --traffic-rate=20 "
          "--traffic-duration=10"},
    // Fig. B: delivery ratio and poisoned routes vs. the adversary roster
    // fraction, packet backend, δ = 10, with the invariant monitor
    // counting violations. Multi-hop flows: every traversed relay is
    // another chance to hand the probe to a roster member. Eight probes
    // per run; blackholes absorb what is routed through them and liars
    // bend routes toward phantom links, so selectors that concentrate
    // trust in fewer relays pay more. The fraction = 0 column is
    // byte-identical to an honest packet sweep.
    {"B", "--name=figB_delivery_vs_adversaries --backend=packet "
          "--metric=bandwidth "
          "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,fnbp "
          "--axis=adversary --densities=0,0.05,0.1,0.2,0.3 --degree=10 "
          "--pairs=any --probes=8 --adversaries=0@blackhole,liar"},
};

}  // namespace

std::string figure_names() { return util::names_of(kFigures); }

ExperimentSpec figure_by_name(std::string_view name,
                              const FigureConfig& config) {
  std::string upper(name);
  for (char& c : upper)
    c = static_cast<char>(
        std::toupper(static_cast<unsigned char>(c)));
  for (const FigureRow& row : kFigures) {
    if (upper != row.name) continue;
    std::vector<std::string> flags;
    std::istringstream words{std::string(row.flags)};
    for (std::string flag; words >> flag;) flags.push_back(flag);
    ExperimentSpec spec = parse_experiment_spec(flags);
    spec.scenario.runs = config.runs;
    spec.scenario.seed = config.seed;
    spec.threads = config.threads;
    return spec;
  }
  throw ExperimentError("'" + std::string(name) +
                        "' is not a figure (valid: " + figure_names() + ")");
}

}  // namespace qolsr
