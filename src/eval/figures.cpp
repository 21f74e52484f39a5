#include "eval/figures.hpp"

#include <cctype>

#include "eval/scenario.hpp"

namespace qolsr {

ExperimentSpec figure_spec(int figure, const FigureConfig& config) {
  ExperimentSpec spec;
  switch (figure) {
    case 6:
      spec.name = "fig6_ans_size_bandwidth";
      spec.metric = MetricId::kBandwidth;
      spec.scenario.densities = bandwidth_densities();
      break;
    case 7:
      spec.name = "fig7_ans_size_delay";
      spec.metric = MetricId::kDelay;
      spec.scenario.densities = delay_densities();
      break;
    case 8:
      spec.name = "fig8_bandwidth_overhead";
      spec.metric = MetricId::kBandwidth;
      spec.scenario.densities = bandwidth_densities();
      break;
    case 9:
      spec.name = "fig9_delay_overhead";
      spec.metric = MetricId::kDelay;
      spec.scenario.densities = delay_densities();
      break;
    default:
      throw ExperimentError("figure_spec: the paper has figures 6-9, not " +
                            std::to_string(figure));
  }
  // spec.selectors already defaults to the paper's legend order.
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

ExperimentSpec figure_m_spec(const FigureConfig& config) {
  ExperimentSpec spec;
  spec.name = "figM_delivery_vs_speed";
  spec.metric = MetricId::kBandwidth;
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.sweep_axis = Scenario::SweepAxis::kSpeed;
  spec.scenario.densities = {1, 5, 10, 15, 20};  // m/s
  spec.scenario.field.degree = 20.0;
  // Long multi-hop flows: staleness compounds per traversed hop, which the
  // paper's 2-hop pairs would hide.
  spec.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
  spec.scenario.dynamics.model = DynamicsSpec::Model::kWaypoint;
  spec.scenario.dynamics.epochs = 50;
  spec.scenario.dynamics.epoch_duration = 1.0;  // one HELLO period
  spec.scenario.dynamics.refresh_interval = 5;  // OLSR's TC/HELLO ratio
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

ExperimentSpec figure_r_spec(const FigureConfig& config) {
  ExperimentSpec spec;
  spec.name = "figR_delivery_vs_loss";
  spec.backend = BackendId::kPacket;
  spec.metric = MetricId::kBandwidth;
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.sweep_axis = Scenario::SweepAxis::kLoss;
  spec.scenario.densities = {0.0, 0.1, 0.2, 0.3, 0.4};  // P(frame lost)
  spec.scenario.field.degree = 10.0;
  // Multi-hop flows: every traversed hop is another chance for the medium
  // to eat the frame, which the paper's 2-hop pairs would mostly hide.
  spec.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
  // Eight probes resolve the per-run delivery ratio in 1/8 steps instead
  // of {0, 1}; one crash incident per run times re-convergence while the
  // loss column measures steady-state degradation.
  spec.scenario.probe_packets = 8;
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.count = 1;
  crash.duration = 10.0;
  spec.scenario.faults.incidents.push_back(crash);
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

ExperimentSpec figure_l_spec(const FigureConfig& config) {
  ExperimentSpec spec;
  spec.name = "figL_qos_under_load";
  spec.backend = BackendId::kPacket;
  spec.metric = MetricId::kBandwidth;
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.sweep_axis = Scenario::SweepAxis::kLoad;
  spec.scenario.densities = {0.25, 0.5, 1.0, 2.0, 4.0};  // load multiplier
  spec.scenario.field.degree = 10.0;
  // Multi-hop flows: congestion compounds per traversed hop, and relay
  // links near the gateway of a flow pattern saturate first — effects the
  // paper's 2-hop pairs would mostly hide.
  spec.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
  spec.scenario.traffic.arrival = TrafficSpec::Arrival::kPoisson;
  spec.scenario.traffic.pattern = TrafficSpec::Pattern::kUniform;
  spec.scenario.traffic.flows = 16;
  spec.scenario.traffic.packet_rate = 20.0;
  spec.scenario.traffic.duration = 10.0;
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

ExperimentSpec figure_b_spec(const FigureConfig& config) {
  ExperimentSpec spec;
  spec.name = "figB_delivery_vs_adversaries";
  spec.backend = BackendId::kPacket;
  spec.metric = MetricId::kBandwidth;
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.sweep_axis = Scenario::SweepAxis::kAdversary;
  spec.scenario.densities = {0.0, 0.05, 0.1, 0.2, 0.3};  // roster fraction
  spec.scenario.field.degree = 10.0;
  // Multi-hop flows: every traversed relay is another chance to hand the
  // probe to a roster member, which the paper's 2-hop pairs would hide.
  spec.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
  // Eight probes resolve the per-run delivery ratio; blackholes absorb
  // what is routed through them, liars bend the routes toward phantom
  // links — selectors that concentrate trust in fewer relays pay more.
  spec.scenario.probe_packets = 8;
  spec.scenario.adversaries.kinds = {AdversaryKind::kBlackhole,
                                     AdversaryKind::kLiar};
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

namespace {

/// The one table behind --figure parsing: name → canned spec. Adding a
/// figure is one row here; figure_names() and the unknown-name error both
/// derive from it.
struct FigureEntry {
  std::string_view name;
  ExperimentSpec (*make)(const FigureConfig&);
};

constexpr FigureEntry kFigureTable[] = {
    {"6", [](const FigureConfig& c) { return figure_spec(6, c); }},
    {"7", [](const FigureConfig& c) { return figure_spec(7, c); }},
    {"8", [](const FigureConfig& c) { return figure_spec(8, c); }},
    {"9", [](const FigureConfig& c) { return figure_spec(9, c); }},
    {"M", figure_m_spec},
    {"R", figure_r_spec},
    {"L", figure_l_spec},
    {"B", figure_b_spec},
};

}  // namespace

std::string figure_names() {
  std::string out;
  for (const FigureEntry& entry : kFigureTable) {
    if (!out.empty()) out += "|";
    out += entry.name;
  }
  return out;
}

ExperimentSpec figure_by_name(std::string_view name,
                              const FigureConfig& config) {
  std::string upper(name);
  for (char& c : upper)
    c = static_cast<char>(
        std::toupper(static_cast<unsigned char>(c)));
  for (const FigureEntry& entry : kFigureTable)
    if (upper == entry.name) return entry.make(config);
  throw ExperimentError("'" + std::string(name) +
                        "' is not a figure (valid: " + figure_names() + ")");
}

}  // namespace qolsr
