// Sensor-field scenario: a Poisson-deployed WSN (the paper's §IV-A
// setting), comparing the three heuristics on one sampled topology —
// advertised-set sizes, TC byte cost, and the QoS of a routed flow.
//
//   $ ./build/examples/sensor_field [seed]
#include <cstdlib>
#include <iostream>

#include "core/fnbp.hpp"
#include "eval/runner.hpp"
#include "graph/connectivity.hpp"
#include "proto/messages.hpp"
#include "util/table.hpp"

using namespace qolsr;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;

  // Deploy: 1000x1000 field, radius 100, mean degree 20.
  Scenario scenario;
  scenario.field.degree = 20.0;
  util::Rng rng(seed);
  // The eval runner's scratch bundle: view builder, selection, advertised
  // topology and forwarding scratch, reused for every node and protocol.
  EvalWorkspace ws;
  const SampledRun run =
      sample_run<BandwidthMetric>(scenario, 20.0, rng, ws);
  std::cout << "deployed " << run.graph.node_count() << " sensors, "
            << run.graph.edge_count() << " links; flow "
            << run.source << " -> " << run.destination
            << " (optimal bandwidth " << run.optimal_value << ")\n\n";

  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  const TopologyFilteringSelector<BandwidthMetric> topo;
  const FnbpSelector<BandwidthMetric> fnbp;

  util::Table table({"protocol", "avg |ANS|", "TC bytes/node", "bandwidth",
                     "overhead", "hops"});
  for (const AnsSelector* selector :
       std::initializer_list<const AnsSelector*>{&qolsr, &topo, &fnbp}) {
    std::vector<std::vector<NodeId>> ans(run.graph.node_count());
    for (NodeId u = 0; u < run.graph.node_count(); ++u) {
      ws.view_builder.build(run.graph, u, ws.view);
      selector->select_into(ws.view, ws.selection, ans[u]);
    }

    const double avg_size = average_set_size(ans);
    double tc_bytes = 0.0;
    for (const auto& set : ans)
      tc_bytes += static_cast<double>(tc_wire_size(set.size()));
    tc_bytes /= static_cast<double>(ans.size());

    ws.advertised_builder.build_advertised(run.graph, ans, ws.advertised);
    const auto routed = forward_packet<BandwidthMetric>(
        run.graph, ws.advertised, run.source, run.destination, {},
        ws.forwarding);

    table.add_row({std::string(selector->name()),
                   util::format_double(avg_size, 2),
                   util::format_double(tc_bytes, 1),
                   routed.delivered() ? util::format_double(routed.value, 2)
                                      : "-",
                   routed.delivered()
                       ? util::format_double(qos_overhead<BandwidthMetric>(
                                                 routed.value,
                                                 run.optimal_value),
                                             4)
                       : "-",
                   util::format_double(
                       static_cast<double>(routed.path.size() - 1), 0)});
  }
  std::cout << table.to_string();
  std::cout << "\n(FNBP should advertise the fewest neighbors — the "
               "paper's Fig. 6 — at equal or better bandwidth.)\n";
  return 0;
}
