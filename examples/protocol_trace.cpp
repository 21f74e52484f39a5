// Full control-plane run: OLSR nodes exchanging HELLO/TC over the ideal
// MAC, converging to QoS routes, then forwarding a data packet — the
// discrete-event counterpart of the oracle evaluation.
//
//   $ ./build/examples/protocol_trace [seed]
#include <cstdlib>
#include <iostream>

#include "core/fnbp.hpp"
#include "graph/deployment.hpp"
#include "path/path.hpp"
#include "graph/connectivity.hpp"
#include "sim/simulator.hpp"

using namespace qolsr;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // A modest sensor patch so the trace stays readable.
  util::Rng rng(seed);
  DeploymentConfig field;
  field.width = 300.0;
  field.height = 300.0;
  field.degree = 6.0;
  Graph network = sample_poisson_deployment(field, rng);
  assign_uniform_qos(network, {}, rng);
  std::cout << "network: " << network.node_count() << " nodes, "
            << network.edge_count() << " links\n";
  if (network.node_count() < 2) {
    std::cout << "(too small, rerun with another seed)\n";
    return 0;
  }

  const Rfc3626Selector flooding;           // RFC MPRs flood TCs
  const FnbpSelector<BandwidthMetric> ans;  // FNBP picks what to advertise
  // Every node's next-hop computation shares one scratch bundle; the
  // simulator runs one event at a time.
  DijkstraWorkspace dijkstra_ws;
  NextHopScratch bfs;
  Simulator sim(network, flooding, ans, [&](const Graph& g, NodeId self,
                                            NodeId dest) {
    return compute_next_hop<BandwidthMetric>(g, self, dest, dijkstra_ws, bfs);
  });

  sim.run_to_convergence();
  const TraceStats& t = sim.trace();
  std::cout << "converged at t=" << sim.now() << "s: "
            << t.hello_sent << " HELLOs, " << t.tc_originated
            << " TCs originated, " << t.tc_forwarded << " MPR-forwarded, "
            << t.tc_dropped_duplicate << " duplicates dropped, "
            << t.control_bytes << " control bytes\n";

  // Route one packet across the largest component.
  const auto component = largest_component(network);
  const NodeId source = component.front();
  const NodeId destination = component.back();
  sim.node(source).send_data(destination, /*payload_id=*/1);
  sim.run_until(sim.now() + 1.0);

  const auto it = sim.trace().journeys.find(1);
  if (it != sim.trace().journeys.end() && it->second.delivered) {
    std::cout << "data " << source << " -> " << destination << " delivered:";
    for (NodeId hop : it->second.path) std::cout << " " << hop;
    Path p(it->second.path.begin(), it->second.path.end());
    std::cout << "  (bandwidth "
              << evaluate_path<BandwidthMetric>(network, p) << ")\n";
  } else {
    std::cout << "data packet not delivered\n";
  }

  // Show one node's converged protocol state.
  const NodeId sample = component[component.size() / 2];
  const OlsrNode& node = sim.node(sample);
  std::cout << "node " << sample << ": "
            << node.tables().symmetric_neighbors().size()
            << " symmetric neighbors, flooding MPRs "
            << node.flooding_mpr().size() << ", ANS "
            << node.ans().size() << ", topology base knows "
            << node.topology().originator_count() << " originators\n";
  return 0;
}
