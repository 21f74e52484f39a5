// Quickstart: build a small QoS-annotated network, run the FNBP selection
// at one node, and route a packet over the advertised topology.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "core/fnbp.hpp"
#include "path/dijkstra.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"

using namespace qolsr;

int main() {
  // 1. A six-node network with per-link bandwidth (the paper's Fig. 1
  //    shape): a weak 2-hop corridor v1·v2·v3 and a wide ring underneath.
  Graph network(6);
  auto bw = [](double bandwidth) {
    LinkQos qos;
    qos.bandwidth = bandwidth;
    return qos;
  };
  network.add_edge(0, 1, bw(7));   // v1–v2
  network.add_edge(1, 2, bw(6));   // v2–v3
  network.add_edge(1, 4, bw(8));   // v2–v5
  network.add_edge(0, 4, bw(5));   // v1–v5
  network.add_edge(2, 4, bw(5));   // v3–v5
  network.add_edge(0, 5, bw(10));  // v1–v6
  network.add_edge(5, 4, bw(10));  // v6–v5
  network.add_edge(4, 3, bw(10));  // v5–v4
  network.add_edge(3, 2, bw(10));  // v4–v3

  // 2. Every node selects its QoS advertised neighbor set with FNBP.
  const FnbpSelector<BandwidthMetric> fnbp;
  std::vector<std::vector<NodeId>> ans(network.node_count());
  for (NodeId u = 0; u < network.node_count(); ++u) {
    ans[u] = fnbp.select(LocalView(network, u));
    std::cout << "ANS(v" << u + 1 << ") = {";
    for (std::size_t i = 0; i < ans[u].size(); ++i)
      std::cout << (i ? ", " : "") << "v" << ans[u][i] + 1;
    std::cout << "}\n";
  }

  // 3. The union of advertised links is what TC messages spread; routes
  //    are computed on its flat form, which holds each link both ways.
  AdvertisedTopologyBuilder builder;
  CsrTopology advertised;
  builder.build_advertised(network, ans, advertised);
  std::cout << "advertised links: " << advertised.edge_count() / 2 << " of "
            << network.edge_count() << "\n";

  // 4. Route v1 → v3 hop by hop and compare with the centralized optimum.
  //    One workspace holds the scratch of every routing call.
  ForwardingWorkspace ws;
  const auto routed =
      forward_packet<BandwidthMetric>(network, advertised, 0, 2, {}, ws);
  dijkstra<BandwidthMetric>(network, 0, kInvalidNode, ws.dijkstra);
  std::cout << "routed path:";
  for (NodeId hop : routed.path) std::cout << " v" << hop + 1;
  std::cout << "  (bandwidth " << routed.value << ", optimal "
            << ws.dijkstra.value(2) << ")\n";
  return routed.delivered() ? 0 : 1;
}
