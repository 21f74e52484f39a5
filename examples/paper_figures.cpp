// Walks through the paper's worked examples (Figs. 1, 2, 4, 5) and prints
// what each heuristic selects and routes — the narrative companion to the
// assertions in tests/core/paper_examples_test.cpp.
//
//   $ ./build/examples/paper_figures
#include <iostream>

#include "core/fnbp.hpp"
#include "olsr/mpr.hpp"
#include "olsr/qolsr_mpr.hpp"
#include "olsr/topology_filtering.hpp"
#include "path/dijkstra.hpp"
#include "path/first_hops.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"

using namespace qolsr;

namespace {

LinkQos bw(double bandwidth, double delay = 1.0) {
  LinkQos qos;
  qos.bandwidth = bandwidth;
  qos.delay = delay;
  return qos;
}

void print_set(const char* label, const std::vector<NodeId>& set) {
  std::cout << label << " = {";
  for (std::size_t i = 0; i < set.size(); ++i)
    std::cout << (i ? "," : "") << set[i];
  std::cout << "}\n";
}

std::vector<std::vector<NodeId>> select_all(const Graph& g,
                                            const AnsSelector& s) {
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = s.select(LocalView(g, u));
  return ans;
}

void figure1() {
  std::cout << "== Figure 1: QOLSR misses the widest path ==\n";
  Graph g(6);  // v1..v6 = 0..5
  g.add_edge(0, 1, bw(7));   // v1-v2
  g.add_edge(1, 2, bw(6));   // v2-v3
  g.add_edge(1, 4, bw(8));   // v2-v5
  g.add_edge(0, 4, bw(5));   // v1-v5
  g.add_edge(2, 4, bw(5));   // v3-v5
  g.add_edge(0, 5, bw(10));  // v1-v6
  g.add_edge(5, 4, bw(10));  // v6-v5
  g.add_edge(4, 3, bw(10));  // v5-v4
  g.add_edge(3, 2, bw(10));  // v4-v3

  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  const FnbpSelector<BandwidthMetric> fnbp;
  AdvertisedTopologyBuilder builder;
  CsrTopology adv;
  ForwardingWorkspace ws;
  for (const AnsSelector* s :
       std::initializer_list<const AnsSelector*>{&qolsr, &fnbp}) {
    builder.build_advertised(g, select_all(g, *s), adv);
    const auto r = forward_packet<BandwidthMetric>(g, adv, 0, 2, {}, ws);
    std::cout << s->name() << ": v1->v3 via";
    for (NodeId hop : r.path) std::cout << " v" << hop + 1;
    std::cout << " bandwidth " << r.value << "\n";
  }
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, ws.dijkstra);
  std::cout << "centralized optimum: " << ws.dijkstra.value(2) << "\n\n";
}

void figure2() {
  std::cout << "== Figure 2: fP sets in u's partial view ==\n";
  Graph g(12);  // u=0, v1..v11 = 1..11
  g.add_edge(0, 1, bw(5));
  g.add_edge(0, 2, bw(5));
  g.add_edge(0, 4, bw(3));
  g.add_edge(0, 5, bw(2));
  g.add_edge(0, 6, bw(6));
  g.add_edge(0, 7, bw(3));
  g.add_edge(1, 3, bw(4));
  g.add_edge(2, 3, bw(4));
  g.add_edge(1, 5, bw(5));
  g.add_edge(5, 4, bw(5));
  g.add_edge(5, 10, bw(5));
  g.add_edge(6, 8, bw(5));
  g.add_edge(8, 9, bw(5));  // invisible to u
  g.add_edge(7, 9, bw(3));
  g.add_edge(6, 11, bw(5));

  const LocalView view(g, 0);
  DijkstraWorkspace ws;
  FirstHopTable table;
  compute_first_hops<BandwidthMetric>(view, ws, table);
  for (NodeId v : {3, 4, 5, 9, 11}) {
    const std::uint32_t l = view.local_id(v);
    std::cout << "fPBW(u,v" << v << ") = {";
    for (std::size_t i = 0; i < table.fp[l].size(); ++i)
      std::cout << (i ? "," : "") << "v"
                << view.global_id(table.fp[l][i]);
    std::cout << "}  value " << table.best[l] << "\n";
  }
  print_set("FNBP ANS(u)", FnbpSelector<BandwidthMetric>().select(view));
  std::cout << "\n";
}

void figure4() {
  std::cout << "== Figure 4: the limiting last link ==\n";
  Graph g(5);  // A..E = 0..4
  g.add_edge(0, 1, bw(4));  // A-B
  g.add_edge(1, 2, bw(3));  // B-C
  g.add_edge(2, 3, bw(4));  // C-D
  g.add_edge(0, 3, bw(2));  // A-D
  g.add_edge(3, 4, bw(1));  // D-E (bottleneck)

  FnbpOptions no_fix;
  no_fix.loop_fix = false;
  const LocalView view(g, 0);
  print_set("ANS(A) with loop fix   ",
            FnbpSelector<BandwidthMetric>().select(view));
  print_set("ANS(A) without loop fix",
            FnbpSelector<BandwidthMetric>(no_fix).select(view));
  std::cout << "(the fix makes A advertise the last hop D toward E)\n\n";
}

void figure5() {
  std::cout << "== Figure 5: three selections on one topology ==\n";
  Graph g(9);
  g.add_edge(0, 1, bw(8, 2));
  g.add_edge(0, 2, bw(3, 5));
  g.add_edge(0, 3, bw(6, 1));
  g.add_edge(0, 4, bw(2, 8));
  g.add_edge(1, 2, bw(9, 1));
  g.add_edge(3, 4, bw(7, 2));
  g.add_edge(1, 5, bw(5, 3));
  g.add_edge(2, 5, bw(6, 2));
  g.add_edge(2, 6, bw(4, 4));
  g.add_edge(3, 7, bw(6, 3));
  g.add_edge(4, 7, bw(3, 6));
  g.add_edge(4, 8, bw(5, 2));
  g.add_edge(5, 6, bw(8, 1));

  const LocalView view(g, 0);
  print_set("RFC 3626 MPR set      ", Rfc3626Selector().select(view));
  print_set("topology-filtering ANS",
            TopologyFilteringSelector<BandwidthMetric>().select(view));
  print_set("FNBP ANS              ",
            FnbpSelector<BandwidthMetric>().select(view));
}

}  // namespace

int main() {
  figure1();
  figure2();
  figure4();
  figure5();
  return 0;
}
