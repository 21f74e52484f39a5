#include "core/multi_criteria.hpp"

#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

LinkQos qos(double bw, double energy) {
  LinkQos q;
  q.bandwidth = bw;
  q.energy = energy;
  return q;
}

TEST(BicriteriaFnbp, SecondaryBreaksPrimaryTies) {
  // fP(0,t) = {1,2}: both start width-5 paths. Plain FNBP's max≺ ties on
  // the equal direct links and picks id 1; the energy-aware variant picks
  // 2 (cheaper link).
  Graph g(4);
  g.add_edge(0, 1, qos(5, 8));
  g.add_edge(0, 2, qos(5, 2));
  g.add_edge(1, 3, qos(5, 1));
  g.add_edge(2, 3, qos(5, 1));
  const LocalView view(g, 0);
  EXPECT_EQ(FnbpSelector<BandwidthMetric>().select(view),
            (std::vector<NodeId>{1}));
  const auto bi =
      BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric>().select(view);
  EXPECT_EQ(bi, (std::vector<NodeId>{2}));
}

TEST(BicriteriaFnbp, PrimaryStillDominates) {
  // The wider path wins even over a much cheaper narrow one: energy only
  // refines inside the primary-optimal candidate set.
  Graph g(4);
  g.add_edge(0, 1, qos(9, 10));  // wide but expensive
  g.add_edge(0, 2, qos(2, 1));   // cheap but narrow
  g.add_edge(1, 3, qos(9, 10));
  g.add_edge(2, 3, qos(2, 1));
  const auto bi = BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric>()
                      .select(LocalView(g, 0));
  EXPECT_EQ(bi, (std::vector<NodeId>{1}));
}

TEST(BicriteriaFnbp, SelectorNameAndInterface) {
  const BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric> selector;
  EXPECT_EQ(selector.name(), "fnbp_bandwidth_per_energy");
  EXPECT_TRUE(selector.qos_first_routing());
}

class BicriteriaPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BicriteriaPropertyTest, SimilarSizeAndSameCoverageAsPlainFnbp) {
  // The bi-criteria pick chooses from the same candidate sets; individual
  // nodes can differ slightly (a different pick changes later coverage
  // reuse), but the totals stay close and the coverage invariant is
  // unconditional.
  const Graph g = testing::random_geometric_graph(GetParam(), 9.0);
  std::size_t plain_total = 0, bi_total = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const auto plain = FnbpSelector<BandwidthMetric>().select(view);
    const auto bi =
        BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric>().select(view);
    plain_total += plain.size();
    bi_total += bi.size();

    const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
    auto in_ans = [&](std::uint32_t w) {
      return std::binary_search(bi.begin(), bi.end(), view.global_id(w));
    };
    for (std::uint32_t v : view.two_hop()) {
      const auto& fp = table.fp[v];
      if (fp.empty()) continue;
      EXPECT_TRUE(std::any_of(fp.begin(), fp.end(), in_ans))
          << "node " << u << " two-hop " << view.global_id(v);
    }
  }
  EXPECT_NEAR(static_cast<double>(bi_total), static_cast<double>(plain_total),
              0.15 * static_cast<double>(plain_total) + 3.0);
}

TEST_P(BicriteriaPropertyTest, AdvertisedLinksAreCheaperOnAverage) {
  // Mean energy per advertised link: the energy-aware pick should be
  // cheaper than plain FNBP's id/bandwidth tie-break (statistical — the
  // selections evolve differently, so totals are compared per link).
  const Graph g = testing::random_geometric_graph(GetParam() + 7, 9.0);
  double plain_energy = 0.0, bi_energy = 0.0;
  std::size_t plain_links = 0, bi_links = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    for (NodeId w : FnbpSelector<BandwidthMetric>().select(view)) {
      plain_energy += g.edge_qos(u, w)->energy;
      ++plain_links;
    }
    for (NodeId w :
         BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric>().select(view)) {
      bi_energy += g.edge_qos(u, w)->energy;
      ++bi_links;
    }
  }
  ASSERT_GT(plain_links, 0u);
  ASSERT_GT(bi_links, 0u);
  EXPECT_LE(bi_energy / static_cast<double>(bi_links),
            plain_energy / static_cast<double>(plain_links) + 0.25);
}

TEST_P(BicriteriaPropertyTest, DeliveryStillHolds) {
  const Graph g = testing::random_geometric_graph(GetParam() + 13, 7.0, 280.0);
  const BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric> selector;
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = selector.select(LocalView(g, u));
  AdvertisedTopologyBuilder builder;
  CsrTopology adv;
  builder.build_advertised(g, ans, adv);
  ForwardingWorkspace ws;
  const Components comp = connected_components(g);
  for (NodeId s = 0; s < g.node_count(); ++s)
    for (NodeId d = 0; d < g.node_count(); ++d) {
      if (s == d || !comp.connected(s, d)) continue;
      EXPECT_TRUE(
          forward_packet<BandwidthMetric>(g, adv, s, d, {}, ws).delivered())
          << s << "→" << d;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BicriteriaPropertyTest,
                         ::testing::Values(31, 32, 33));

}  // namespace
}  // namespace qolsr
