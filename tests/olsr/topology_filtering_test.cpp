#include "olsr/topology_filtering.hpp"

#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

TEST(TopologyFiltering, SelectsDetourForFilteredWeakLink) {
  // Direct (0,1) is dominated by the 2-hop detour through 2: the RNG drops
  // it and the QANS must contain the detour's first hop.
  Graph g(3);
  LinkQos weak, strong;
  weak.bandwidth = 1;
  strong.bandwidth = 9;
  g.add_edge(0, 1, weak);
  g.add_edge(0, 2, strong);
  g.add_edge(2, 1, strong);
  const auto ans =
      TopologyFilteringSelector<BandwidthMetric>().select(LocalView(g, 0));
  EXPECT_EQ(ans, (std::vector<NodeId>{2}));
}

TEST(TopologyFiltering, NothingSelectedWhenDirectLinksOptimal) {
  // Triangle with a dominant direct link everywhere and no 2-hop nodes.
  Graph g(3);
  LinkQos strong, weak;
  strong.bandwidth = 9;
  weak.bandwidth = 1;
  g.add_edge(0, 1, strong);
  g.add_edge(0, 2, strong);
  g.add_edge(1, 2, weak);
  const auto ans =
      TopologyFilteringSelector<BandwidthMetric>().select(LocalView(g, 0));
  EXPECT_TRUE(ans.empty());
}

TEST(TopologyFiltering, AdvertisesEveryTiedFirstHop) {
  // Two equal-quality routes to the 2-hop node t: both first hops are
  // advertised — the cardinality drawback the paper attributes to this
  // scheme (§II: "they will all be selected as advertised neighbors").
  Graph g(4);
  LinkQos five;
  five.bandwidth = 5;
  g.add_edge(0, 1, five);
  g.add_edge(0, 2, five);
  g.add_edge(1, 3, five);
  g.add_edge(2, 3, five);
  const auto topo =
      TopologyFilteringSelector<BandwidthMetric>().select(LocalView(g, 0));
  EXPECT_EQ(topo, (std::vector<NodeId>{1, 2}));
  // FNBP selects exactly one of them.
  const auto fnbp = FnbpSelector<BandwidthMetric>().select(LocalView(g, 0));
  EXPECT_EQ(fnbp.size(), 1u);
}

TEST(TopologyFiltering, CoversAllTwoHopNeighbors) {
  const Graph g = testing::Fig2::build();
  const LocalView view(g, testing::Fig2::u);
  const auto ans = TopologyFilteringSelector<BandwidthMetric>().select(view);
  // Every 2-hop neighbor must be reachable from u through some selected
  // first hop in the (unreduced) view.
  const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
  for (std::uint32_t v : view.two_hop()) {
    bool covered = false;
    for (std::uint32_t w : table.fp[v]) {
      if (std::binary_search(ans.begin(), ans.end(), view.global_id(w)))
        covered = true;
    }
    // Reduced-view best paths are a subset of view best paths under the
    // bandwidth metric, so coverage through table.fp is the right check.
    EXPECT_TRUE(covered) << "two-hop " << view.global_id(v);
  }
}

class TopologyFilteringPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyFilteringPropertyTest, SelectionIsSubsetOfNeighbors) {
  const Graph g = testing::random_geometric_graph(GetParam(), 9.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    for (NodeId w :
         TopologyFilteringSelector<BandwidthMetric>().select(view))
      EXPECT_TRUE(g.has_edge(u, w));
    for (NodeId w : TopologyFilteringSelector<DelayMetric>().select(view))
      EXPECT_TRUE(g.has_edge(u, w));
  }
}

TEST_P(TopologyFilteringPropertyTest, TwoHopReachableThroughSelection) {
  // Delivery property under the bandwidth metric: for every 2-hop
  // neighbor, some selected ANS member starts a best reduced-view path.
  const Graph g = testing::random_geometric_graph(GetParam() + 7, 8.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
    const FirstHopTable table = testing::first_hops<BandwidthMetric>(reduced);
    const auto ans = TopologyFilteringSelector<BandwidthMetric>().select(view);
    for (std::uint32_t v : view.two_hop()) {
      if (table.fp[v].empty()) continue;  // defensive; reduction is sound
      bool covered = false;
      for (std::uint32_t w : table.fp[v])
        if (std::binary_search(ans.begin(), ans.end(), view.global_id(w)))
          covered = true;
      EXPECT_TRUE(covered) << "node " << u << " two-hop "
                           << view.global_id(v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyFilteringPropertyTest,
                         ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace qolsr
