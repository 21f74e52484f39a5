// Cross-heuristic selection invariants on randomized topologies.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "olsr/mpr.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

class SelectionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph graph_ = testing::random_geometric_graph(GetParam(), 9.0);
};

TEST_P(SelectionPropertyTest, AllSelectorsReturnSortedUniqueNeighbors) {
  const Rfc3626Selector rfc;
  const QolsrSelector<BandwidthMetric> mpr2(QolsrVariant::kMpr2);
  const QolsrSelector<DelayMetric> mpr1(QolsrVariant::kMpr1);
  const TopologyFilteringSelector<BandwidthMetric> topo_bw;
  const TopologyFilteringSelector<DelayMetric> topo_d;
  const FnbpSelector<BandwidthMetric> fnbp_bw;
  const FnbpSelector<DelayMetric> fnbp_d;
  const std::vector<const AnsSelector*> all{
      &rfc, &mpr2, &mpr1, &topo_bw, &topo_d, &fnbp_bw, &fnbp_d};
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    const LocalView view(graph_, u);
    for (const AnsSelector* s : all) {
      const auto set = s->select(view);
      EXPECT_TRUE(std::is_sorted(set.begin(), set.end())) << s->name();
      EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end())
          << s->name();
      for (NodeId w : set)
        EXPECT_TRUE(graph_.has_edge(u, w))
            << s->name() << ": " << w << " not a neighbor of " << u;
    }
  }
}

TEST_P(SelectionPropertyTest, SelectionIsDeterministic) {
  const FnbpSelector<BandwidthMetric> fnbp;
  const TopologyFilteringSelector<DelayMetric> topo;
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    const LocalView view(graph_, u);
    EXPECT_EQ(fnbp.select(view), fnbp.select(view));
    EXPECT_EQ(topo.select(view), topo.select(view));
  }
}

TEST_P(SelectionPropertyTest, FnbpEmptyOnlyWhenNothingToImprove) {
  // An empty FNBP selection implies every 1-hop direct link already lies
  // on a best path and there are no 2-hop neighbors.
  const FnbpSelector<BandwidthMetric> fnbp;
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    const LocalView view(graph_, u);
    if (!fnbp.select(view).empty()) continue;
    EXPECT_TRUE(view.two_hop().empty());
    const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
    for (std::uint32_t v : view.one_hop())
      EXPECT_TRUE(
          std::binary_search(table.fp[v].begin(), table.fp[v].end(), v));
  }
}

TEST_P(SelectionPropertyTest, MetricsAreIndependentDimensions) {
  // Bandwidth-FNBP must ignore delay values and vice versa: scrambling
  // the other metric's weights leaves the selection unchanged.
  Graph scrambled = graph_;
  util::Rng rng(GetParam() + 1);
  for (NodeId u = 0; u < scrambled.node_count(); ++u) {
    for (const Edge& e : scrambled.neighbors(u)) {
      if (e.to <= u) continue;
      LinkQos q = e.qos;
      q.delay = rng.uniform(1.0, 10.0);  // scramble delay only
      scrambled.set_edge_qos(u, e.to, q);
    }
  }
  const FnbpSelector<BandwidthMetric> fnbp;
  for (NodeId u = 0; u < graph_.node_count(); ++u)
    EXPECT_EQ(fnbp.select(LocalView(graph_, u)),
              fnbp.select(LocalView(scrambled, u)));
}

TEST_P(SelectionPropertyTest, LoopFixOnlyEverAddsNodes) {
  FnbpOptions without;
  without.loop_fix = false;
  const FnbpSelector<BandwidthMetric> with_fix;
  const FnbpSelector<BandwidthMetric> without_fix(without);
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    const LocalView view(graph_, u);
    const auto fixed = with_fix.select(view);
    const auto plain = without_fix.select(view);
    EXPECT_TRUE(std::includes(fixed.begin(), fixed.end(), plain.begin(),
                              plain.end()))
        << "node " << u;
  }
}

TEST_P(SelectionPropertyTest, BuffersMetricBehavesLikeBandwidth) {
  // Same concave algebra on a different field: selection machinery must
  // work unchanged (the paper's "number of buffers" example).
  Graph g = graph_;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to <= u) continue;
      LinkQos q = e.qos;
      q.buffers = q.bandwidth;  // copy bandwidth into the buffers field
      g.set_edge_qos(u, e.to, q);
    }
  }
  const FnbpSelector<BuffersMetric> buffers;
  const FnbpSelector<BandwidthMetric> bandwidth;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    EXPECT_EQ(buffers.select(view), bandwidth.select(view));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionPropertyTest,
                         ::testing::Values(21, 212, 2121, 21212));

}  // namespace
}  // namespace qolsr
