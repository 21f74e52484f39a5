#include "graph/rng_reduction.hpp"

#include <gtest/gtest.h>

#include "path/first_hops.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

LinkQos qos_bw(double b, double d = 1.0) {
  LinkQos q;
  q.bandwidth = b;
  q.delay = d;
  return q;
}

TEST(RngReduce, RemovesDominatedBandwidthEdge) {
  // Triangle: (0,1) weak, both (0,2) and (2,1) stronger => (0,1) dropped.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(2));
  g.add_edge(0, 2, qos_bw(8));
  g.add_edge(2, 1, qos_bw(9));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
  EXPECT_FALSE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(0), view.local_id(2)));
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(2), view.local_id(1)));
}

TEST(RngReduce, KeepsEdgeWhenWitnessNotStrictlyBetter) {
  // Witness ties on one side: strictness keeps the edge.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(5));
  g.add_edge(0, 2, qos_bw(5));
  g.add_edge(2, 1, qos_bw(9));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
}

TEST(RngReduce, DelayUsesMaxForm) {
  // (0,1) has delay 10; witness path has max(3,4)=4 < 10 => dropped.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1, 10));
  g.add_edge(0, 2, qos_bw(1, 3));
  g.add_edge(2, 1, qos_bw(1, 4));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<DelayMetric>(view);
  EXPECT_FALSE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
}

TEST(RngReduce, DelayKeepsEdgeWhenWitnessSlowerOnOneLeg) {
  // max(3, 12) > 10 => kept, even though 3 < 10.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1, 10));
  g.add_edge(0, 2, qos_bw(1, 3));
  g.add_edge(2, 1, qos_bw(1, 12));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<DelayMetric>(view);
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
}

TEST(RngReduce, NoCommonNeighborKeepsEverything) {
  Graph g(4);  // path 0-1-2-3: no triangles
  g.add_edge(0, 1, qos_bw(1));
  g.add_edge(1, 2, qos_bw(2));
  g.add_edge(2, 3, qos_bw(3));
  const LocalView view(g, 1);
  const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
  for (std::uint32_t a = 0; a < view.size(); ++a)
    EXPECT_EQ(reduced.neighbors(a).size(), view.neighbors(a).size());
}

class RngReducePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngReducePropertyTest, ReductionPreservesBestValues) {
  // Toussaint-style soundness under the bandwidth metric: dropping an edge
  // dominated by a strictly-better 2-edge detour never lowers the widest-
  // path value between any pair that stays connected in the view.
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 250.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    if (view.size() < 3) continue;
    const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
    const FirstHopTable before = testing::first_hops<BandwidthMetric>(view);
    const FirstHopTable after = testing::first_hops<BandwidthMetric>(reduced);
    for (std::uint32_t v = 1; v < view.size(); ++v) {
      if (before.fp[v].empty()) continue;
      ASSERT_FALSE(after.fp[v].empty())
          << "reduction disconnected " << view.global_id(v);
      EXPECT_TRUE(metric_equal(before.best[v], after.best[v]))
          << "node " << u << " target " << view.global_id(v) << ": "
          << before.best[v] << " vs " << after.best[v];
    }
  }
}

TEST_P(RngReducePropertyTest, ReductionIsSubgraph) {
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 250.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const LocalView reduced = testing::rng_reduced<DelayMetric>(view);
    std::size_t before = 0, after = 0;
    for (std::uint32_t a = 0; a < view.size(); ++a) {
      before += view.neighbors(a).size();
      after += reduced.neighbors(a).size();
      for (const LocalView::LocalEdge& e : reduced.neighbors(a))
        EXPECT_TRUE(view.has_local_edge(a, e.to));
    }
    EXPECT_LE(after, before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngReducePropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace qolsr
