#include "routing/routing_table.hpp"

#include <gtest/gtest.h>

#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

TEST(NextHop, FollowsWidestPathOnFig1) {
  const Graph g = Fig1::build();
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  const auto next_hop = [&](NodeId dest) {
    return compute_next_hop<BandwidthMetric>(g, Fig1::v1, dest, dws, bfs);
  };
  // Widest v1→v3 goes over v6 (bandwidth 10 vs 6 over v2).
  EXPECT_EQ(next_hop(Fig1::v3), Fig1::v6);
  EXPECT_DOUBLE_EQ(dws.value(Fig1::v3), 10.0);
  // Direct neighbors route directly when the link is on a best path.
  EXPECT_EQ(next_hop(Fig1::v6), Fig1::v6);
}

TEST(NextHop, SelfAndUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  EXPECT_EQ(compute_next_hop<DelayMetric>(g, 0, 0, dws, bfs), kInvalidNode);
  EXPECT_EQ(compute_next_hop<DelayMetric>(g, 0, 1, dws, bfs), 1u);
  EXPECT_EQ(compute_next_hop<DelayMetric>(g, 0, 2, dws, bfs), kInvalidNode);
}

template <Metric M>
void expect_next_hops_are_neighbors(const Graph& g) {
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  for (NodeId u = 0; u < std::min<std::size_t>(g.node_count(), 20); ++u) {
    for (NodeId d = 0; d < g.node_count(); ++d) {
      const NodeId hop = compute_next_hop<M>(g, u, d, dws, bfs);
      if (hop == kInvalidNode) continue;  // self or unreachable
      EXPECT_TRUE(g.has_edge(u, hop))
          << M::name() << " " << u << "→" << d << " via " << hop;
    }
  }
}

TEST(NextHop, NextHopIsAlwaysANeighbor) {
  const Graph g = testing::random_geometric_graph(321, 8.0);
  expect_next_hops_are_neighbors<BandwidthMetric>(g);
  expect_next_hops_are_neighbors<DelayMetric>(g);
}

}  // namespace
}  // namespace qolsr
