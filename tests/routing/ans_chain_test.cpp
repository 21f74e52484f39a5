// Tests for the directed ANS-chain machinery: the directed relay base, the
// hop-count-primary Dijkstra/next-hop, and forward_via_ans.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "routing/forwarding.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;
using testing::Fig4;

LinkQos qos_bw(double b, double d = 1.0) {
  LinkQos q;
  q.bandwidth = b;
  q.delay = d;
  return q;
}

TEST(AnsChain, DijkstraRespectsDirection) {
  // ANS(0) = {1} and ANS(1) = {2} give the directed base 0→1→2 only.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(5));
  g.add_edge(1, 2, qos_bw(5));
  const std::vector<std::vector<NodeId>> ans{{1}, {2}, {}};
  AdvertisedTopologyBuilder builder;
  CsrTopology base;
  builder.build_ans_chain(g, ans, /*destination=*/2, base);
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(base, 0u, kInvalidNode, ws);
  ASSERT_TRUE(ws.reached(2));
  EXPECT_DOUBLE_EQ(ws.value(2), 5.0);
  dijkstra<BandwidthMetric>(base, 2u, kInvalidNode, ws);
  EXPECT_FALSE(ws.reached(0));
}

TEST(MinHopDijkstra, PrefersFewerHopsOverBetterValue) {
  // 0→2 direct (bandwidth 2) vs 0→1→2 (bandwidth 9): min-hop picks direct.
  Graph g(3);
  g.add_edge(0, 2, qos_bw(2));
  g.add_edge(0, 1, qos_bw(9));
  g.add_edge(1, 2, qos_bw(9));
  DijkstraWorkspace ws;
  dijkstra_min_hop<BandwidthMetric>(g, 0u, kInvalidNode, ws);
  EXPECT_EQ(ws.hops(2), 1u);
  EXPECT_DOUBLE_EQ(ws.value(2), 2.0);
  // QoS-first takes the detour.
  dijkstra<BandwidthMetric>(g, 0u, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(2), 9.0);
}

TEST(MinHopDijkstra, QosBreaksHopTies) {
  // Two 2-hop routes: via 1 (width 3) and via 2 (width 7).
  Graph g(4);
  g.add_edge(0, 1, qos_bw(3));
  g.add_edge(1, 3, qos_bw(3));
  g.add_edge(0, 2, qos_bw(7));
  g.add_edge(2, 3, qos_bw(7));
  DijkstraWorkspace ws;
  dijkstra_min_hop<BandwidthMetric>(g, 0u, kInvalidNode, ws);
  EXPECT_EQ(ws.hops(3), 2u);
  EXPECT_DOUBLE_EQ(ws.value(3), 7.0);
  EXPECT_EQ(compute_min_hop_next_hop<BandwidthMetric>(g, 0, 3, ws), 2u);
}

TEST(MinHopDijkstra, DelayVariant) {
  Graph g(4);
  g.add_edge(0, 1, qos_bw(1, 9));
  g.add_edge(1, 3, qos_bw(1, 9));
  g.add_edge(0, 2, qos_bw(1, 2));
  g.add_edge(2, 3, qos_bw(1, 2));
  DijkstraWorkspace ws;
  dijkstra_min_hop<DelayMetric>(g, 0u, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(3), 4.0);  // best among the 2-hop routes
}

TEST(MinHopNextHop, UnreachableAndSelf) {
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1));
  DijkstraWorkspace ws;
  EXPECT_EQ(compute_min_hop_next_hop<BandwidthMetric>(g, 0, 2, ws),
            kInvalidNode);
  EXPECT_EQ(compute_min_hop_next_hop<BandwidthMetric>(g, 0, 0, ws),
            kInvalidNode);
}

std::vector<std::vector<NodeId>> fnbp_sets(const Graph& g) {
  const FnbpSelector<BandwidthMetric> fnbp;
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = fnbp.select(LocalView(g, u));
  return ans;
}

TEST(AnsChain, Fig1FnbpStillFindsTheWidestPath) {
  const Graph g = Fig1::build();
  ForwardingWorkspace ws;
  const auto r = forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig1::v1,
                                                  Fig1::v3, {}, ws);
  ASSERT_TRUE(r.delivered());
  EXPECT_DOUBLE_EQ(r.value, 10.0);
}

TEST(AnsChain, SelfAndNeighborDelivery) {
  const Graph g = Fig1::build();
  ForwardingWorkspace ws;
  const auto self = forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig1::v1,
                                                     Fig1::v1, {}, ws);
  EXPECT_TRUE(self.delivered());
  const auto hop = forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig1::v1,
                                                    Fig1::v6, {}, ws);
  EXPECT_TRUE(hop.delivered());
  EXPECT_EQ(hop.path.size(), 2u);
}

TEST(AnsChain, LoopFixIsLoadBearingOnFig4) {
  // In the strict chain model the Fig.-4 bottleneck is fatal without the
  // loop-fix: A stops advertising D, the relay chains dead-end, and A
  // itself can no longer reach E (its only out-links lead away).
  const Graph g = Fig4::build();
  const auto fixed = fnbp_sets(g);
  ForwardingWorkspace ws;
  const auto with_fix =
      forward_via_ans<BandwidthMetric>(g, fixed, Fig4::a, Fig4::e, {}, ws);
  EXPECT_TRUE(with_fix.delivered());

  FnbpOptions no_fix;
  no_fix.loop_fix = false;
  const FnbpSelector<BandwidthMetric> plain(no_fix);
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = plain.select(LocalView(g, u));
  // A's own links rescue A itself (A–D is usable as its immediate hop), but
  // the advertised chains are poorer: B must fall back to its own links and
  // the bottleneck path.
  const auto b_route =
      forward_via_ans<BandwidthMetric>(g, ans, Fig4::b, Fig4::e, {}, ws);
  const auto b_fixed =
      forward_via_ans<BandwidthMetric>(g, fixed, Fig4::b, Fig4::e, {}, ws);
  EXPECT_TRUE(b_fixed.delivered());
  // Either the unfixed route fails or it is no better than the fixed one.
  if (b_route.delivered())
    EXPECT_FALSE(BandwidthMetric::better(b_route.value, b_fixed.value));
}

TEST(AnsChain, NoRouteAcrossComponents) {
  Graph g(4);
  g.add_edge(0, 1, qos_bw(1));
  g.add_edge(2, 3, qos_bw(1));
  ForwardingWorkspace ws;
  const auto r =
      forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), 0, 3, {}, ws);
  EXPECT_FALSE(r.delivered());
}

class AnsChainPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AnsChainPropertyTest, NeverLoopsAndNeverBeatsOptimum) {
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 280.0);
  const auto ans = fnbp_sets(g);
  ForwardingWorkspace ws;
  DijkstraWorkspace optimal;
  for (NodeId s = 0; s < std::min<std::size_t>(g.node_count(), 15); ++s) {
    dijkstra<BandwidthMetric>(g, s, kInvalidNode, optimal);
    for (NodeId d = 0; d < g.node_count(); ++d) {
      if (s == d) continue;
      const auto r = forward_via_ans<BandwidthMetric>(g, ans, s, d, {}, ws);
      EXPECT_NE(r.status, ForwardingStatus::kLoop) << s << "→" << d;
      if (r.delivered()) {
        ASSERT_TRUE(optimal.reached(d)) << s << "→" << d;
        EXPECT_FALSE(BandwidthMetric::better(r.value, optimal.value(d)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnsChainPropertyTest,
                         ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace qolsr
