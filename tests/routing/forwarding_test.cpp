#include "routing/forwarding.hpp"

#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "olsr/selector.hpp"
#include "graph/connectivity.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

CsrTopology advertised_csr(const Graph& g,
                           const std::vector<std::vector<NodeId>>& ans) {
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  return csr;
}

CsrTopology fnbp_advertised(const Graph& g) {
  const FnbpSelector<BandwidthMetric> fnbp;
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = fnbp.select(LocalView(g, u));
  return advertised_csr(g, ans);
}

TEST(Forwarding, TrivialSelfDelivery) {
  const Graph g = Fig1::build();
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  const auto r =
      forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v1, {}, ws);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{Fig1::v1}));
  EXPECT_EQ(r.value, BandwidthMetric::identity());
}

TEST(Forwarding, OneHopDelivery) {
  const Graph g = Fig1::build();
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  const auto r =
      forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v6, {}, ws);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{Fig1::v1, Fig1::v6}));
  EXPECT_DOUBLE_EQ(r.value, 10.0);
}

TEST(Forwarding, NoRouteAcrossComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  const auto r = forward_packet<BandwidthMetric>(g, adv, 0, 3, {}, ws);
  EXPECT_FALSE(r.delivered());
  EXPECT_EQ(r.status, ForwardingStatus::kNoRoute);
}

TEST(Forwarding, ValueIsEvaluatedOnTheFullGraph) {
  const Graph g = Fig1::build();
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  const auto r =
      forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3, {}, ws);
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(metric_equal(r.value,
                           evaluate_path<BandwidthMetric>(g, r.path)));
}

TEST(Forwarding, SourceRouteAgreesOnFig1) {
  const Graph g = Fig1::build();
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  const auto hop =
      forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3, {}, ws);
  const auto src = source_route_packet<BandwidthMetric>(g, adv, Fig1::v1,
                                                        Fig1::v3, {}, ws);
  ASSERT_TRUE(hop.delivered());
  ASSERT_TRUE(src.delivered());
  EXPECT_DOUBLE_EQ(hop.value, src.value);
}

TEST(Forwarding, AdvertisedOnlyModeUsesOwnLinksForFirstHop) {
  // With use_local_views=false the source still knows its own links.
  Graph g(3);
  LinkQos q;
  q.bandwidth = 4;
  g.add_edge(0, 1, q);
  g.add_edge(1, 2, q);
  std::vector<std::vector<NodeId>> ans(3);
  ans[1] = {2};  // only link (1,2) is advertised
  const CsrTopology adv = advertised_csr(g, ans);
  ForwardingWorkspace ws;
  ForwardingOptions opt;
  opt.use_local_views = false;
  const auto r = forward_packet<BandwidthMetric>(g, adv, 0, 2, opt, ws);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{0, 1, 2}));
}

TEST(Forwarding, LoopingWalkEndsAsLoop) {
  // Hops that merge their own HELLO views route on different graphs, so a
  // downstream hop can send the packet back. Here, on QOLSR MPR-2's
  // advertised union with QoS-first routing, 16 hands the packet to 8 and
  // 8 plans its route to 7 back through 16: the walk revisits 16 and ends
  // as kLoop, with the revisit on the path.
  const Graph g = testing::random_geometric_graph(6, 7.0, 280.0);
  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = qolsr.select(LocalView(g, u));
  const CsrTopology adv = advertised_csr(g, ans);
  ForwardingWorkspace ws;
  ForwardingOptions opt;
  opt.use_local_views = true;
  const auto r = forward_packet<BandwidthMetric>(g, adv, 0, 7, opt, ws);
  EXPECT_EQ(r.status, ForwardingStatus::kLoop);
  EXPECT_EQ(r.path, (Path{0, 16, 8, 16}));
}

class ForwardingPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForwardingPropertyTest, FnbpDeliversBetweenAllConnectedPairs) {
  // Delivery + loop-freedom of hop-by-hop QoS forwarding over the FNBP
  // advertised topology, for every connected pair of a random network.
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 280.0);
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  const Components comp = connected_components(g);
  const std::size_t n = g.node_count();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d || !comp.connected(s, d)) continue;
      const auto r = forward_packet<BandwidthMetric>(g, adv, s, d, {}, ws);
      EXPECT_TRUE(r.delivered())
          << s << "→" << d << " status " << static_cast<int>(r.status);
      EXPECT_NE(r.status, ForwardingStatus::kLoop);
    }
  }
}

TEST_P(ForwardingPropertyTest, DeliveredValueNeverBeatsOptimum) {
  const Graph g = testing::random_geometric_graph(GetParam() + 13, 8.0, 280.0);
  const CsrTopology adv = fnbp_advertised(g);
  ForwardingWorkspace ws;
  DijkstraWorkspace optimal;
  for (NodeId s = 0; s < std::min<std::size_t>(g.node_count(), 12); ++s) {
    dijkstra<BandwidthMetric>(g, s, kInvalidNode, optimal);
    for (NodeId d = 0; d < g.node_count(); ++d) {
      if (d == s) continue;
      const auto r = forward_packet<BandwidthMetric>(g, adv, s, d, {}, ws);
      if (!r.delivered()) continue;
      // b ≤ b*: the protocol can never do better than the centralized
      // optimum (sanity of the overhead definition).
      ASSERT_TRUE(optimal.reached(d)) << s << "→" << d;
      EXPECT_FALSE(BandwidthMetric::better(r.value, optimal.value(d)))
          << s << "→" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardingPropertyTest,
                         ::testing::Values(9, 99, 999));

}  // namespace
}  // namespace qolsr
