// Network-wide delivery properties of the advertised topologies each
// heuristic induces — the paper's implicit correctness requirement.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "graph/connectivity.hpp"
#include "routing/forwarding.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

CsrTopology advertised_for(const Graph& g, const AnsSelector& selector) {
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = selector.select(LocalView(g, u));
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  return csr;
}

class DeliveryPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Graph graph_ = testing::random_geometric_graph(GetParam(), 7.0, 300.0);
  Components components_ = connected_components(graph_);
  ForwardingWorkspace ws_;

  template <Metric M>
  void expect_full_delivery(const AnsSelector& selector) {
    const CsrTopology adv = advertised_for(graph_, selector);
    for (NodeId s = 0; s < graph_.node_count(); ++s) {
      for (NodeId d = 0; d < graph_.node_count(); ++d) {
        if (s == d || !components_.connected(s, d)) continue;
        const auto r = forward_packet<M>(graph_, adv, s, d, {}, ws_);
        EXPECT_TRUE(r.delivered())
            << selector.name() << " " << s << "→" << d << " status "
            << static_cast<int>(r.status);
      }
    }
  }
};

TEST_P(DeliveryPropertyTest, QolsrDeliversEverywhere) {
  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  expect_full_delivery<BandwidthMetric>(qolsr);
}

TEST_P(DeliveryPropertyTest, TopologyFilteringDeliversEverywhere) {
  const TopologyFilteringSelector<BandwidthMetric> topo;
  expect_full_delivery<BandwidthMetric>(topo);
}

TEST_P(DeliveryPropertyTest, FnbpDeliversEverywhereBothMetrics) {
  const FnbpSelector<BandwidthMetric> bw;
  expect_full_delivery<BandwidthMetric>(bw);
  const FnbpSelector<DelayMetric> d;
  expect_full_delivery<DelayMetric>(d);
}

TEST_P(DeliveryPropertyTest, AchievedDelayNeverBeatsOptimum) {
  const FnbpSelector<DelayMetric> fnbp;
  const CsrTopology adv = advertised_for(graph_, fnbp);
  DijkstraWorkspace optimal;
  for (NodeId s = 0; s < std::min<std::size_t>(graph_.node_count(), 10);
       ++s) {
    dijkstra<DelayMetric>(graph_, s, kInvalidNode, optimal);
    for (NodeId d = 0; d < graph_.node_count(); ++d) {
      if (s == d || !components_.connected(s, d)) continue;
      const auto r = forward_packet<DelayMetric>(graph_, adv, s, d, {}, ws_);
      if (!r.delivered()) continue;
      EXPECT_FALSE(DelayMetric::better(r.value, optimal.value(d)))
          << s << "→" << d;
    }
  }
}

TEST_P(DeliveryPropertyTest, TwoHopRoutesAchieveLocalOptimum) {
  // The heart of FNBP's guarantee: for every 2-hop pair (u,v), routing
  // over the advertised topology plus u's own view achieves at least u's
  // local-view best value B̃(u,v) — nothing was lost by advertising a
  // single first hop.
  const FnbpSelector<BandwidthMetric> fnbp;
  const CsrTopology adv = advertised_for(graph_, fnbp);
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    const LocalView view(graph_, u);
    const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
    for (std::uint32_t lv : view.two_hop()) {
      const NodeId v = view.global_id(lv);
      const auto r =
          forward_packet<BandwidthMetric>(graph_, adv, u, v, {}, ws_);
      ASSERT_TRUE(r.delivered()) << u << "→" << v;
      EXPECT_FALSE(BandwidthMetric::better(table.best[lv], r.value))
          << u << "→" << v << ": local optimum " << table.best[lv]
          << ", routed " << r.value;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeliveryPropertyTest,
                         ::testing::Values(61, 62, 63));

}  // namespace
}  // namespace qolsr
