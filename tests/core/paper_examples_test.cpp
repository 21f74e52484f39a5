// End-to-end encodings of the paper's worked examples: each test asserts a
// behavioral claim the paper makes about Figs. 1, 2, 4 (see
// tests/support/paper_graphs.hpp for the reconstructions).
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "olsr/qolsr_mpr.hpp"
#include "path/dijkstra.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"
#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;
using testing::Fig2;
using testing::Fig4;

std::vector<std::vector<NodeId>> select_all(const Graph& g,
                                            const AnsSelector& selector) {
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = selector.select(LocalView(g, u));
  return ans;
}

/// The selector's advertised topology in the CSR form routes run on.
CsrTopology advertised_by(const Graph& g, const AnsSelector& selector) {
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, select_all(g, selector), csr);
  return csr;
}

TEST(PaperFig1, QolsrMissesTheWidestPath) {
  // "The widest path (v1v6v5v4v3, bandwidth of 10) between v1 and v3 will
  //  not be used by QOLSR" — it routes over v2 with bandwidth 6.
  const Graph g = Fig1::build();
  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  const CsrTopology advertised = advertised_by(g, qolsr);

  // QOLSR keeps OLSR's hop-count-primary routing (QoS as tie-break).
  ForwardingOptions options;
  options.min_hop_routing = true;
  ForwardingWorkspace ws;
  const auto routed = forward_packet<BandwidthMetric>(g, advertised, Fig1::v1,
                                                      Fig1::v3, options, ws);
  ASSERT_TRUE(routed.delivered());
  EXPECT_EQ(routed.path, (Path{Fig1::v1, Fig1::v2, Fig1::v3}));
  EXPECT_DOUBLE_EQ(routed.value, 6.0);

  // The true optimum is 10.
  dijkstra<BandwidthMetric>(g, Fig1::v1, kInvalidNode, ws.dijkstra);
  EXPECT_DOUBLE_EQ(ws.dijkstra.value(Fig1::v3), 10.0);
}

TEST(PaperFig1, FnbpFindsTheWidestPath) {
  const Graph g = Fig1::build();
  const FnbpSelector<BandwidthMetric> fnbp;
  const CsrTopology advertised = advertised_by(g, fnbp);

  ForwardingWorkspace ws;
  const auto routed = forward_packet<BandwidthMetric>(g, advertised, Fig1::v1,
                                                      Fig1::v3, {}, ws);
  ASSERT_TRUE(routed.delivered());
  EXPECT_DOUBLE_EQ(routed.value, 10.0);
  EXPECT_EQ(routed.path,
            (Path{Fig1::v1, Fig1::v6, Fig1::v5, Fig1::v4, Fig1::v3}));
}

TEST(PaperFig2, LocalizedOptimumCanMissGlobalOne) {
  // "u is not aware of link (v8v9). It will thus choose path uv7v9 with
  //  bandwidth of 3 to reach v9 while path uv6v8v9 with a bandwidth of 5
  //  exists" — no localized protocol can close this gap (§III-B).
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(view, LocalView::origin_index(), kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(view.local_id(Fig2::v9)), 3.0);
  dijkstra<BandwidthMetric>(g, Fig2::u, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(Fig2::v9), 5.0);
}

TEST(PaperFig2, FnbpRoutesOneHopNeighborThroughDetour) {
  // u must be able to reach its own neighbor v4 over u·v1·v5·v4 (bandwidth
  // 5) instead of the direct bandwidth-3 link.
  const Graph g = Fig2::build();
  const FnbpSelector<BandwidthMetric> fnbp;
  const CsrTopology advertised = advertised_by(g, fnbp);
  ForwardingWorkspace ws;
  const auto routed = forward_packet<BandwidthMetric>(g, advertised, Fig2::u,
                                                      Fig2::v4, {}, ws);
  ASSERT_TRUE(routed.delivered());
  EXPECT_DOUBLE_EQ(routed.value, 5.0);
  EXPECT_EQ(routed.path, (Path{Fig2::u, Fig2::v1, Fig2::v5, Fig2::v4}));
}

TEST(PaperFig4, EveryoneReachesEDespiteTheBottleneck) {
  // With the loop-fix, D is advertised (by A) and every node delivers to E.
  const Graph g = Fig4::build();
  const FnbpSelector<BandwidthMetric> fnbp;
  const CsrTopology advertised = advertised_by(g, fnbp);
  ForwardingWorkspace ws;
  for (NodeId s : {Fig4::a, Fig4::b, Fig4::c}) {
    const auto routed =
        forward_packet<BandwidthMetric>(g, advertised, s, Fig4::e, {}, ws);
    EXPECT_TRUE(routed.delivered()) << "source " << s;
    EXPECT_DOUBLE_EQ(routed.value, 1.0);  // bottleneck D–E
  }
}

TEST(PaperFig4, AdvertisedTopologyContainsLastHopOnlyWithLoopFix) {
  const Graph g = Fig4::build();
  const FnbpSelector<BandwidthMetric> with_fix;
  FnbpOptions options;
  options.loop_fix = false;
  const FnbpSelector<BandwidthMetric> without_fix(options);

  const Graph adv_fixed = build_advertised_topology(g, select_all(g, with_fix));
  EXPECT_TRUE(adv_fixed.has_edge(Fig4::a, Fig4::d));

  // Without the fix, A never advertises D: the A–D link disappears from
  // the advertised topology (E–D stays only because E itself advertises
  // its sole neighbor).
  const Graph adv_plain =
      build_advertised_topology(g, select_all(g, without_fix));
  EXPECT_FALSE(adv_plain.has_edge(Fig4::a, Fig4::d));
}

TEST(PaperClaims, FnbpAdvertisedSetsAreSmallOnFig1) {
  // Fig. 6/7 claim in miniature: FNBP's per-node sets stay small (here ≤2)
  // while achieving the optimal route of PaperFig1.FnbpFindsTheWidestPath.
  const Graph g = Fig1::build();
  const FnbpSelector<BandwidthMetric> fnbp;
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_LE(fnbp.select(LocalView(g, u)).size(), 2u) << "node " << u;
}

}  // namespace
}  // namespace qolsr
