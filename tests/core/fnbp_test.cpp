#include "core/fnbp.hpp"

#include <gtest/gtest.h>

#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig2;
using testing::Fig4;

LinkQos qos_bw(double b) {
  LinkQos q;
  q.bandwidth = b;
  return q;
}

TEST(Fnbp, Fig2SelectionWalkthrough) {
  // Full §III-B walkthrough on the Fig.-2 view of u:
  //  * v1 selected while covering v4 (first 2-hop-detour case),
  //  * v5, v10, v3 then covered through v1 at no extra cost,
  //  * v6 selected for v8, v7 for v9, and v11 covered through v6.
  const Graph g = Fig2::build();
  const auto ans =
      FnbpSelector<BandwidthMetric>().select(LocalView(g, Fig2::u));
  EXPECT_EQ(ans, (std::vector<NodeId>{Fig2::v1, Fig2::v6, Fig2::v7}));
}

TEST(Fnbp, DirectOptimalLinksSelectNothing) {
  // Star with strong direct links and no 2-hop nodes: empty ANS.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(9));
  g.add_edge(0, 2, qos_bw(9));
  g.add_edge(1, 2, qos_bw(1));
  EXPECT_TRUE(FnbpSelector<BandwidthMetric>().select(LocalView(g, 0)).empty());
}

TEST(Fnbp, OneHopNeighborBehindBetterDetour) {
  // Weak direct (0,1), strong detour via 2: FNBP must select 2 in step 1.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1));
  g.add_edge(0, 2, qos_bw(9));
  g.add_edge(2, 1, qos_bw(9));
  EXPECT_EQ(FnbpSelector<BandwidthMetric>().select(LocalView(g, 0)),
            (std::vector<NodeId>{2}));
}

TEST(Fnbp, SingleNodeSelectedForTiedAlternatives) {
  // Both 1 and 2 start best paths to 3; FNBP advertises exactly one
  // (contrast: topology filtering advertises both).
  Graph g(4);
  g.add_edge(0, 1, qos_bw(5));
  g.add_edge(0, 2, qos_bw(5));
  g.add_edge(1, 3, qos_bw(5));
  g.add_edge(2, 3, qos_bw(5));
  const auto ans = FnbpSelector<BandwidthMetric>().select(LocalView(g, 0));
  EXPECT_EQ(ans, (std::vector<NodeId>{1}));  // id tie-break
}

TEST(Fnbp, QosTieBreakPicksBestLink) {
  // fP(0,t) = {1,2} tied on path value 5; link (0,2) is better (6 > 5).
  Graph g(4);
  g.add_edge(0, 1, qos_bw(5));
  g.add_edge(0, 2, qos_bw(6));
  g.add_edge(1, 3, qos_bw(5));
  g.add_edge(2, 3, qos_bw(5));
  const auto ans = FnbpSelector<BandwidthMetric>().select(LocalView(g, 0));
  EXPECT_EQ(ans, (std::vector<NodeId>{2}));
  // Ablation switch: smallest id instead.
  FnbpOptions id_only;
  id_only.qos_tiebreak = false;
  const auto ans_id =
      FnbpSelector<BandwidthMetric>(id_only).select(LocalView(g, 0));
  EXPECT_EQ(ans_id, (std::vector<NodeId>{1}));
}

TEST(Fnbp, Fig4LoopFixForcesSmallestIdToSelectLastHop) {
  // The limiting-last-link case: every path to E bottlenecks at D–E, so
  // fP(A,E) = {B, D} ties; B covers E "for free" but creates the A↔B loop.
  // A (the smallest id among the first hops' selector) must pick D.
  const Graph g = Fig4::build();
  const auto ans_a =
      FnbpSelector<BandwidthMetric>().select(LocalView(g, Fig4::a));
  EXPECT_EQ(ans_a, (std::vector<NodeId>{Fig4::b, Fig4::d}));

  // Without the fix, A stops at {B} — D ends up selected by no neighbor
  // of E's side of the bottleneck.
  FnbpOptions no_fix;
  no_fix.loop_fix = false;
  const auto ans_a_nofix =
      FnbpSelector<BandwidthMetric>(no_fix).select(LocalView(g, Fig4::a));
  EXPECT_EQ(ans_a_nofix, (std::vector<NodeId>{Fig4::b}));
}

TEST(Fnbp, Fig4LargerIdsDoNotTriggerLoopFix) {
  // C also sees fP(C,E) covered through B, but minid(fP) = B < C, so the
  // guard leaves the responsibility to the smaller node.
  const Graph g = Fig4::build();
  const auto ans_c =
      FnbpSelector<BandwidthMetric>().select(LocalView(g, Fig4::c));
  EXPECT_EQ(ans_c, (std::vector<NodeId>{Fig4::b}));
}

TEST(Fnbp, DelayMetricVariant) {
  // Algorithm 2: same structure under the additive metric.
  Graph g(4);
  LinkQos slow, fast;
  slow.delay = 10;
  fast.delay = 1;
  g.add_edge(0, 1, slow);   // direct but slow
  g.add_edge(0, 2, fast);
  g.add_edge(2, 1, fast);   // 2-hop detour of delay 2
  g.add_edge(1, 3, fast);
  const auto ans = FnbpSelector<DelayMetric>().select(LocalView(g, 0));
  // 2 selected for reaching 1 (step 1); 3 then covered through 2.
  EXPECT_EQ(ans, (std::vector<NodeId>{2}));
}

TEST(Fnbp, SelectorInterfaceNamesAndResults) {
  const Graph g = Fig2::build();
  const FnbpSelector<BandwidthMetric> bw_selector;
  const FnbpSelector<DelayMetric> delay_selector;
  EXPECT_EQ(bw_selector.name(), "fnbp_bandwidth");
  EXPECT_EQ(delay_selector.name(), "fnbp_delay");
  // The one-shot select runs the same rule as the workspace form.
  const LocalView view(g, Fig2::u);
  SelectionWorkspace ws;
  std::vector<NodeId> out;
  select_fnbp_ans<BandwidthMetric>(view, ws, out);
  EXPECT_EQ(bw_selector.select(view), out);
}

TEST(Fnbp, IsolatedAndLeafNodes) {
  Graph g(3);
  g.add_edge(1, 2, qos_bw(4));
  EXPECT_TRUE(FnbpSelector<BandwidthMetric>().select(LocalView(g, 0)).empty());
  // Leaf node 1: single neighbor 2, no 2-hop — nothing to select.
  Graph h(2);
  h.add_edge(0, 1, qos_bw(4));
  EXPECT_TRUE(FnbpSelector<BandwidthMetric>().select(LocalView(h, 0)).empty());
}

class FnbpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FnbpPropertyTest, SelectionIsSubsetOfNeighbors) {
  const Graph g = testing::random_geometric_graph(GetParam(), 9.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId w : FnbpSelector<BandwidthMetric>().select(LocalView(g, u)))
      EXPECT_TRUE(g.has_edge(u, w));
    for (NodeId w : FnbpSelector<DelayMetric>().select(LocalView(g, u)))
      EXPECT_TRUE(g.has_edge(u, w));
  }
}

TEST_P(FnbpPropertyTest, EveryTargetCoveredThroughAnsOrDirect) {
  // Core invariant of the algorithm: after selection, every 1-hop/2-hop
  // neighbor either has its direct link on a best path, or some selected
  // ANS member starts a best path to it, or (loop-fix case) a selected
  // member is adjacent to it.
  const Graph g = testing::random_geometric_graph(GetParam() + 31, 8.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const auto ans = FnbpSelector<BandwidthMetric>().select(view);
    const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
    auto in_ans = [&](std::uint32_t w) {
      return std::binary_search(ans.begin(), ans.end(), view.global_id(w));
    };
    for (std::uint32_t v : view.one_hop()) {
      const auto& fp = table.fp[v];
      const bool direct_best = std::binary_search(fp.begin(), fp.end(), v);
      const bool covered = std::any_of(fp.begin(), fp.end(), in_ans);
      EXPECT_TRUE(direct_best || covered)
          << "node " << u << " one-hop " << view.global_id(v);
    }
    for (std::uint32_t v : view.two_hop()) {
      const auto& fp = table.fp[v];
      const bool covered = std::any_of(fp.begin(), fp.end(), in_ans);
      EXPECT_TRUE(covered) << "node " << u << " two-hop "
                           << view.global_id(v);
    }
  }
}

TEST_P(FnbpPropertyTest, NeverLargerThanTopologyFiltering) {
  // The design goal: FNBP advertises one first hop where topology
  // filtering advertises all tied ones, and reuses selections across
  // targets. Size can never exceed the union-of-first-hops bound of the
  // unreduced view, and empirically stays below topology filtering; we
  // assert the hard bound plus the ≤ relation on the total.
  const Graph g = testing::random_geometric_graph(GetParam() + 97, 10.0);
  std::size_t fnbp_total = 0, topo_total = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    fnbp_total += FnbpSelector<BandwidthMetric>().select(view).size();
    topo_total +=
        TopologyFilteringSelector<BandwidthMetric>().select(view).size();
  }
  EXPECT_LE(fnbp_total, topo_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FnbpPropertyTest,
                         ::testing::Values(2, 42, 402, 4002));

}  // namespace
}  // namespace qolsr
