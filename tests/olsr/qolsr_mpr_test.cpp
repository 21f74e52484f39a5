#include "olsr/qolsr_mpr.hpp"

#include <gtest/gtest.h>

#include "olsr/mpr.hpp"
#include "olsr/selector.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

TEST(QolsrMpr, Fig1OnlyV2AndV5AreSelected) {
  // The paper's Fig.-1 caption: under the QOLSR heuristic only v2 and v5
  // are selected as MPRs — v2 by v1 and v3, v5 by everyone.
  const Graph g = Fig1::build();
  auto mpr2 = [&](NodeId u) {
    return QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr2)
        .select(LocalView(g, u));
  };
  EXPECT_EQ(mpr2(Fig1::v1), (std::vector<NodeId>{Fig1::v2, Fig1::v5}));
  EXPECT_EQ(mpr2(Fig1::v3), (std::vector<NodeId>{Fig1::v2, Fig1::v5}));
  EXPECT_EQ(mpr2(Fig1::v2), (std::vector<NodeId>{Fig1::v5}));
  EXPECT_EQ(mpr2(Fig1::v4), (std::vector<NodeId>{Fig1::v5}));
  EXPECT_EQ(mpr2(Fig1::v6), (std::vector<NodeId>{Fig1::v5}));
  EXPECT_TRUE(mpr2(Fig1::v5).empty());  // v5 sees no 2-hop neighbors
}

TEST(QolsrMpr, Mpr2PicksBestLinkNotBestCoverage) {
  // Three neighbors, no forced picks: n1 (weak link, covers both 2-hop
  // nodes), n2 (strong link, covers t1), n3 (medium link, covers t2).
  // MPR-2 takes n2 first (best QoS) and then n3 — two nodes where the
  // coverage-greedy MPR-1 needs only n1.
  Graph g(6);
  LinkQos weak, strong, medium, plain;
  weak.bandwidth = 1;
  strong.bandwidth = 9;
  medium.bandwidth = 5;
  plain.bandwidth = 5;
  g.add_edge(0, 1, weak);    // n1
  g.add_edge(0, 2, strong);  // n2
  g.add_edge(0, 3, medium);  // n3
  g.add_edge(1, 4, plain);   // n1-t1
  g.add_edge(1, 5, plain);   // n1-t2
  g.add_edge(2, 4, plain);   // n2-t1
  g.add_edge(3, 5, plain);   // n3-t2
  const auto mpr2 =
      QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr2)
          .select(LocalView(g, 0));
  EXPECT_EQ(mpr2, (std::vector<NodeId>{2, 3}));
  const auto mpr1 =
      QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr1)
          .select(LocalView(g, 0));
  EXPECT_EQ(mpr1, (std::vector<NodeId>{1}));
}

TEST(QolsrMpr, Mpr1BreaksCoverageTiesByQos) {
  // n1 and n2 both cover the single 2-hop node; n2 has the better link.
  Graph g(4);
  LinkQos weak, strong, plain;
  weak.bandwidth = 2;
  strong.bandwidth = 8;
  plain.bandwidth = 5;
  g.add_edge(0, 1, weak);
  g.add_edge(0, 2, strong);
  g.add_edge(1, 3, plain);
  g.add_edge(2, 3, plain);
  const auto mpr1 =
      QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr1)
          .select(LocalView(g, 0));
  EXPECT_EQ(mpr1, (std::vector<NodeId>{2}));
}

TEST(QolsrMpr, DelayVariantPrefersLowDelayLinks) {
  Graph g(4);
  LinkQos slow, fast, plain;
  slow.delay = 9;
  fast.delay = 1;
  plain.delay = 5;
  g.add_edge(0, 1, slow);
  g.add_edge(0, 2, fast);
  g.add_edge(1, 3, plain);
  g.add_edge(2, 3, plain);
  const auto mpr =
      QolsrSelector<DelayMetric>(QolsrVariant::kMpr2).select(LocalView(g, 0));
  EXPECT_EQ(mpr, (std::vector<NodeId>{2}));
}

TEST(QolsrMpr, QosTieFallsBackToSmallestId) {
  Graph g(4);
  LinkQos same, plain;
  same.bandwidth = 5;
  plain.bandwidth = 5;
  g.add_edge(0, 1, same);
  g.add_edge(0, 2, same);
  g.add_edge(1, 3, plain);
  g.add_edge(2, 3, plain);
  const auto mpr =
      QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr2)
          .select(LocalView(g, 0));
  EXPECT_EQ(mpr, (std::vector<NodeId>{1}));
}

class QolsrMprPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(QolsrMprPropertyTest, BothVariantsAlwaysCover) {
  const Graph g = testing::random_geometric_graph(GetParam(), 9.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    for (QolsrVariant variant : {QolsrVariant::kMpr1, QolsrVariant::kMpr2}) {
      EXPECT_TRUE(covers_two_hop(
          view, QolsrSelector<BandwidthMetric>(variant).select(view)));
      EXPECT_TRUE(covers_two_hop(
          view, QolsrSelector<DelayMetric>(variant).select(view)));
    }
  }
}

TEST_P(QolsrMprPropertyTest, ForcedPhase1NodesAppearInEveryVariant) {
  // A neighbor that is the only cover of some 2-hop node is selected by
  // the original heuristic and by both QOLSR variants (phase 1 is shared).
  const Graph g = testing::random_geometric_graph(GetParam() + 50, 9.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    // Compute the forced set directly from the definition.
    std::vector<NodeId> forced;
    for (std::uint32_t v : view.two_hop()) {
      std::vector<std::uint32_t> covers;
      for (const LocalView::LocalEdge& e : view.neighbors(v))
        if (view.is_one_hop(e.to)) covers.push_back(e.to);
      if (covers.size() == 1) forced.push_back(view.global_id(covers[0]));
    }
    const auto rfc = Rfc3626Selector().select(view);
    const auto mpr1 =
        QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr1).select(view);
    const auto mpr2 =
        QolsrSelector<BandwidthMetric>(QolsrVariant::kMpr2).select(view);
    for (NodeId f : forced) {
      EXPECT_TRUE(std::binary_search(rfc.begin(), rfc.end(), f));
      EXPECT_TRUE(std::binary_search(mpr1.begin(), mpr1.end(), f));
      EXPECT_TRUE(std::binary_search(mpr2.begin(), mpr2.end(), f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QolsrMprPropertyTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace qolsr
