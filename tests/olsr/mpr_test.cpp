#include "olsr/mpr.hpp"

#include <gtest/gtest.h>

#include "olsr/selector.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

TEST(Mpr, Fig1HopCountHeuristicPicksOnlyTheHub) {
  // On the Fig.-1 reconstruction v5 touches everyone, so the QoS-blind RFC
  // heuristic lets v5 alone cover every 2-hop neighborhood — precisely why
  // a QoS-aware selection has something to add here.
  const Graph g = Fig1::build();
  for (NodeId u : {Fig1::v1, Fig1::v2, Fig1::v3, Fig1::v4, Fig1::v6}) {
    EXPECT_EQ(Rfc3626Selector().select(LocalView(g, u)),
              (std::vector<NodeId>{Fig1::v5}))
        << "node " << u;
  }
  // v5 itself has no 2-hop neighbors.
  EXPECT_TRUE(Rfc3626Selector().select(LocalView(g, Fig1::v5)).empty());
}

TEST(Mpr, SoleCoverIsForced) {
  // Star: t is reachable only through n1 — n1 must be selected even though
  // n2 covers more 2-hop nodes.
  Graph g(6);
  g.add_edge(0, 1);  // n1
  g.add_edge(0, 2);  // n2
  g.add_edge(1, 3);  // t only via n1
  g.add_edge(2, 4);
  g.add_edge(2, 5);
  const auto mpr = Rfc3626Selector().select(LocalView(g, 0));
  EXPECT_EQ(mpr, (std::vector<NodeId>{1, 2}));
}

TEST(Mpr, GreedyPrefersLargerCoverage) {
  // n1 covers {a,b,c}, n2 covers {a}, n3 covers {b}: n1 suffices after
  // phase 2 picks it; n2/n3 are redundant.
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 4);
  g.add_edge(1, 5);
  g.add_edge(1, 6);
  g.add_edge(2, 4);
  g.add_edge(3, 5);
  const auto mpr = Rfc3626Selector().select(LocalView(g, 0));
  EXPECT_EQ(mpr, (std::vector<NodeId>{1}));
}

TEST(Mpr, EqualGainTieBreaksDifferOnlyInThePreference) {
  // RFC 3626 MPR and QOLSR MPR-1 run one greedy and differ only in how
  // they break a phase-2 tie. Phase 1 forces 1 (the sole cover of 6);
  // then 2 and 3 tie at gain 1 (both cover only 5). RFC prefers 3, whose
  // 2-hop reach {4, 5} is larger; MPR-1 prefers the better origin link,
  // then the smaller id.
  auto build = [](double bandwidth_0_2) {
    Graph g(7);
    LinkQos q;
    q.bandwidth = 5;
    for (auto [a, b] : {std::pair{0, 1}, {0, 3}, {1, 6}, {1, 4}, {3, 4},
                        {3, 5}, {2, 5}})
      g.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(b), q);
    q.bandwidth = bandwidth_0_2;
    g.add_edge(0, 2, q);
    return g;
  };
  const QolsrSelector<BandwidthMetric> mpr1(QolsrVariant::kMpr1);
  for (double bandwidth : {8.0, 2.0, 5.0}) {
    SCOPED_TRACE(bandwidth);
    EXPECT_EQ(Rfc3626Selector().select(LocalView(build(bandwidth), 0)),
              (std::vector<NodeId>{1, 3}));
  }
  EXPECT_EQ(mpr1.select(LocalView(build(8.0), 0)),
            (std::vector<NodeId>{1, 2}));  // better link
  EXPECT_EQ(mpr1.select(LocalView(build(2.0), 0)),
            (std::vector<NodeId>{1, 3}));  // worse link
  EXPECT_EQ(mpr1.select(LocalView(build(5.0), 0)),
            (std::vector<NodeId>{1, 2}));  // equal links: smaller id
}

TEST(Mpr, NoTwoHopNeighborsEmptySet) {
  Graph g(3);  // triangle: everyone is 1-hop
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  EXPECT_TRUE(Rfc3626Selector().select(LocalView(g, 0)).empty());
}

TEST(Mpr, IsolatedNode) {
  Graph g(2);
  EXPECT_TRUE(Rfc3626Selector().select(LocalView(g, 0)).empty());
}

TEST(CoversTwoHop, DetectsIncompleteCover) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  const LocalView view(g, 0);
  EXPECT_TRUE(covers_two_hop(view, {1}));
  EXPECT_FALSE(covers_two_hop(view, {2}));
  EXPECT_FALSE(covers_two_hop(view, {}));
}

class MprPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MprPropertyTest, AlwaysCoversTwoHopNeighborhood) {
  const Graph g = testing::random_geometric_graph(GetParam(), 10.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const auto mpr = Rfc3626Selector().select(view);
    EXPECT_TRUE(covers_two_hop(view, mpr)) << "node " << u;
    // MPRs are 1-hop neighbors.
    for (NodeId m : mpr) EXPECT_TRUE(g.has_edge(u, m));
  }
}

TEST_P(MprPropertyTest, NoRedundantForcedStep) {
  // Dropping any single phase-2 MPR must break coverage is too strong for
  // the greedy (it is not minimal), but the set must never exceed the
  // 1-hop degree, and must be empty exactly when N² is empty.
  const Graph g = testing::random_geometric_graph(GetParam() + 100, 6.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const auto mpr = Rfc3626Selector().select(view);
    EXPECT_LE(mpr.size(), view.one_hop().size());
    if (view.two_hop().empty()) EXPECT_TRUE(mpr.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MprPropertyTest,
                         ::testing::Values(3, 14, 159, 2653));

}  // namespace
}  // namespace qolsr
