#include "graph/local_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig2;

TEST(LocalView, OriginIsIndexZero) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  EXPECT_EQ(view.origin(), Fig2::u);
  EXPECT_EQ(view.global_id(LocalView::origin_index()), Fig2::u);
}

TEST(LocalView, Fig2NeighborhoodsMatchPaper) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);

  std::vector<NodeId> one_hop;
  for (std::uint32_t l : view.one_hop()) one_hop.push_back(view.global_id(l));
  EXPECT_EQ(one_hop, (std::vector<NodeId>{Fig2::v1, Fig2::v2, Fig2::v4,
                                          Fig2::v5, Fig2::v6, Fig2::v7}));

  std::vector<NodeId> two_hop;
  for (std::uint32_t l : view.two_hop()) two_hop.push_back(view.global_id(l));
  EXPECT_EQ(two_hop, (std::vector<NodeId>{Fig2::v3, Fig2::v8, Fig2::v9,
                                          Fig2::v10, Fig2::v11}));
}

TEST(LocalView, HiddenLinkBetweenTwoHopNodesExcluded) {
  // The paper's dashed link (v8,v9): u must not know it.
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const std::uint32_t l8 = view.local_id(Fig2::v8);
  const std::uint32_t l9 = view.local_id(Fig2::v9);
  ASSERT_NE(l8, kInvalidNode);
  ASSERT_NE(l9, kInvalidNode);
  EXPECT_TRUE(g.has_edge(Fig2::v8, Fig2::v9));
  EXPECT_FALSE(view.has_local_edge(l8, l9));
}

TEST(LocalView, KnownLinksCarryQos) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const std::uint32_t lv6 = view.local_id(Fig2::v6);
  const std::uint32_t lv8 = view.local_id(Fig2::v8);
  const LinkQos* q = view.local_edge_qos(lv6, lv8);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->bandwidth, 5.0);
}

TEST(LocalView, LocalIdRoundTrip) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  for (std::uint32_t l = 0; l < view.size(); ++l)
    EXPECT_EQ(view.local_id(view.global_id(l)), l);
  EXPECT_EQ(view.local_id(9999), kInvalidNode);
  EXPECT_FALSE(view.contains(9999));
}

TEST(LocalView, OneTwoHopPredicates) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  EXPECT_FALSE(view.is_one_hop(LocalView::origin_index()));
  EXPECT_FALSE(view.is_two_hop(LocalView::origin_index()));
  EXPECT_TRUE(view.is_one_hop(view.local_id(Fig2::v1)));
  EXPECT_FALSE(view.is_two_hop(view.local_id(Fig2::v1)));
  EXPECT_TRUE(view.is_two_hop(view.local_id(Fig2::v9)));
}

TEST(LocalView, RetainEdgesDropsRejectedEdge) {
  const Graph g = Fig2::build();
  LocalView view(g, Fig2::u);
  const LocalView original(g, Fig2::u);
  const std::uint32_t a = view.local_id(Fig2::v1);
  const std::uint32_t b = view.local_id(Fig2::v3);
  ASSERT_TRUE(view.has_local_edge(a, b));
  view.retain_edges([&](std::uint32_t from, const LocalView::LocalEdge& e) {
    return !((from == a && e.to == b) || (from == b && e.to == a));
  });
  EXPECT_FALSE(view.has_local_edge(a, b));
  EXPECT_FALSE(view.has_local_edge(b, a));
  // Every other edge stays, in its row order.
  for (std::uint32_t x = 0; x < original.size(); ++x) {
    std::vector<std::uint32_t> expected;
    for (const LocalView::LocalEdge& e : original.neighbors(x))
      if (!((x == a && e.to == b) || (x == b && e.to == a)))
        expected.push_back(e.to);
    std::vector<std::uint32_t> kept;
    for (const LocalView::LocalEdge& e : view.neighbors(x))
      kept.push_back(e.to);
    EXPECT_EQ(kept, expected) << "row " << x;
  }
}

TEST(LocalView, IsolatedNode) {
  Graph g(3);
  g.add_edge(1, 2);
  const LocalView view(g, 0);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_TRUE(view.one_hop().empty());
  EXPECT_TRUE(view.two_hop().empty());
}

TEST(LocalView, TableConstructorMatchesGraphConstructor) {
  // Building the view from simulated HELLO data must give the same result
  // as extracting it from the graph.
  const Graph g = Fig2::build();
  const LocalView oracle(g, Fig2::u);

  std::vector<LocalView::NeighborLink> one_hop;
  std::vector<std::vector<LocalView::NeighborLink>> neighbor_links;
  for (const Edge& e : g.neighbors(Fig2::u)) {
    one_hop.push_back({e.to, e.qos});
    std::vector<LocalView::NeighborLink> links;
    for (const Edge& f : g.neighbors(e.to)) links.push_back({f.to, f.qos});
    neighbor_links.push_back(std::move(links));
  }
  const LocalView from_tables(Fig2::u, one_hop, neighbor_links);

  ASSERT_EQ(from_tables.size(), oracle.size());
  for (std::uint32_t l = 0; l < oracle.size(); ++l)
    EXPECT_EQ(from_tables.global_id(l), oracle.global_id(l));
  for (std::uint32_t a = 0; a < oracle.size(); ++a) {
    for (std::uint32_t b = 0; b < oracle.size(); ++b) {
      EXPECT_EQ(from_tables.has_local_edge(a, b), oracle.has_local_edge(a, b))
          << a << "," << b;
    }
  }
}

class LocalViewPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LocalViewPropertyTest, ViewMatchesDefinition) {
  const Graph g = testing::random_geometric_graph(GetParam());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    // V_u = {u} ∪ N(u) ∪ N²(u): every member is within 2 hops.
    for (std::uint32_t l = 1; l < view.size(); ++l) {
      const NodeId v = view.global_id(l);
      if (view.is_one_hop(l)) {
        EXPECT_TRUE(g.has_edge(u, v));
      } else {
        EXPECT_FALSE(g.has_edge(u, v));
        bool via_common = false;
        for (const Edge& e : g.neighbors(u))
          if (g.has_edge(e.to, v)) via_common = true;
        EXPECT_TRUE(via_common) << "2-hop " << v << " from " << u;
      }
    }
    // E_u: exactly the graph edges with an endpoint in N(u), both ends
    // in V_u.
    for (std::uint32_t a = 0; a < view.size(); ++a) {
      for (const LocalView::LocalEdge& e : view.neighbors(a)) {
        EXPECT_TRUE(view.is_one_hop(a) || view.is_one_hop(e.to) ||
                    a == LocalView::origin_index() ||
                    e.to == LocalView::origin_index());
        EXPECT_TRUE(g.has_edge(view.global_id(a), view.global_id(e.to)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalViewPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace qolsr
