#include "routing/advertised_topology.hpp"

#include <gtest/gtest.h>

#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

TEST(AdvertisedTopology, UnionOfSelections) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  ans[Fig1::v4] = {Fig1::v5};
  const Graph adv = build_advertised_topology(g, ans);
  EXPECT_EQ(adv.node_count(), g.node_count());
  EXPECT_EQ(adv.edge_count(), 2u);
  EXPECT_TRUE(adv.has_edge(Fig1::v1, Fig1::v2));
  EXPECT_TRUE(adv.has_edge(Fig1::v4, Fig1::v5));
  EXPECT_FALSE(adv.has_edge(Fig1::v1, Fig1::v6));
}

TEST(AdvertisedTopology, DuplicateSelectionsCollapse) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  ans[Fig1::v2] = {Fig1::v1};  // both ends advertise the same link
  const Graph adv = build_advertised_topology(g, ans);
  EXPECT_EQ(adv.edge_count(), 1u);
}

TEST(AdvertisedTopology, QosCopiedFromFullGraph) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  const Graph adv = build_advertised_topology(g, ans);
  ASSERT_NE(adv.edge_qos(Fig1::v1, Fig1::v2), nullptr);
  EXPECT_EQ(adv.edge_qos(Fig1::v1, Fig1::v2)->bandwidth,
            g.edge_qos(Fig1::v1, Fig1::v2)->bandwidth);
}

TEST(AverageSetSize, Basics) {
  EXPECT_EQ(average_set_size({}), 0.0);
  EXPECT_DOUBLE_EQ(average_set_size({{1, 2}, {}, {3}}), 1.0);
  EXPECT_DOUBLE_EQ(average_set_size({{1, 2, 3, 4}}), 4.0);
}

}  // namespace
}  // namespace qolsr
