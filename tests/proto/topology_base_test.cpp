#include "proto/topology_base.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/digest.hpp"

namespace qolsr {
namespace {

LinkAdvert advert(NodeId to, double bw = 1.0) {
  LinkAdvert a;
  a.neighbor = to;
  a.qos.bandwidth = bw;
  return a;
}

TcMessage tc_of(NodeId origin, std::uint16_t ansn,
                std::vector<LinkAdvert> links) {
  TcMessage tc;
  tc.originator = origin;
  tc.ansn = ansn;
  tc.advertised = std::move(links);
  return tc;
}

TEST(TopologyBase, StoresAdvertisedLinks) {
  TopologyBase base(15.0);
  EXPECT_TRUE(base.on_tc(tc_of(1, 1, {advert(2), advert(3)}), 0.0));
  EXPECT_EQ(base.advertised_of(1), (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(base.advertised_of(9).empty());
  EXPECT_EQ(base.originator_count(), 1u);
}

TEST(TopologyBase, NewerAnsnReplaces) {
  TopologyBase base(15.0);
  base.on_tc(tc_of(1, 1, {advert(2)}), 0.0);
  EXPECT_TRUE(base.on_tc(tc_of(1, 2, {advert(3)}), 1.0));
  EXPECT_EQ(base.advertised_of(1), (std::vector<NodeId>{3}));
}

TEST(TopologyBase, StaleAnsnIgnored) {
  TopologyBase base(15.0);
  base.on_tc(tc_of(1, 5, {advert(2)}), 0.0);
  EXPECT_FALSE(base.on_tc(tc_of(1, 4, {advert(9)}), 1.0));
  EXPECT_EQ(base.advertised_of(1), (std::vector<NodeId>{2}));
}

TEST(TopologyBase, AnsnWrapAroundIsNewer) {
  TopologyBase base(15.0);
  base.on_tc(tc_of(1, 0xFFFE, {advert(2)}), 0.0);
  // 3 is "newer" than 0xFFFE modulo 2^16.
  EXPECT_TRUE(base.on_tc(tc_of(1, 3, {advert(7)}), 1.0));
  EXPECT_EQ(base.advertised_of(1), (std::vector<NodeId>{7}));
}

TEST(TopologyBase, SameAnsnRefreshes) {
  TopologyBase base(10.0);
  base.on_tc(tc_of(1, 1, {advert(2)}), 0.0);
  EXPECT_TRUE(base.on_tc(tc_of(1, 1, {advert(2)}), 8.0));  // refresh timer
  base.expire(15.0);  // would have expired at 10 without the refresh
  EXPECT_EQ(base.advertised_of(1), (std::vector<NodeId>{2}));
}

TEST(TopologyBase, ExpiryDropsOldEntries) {
  TopologyBase base(10.0);
  base.on_tc(tc_of(1, 1, {advert(2)}), 0.0);
  base.on_tc(tc_of(5, 1, {advert(6)}), 7.0);
  base.expire(12.0);
  EXPECT_TRUE(base.advertised_of(1).empty());
  EXPECT_EQ(base.advertised_of(5), (std::vector<NodeId>{6}));
}

TEST(TopologyBase, StaleEntryCanBeReplacedAfterExpiry) {
  TopologyBase base(10.0);
  base.on_tc(tc_of(1, 100, {advert(2)}), 0.0);
  // Long silence: node 1 rebooted and restarted its ANSN at 1.
  EXPECT_TRUE(base.on_tc(tc_of(1, 1, {advert(4)}), 25.0));
  EXPECT_EQ(base.advertised_of(1), (std::vector<NodeId>{4}));
}

TEST(TopologyBase, ToGraphBuildsUndirectedUnion) {
  TopologyBase base(15.0);
  base.on_tc(tc_of(1, 1, {advert(2, 7.5)}), 0.0);
  base.on_tc(tc_of(2, 1, {advert(1, 7.5), advert(3, 2.0)}), 0.0);
  const Graph g = base.to_graph(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 2u);  // (1,2) deduplicated, (2,3)
  ASSERT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.edge_qos(1, 2)->bandwidth, 7.5);
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(TopologyBase, ToGraphIgnoresOutOfRangeIds) {
  TopologyBase base(15.0);
  base.on_tc(tc_of(1, 1, {advert(99)}), 0.0);
  const Graph g = base.to_graph(5);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(TopologyBase, WalksOriginatorsAscending) {
  TopologyBase base(15.0);
  base.on_tc(tc_of(7, 1, {advert(1)}), 0.0);
  base.on_tc(tc_of(2, 1, {advert(3), advert(4)}), 0.0);
  base.on_tc(tc_of(5, 1, {advert(6)}), 5.0);
  EXPECT_EQ(base.originator_count(), 3u);

  std::vector<std::pair<NodeId, NodeId>> visited;
  base.for_each_advert([&](NodeId originator, const LinkAdvert& a) {
    visited.push_back({originator, a.neighbor});
  });
  EXPECT_EQ(visited, (std::vector<std::pair<NodeId, NodeId>>{
                         {2, 3}, {2, 4}, {5, 6}, {7, 1}}));
  std::uint64_t expected = util::kDigestSeed;
  for (NodeId id : {2u, 3u, 4u, 5u, 6u, 7u, 1u})
    expected = util::digest_mix(expected, id);
  EXPECT_EQ(base.digest(util::kDigestSeed), expected);

  // 2 and 7 lapse; 5 is held alone, and 7 comes back as a new originator.
  EXPECT_TRUE(base.expire(16.0));
  EXPECT_EQ(base.originator_count(), 1u);
  EXPECT_TRUE(base.advertised_of(7).empty());
  EXPECT_FALSE(base.ansn_of(2).has_value());
  EXPECT_EQ(base.ansn_of(5), std::optional<std::uint16_t>(1));
  EXPECT_TRUE(base.apply_tc(tc_of(7, 1, {advert(1)}), 17.0).links_changed);
  EXPECT_EQ(base.originator_count(), 2u);
}

TEST(TopologyBase, StatusOnlyRefreshIsStored) {
  // converged_digest folds each advert's status, so a refresh that changes
  // nothing but a status must replace the held advert.
  TopologyBase base(15.0);
  TcMessage tc = tc_of(1, 1, {advert(2), advert(3)});
  base.on_tc(tc, 0.0);
  const std::uint64_t digest = base.digest(util::kDigestSeed);
  const std::uint64_t converged = base.converged_digest(util::kDigestSeed);

  const TopologyBase::TcOutcome repeat = base.apply_tc(tc, 1.0);
  EXPECT_TRUE(repeat.fresh);
  EXPECT_FALSE(repeat.links_changed);
  EXPECT_FALSE(repeat.view_changed);
  EXPECT_EQ(base.converged_digest(util::kDigestSeed), converged);

  tc.advertised[1].status = LinkStatus::kMpr;
  const TopologyBase::TcOutcome restated = base.apply_tc(tc, 2.0);
  EXPECT_TRUE(restated.fresh);
  EXPECT_FALSE(restated.links_changed);
  EXPECT_FALSE(restated.view_changed);
  EXPECT_EQ(base.digest(util::kDigestSeed), digest);
  EXPECT_NE(base.converged_digest(util::kDigestSeed), converged);
  TopologyBase fresh(15.0);
  fresh.on_tc(tc, 2.0);
  EXPECT_EQ(base.converged_digest(util::kDigestSeed),
            fresh.converged_digest(util::kDigestSeed));
}

}  // namespace
}  // namespace qolsr
