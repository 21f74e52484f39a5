#include "proto/neighbor_tables.hpp"

#include <gtest/gtest.h>

namespace qolsr {
namespace {

LinkQos qos_bw(double b) {
  LinkQos q;
  q.bandwidth = b;
  return q;
}

HelloMessage hello_from(NodeId origin,
                        std::vector<LinkAdvert> links = {}) {
  HelloMessage h;
  h.originator = origin;
  h.links = std::move(links);
  return h;
}

TEST(NeighborTables, TwoWayHandshake) {
  NeighborTables tables(/*self=*/0, /*hold=*/6.0);
  // First HELLO from 1 does not list us: asymmetric.
  tables.on_hello(hello_from(1), qos_bw(5), 0.0);
  EXPECT_FALSE(tables.is_symmetric(1));
  EXPECT_EQ(tables.heard_neighbors(), (std::vector<NodeId>{1}));
  EXPECT_TRUE(tables.symmetric_neighbors().empty());
  // Second HELLO lists us: symmetric.
  tables.on_hello(hello_from(1, {{0, LinkStatus::kAsymmetric, qos_bw(5)}}),
                  qos_bw(5), 1.0);
  EXPECT_TRUE(tables.is_symmetric(1));
  EXPECT_EQ(tables.symmetric_neighbors(), (std::vector<NodeId>{1}));
}

TEST(NeighborTables, LinkQosStored) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(3, {{0, LinkStatus::kSymmetric, qos_bw(2)}}),
                  qos_bw(7.5), 0.0);
  ASSERT_NE(tables.link_qos(3), nullptr);
  EXPECT_EQ(tables.link_qos(3)->bandwidth, 7.5);
  EXPECT_EQ(tables.link_qos(99), nullptr);
}

TEST(NeighborTables, MprSelectorTracking) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kMpr, qos_bw(1)}}),
                  qos_bw(1), 0.0);
  tables.on_hello(hello_from(2, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(1), 0.0);
  EXPECT_TRUE(tables.selected_us_as_mpr(1));
  EXPECT_FALSE(tables.selected_us_as_mpr(2));
  EXPECT_EQ(tables.mpr_selectors(), (std::vector<NodeId>{1}));
  // A later HELLO that demotes us clears the flag.
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(1), 1.0);
  EXPECT_FALSE(tables.selected_us_as_mpr(1));
}

TEST(NeighborTables, ExpiryRemovesStaleLinks) {
  NeighborTables tables(0, /*hold=*/5.0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(1), 0.0);
  tables.expire(4.0);
  EXPECT_TRUE(tables.is_symmetric(1));
  tables.expire(5.5);
  EXPECT_FALSE(tables.is_symmetric(1));
  EXPECT_TRUE(tables.heard_neighbors().empty());
}

TEST(NeighborTables, BuildLocalViewFromHellos) {
  // Node 0 hears 1 and 2; 1 advertises a link to 3 (2-hop for us).
  NeighborTables tables(0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {3, LinkStatus::kSymmetric, qos_bw(6)}}),
                  qos_bw(4), 0.0);
  tables.on_hello(hello_from(2, {{0, LinkStatus::kSymmetric, qos_bw(5)}}),
                  qos_bw(5), 0.0);
  const LocalView view = tables.build_local_view();
  EXPECT_EQ(view.origin(), 0u);
  ASSERT_EQ(view.one_hop().size(), 2u);
  ASSERT_EQ(view.two_hop().size(), 1u);
  EXPECT_EQ(view.global_id(view.two_hop()[0]), 3u);
  const LinkQos* q =
      view.local_edge_qos(view.local_id(1), view.local_id(3));
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->bandwidth, 6.0);
}

TEST(NeighborTables, AsymmetricNeighborsExcludedFromView) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(1), qos_bw(4), 0.0);  // asymmetric only
  const LocalView view = tables.build_local_view();
  EXPECT_TRUE(view.one_hop().empty());
}

TEST(NeighborTables, AsymmetricAdvertsIgnoredInTwoHop) {
  // Links the neighbor itself only *heard* must not count as 2-hop links.
  NeighborTables tables(0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {5, LinkStatus::kAsymmetric, qos_bw(9)}}),
                  qos_bw(4), 0.0);
  const LocalView view = tables.build_local_view();
  EXPECT_TRUE(view.two_hop().empty());
}

void expect_outcome(const NeighborTables::Outcome& got, bool digest,
                    bool view, bool local_view, const char* context) {
  EXPECT_EQ(got.digest_changed, digest) << context;
  EXPECT_EQ(got.view_changed, view) << context;
  EXPECT_EQ(got.local_view_changed, local_view) << context;
}

TEST(NeighborTables, OutcomeReportsWhatEachHelloMoved) {
  NeighborTables tables(0, /*hold=*/6.0);
  // Node 1 heard, not yet symmetric.
  expect_outcome(tables.on_hello(hello_from(1), qos_bw(4), 0.0), true, false,
                 false, "first HELLO (asymmetric)");
  const std::vector<LinkAdvert> links = {
      {0, LinkStatus::kSymmetric, qos_bw(4)},
      {5, LinkStatus::kSymmetric, qos_bw(7)},
      {6, LinkStatus::kAsymmetric, qos_bw(3)}};
  expect_outcome(tables.on_hello(hello_from(1, links), qos_bw(4), 1.0), true,
                 true, true, "asymmetric -> symmetric");
  expect_outcome(tables.on_hello(hello_from(1, links), qos_bw(4), 2.0), false,
                 false, false, "identical HELLO");

  // The QoS of one advertised symmetric link moves: only the 2-hop view.
  std::vector<LinkAdvert> requalified = links;
  requalified[1].qos = qos_bw(8);
  expect_outcome(tables.on_hello(hello_from(1, requalified), qos_bw(4), 3.0),
                 false, false, true, "advertised QoS changed");
  // A link still asymmetric at the sender is not in the view.
  std::vector<LinkAdvert> unusable = requalified;
  unusable[2].qos = qos_bw(9);
  expect_outcome(tables.on_hello(hello_from(1, unusable), qos_bw(4), 3.5),
                 false, false, false, "asymmetric advert changed");

  // The sender picks us as its MPR: digest-visible, view unchanged.
  std::vector<LinkAdvert> selected = unusable;
  selected[0].status = LinkStatus::kMpr;
  expect_outcome(tables.on_hello(hello_from(1, selected), qos_bw(4), 4.0),
                 true, false, false, "flipped to kMpr");

  // Expiry of the symmetric entry moves everything.
  expect_outcome(tables.expire(4.5), false, false, false, "nothing lapsed");
  expect_outcome(tables.expire(10.5), true, true, true,
                 "symmetric entry expired");
  EXPECT_TRUE(tables.heard_neighbors().empty());
}

TEST(NeighborTables, FlatTableKeepsAscendingOrder) {
  NeighborTables tables(0, /*hold=*/6.0);
  for (NodeId id : {7u, 2u, 9u, 5u})
    tables.on_hello(hello_from(id, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                    qos_bw(id), static_cast<double>(id));
  EXPECT_EQ(tables.heard_neighbors(), (std::vector<NodeId>{2, 5, 7, 9}));
  // Entries heard at 2 and 5 lapse; 7 and 9 stay, in order.
  tables.expire(11.5);
  EXPECT_EQ(tables.symmetric_neighbors(), (std::vector<NodeId>{7, 9}));
  ASSERT_NE(tables.link_qos(9), nullptr);
  EXPECT_EQ(tables.link_qos(9)->bandwidth, 9.0);
  EXPECT_EQ(tables.link_qos(5), nullptr);
  tables.on_hello(hello_from(3, {{0, LinkStatus::kMpr, qos_bw(1)}}), qos_bw(3),
                  12.0);
  EXPECT_EQ(tables.heard_neighbors(), (std::vector<NodeId>{3, 7, 9}));
  EXPECT_EQ(tables.mpr_selectors(), (std::vector<NodeId>{3}));
}

}  // namespace
}  // namespace qolsr
