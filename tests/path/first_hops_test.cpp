#include "path/first_hops.hpp"

#include <gtest/gtest.h>

#include "graph/deployment.hpp"
#include "path/brute_force.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig2;

std::vector<NodeId> to_global(const LocalView& view,
                              const std::vector<std::uint32_t>& locals) {
  std::vector<NodeId> out;
  for (std::uint32_t l : locals) out.push_back(view.global_id(l));
  return out;
}

TEST(FirstHops, PaperFig2Examples) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);

  // fPBW(u,v3) = {v1, v2} with B̃W(u,v3) = 4 (paper §III-A).
  const std::uint32_t lv3 = view.local_id(Fig2::v3);
  EXPECT_EQ(to_global(view, table.fp[lv3]),
            (std::vector<NodeId>{Fig2::v1, Fig2::v2}));
  EXPECT_DOUBLE_EQ(table.best[lv3], 4.0);

  // u reaches its 1-hop neighbor v5 best through v1 (value 5 vs direct 2).
  const std::uint32_t lv5 = view.local_id(Fig2::v5);
  EXPECT_EQ(to_global(view, table.fp[lv5]), (std::vector<NodeId>{Fig2::v1}));
  EXPECT_DOUBLE_EQ(table.best[lv5], 5.0);

  // u·v1·v5·v4 (bandwidth 5) beats the direct link of bandwidth 3.
  const std::uint32_t lv4 = view.local_id(Fig2::v4);
  EXPECT_EQ(to_global(view, table.fp[lv4]), (std::vector<NodeId>{Fig2::v1}));
  EXPECT_DOUBLE_EQ(table.best[lv4], 5.0);

  // The hidden v8–v9 link caps u's view of v9 at 3, via v7.
  const std::uint32_t lv9 = view.local_id(Fig2::v9);
  EXPECT_EQ(to_global(view, table.fp[lv9]), (std::vector<NodeId>{Fig2::v7}));
  EXPECT_DOUBLE_EQ(table.best[lv9], 3.0);

  // v11 hangs off v6: single best first hop.
  const std::uint32_t lv11 = view.local_id(Fig2::v11);
  EXPECT_EQ(to_global(view, table.fp[lv11]), (std::vector<NodeId>{Fig2::v6}));
  EXPECT_DOUBLE_EQ(table.best[lv11], 5.0);
}

TEST(FirstHops, DirectLinkOptimalContainsSelf) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
  // (u,v6) is u's best link — fP(u,v6) must contain v6 itself.
  const std::uint32_t lv6 = view.local_id(Fig2::v6);
  EXPECT_EQ(to_global(view, table.fp[lv6]), (std::vector<NodeId>{Fig2::v6}));
  // Same for v7 (paper: "u will not select another ANS for reaching v7").
  const std::uint32_t lv7 = view.local_id(Fig2::v7);
  EXPECT_EQ(to_global(view, table.fp[lv7]), (std::vector<NodeId>{Fig2::v7}));
}

TEST(FirstHops, OriginHasIdentity) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
  EXPECT_EQ(table.best[LocalView::origin_index()],
            BandwidthMetric::identity());
  EXPECT_TRUE(table.fp[LocalView::origin_index()].empty());
}

TEST(FirstHops, DelayMetricFindsCheapestChain) {
  // Delay graph: direct (5), 2-hop detour (1+1): fP = {detour}.
  Graph g(4);
  LinkQos slow, fast;
  slow.delay = 5.0;
  fast.delay = 1.0;
  g.add_edge(0, 1, slow);
  g.add_edge(0, 2, fast);
  g.add_edge(2, 1, fast);
  g.add_edge(1, 3, fast);
  const LocalView view(g, 0);
  const FirstHopTable table = testing::first_hops<DelayMetric>(view);
  const std::uint32_t l1 = view.local_id(1);
  EXPECT_EQ(to_global(view, table.fp[l1]), (std::vector<NodeId>{2}));
  EXPECT_DOUBLE_EQ(table.best[l1], 2.0);
}

TEST(FirstHops, ZeroWeightLinkBetweenEqualDistanceNodesCarriesFirstHop) {
  // u's neighbors a and b sit at jitter 1 and share a zero-jitter link, so
  // both are at distance 1 and the link is tight both ways. v hangs off
  // one of them (the anchor) only; the other reaches v solely across the
  // zero-weight link. Settle order puts a before b, so anchor b carries
  // a's bit forward along the order and anchor a needs b's bit carried
  // backward: both directions of the fixpoint.
  constexpr NodeId u = 0, a = 1, b = 2, v = 3;
  for (const NodeId anchor : {a, b}) {
    Graph g(4);
    LinkQos one, zero;
    one.jitter = 1.0;
    zero.jitter = 0.0;
    g.add_edge(u, a, one);
    g.add_edge(u, b, one);
    g.add_edge(a, b, zero);
    g.add_edge(anchor, v, one);
    const LocalView view(g, u);
    const FirstHopTable table = testing::first_hops<JitterMetric>(view);

    const std::uint32_t lv = view.local_id(v);
    EXPECT_EQ(to_global(view, table.fp[lv]), (std::vector<NodeId>{a, b}))
        << "anchor " << anchor;
    EXPECT_EQ(table.best[lv], 2.0);
    for (const NodeId w : {a, b}) {
      EXPECT_EQ(to_global(view, table.fp[view.local_id(w)]),
                (std::vector<NodeId>{a, b}))
          << "anchor " << anchor << " dest " << w;
      EXPECT_EQ(table.best[view.local_id(w)], 1.0);
    }
    for (std::uint32_t l = 1; l < view.size(); ++l)
      EXPECT_EQ(table.fp[l], brute_force_first_hops<JitterMetric>(view, l))
          << "anchor " << anchor << " dest " << view.global_id(l);
  }
}

TEST(FirstHops, PathsTiedWithinToleranceBothCount) {
  // u·a·v and u·b·v tie under metric_equal but not as doubles:
  // 0.3 + 0.6 = 0.8999999999999999 and 0.8 + 0.1 = 0.9. Either sum can be
  // the one Dijkstra settles v with: the path whose first link is shorter
  // relaxes v first. The other path's last edge is tight only within the
  // tolerance band, and its first hop must still count.
  constexpr NodeId u = 0, a = 1, b = 2, v = 3;
  struct Weights {
    double ua, av, ub, bv;
  };
  for (const Weights& w : {Weights{0.3, 0.6, 0.8, 0.1},
                           Weights{0.8, 0.1, 0.3, 0.6}}) {
    Graph g(4);
    auto link = [&g](NodeId x, NodeId y, double delay) {
      LinkQos q;
      q.delay = delay;
      g.add_edge(x, y, q);
    };
    link(u, a, w.ua);
    link(a, v, w.av);
    link(u, b, w.ub);
    link(b, v, w.bv);
    ASSERT_NE(w.ua + w.av, w.ub + w.bv);
    const LocalView view(g, u);
    const FirstHopTable table = testing::first_hops<DelayMetric>(view);
    const std::uint32_t lv = view.local_id(v);
    EXPECT_EQ(to_global(view, table.fp[lv]), (std::vector<NodeId>{a, b}))
        << "u-a " << w.ua;
    EXPECT_TRUE(metric_equal(table.best[lv], 0.9));
    EXPECT_EQ(table.fp[lv], brute_force_first_hops<DelayMetric>(view, lv));
  }
}

/// Every view of `g` with at most 10 nodes against exhaustive enumeration:
/// fP exactly, best exactly for concave metrics and integral weights (all
/// sums are small integers) and within the tolerance band otherwise.
template <Metric M>
void expect_brute_force_first_hops(const Graph& g, bool integral) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    if (view.size() > 10) continue;  // keep the exhaustive search tractable
    const FirstHopTable table = testing::first_hops<M>(view);
    for (std::uint32_t v = 1; v < view.size(); ++v) {
      EXPECT_EQ(table.fp[v], brute_force_first_hops<M>(view, v))
          << M::name() << " u=" << u << " v=" << view.global_id(v);
      const auto want = brute_force_best_paths<M, LocalView>(
          view, LocalView::origin_index(), v);
      if (want.optimal_paths.empty()) continue;
      if (integral || M::kind == MetricKind::kConcave) {
        EXPECT_EQ(table.best[v], want.best) << M::name() << " u=" << u;
      } else {
        EXPECT_TRUE(metric_equal(table.best[v], want.best))
            << M::name() << " u=" << u;
      }
    }
  }
}

/// random_uniform_graph redrawn with integral QoS: delay ties exactly,
/// jitter draws are {0,1} and loss draws are all 0, so zero-weight links
/// and tight cycles among equal-distance nodes are everywhere.
Graph integral_uniform_graph(std::uint64_t seed) {
  Graph g = testing::random_uniform_graph(seed, 8, 0.4);
  util::Rng rng(seed + 1000);
  QosIntervals qos;
  qos.integral = true;
  assign_uniform_qos(g, qos, rng);
  return g;
}

class FirstHopsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationBandwidth) {
  expect_brute_force_first_hops<BandwidthMetric>(
      testing::random_uniform_graph(GetParam(), 8, 0.4), false);
}

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationDelay) {
  expect_brute_force_first_hops<DelayMetric>(
      testing::random_uniform_graph(GetParam() + 500, 8, 0.4), false);
}

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationIntegralDelay) {
  expect_brute_force_first_hops<DelayMetric>(
      integral_uniform_graph(GetParam() + 600), true);
}

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationIntegralJitter) {
  expect_brute_force_first_hops<JitterMetric>(
      integral_uniform_graph(GetParam() + 700), true);
}

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationIntegralLoss) {
  expect_brute_force_first_hops<LossMetric>(
      integral_uniform_graph(GetParam() + 800), true);
}

TEST_P(FirstHopsPropertyTest, FirstHopsAreAlwaysOneHopNeighbors) {
  const Graph g = testing::random_geometric_graph(GetParam(), 8.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
    for (std::uint32_t v = 1; v < view.size(); ++v)
      for (std::uint32_t w : table.fp[v]) EXPECT_TRUE(view.is_one_hop(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstHopsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace qolsr
