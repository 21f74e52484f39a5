// Metric-algebra and path-engine invariants over randomized inputs.
#include <gtest/gtest.h>

#include "path/dijkstra.hpp"
#include "path/first_hops.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

class PathInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathInvariantTest, CombineNeverImproves) {
  // The label-setting precondition: extending a path can't improve it.
  util::Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(0.0, 20.0);
    const double b = rng.uniform(0.0, 20.0);
    EXPECT_FALSE(BandwidthMetric::better(BandwidthMetric::combine(a, b), a));
    EXPECT_FALSE(DelayMetric::better(DelayMetric::combine(a, b), a));
  }
}

TEST_P(PathInvariantTest, DijkstraValueTreeConsistent) {
  // Every settled node's value equals combine(parent value, link value) —
  // the parent tree justifies the reported values.
  const Graph g = testing::random_geometric_graph(GetParam(), 8.0);
  if (g.node_count() == 0) GTEST_SKIP();
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, ws);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    const NodeId p = ws.parent(v);
    if (p == kInvalidNode) continue;
    const LinkQos* q = g.edge_qos(p, v);
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(metric_equal(
        ws.value(v), BandwidthMetric::combine(
                         ws.value(p), BandwidthMetric::link_value(*q))));
    EXPECT_EQ(ws.hops(v), ws.hops(p) + 1);
  }
}

TEST_P(PathInvariantTest, AdditiveSubpathOptimality) {
  // Delay: any prefix of a min-delay path is itself min-delay (classic
  // optimal-substructure; relied on by hop-by-hop forwarding).
  const Graph g = testing::random_geometric_graph(GetParam() + 5, 7.0);
  if (g.node_count() < 2) GTEST_SKIP();
  DijkstraWorkspace from0;
  dijkstra<DelayMetric>(g, 0, kInvalidNode, from0);
  std::vector<std::uint32_t> path;
  for (NodeId t = 1; t < g.node_count(); ++t) {
    from0.path_to(t, path);
    if (path.empty()) continue;
    double prefix = 0.0;
    for (std::size_t i = 1; i < path.size(); ++i) {
      prefix += g.edge_qos(path[i - 1], path[i])->delay;
      EXPECT_TRUE(metric_equal(prefix, from0.value(path[i])))
          << "prefix to " << path[i];
    }
  }
}

TEST_P(PathInvariantTest, AddingEdgesNeverHurtsTheOptimum) {
  Graph g = testing::random_uniform_graph(GetParam(), 14, 0.2);
  DijkstraWorkspace before;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, before);
  // Add a few random edges with random QoS.
  util::Rng rng(GetParam() * 31 + 7);
  int added = 0;
  while (added < 5) {
    const NodeId a = static_cast<NodeId>(rng.uniform_int(std::uint64_t{14}));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(std::uint64_t{14}));
    if (a == b || g.has_edge(a, b)) continue;
    LinkQos q;
    q.bandwidth = rng.uniform(1.0, 10.0);
    g.add_edge(a, b, q);
    ++added;
  }
  DijkstraWorkspace after;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, after);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    if (!before.reached(v)) continue;
    ASSERT_TRUE(after.reached(v)) << "node " << v;
    EXPECT_FALSE(BandwidthMetric::better(before.value(v), after.value(v)))
        << "node " << v;
  }
}

TEST_P(PathInvariantTest, FirstHopBestMatchesDijkstraFromOrigin) {
  // B̃(u,v) from the per-neighbor decomposition equals the direct
  // origin-rooted Dijkstra value (paths can't improve by revisiting u).
  const Graph g = testing::random_geometric_graph(GetParam() + 11, 8.0);
  DijkstraWorkspace direct;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const FirstHopTable table = testing::first_hops<BandwidthMetric>(view);
    dijkstra<BandwidthMetric>(view, LocalView::origin_index(), kInvalidNode,
                              direct);
    for (std::uint32_t v = 1; v < view.size(); ++v) {
      if (table.fp[v].empty()) {
        EXPECT_FALSE(direct.reached(v));
      } else {
        ASSERT_TRUE(direct.reached(v));
        EXPECT_TRUE(metric_equal(table.best[v], direct.value(v)))
            << "u=" << u << " v=" << view.global_id(v);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathInvariantTest,
                         ::testing::Range<std::uint64_t>(100, 108));

}  // namespace
}  // namespace qolsr
