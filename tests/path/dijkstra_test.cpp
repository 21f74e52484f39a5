#include "path/dijkstra.hpp"

#include <gtest/gtest.h>

#include "path/brute_force.hpp"
#include "path/path.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

LinkQos qos(double bw, double d) {
  LinkQos q;
  q.bandwidth = bw;
  q.delay = d;
  return q;
}

/// The last run's best path to `target`; empty when it was not reached.
std::vector<std::uint32_t> path_to(const DijkstraWorkspace& ws,
                                   std::uint32_t target) {
  std::vector<std::uint32_t> path;
  ws.path_to(target, path);
  return path;
}

TEST(Dijkstra, WidestPathOnFig1) {
  using F = testing::Fig1;
  const Graph g = F::build();
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, F::v1, kInvalidNode, ws);
  // Paper: the widest v1→v3 path is v1·v6·v5·v4·v3 with bandwidth 10.
  EXPECT_DOUBLE_EQ(ws.value(F::v3), 10.0);
  EXPECT_EQ(path_to(ws, F::v3), (std::vector<std::uint32_t>{
                                    F::v1, F::v6, F::v5, F::v4, F::v3}));
}

TEST(Dijkstra, MinDelayPath) {
  Graph g(4);
  g.add_edge(0, 1, qos(1, 5));
  g.add_edge(1, 3, qos(1, 5));
  g.add_edge(0, 2, qos(1, 2));
  g.add_edge(2, 3, qos(1, 3));
  DijkstraWorkspace ws;
  dijkstra<DelayMetric>(g, 0, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(3), 5.0);
  EXPECT_EQ(path_to(ws, 3), (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(Dijkstra, SourceHasIdentityValue) {
  Graph g(2);
  g.add_edge(0, 1, qos(4, 2));
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, ws);
  EXPECT_EQ(ws.value(0), BandwidthMetric::identity());
  EXPECT_EQ(ws.hops(0), 0u);
  EXPECT_EQ(path_to(ws, 0), (std::vector<std::uint32_t>{0}));
  dijkstra<DelayMetric>(g, 0, kInvalidNode, ws);
  EXPECT_EQ(ws.value(0), 0.0);
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_edge(0, 1, qos(4, 2));
  DijkstraWorkspace ws;
  dijkstra<DelayMetric>(g, 0, kInvalidNode, ws);
  EXPECT_FALSE(ws.reached(2));
  EXPECT_EQ(ws.parent(2), kInvalidNode);
  EXPECT_TRUE(path_to(ws, 2).empty());
  EXPECT_TRUE(path_to(ws, 3).empty());  // beyond the graph
}

TEST(Dijkstra, ExcludedVertexIsInvisible) {
  // 0-1-2 chain plus direct weak 0-2: excluding 1 forces the direct link.
  Graph g(3);
  g.add_edge(0, 1, qos(9, 1));
  g.add_edge(1, 2, qos(9, 1));
  g.add_edge(0, 2, qos(2, 9));
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(2), 9.0);
  dijkstra<BandwidthMetric>(g, 0, /*excluded=*/1, ws);
  EXPECT_DOUBLE_EQ(ws.value(2), 2.0);
  EXPECT_FALSE(ws.reached(1));
}

TEST(Dijkstra, ExcludedSourceReachesNothing) {
  Graph g(2);
  g.add_edge(0, 1, qos(4, 2));
  DijkstraWorkspace ws;
  dijkstra<DelayMetric>(g, 0, /*excluded=*/0, ws);
  EXPECT_FALSE(ws.reached(1));
}

TEST(Dijkstra, HopTieBreakPrefersShorterPath) {
  // Two equal-bandwidth routes 0→3: 2 hops vs 3 hops.
  Graph g(5);
  g.add_edge(0, 1, qos(5, 1));
  g.add_edge(1, 3, qos(5, 1));
  g.add_edge(0, 2, qos(5, 1));
  g.add_edge(2, 4, qos(5, 1));
  g.add_edge(4, 3, qos(5, 1));
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(3), 5.0);
  EXPECT_EQ(ws.hops(3), 2u);
  EXPECT_EQ(path_to(ws, 3).size(), 3u);
}

TEST(Dijkstra, RunsOnLocalViews) {
  using F = testing::Fig2;
  const Graph g = F::build();
  const LocalView view(g, F::u);
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(view, LocalView::origin_index(), kInvalidNode, ws);
  // Best u→v4 inside G_u: u·v1·v5·v4 of bandwidth 5 (paper §III-B).
  EXPECT_DOUBLE_EQ(ws.value(view.local_id(F::v4)), 5.0);
  // v9 is only visible through v7 (3): the v8–v9 shortcut is hidden.
  EXPECT_DOUBLE_EQ(ws.value(view.local_id(F::v9)), 3.0);
}

TEST(Dijkstra, LocalViewValueCanBeWorseThanGlobal) {
  // The localized-knowledge limitation of §III-B: globally u→v9 has width 5.
  using F = testing::Fig2;
  const Graph g = F::build();
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, F::u, kInvalidNode, ws);
  EXPECT_DOUBLE_EQ(ws.value(F::v9), 5.0);
}

struct MetricCase {
  std::uint64_t seed;
};

class DijkstraVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraVsBruteForce, BandwidthMatchesExhaustiveSearch) {
  const Graph g = testing::random_uniform_graph(GetParam(), 9, 0.35);
  DijkstraWorkspace ws;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    dijkstra<BandwidthMetric>(g, s, kInvalidNode, ws);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (t == s) continue;
      const auto brute =
          brute_force_best_paths<BandwidthMetric, Graph>(g, s, t);
      if (brute.optimal_paths.empty()) {
        EXPECT_FALSE(ws.reached(t));
      } else {
        ASSERT_TRUE(ws.reached(t)) << s << "→" << t;
        EXPECT_TRUE(metric_equal(ws.value(t), brute.best))
            << s << "→" << t << ": " << ws.value(t) << " vs " << brute.best;
      }
    }
  }
}

TEST_P(DijkstraVsBruteForce, DelayMatchesExhaustiveSearch) {
  const Graph g = testing::random_uniform_graph(GetParam() + 1000, 9, 0.35);
  DijkstraWorkspace ws;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    dijkstra<DelayMetric>(g, s, kInvalidNode, ws);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (t == s) continue;
      const auto brute = brute_force_best_paths<DelayMetric, Graph>(g, s, t);
      if (brute.optimal_paths.empty()) {
        EXPECT_FALSE(ws.reached(t));
      } else {
        ASSERT_TRUE(ws.reached(t)) << s << "→" << t;
        EXPECT_TRUE(metric_equal(ws.value(t), brute.best))
            << s << "→" << t << ": " << ws.value(t) << " vs " << brute.best;
      }
    }
  }
}

TEST_P(DijkstraVsBruteForce, ExtractedPathRealizesReportedValue) {
  const Graph g = testing::random_uniform_graph(GetParam() + 2000, 10, 0.3);
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(g, 0, kInvalidNode, ws);
  for (NodeId t = 1; t < g.node_count(); ++t) {
    const Path p = path_to(ws, t);
    if (p.empty()) continue;
    EXPECT_TRUE(is_simple_path(g, p));
    EXPECT_TRUE(
        metric_equal(evaluate_path<BandwidthMetric>(g, p), ws.value(t)));
    EXPECT_EQ(p.size() - 1, ws.hops(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace qolsr
