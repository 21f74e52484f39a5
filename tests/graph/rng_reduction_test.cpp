#include "graph/rng_reduction.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/deployment.hpp"
#include "path/first_hops.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

LinkQos qos_bw(double b, double d = 1.0) {
  LinkQos q;
  q.bandwidth = b;
  q.delay = d;
  return q;
}

TEST(RngReduce, RemovesDominatedBandwidthEdge) {
  // Triangle: (0,1) weak, both (0,2) and (2,1) stronger => (0,1) dropped.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(2));
  g.add_edge(0, 2, qos_bw(8));
  g.add_edge(2, 1, qos_bw(9));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
  EXPECT_FALSE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(0), view.local_id(2)));
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(2), view.local_id(1)));
}

TEST(RngReduce, KeepsEdgeWhenWitnessNotStrictlyBetter) {
  // Witness ties on one side: strictness keeps the edge.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(5));
  g.add_edge(0, 2, qos_bw(5));
  g.add_edge(2, 1, qos_bw(9));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
}

TEST(RngReduce, DelayUsesMaxForm) {
  // (0,1) has delay 10; witness path has max(3,4)=4 < 10 => dropped.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1, 10));
  g.add_edge(0, 2, qos_bw(1, 3));
  g.add_edge(2, 1, qos_bw(1, 4));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<DelayMetric>(view);
  EXPECT_FALSE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
}

TEST(RngReduce, DelayKeepsEdgeWhenWitnessSlowerOnOneLeg) {
  // max(3, 12) > 10 => kept, even though 3 < 10.
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1, 10));
  g.add_edge(0, 2, qos_bw(1, 3));
  g.add_edge(2, 1, qos_bw(1, 12));
  const LocalView view(g, 0);
  const LocalView reduced = testing::rng_reduced<DelayMetric>(view);
  EXPECT_TRUE(reduced.has_local_edge(view.local_id(0), view.local_id(1)));
}

TEST(RngReduce, NoCommonNeighborKeepsEverything) {
  Graph g(4);  // path 0-1-2-3: no triangles
  g.add_edge(0, 1, qos_bw(1));
  g.add_edge(1, 2, qos_bw(2));
  g.add_edge(2, 3, qos_bw(3));
  const LocalView view(g, 1);
  const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
  for (std::uint32_t a = 0; a < view.size(); ++a)
    EXPECT_EQ(reduced.neighbors(a).size(), view.neighbors(a).size());
}

class RngReducePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngReducePropertyTest, ReductionPreservesBestValues) {
  // Toussaint-style soundness under the bandwidth metric: dropping an edge
  // dominated by a strictly-better 2-edge detour never lowers the widest-
  // path value between any pair that stays connected in the view.
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 250.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    if (view.size() < 3) continue;
    const LocalView reduced = testing::rng_reduced<BandwidthMetric>(view);
    const FirstHopTable before = testing::first_hops<BandwidthMetric>(view);
    const FirstHopTable after = testing::first_hops<BandwidthMetric>(reduced);
    for (std::uint32_t v = 1; v < view.size(); ++v) {
      if (before.fp[v].empty()) continue;
      ASSERT_FALSE(after.fp[v].empty())
          << "reduction disconnected " << view.global_id(v);
      EXPECT_TRUE(metric_equal(before.best[v], after.best[v]))
          << "node " << u << " target " << view.global_id(v) << ": "
          << before.best[v] << " vs " << after.best[v];
    }
  }
}

TEST_P(RngReducePropertyTest, ReductionIsSubgraph) {
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 250.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const LocalView reduced = testing::rng_reduced<DelayMetric>(view);
    std::size_t before = 0, after = 0;
    for (std::uint32_t a = 0; a < view.size(); ++a) {
      before += view.neighbors(a).size();
      after += reduced.neighbors(a).size();
      for (const LocalView::LocalEdge& e : reduced.neighbors(a))
        EXPECT_TRUE(view.has_local_edge(a, e.to));
    }
    EXPECT_LE(after, before);
  }
}

/// The witness rule by brute force over every third node: (x,y) is
/// dropped iff some z has both links in the view and both strictly
/// `M::better` than (x,y).
template <Metric M>
void expect_brute_force_reduction(const LocalView& view,
                                  const std::string& context) {
  const LocalView reduced = testing::rng_reduced<M>(view);
  std::size_t kept = 0;
  for (std::uint32_t x = 0; x < view.size(); ++x) {
    for (const LocalView::LocalEdge& e : view.neighbors(x)) {
      const double direct = M::link_value(e.qos);
      bool witnessed = false;
      for (std::uint32_t z = 0; z < view.size() && !witnessed; ++z) {
        const LinkQos* xz = view.local_edge_qos(x, z);
        const LinkQos* zy = view.local_edge_qos(z, e.to);
        witnessed = xz != nullptr && zy != nullptr &&
                    M::better(M::link_value(*xz), direct) &&
                    M::better(M::link_value(*zy), direct);
      }
      if (!witnessed) ++kept;
      EXPECT_EQ(reduced.has_local_edge(x, e.to), !witnessed)
          << context << " " << M::name() << " edge (" << view.global_id(x)
          << "," << view.global_id(e.to) << ")";
    }
  }
  std::size_t reduced_entries = 0;
  for (std::uint32_t x = 0; x < reduced.size(); ++x)
    reduced_entries += reduced.neighbors(x).size();
  EXPECT_EQ(reduced_entries, kept) << context << " " << M::name();
}

TEST_P(RngReducePropertyTest, MatchesBruteForceWitnessReference) {
  Graph g = testing::random_geometric_graph(GetParam(), 12.0, 250.0);
  util::Rng rng(GetParam() * 7 + 1);
  const auto check_all_views = [&](const std::string& draw) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      const LocalView view(g, u);
      const std::string context = draw + " node " + std::to_string(u);
      expect_brute_force_reduction<BandwidthMetric>(view, context);
      expect_brute_force_reduction<DelayMetric>(view, context);
    }
  };
  QosIntervals intervals;
  intervals.integral = true;  // the evaluation's draws: exact ties
  assign_uniform_qos(g, intervals, rng);
  check_all_views("integral");
  intervals.integral = false;
  assign_uniform_qos(g, intervals, rng);
  check_all_views("continuous");

  // Near-ties: every value is v, v·(1+5e-10) (inside the 1e-9 tolerance
  // band, so no better than v) or v·(1+2e-9) (outside it).
  const double bases[] = {2.0, 5.0, 9.0};
  const double scales[] = {1.0, 1.0 + 5e-10, 1.0 + 2e-9};
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      if (e.to < u) continue;
      LinkQos qos;
      qos.bandwidth = bases[rng.uniform_int(3)] * scales[rng.uniform_int(3)];
      qos.delay = bases[rng.uniform_int(3)] * scales[rng.uniform_int(3)];
      g.set_edge_qos(u, e.to, qos);
    }
  }
  check_all_views("near-tie");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngReducePropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace qolsr
