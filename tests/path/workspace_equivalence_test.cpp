// Equivalence of the workspace-based path/selection engine against
// straightforward reference implementations:
//
//  * reference Dijkstra: std::priority_queue with lazy deletion (the
//    pre-workspace implementation) — values, hops and reachability must
//    match the indexed-heap engine on full graphs and local views;
//  * reference compute_first_hops: one reference Dijkstra per neighbor on
//    G_u \ {u} (the per-neighbor definition of fP, which the additive
//    engine's single Dijkstra from u replaces) — fp sets must match
//    exactly, best values exactly for concave metrics and within the
//    tolerance band for additive ones;
//  * a workspace reused across every node of several graphs must agree
//    bit-for-bit with a fresh one (no cross-run contamination).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "core/fnbp.hpp"
#include "core/multi_criteria.hpp"
#include "graph/deployment.hpp"
#include "olsr/mpr.hpp"
#include "olsr/qolsr_mpr.hpp"
#include "olsr/topology_filtering.hpp"
#include "path/dijkstra.hpp"
#include "path/first_hops.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

/// Dense labels of a reference run; M::unreachable() marks unreached nodes.
struct RefLabels {
  std::vector<double> value;
  std::vector<std::uint32_t> hops;
  std::vector<std::uint32_t> parent;
};

template <Metric M, typename G>
RefLabels ref_dijkstra(const G& graph, std::uint32_t source,
                       std::uint32_t excluded = kInvalidNode) {
  const std::size_t n = dijkstra_detail::graph_size(graph);
  RefLabels result;
  result.value.assign(n, M::unreachable());
  result.hops.assign(n, 0);
  result.parent.assign(n, kInvalidNode);

  struct Entry {
    double value;
    std::uint32_t hops;
    std::uint32_t node;
  };
  auto worse = [](const Entry& a, const Entry& b) {
    return dijkstra_detail::lex_better<M>(b.value, b.hops, a.value, a.hops);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> queue(worse);

  if (source == excluded) return result;
  result.value[source] = M::identity();
  queue.push({M::identity(), 0, source});

  std::vector<bool> settled(n, false);
  while (!queue.empty()) {
    const Entry top = queue.top();
    queue.pop();
    if (settled[top.node]) continue;
    settled[top.node] = true;
    for (const auto& edge : graph.neighbors(top.node)) {
      const std::uint32_t next = edge.to;
      if (next == excluded || settled[next]) continue;
      const double cand = M::combine(top.value, M::link_value(edge.qos));
      const std::uint32_t cand_hops = top.hops + 1;
      const bool first_touch = result.value[next] == M::unreachable();
      if (first_touch ||
          dijkstra_detail::lex_better<M>(cand, cand_hops, result.value[next],
                                         result.hops[next])) {
        result.value[next] = cand;
        result.hops[next] = cand_hops;
        result.parent[next] = top.node;
        queue.push({cand, cand_hops, next});
      }
    }
  }
  return result;
}

template <Metric M>
FirstHopTable ref_first_hops(const LocalView& view) {
  const auto n = static_cast<std::uint32_t>(view.size());
  FirstHopTable table;
  table.best.assign(n, M::unreachable());
  table.fp.assign(n, {});
  table.best[LocalView::origin_index()] = M::identity();
  for (std::uint32_t w : view.one_hop()) {
    const LinkQos* first_link =
        view.local_edge_qos(LocalView::origin_index(), w);
    if (first_link == nullptr) continue;
    const double first_value = M::link_value(*first_link);
    const RefLabels from_w =
        ref_dijkstra<M>(view, w, LocalView::origin_index());
    for (std::uint32_t v = 1; v < n; ++v) {
      if (from_w.value[v] == M::unreachable()) continue;
      const double cand = M::combine(first_value, from_w.value[v]);
      if (table.fp[v].empty() || M::better(cand, table.best[v])) {
        table.best[v] = cand;
        table.fp[v].assign(1, w);
      } else if (metric_equal(cand, table.best[v])) {
        table.fp[v].push_back(w);
      }
    }
  }
  return table;
}

/// Reference FNBP: the selection rules applied to the reference fP table.
template <Metric M>
std::vector<NodeId> ref_select_fnbp(const LocalView& view) {
  const FirstHopTable table = ref_first_hops<M>(view);
  std::vector<bool> in_ans(view.size(), false);
  auto covered = [&](const std::vector<std::uint32_t>& fp) {
    return std::any_of(fp.begin(), fp.end(),
                       [&](std::uint32_t w) { return in_ans[w]; });
  };
  for (std::uint32_t v : view.one_hop()) {
    const auto& fp = table.fp[v];
    if (fp.empty()) continue;
    if (std::binary_search(fp.begin(), fp.end(), v)) continue;
    if (covered(fp)) continue;
    const std::uint32_t w = pick_best_link<M>(view, fp);
    if (w != kInvalidNode) in_ans[w] = true;
  }
  for (std::uint32_t v : view.two_hop()) {
    const auto& fp = table.fp[v];
    if (fp.empty()) continue;
    if (!covered(fp)) {
      const std::uint32_t w = pick_best_link<M>(view, fp);
      if (w != kInvalidNode) in_ans[w] = true;
      continue;
    }
    const NodeId origin_id = view.origin();
    const bool origin_smallest = std::all_of(
        fp.begin(), fp.end(),
        [&](std::uint32_t w) { return view.global_id(w) > origin_id; });
    if (!origin_smallest) continue;
    std::vector<std::uint32_t> adjacent;
    for (std::uint32_t w : fp)
      if (view.has_local_edge(w, v)) adjacent.push_back(w);
    if (adjacent.empty()) continue;
    const std::uint32_t w = pick_best_link<M>(view, adjacent);
    if (w != kInvalidNode) in_ans[w] = true;
  }
  std::vector<NodeId> result;
  for (std::uint32_t w = 0; w < view.size(); ++w)
    if (in_ans[w]) result.push_back(view.global_id(w));
  std::sort(result.begin(), result.end());
  return result;
}

/// Values compare exactly for concave metrics (path values are copies of
/// link values) and within metric tolerance for additive ones (summation
/// order may differ between engines on tolerance-tied paths).
template <Metric M>
void expect_labels_equal(const DijkstraWorkspace& got, const RefLabels& want,
                         const char* context) {
  ASSERT_EQ(got.size(), want.value.size()) << context;
  for (std::uint32_t v = 0; v < want.value.size(); ++v) {
    const bool want_reached = want.value[v] != M::unreachable();
    ASSERT_EQ(got.reached(v), want_reached) << context << " node " << v;
    if (!want_reached) continue;
    if constexpr (M::kind == MetricKind::kConcave) {
      EXPECT_EQ(got.value(v), want.value[v]) << context << " node " << v;
    } else {
      EXPECT_TRUE(metric_equal(got.value(v), want.value[v]))
          << context << " node " << v << ": " << got.value(v) << " vs "
          << want.value[v];
    }
    EXPECT_EQ(got.hops(v), want.hops[v]) << context << " node " << v;
  }
}

/// Bit-identical labels, parents included: a warm workspace must reproduce
/// a fresh one exactly.
void expect_same_labels(const DijkstraWorkspace& fresh,
                        const DijkstraWorkspace& warm, const char* context) {
  ASSERT_EQ(warm.size(), fresh.size()) << context;
  for (std::uint32_t v = 0; v < fresh.size(); ++v) {
    ASSERT_EQ(warm.reached(v), fresh.reached(v)) << context << " node " << v;
    if (!fresh.reached(v)) continue;
    EXPECT_EQ(warm.value(v), fresh.value(v)) << context << " node " << v;
    EXPECT_EQ(warm.hops(v), fresh.hops(v)) << context << " node " << v;
    EXPECT_EQ(warm.parent(v), fresh.parent(v)) << context << " node " << v;
  }
}

/// The parent array is tie-dependent; instead of comparing it, check that
/// it encodes a valid optimal path: right length, consistent with the
/// graph, and of exactly the labeled value.
template <Metric M, typename G>
void expect_parents_consistent(const G& graph, const DijkstraWorkspace& ws,
                               std::uint32_t source, std::uint32_t excluded) {
  const std::size_t n = dijkstra_detail::graph_size(graph);
  std::vector<std::uint32_t> path;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!ws.reached(v) || v == source) continue;
    ws.path_to(v, path);
    ASSERT_EQ(path.size(), ws.hops(v) + 1) << "node " << v;
    EXPECT_EQ(path.front(), source) << "node " << v;
    double value = M::identity();
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_NE(path[i], excluded);
      bool found = false;
      for (const auto& e : graph.neighbors(path[i])) {
        if (e.to == path[i + 1]) {
          value = M::combine(value, M::link_value(e.qos));
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "missing edge on extracted path";
    }
    EXPECT_TRUE(metric_equal(value, ws.value(v))) << "node " << v;
  }
}

std::vector<Graph> test_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(testing::Fig1::build());
  graphs.push_back(testing::Fig2::build());
  graphs.push_back(testing::Fig4::build());
  graphs.push_back(testing::Fig5::build());
  for (std::uint64_t seed : {1u, 2u, 3u})
    graphs.push_back(testing::random_geometric_graph(seed, 8.0));
  graphs.push_back(testing::random_geometric_graph(4, 16.0));
  graphs.push_back(testing::random_uniform_graph(5, 40, 0.3));
  // Integral weights: the exact-tie-heavy regime.
  Graph integral = testing::random_uniform_graph(6, 30, 0.3);
  util::Rng rng(77);
  QosIntervals qos;
  qos.integral = true;
  assign_uniform_qos(integral, qos, rng);
  graphs.push_back(std::move(integral));
  return graphs;
}

template <Metric M>
void check_dijkstra_everywhere() {
  DijkstraWorkspace warm;  // deliberately shared across every run below
  for (const Graph& g : test_graphs()) {
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const RefLabels want = ref_dijkstra<M>(g, s);
      DijkstraWorkspace fresh;
      dijkstra<M>(g, s, kInvalidNode, fresh);
      expect_labels_equal<M>(fresh, want, "full graph");
      expect_parents_consistent<M>(g, fresh, s, kInvalidNode);

      dijkstra<M>(g, s, kInvalidNode, warm);
      expect_same_labels(fresh, warm, "warm full graph");
    }
    LocalViewBuilder builder;
    LocalView view;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      for (std::uint32_t w : view.one_hop()) {
        const RefLabels want =
            ref_dijkstra<M>(view, w, LocalView::origin_index());
        dijkstra<M>(view, w, LocalView::origin_index(), warm);
        expect_labels_equal<M>(warm, want, "local view");
        expect_parents_consistent<M>(view, warm, w, LocalView::origin_index());
      }
    }
  }
}

TEST(WorkspaceEquivalence, DijkstraBandwidth) {
  check_dijkstra_everywhere<BandwidthMetric>();
}

TEST(WorkspaceEquivalence, DijkstraDelay) {
  check_dijkstra_everywhere<DelayMetric>();
}

TEST(WorkspaceEquivalence, DijkstraMinHop) {
  DijkstraWorkspace warm;
  for (const Graph& g : test_graphs()) {
    for (NodeId s = 0; s < g.node_count(); ++s) {
      DijkstraWorkspace fresh;
      dijkstra_min_hop<BandwidthMetric>(g, s, kInvalidNode, fresh);
      dijkstra_min_hop<BandwidthMetric>(g, s, kInvalidNode, warm);
      expect_same_labels(fresh, warm, "min-hop");
    }
  }
}

template <Metric M>
void check_first_hops_everywhere() {
  DijkstraWorkspace ws;
  FirstHopTable reused;  // same output table recycled across all nodes
  for (const Graph& g : test_graphs()) {
    LocalViewBuilder builder;
    LocalView view;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      const FirstHopTable want = ref_first_hops<M>(view);
      const FirstHopTable got = testing::first_hops<M>(view);
      compute_first_hops<M>(view, ws, reused);

      ASSERT_EQ(got.fp.size(), want.fp.size());
      ASSERT_EQ(reused.fp.size(), want.fp.size());
      for (std::uint32_t v = 0; v < want.fp.size(); ++v) {
        EXPECT_EQ(got.fp[v], want.fp[v]) << "node " << u << " dest " << v;
        EXPECT_EQ(reused.fp[v], want.fp[v]) << "node " << u << " dest " << v;
        if (want.fp[v].empty()) continue;
        if constexpr (M::kind == MetricKind::kConcave) {
          EXPECT_EQ(got.best[v], want.best[v]);
          EXPECT_EQ(reused.best[v], want.best[v]);
        } else {
          EXPECT_TRUE(metric_equal(got.best[v], want.best[v]));
          EXPECT_TRUE(metric_equal(reused.best[v], want.best[v]));
        }
      }
    }
  }
}

TEST(WorkspaceEquivalence, FirstHopsBandwidth) {
  check_first_hops_everywhere<BandwidthMetric>();
}

TEST(WorkspaceEquivalence, FirstHopsDelay) {
  check_first_hops_everywhere<DelayMetric>();
}

// The other additive metrics: the paper graphs carry the default jitter
// and loss of 0 (every path ties) and the integral graph draws jitter
// from {0,1} and loss as 0, so these runs are dense with zero-weight links.
TEST(WorkspaceEquivalence, FirstHopsJitter) {
  check_first_hops_everywhere<JitterMetric>();
}

TEST(WorkspaceEquivalence, FirstHopsLoss) {
  check_first_hops_everywhere<LossMetric>();
}

TEST(WorkspaceEquivalence, FirstHopsEnergy) {
  check_first_hops_everywhere<EnergyMetric>();
}

TEST(WorkspaceEquivalence, FnbpSelectionMatchesReference) {
  SelectionWorkspace ws;
  std::vector<NodeId> out;
  for (const Graph& g : test_graphs()) {
    LocalViewBuilder builder;
    LocalView view;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      const auto want_bw = ref_select_fnbp<BandwidthMetric>(view);
      EXPECT_EQ(FnbpSelector<BandwidthMetric>().select(view), want_bw);
      select_fnbp_ans<BandwidthMetric>(view, ws, out);
      EXPECT_EQ(out, want_bw);

      const auto want_delay = ref_select_fnbp<DelayMetric>(view);
      select_fnbp_ans<DelayMetric>(view, ws, out);
      EXPECT_EQ(out, want_delay);
    }
  }
}

TEST(WorkspaceEquivalence, AllSelectorsWarmWorkspaceMatchesFresh) {
  // Each selector's select_into through one workspace warmed on every
  // earlier view must match select, which runs on a fresh workspace.
  FnbpOptions ablation;
  ablation.loop_fix = false;
  ablation.qos_tiebreak = false;
  const Rfc3626Selector rfc;
  const QolsrSelector<BandwidthMetric> mpr1_bw(QolsrVariant::kMpr1);
  const QolsrSelector<BandwidthMetric> mpr2_bw(QolsrVariant::kMpr2);
  const QolsrSelector<DelayMetric> mpr1_delay(QolsrVariant::kMpr1);
  const QolsrSelector<DelayMetric> mpr2_delay(QolsrVariant::kMpr2);
  const TopologyFilteringSelector<BandwidthMetric> topo_bw;
  const TopologyFilteringSelector<DelayMetric> topo_delay;
  const FnbpSelector<BandwidthMetric> fnbp_ablation(ablation);
  const BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric> bicriteria;
  const std::vector<const AnsSelector*> selectors{
      &rfc,     &mpr1_bw,    &mpr2_bw,       &mpr1_delay, &mpr2_delay,
      &topo_bw, &topo_delay, &fnbp_ablation, &bicriteria};

  SelectionWorkspace ws;
  std::vector<NodeId> out;
  for (const Graph& g : test_graphs()) {
    LocalViewBuilder builder;
    LocalView view;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      for (const AnsSelector* selector : selectors) {
        selector->select_into(view, ws, out);
        EXPECT_EQ(out, selector->select(view))
            << selector->name() << " node " << u;
      }
    }
  }
}

TEST(WorkspaceEquivalence, RngReduceWarmScratchMatchesFresh) {
  RngWitnessScratch scratch;
  LocalView warm;
  for (const Graph& g : test_graphs()) {
    LocalViewBuilder builder;
    LocalView view;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      const LocalView fresh = testing::rng_reduced<BandwidthMetric>(view);
      rng_reduce<BandwidthMetric>(view, warm, scratch);
      ASSERT_EQ(warm.size(), fresh.size());
      for (std::uint32_t l = 0; l < fresh.size(); ++l) {
        const auto a = fresh.neighbors(l);
        const auto b = warm.neighbors(l);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k].to, b[k].to);
          EXPECT_EQ(a[k].qos, b[k].qos);
        }
      }
    }
  }
}

}  // namespace
}  // namespace qolsr
