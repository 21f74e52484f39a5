// Equivalence of the CSR LocalView/LocalViewBuilder against a
// straightforward reference construction (hash-map global→local indexing,
// per-row sorted-insert adjacency — the pre-CSR implementation), on the
// paper graphs, random geometric and dense uniform graphs, for both the
// full-graph and the HELLO-table constructors.
#include "graph/local_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "graph/deployment.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

/// Reference view: the straightforward construction the CSR builder
/// replaced, kept deliberately naive.
struct RefView {
  NodeId origin = kInvalidNode;
  std::vector<NodeId> global_ids;  // [0]=u, N(u) asc, N²(u) asc
  std::uint32_t first_two_hop = 1;
  std::unordered_map<NodeId, std::uint32_t> locals;
  std::vector<std::vector<LocalView::LocalEdge>> adjacency;  // rows sorted

  std::uint32_t local_id(NodeId global) const {
    auto it = locals.find(global);
    return it == locals.end() ? kInvalidNode : it->second;
  }
  bool is_one_hop(std::uint32_t l) const {
    return l != 0 && l < first_two_hop;
  }

  void index(NodeId u, const std::vector<NodeId>& one_hop,
             const std::vector<NodeId>& two_hop) {
    origin = u;
    global_ids.push_back(u);
    for (NodeId v : one_hop) global_ids.push_back(v);
    first_two_hop = static_cast<std::uint32_t>(global_ids.size());
    for (NodeId v : two_hop) global_ids.push_back(v);
    for (std::uint32_t i = 0; i < global_ids.size(); ++i)
      locals.emplace(global_ids[i], i);
    adjacency.resize(global_ids.size());
  }

  bool has_edge(std::uint32_t a, std::uint32_t b) const {
    for (const auto& e : adjacency[a])
      if (e.to == b) return true;
    return false;
  }

  void add_edge(std::uint32_t a, std::uint32_t b, const LinkQos& qos) {
    auto insert_sorted = [](std::vector<LocalView::LocalEdge>& row,
                            LocalView::LocalEdge e) {
      auto it = std::lower_bound(
          row.begin(), row.end(), e.to,
          [](const LocalView::LocalEdge& lhs, std::uint32_t id) {
            return lhs.to < id;
          });
      row.insert(it, e);
    };
    insert_sorted(adjacency[a], {b, qos});
    insert_sorted(adjacency[b], {a, qos});
  }
};

RefView ref_from_graph(const Graph& graph, NodeId u) {
  RefView ref;
  std::vector<NodeId> one_hop;
  for (const Edge& e : graph.neighbors(u)) one_hop.push_back(e.to);
  std::vector<NodeId> two_hop;
  for (NodeId v : one_hop) {
    for (const Edge& e : graph.neighbors(v)) {
      if (e.to == u) continue;
      if (std::binary_search(one_hop.begin(), one_hop.end(), e.to)) continue;
      two_hop.push_back(e.to);
    }
  }
  std::sort(two_hop.begin(), two_hop.end());
  two_hop.erase(std::unique(two_hop.begin(), two_hop.end()), two_hop.end());
  ref.index(u, one_hop, two_hop);
  for (NodeId v : one_hop) {
    const std::uint32_t lv = ref.local_id(v);
    for (const Edge& e : graph.neighbors(v)) {
      const std::uint32_t lw = ref.local_id(e.to);
      if (lw == kInvalidNode) continue;
      if (ref.is_one_hop(lw) && e.to < v) continue;
      ref.add_edge(lv, lw, e.qos);
    }
  }
  return ref;
}

RefView ref_from_hello(
    NodeId u, const std::vector<LocalView::NeighborLink>& one_hop,
    const std::vector<std::vector<LocalView::NeighborLink>>& neighbor_links) {
  RefView ref;
  std::vector<NodeId> one_hop_ids;
  for (const auto& l : one_hop) one_hop_ids.push_back(l.to);
  std::sort(one_hop_ids.begin(), one_hop_ids.end());
  std::vector<NodeId> two_hop;
  for (const auto& links : neighbor_links) {
    for (const auto& l : links) {
      if (l.to == u) continue;
      if (std::binary_search(one_hop_ids.begin(), one_hop_ids.end(), l.to))
        continue;
      two_hop.push_back(l.to);
    }
  }
  std::sort(two_hop.begin(), two_hop.end());
  two_hop.erase(std::unique(two_hop.begin(), two_hop.end()), two_hop.end());
  ref.index(u, one_hop_ids, two_hop);
  for (const auto& l : one_hop) ref.add_edge(0, ref.local_id(l.to), l.qos);
  for (std::size_t i = 0; i < one_hop.size(); ++i) {
    const std::uint32_t lv = ref.local_id(one_hop[i].to);
    for (const auto& l : neighbor_links[i]) {
      if (l.to == u) continue;
      const std::uint32_t lw = ref.local_id(l.to);
      if (lw == kInvalidNode) continue;
      if (ref.is_one_hop(lw) && l.to < one_hop[i].to) continue;
      if (ref.has_edge(lv, lw)) continue;  // tolerate asymmetric reports
      ref.add_edge(lv, lw, l.qos);
    }
  }
  return ref;
}

void expect_equivalent(const LocalView& view, const RefView& ref) {
  ASSERT_EQ(view.size(), ref.global_ids.size());
  EXPECT_EQ(view.origin(), ref.origin);
  for (std::uint32_t l = 0; l < view.size(); ++l) {
    EXPECT_EQ(view.global_id(l), ref.global_ids[l]);
    EXPECT_EQ(view.local_id(ref.global_ids[l]), l);
    EXPECT_EQ(view.is_one_hop(l), ref.is_one_hop(l));
    EXPECT_EQ(view.is_two_hop(l), l >= ref.first_two_hop);
    const auto row = view.neighbors(l);
    ASSERT_EQ(row.size(), ref.adjacency[l].size()) << "row " << l;
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k].to, ref.adjacency[l][k].to);
      EXPECT_EQ(row[k].qos, ref.adjacency[l][k].qos);
    }
  }
  // Unknown globals must not resolve.
  EXPECT_EQ(view.local_id(static_cast<NodeId>(1u << 30)), kInvalidNode);
}

void expect_all_views_equivalent(const Graph& g) {
  LocalViewBuilder builder;  // one builder reused across all nodes
  LocalView view;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    builder.build(g, u, view);
    expect_equivalent(view, ref_from_graph(g, u));
    // The convenience constructor goes through the same path.
    expect_equivalent(LocalView(g, u), ref_from_graph(g, u));
  }
}

TEST(LocalViewEquivalence, PaperGraphs) {
  expect_all_views_equivalent(testing::Fig1::build());
  expect_all_views_equivalent(testing::Fig2::build());
  expect_all_views_equivalent(testing::Fig4::build());
  expect_all_views_equivalent(testing::Fig5::build());
}

TEST(LocalViewEquivalence, RandomGeometricGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    expect_all_views_equivalent(testing::random_geometric_graph(seed, 8.0));
    expect_all_views_equivalent(testing::random_geometric_graph(seed, 16.0));
  }
}

TEST(LocalViewEquivalence, DenseUniformGraphs) {
  // Dense two-hop overlap: the corner where the old per-candidate-edge
  // binary-search membership probe was quadratic.
  expect_all_views_equivalent(testing::random_uniform_graph(5, 40, 0.3));
  expect_all_views_equivalent(testing::random_uniform_graph(6, 60, 0.5));
}

TEST(LocalViewEquivalence, IntegralWeights) {
  Graph g = testing::random_uniform_graph(7, 30, 0.25);
  util::Rng rng(99);
  QosIntervals qos;
  qos.integral = true;
  assign_uniform_qos(g, qos, rng);
  expect_all_views_equivalent(g);
}

TEST(LocalViewEquivalence, HelloTableConstructor) {
  for (std::uint64_t seed : {11u, 12u}) {
    const Graph g = testing::random_geometric_graph(seed, 8.0);
    for (NodeId u = 0; u < g.node_count(); ++u) {
      std::vector<LocalView::NeighborLink> one_hop;
      std::vector<std::vector<LocalView::NeighborLink>> neighbor_links;
      for (const Edge& e : g.neighbors(u)) {
        one_hop.push_back({e.to, e.qos});
        std::vector<LocalView::NeighborLink> links;
        for (const Edge& f : g.neighbors(e.to)) links.push_back({f.to, f.qos});
        neighbor_links.push_back(std::move(links));
      }
      const LocalView view(u, one_hop, neighbor_links);
      expect_equivalent(view, ref_from_hello(u, one_hop, neighbor_links));
      // HELLO-derived state of a full graph equals the oracle view.
      expect_equivalent(LocalView(g, u), ref_from_hello(u, one_hop,
                                                        neighbor_links));
    }
  }
}

TEST(LocalViewEquivalence, HelloTableKeepsFirstDuplicateReport) {
  // v1=1 and v2=2 are both neighbors of u=0 and of each other; each reports
  // the (v1,v2) link. The smaller-id endpoint's copy must win, and a
  // conflicting later report must be ignored.
  LinkQos q_uv1, q_uv2, q_first, q_second;
  q_first.bandwidth = 7.0;
  q_second.bandwidth = 3.0;
  const std::vector<LocalView::NeighborLink> one_hop = {{1, q_uv1},
                                                        {2, q_uv2}};
  const std::vector<std::vector<LocalView::NeighborLink>> links = {
      {{2, q_first}},   // v1 (smaller id) reports v1–v2 first
      {{1, q_second}},  // v2's asymmetric duplicate is dropped
  };
  const LocalView view(0, one_hop, links);
  expect_equivalent(view, ref_from_hello(0, one_hop, links));
  const std::uint32_t l1 = view.local_id(1);
  const std::uint32_t l2 = view.local_id(2);
  const LinkQos* qos = view.local_edge_qos(l1, l2);
  ASSERT_NE(qos, nullptr);
  EXPECT_EQ(qos->bandwidth, 7.0);
}

TEST(LocalViewEquivalence, RetainEdgesMatchesReference) {
  const Graph g = testing::random_geometric_graph(21, 8.0);
  LocalViewBuilder builder;
  LocalView view;
  for (NodeId u = 0; u < std::min<NodeId>(g.node_count(), 12); ++u) {
    builder.build(g, u, view);
    RefView ref = ref_from_graph(g, u);
    // Remove every third edge of the origin's row plus a 1-hop/2-hop link.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> removals;
    const auto origin_row = view.neighbors(0);
    for (std::size_t k = 0; k < origin_row.size(); k += 3)
      removals.push_back({0, origin_row[k].to});
    for (std::uint32_t l : view.one_hop()) {
      for (const auto& e : view.neighbors(l)) {
        if (view.is_two_hop(e.to)) {
          removals.push_back({l, e.to});
          break;
        }
      }
    }
    const auto removed = [&](std::uint32_t x, std::uint32_t y) {
      for (auto [a, b] : removals)
        if ((a == x && b == y) || (a == y && b == x)) return true;
      return false;
    };
    view.retain_edges([&](std::uint32_t from, const LocalView::LocalEdge& e) {
      return !removed(from, e.to);
    });
    for (auto [a, b] : removals) {
      auto erase_ref = [&](std::uint32_t x, std::uint32_t y) {
        auto& row = ref.adjacency[x];
        row.erase(std::remove_if(row.begin(), row.end(),
                                 [&](const LocalView::LocalEdge& e) {
                                   return e.to == y;
                                 }),
                  row.end());
      };
      erase_ref(a, b);
      erase_ref(b, a);
    }
    expect_equivalent(view, ref);
  }
}

}  // namespace
}  // namespace qolsr
