// Property check of the KnowledgeView overlay (the forwarding hot path's
// per-hop graph): for random CSR bases and random patch rows, every row
// the view answers must be *bit-identical* to the naive reference — the
// std::map union of the base row and the patched links with the base
// record winning a duplicate neighbor id (the seed `if (!has_edge)
// add_edge` merge semantics forwarding results depend on). Failing trials
// log their seed so they replay with a one-line filter.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/fnbp.hpp"
#include "metrics/metric.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/knowledge_view.hpp"
#include "support/random_graphs.hpp"
#include "util/rng.hpp"

namespace qolsr {
namespace {

LinkQos random_qos(util::Rng& rng) {
  LinkQos qos;
  qos.bandwidth = rng.uniform(1.0, 10.0);
  qos.delay = rng.uniform(1.0, 10.0);
  qos.jitter = rng.uniform01();
  qos.loss_cost = rng.uniform(0.0, 0.2);
  qos.energy = rng.uniform(1.0, 10.0);
  qos.buffers = rng.uniform(1.0, 10.0);
  return qos;
}

CsrTopology advertised_base(const Graph& g) {
  const FnbpSelector<BandwidthMetric> fnbp;
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = fnbp.select(LocalView(g, u));
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  return csr;
}

/// One randomly patched hop, checked row-for-row against the map model.
void check_one_hop(const CsrTopology& base, KnowledgeView& view,
                   util::Rng& rng) {
  const std::size_t n = base.node_count();
  view.begin_hop();

  // Reference model: per patched row, neighbor -> QoS. Patch rows draw a
  // random subset of *distinct* targets (the add_link contract: one call
  // per (row, neighbor) per hop) that deliberately collides with base
  // entries about half the time.
  std::map<NodeId, std::map<NodeId, LinkQos>> patched;
  const std::size_t rows = rng.uniform_int(std::uint64_t{n}) % 8;
  for (std::size_t r = 0; r < rows; ++r) {
    const NodeId u = static_cast<NodeId>(rng.uniform_int(std::uint64_t{n}));
    auto& model_row = patched[u];
    const std::size_t extras = 1 + rng.uniform_int(std::uint64_t{6});
    for (std::size_t k = 0; k < extras; ++k) {
      NodeId to;
      if (rng.uniform01() < 0.5 && !base.neighbors(u).empty()) {
        const auto row = base.neighbors(u);
        to = row[rng.uniform_int(std::uint64_t{row.size()})].to;
      } else {
        to = static_cast<NodeId>(rng.uniform_int(std::uint64_t{n}));
      }
      if (model_row.count(to) != 0) continue;  // distinct targets per hop
      const LinkQos qos = random_qos(rng);
      model_row[to] = qos;
      view.add_link(u, to, qos);
    }
  }
  view.finalize_hop();

  // Base wins duplicate ids in the model too.
  for (auto& [u, model_row] : patched)
    for (const Edge& e : base.neighbors(u)) model_row[e.to] = e.qos;

  ASSERT_EQ(view.node_count(), n);
  for (NodeId v = 0; v < n; ++v) {
    const auto actual = view.neighbors(v);
    if (patched.count(v) == 0) {
      // Untouched rows must come straight from the base (same storage
      // semantics: identical size and records).
      const auto expected = base.neighbors(v);
      ASSERT_EQ(actual.size(), expected.size()) << "row " << v;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].to, expected[i].to) << "row " << v;
        EXPECT_EQ(actual[i].qos, expected[i].qos) << "row " << v;
      }
      continue;
    }
    const auto& model_row = patched[v];
    ASSERT_EQ(actual.size(), model_row.size()) << "row " << v;
    auto it = model_row.begin();
    for (std::size_t i = 0; i < actual.size(); ++i, ++it) {
      EXPECT_EQ(actual[i].to, it->first) << "row " << v << " entry " << i;
      EXPECT_EQ(actual[i].qos, it->second) << "row " << v << " entry " << i;
      if (i > 0)
        EXPECT_LT(actual[i - 1].to, actual[i].to)
            << "row " << v << " not strictly ascending";
    }
  }
}

TEST(KnowledgeViewProperty, MergedRowsMatchNaiveMapUnion) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = testing::random_geometric_graph(seed, 6.0, 260.0);
    const CsrTopology base = advertised_base(g);
    KnowledgeView view;
    view.reset(base);
    util::Rng rng(seed * 0x9e3779b9ULL + 1);
    // Several hops per base: begin_hop must fully discard the previous
    // patch (pooled storage notwithstanding).
    for (int hop = 0; hop < 12; ++hop) {
      SCOPED_TRACE("hop=" + std::to_string(hop));
      check_one_hop(base, view, rng);
    }
  }
}

TEST(KnowledgeViewProperty, NonGeometricBases) {
  for (std::uint64_t seed = 100; seed <= 112; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = testing::random_uniform_graph(seed, 30, 0.2);
    const CsrTopology base = advertised_base(g);
    KnowledgeView view;
    view.reset(base);
    util::Rng rng(seed ^ 0xabcdefULL);
    for (int hop = 0; hop < 8; ++hop) {
      SCOPED_TRACE("hop=" + std::to_string(hop));
      check_one_hop(base, view, rng);
    }
  }
}

TEST(KnowledgeViewProperty, ResetRebindsTheBase) {
  // reset() must invalidate patches of the previous base even when the
  // pooled rows still hold their data.
  const Graph g1 = testing::random_geometric_graph(3, 5.0, 220.0);
  const Graph g2 = testing::random_geometric_graph(4, 5.0, 220.0);
  const CsrTopology base1 = advertised_base(g1);
  const CsrTopology base2 = advertised_base(g2);

  KnowledgeView view;
  view.reset(base1);
  view.begin_hop();
  view.add_link(0, 1, LinkQos{});
  view.finalize_hop();

  view.reset(base2);
  for (NodeId v = 0; v < base2.node_count(); ++v) {
    const auto actual = view.neighbors(v);
    const auto expected = base2.neighbors(v);
    ASSERT_EQ(actual.size(), expected.size()) << "row " << v;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(actual[i].to, expected[i].to) << "row " << v;
  }
}

}  // namespace
}  // namespace qolsr
