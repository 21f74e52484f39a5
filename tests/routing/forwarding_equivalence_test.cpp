// The forwarding engines (CSR advertised base + KnowledgeView patches +
// reused Dijkstra/BFS scratch) must keep returning *bit-identical*
// ForwardingResults — same status, same node sequence, same double value —
// for every metric, every routing model, both routing disciplines and both
// knowledge modes. The figures compare protocols at the third decimal; any
// drift here silently changes published numbers.
//
// The reference is pinned: each (metric, routing model) folds every result
// of its (s, d) loop, in loop order, into one 64-bit FNV-1a digest (status,
// path nodes, bit pattern of value) and counts the delivered ones. The pins
// were recorded from the seed forms that copied the advertised Graph at
// every hop, while the per-pair seed-vs-workspace checks still passed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fnbp.hpp"
#include "graph/local_view.hpp"
#include "metrics/metric.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

std::vector<std::vector<NodeId>> fnbp_ans(const Graph& g) {
  const FnbpSelector<BandwidthMetric> fnbp;
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = fnbp.select(LocalView(g, u));
  return ans;
}

struct Pin {
  std::uint64_t digest;
  std::size_t delivered;
};

struct ModelPins {
  Pin hop_by_hop;
  Pin source_route;
  Pin ans_chain;
};

/// FNV-1a over 64-bit words fed little-endian, plus a delivered count.
class ResultDigest {
 public:
  void fold(const ForwardingResult& r) {
    word(static_cast<std::uint64_t>(r.status));
    for (NodeId v : r.path) word(v);
    word(std::bit_cast<std::uint64_t>(r.value));
    if (r.delivered()) ++delivered_;
  }

  void expect_pinned(const Pin& pin, const std::string& context) const {
    EXPECT_EQ(hash_, pin.digest)
        << context << ": digest 0x" << std::hex << hash_;
    EXPECT_EQ(delivered_, pin.delivered) << context;
  }

 private:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::size_t delivered_ = 0;
};

/// Drives every (s, d) pair of one random graph through all three routing
/// models, under both routing disciplines and both knowledge modes.
template <Metric M>
void check_metric(std::uint64_t seed_value, const ModelPins& pins) {
  const Graph g = testing::random_geometric_graph(seed_value, 6.0, 260.0);
  const auto ans = fnbp_ans(g);

  AdvertisedTopologyBuilder builder;
  CsrTopology advertised;
  builder.build_advertised(g, ans, advertised);
  ForwardingWorkspace ws;
  ResultDigest hop_by_hop, source_route, ans_chain;

  const std::size_t n = g.node_count();
  ASSERT_GE(n, 2u);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      for (const bool min_hop : {false, true}) {
        for (const bool local_views : {false, true}) {
          ForwardingOptions options;
          options.min_hop_routing = min_hop;
          options.use_local_views = local_views;
          hop_by_hop.fold(
              forward_packet<M>(g, advertised, s, d, options, ws));
          source_route.fold(
              source_route_packet<M>(g, advertised, s, d, options, ws));
          if (!local_views)  // the chain model has no local-view knob
            ans_chain.fold(forward_via_ans<M>(g, ans, s, d, options, ws));
        }
      }
    }
  }
  const std::string metric(M::name());
  hop_by_hop.expect_pinned(pins.hop_by_hop, metric + " hop-by-hop");
  source_route.expect_pinned(pins.source_route, metric + " source-route");
  ans_chain.expect_pinned(pins.ans_chain, metric + " ans-chain");
}

TEST(ForwardingEquivalence, Bandwidth) {
  check_metric<BandwidthMetric>(7, {{0x86df4f81cbda1bacULL, 960},
                                    {0xfb9f1891a2e85b66ULL, 960},
                                    {0xbb0ebe1e72988fb9ULL, 480}});
}
TEST(ForwardingEquivalence, Delay) {
  check_metric<DelayMetric>(11, {{0xaa55b9d6b5ab20d5ULL, 128},
                                 {0xd686480a4b95c3e7ULL, 128},
                                 {0x7fcd69341c7c728dULL, 64}});
}
TEST(ForwardingEquivalence, Jitter) {
  check_metric<JitterMetric>(23, {{0xafe82905f543266bULL, 840},
                                  {0x78532bd4141bdd48ULL, 840},
                                  {0x8ceae699fedcba71ULL, 420}});
}
TEST(ForwardingEquivalence, Loss) {
  check_metric<LossMetric>(31, {{0x1f459b9da69dde73ULL, 1520},
                                {0xf8c57efe1d893d08ULL, 1520},
                                {0xfa62c7eb13699b79ULL, 760}});
}
TEST(ForwardingEquivalence, Energy) {
  check_metric<EnergyMetric>(43, {{0xc23c04cf8dccf545ULL, 224},
                                  {0xf8865bb8fbdfa315ULL, 224},
                                  {0x121a86237935f035ULL, 112}});
}
TEST(ForwardingEquivalence, Buffers) {
  check_metric<BuffersMetric>(59, {{0x919e8f62e4366c7aULL, 836},
                                   {0x23f2f72e9139c04dULL, 840},
                                   {0x59f1d4a82e801323ULL, 420}});
}

TEST(ForwardingEquivalence, NonGeometricTopology) {
  // Erdős–Rényi corners: high-degree hubs and non-metric link structure.
  check_metric<BandwidthMetric>(101, {{0xa95786c45c1e56a3ULL, 960},
                                      {0x777f6767462b6927ULL, 960},
                                      {0x0cbc89f614ea4a84ULL, 480}});
  const Graph g = testing::random_uniform_graph(77, 40, 0.15);
  const auto ans = fnbp_ans(g);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  ForwardingWorkspace ws;
  ForwardingOptions options;
  ResultDigest uniform;
  for (NodeId s = 0; s < g.node_count(); ++s)
    for (NodeId d = 0; d < g.node_count(); ++d)
      if (s != d)
        uniform.fold(forward_packet<DelayMetric>(g, csr, s, d, options, ws));
  uniform.expect_pinned({0x472fbf313825b595ULL, 1560}, "uniform hop-by-hop");
}

TEST(ForwardingEquivalence, CsrTopologyMatchesGraphAdjacency) {
  // The CSR rows must be the sorted, deduplicated image of the advertised
  // Graph — identical edge sets, identical iteration order.
  const Graph g = testing::random_geometric_graph(13, 7.0, 280.0);
  const auto ans = fnbp_ans(g);
  const Graph adv = build_advertised_topology(g, ans);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  ASSERT_EQ(csr.node_count(), adv.node_count());
  for (NodeId u = 0; u < adv.node_count(); ++u) {
    const auto expected = adv.neighbors(u);
    const auto actual = csr.neighbors(u);
    ASSERT_EQ(actual.size(), expected.size()) << "row " << u;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].to, expected[i].to) << "row " << u;
      EXPECT_EQ(actual[i].qos.bandwidth, expected[i].qos.bandwidth);
      EXPECT_EQ(actual[i].qos.delay, expected[i].qos.delay);
    }
  }
}

TEST(ForwardingEquivalence, NonNeighborAnsMemberThrows) {
  // Release builds used to drop the link silently (assert + if); both the
  // Graph and the CSR builders must now refuse loudly.
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<std::vector<NodeId>> ans(3);
  ans[0] = {2};  // node 2 is not a neighbor of 0
  EXPECT_THROW(build_advertised_topology(g, ans), std::logic_error);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  EXPECT_THROW(builder.build_advertised(g, ans, csr), std::logic_error);
  std::vector<std::vector<NodeId>> too_few(2);
  EXPECT_THROW(build_advertised_topology(g, too_few), std::logic_error);
}

// The golden Fig. 8 CSV pin that used to live here moved to
// tests/eval/golden_figures_test.cpp, which gives Figs. 6, 7 and 9 the
// same treatment against the same byte-exact documents.

}  // namespace
}  // namespace qolsr
