// Cache-equivalence suite for the per-node knowledge view: after any
// protocol mutation — TC arrival, hold-time expiry, crash/restart, link
// flap, liar poisoning — the cached knowledge_graph() must equal the graph
// a fresh validity-aware build produces at the same instant (the TC
// topology base merged with the node's own symmetric links). Checked at
// arbitrary clock points across all seven registered selectors and several
// seeds, so a missed invalidation edge anywhere in the cache contract
// shows up as a graph mismatch here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fnbp.hpp"
#include "metrics/metric_id.hpp"
#include "olsr/selector_registry.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::next_hop_routes;

/// What knowledge_graph() promises to equal: a from-scratch validity-aware
/// topology read merged with the node's current symmetric links — the
/// exact construction the pre-cache forwarding path performed per frame.
Graph fresh_knowledge(const OlsrNode& node, std::size_t n, double now) {
  Graph g = node.topology().to_graph(n, now);
  for (NodeId neighbor : node.tables().symmetric_neighbors()) {
    if (neighbor >= n || g.has_edge(node.id(), neighbor)) continue;
    const LinkQos* qos = node.tables().link_qos(neighbor);
    if (qos == nullptr) {
      ADD_FAILURE() << "symmetric neighbor " << neighbor << " without QoS";
      continue;
    }
    g.add_edge(node.id(), neighbor, *qos);
  }
  return g;
}

void expect_graphs_equal(const Graph& cached, const Graph& fresh,
                         const std::string& context) {
  ASSERT_EQ(cached.node_count(), fresh.node_count()) << context;
  EXPECT_EQ(cached.edge_count(), fresh.edge_count()) << context;
  for (NodeId u = 0; u < fresh.node_count(); ++u) {
    const auto ce = cached.neighbors(u);
    const auto fe = fresh.neighbors(u);
    ASSERT_EQ(ce.size(), fe.size()) << context << " node " << u;
    for (std::size_t i = 0; i < fe.size(); ++i) {
      EXPECT_EQ(ce[i].to, fe[i].to) << context << " node " << u;
      EXPECT_TRUE(ce[i].qos == fe[i].qos)
          << context << " node " << u << " link to " << fe[i].to;
    }
  }
}

void check_all_nodes(Simulator& sim, const std::string& context) {
  const std::size_t n = sim.network().node_count();
  for (NodeId u = 0; u < n; ++u) {
    const Graph fresh = fresh_knowledge(sim.node(u), n, sim.now());
    expect_graphs_equal(sim.node(u).knowledge_graph(), fresh,
                        context + " node " + std::to_string(u));
  }
}

TEST(KnowledgeCache, MatchesFreshBuildAcrossSelectorsAndSeeds) {
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  for (const std::string& name : registry.names()) {
    for (const std::uint64_t seed : {3u, 17u}) {
      const Graph g = testing::random_geometric_graph(seed * 1000 + 7, 6.0,
                                                      250.0);
      const auto ans = registry.create(name, MetricId::kBandwidth);
      const auto flooding =
          registry.create_flooding(name, MetricId::kBandwidth);
      SimConfig config;
      config.seed = seed;
      Simulator sim(g, *flooding, *ans, next_hop_routes(), config);
      sim.run_to_convergence();
      check_all_nodes(sim, name + " seed " + std::to_string(seed) +
                               " converged");
      // Mid-refresh-cycle instant (odd offset, off every tick grid).
      sim.run_until(sim.now() + 1.7);
      check_all_nodes(sim, name + " seed " + std::to_string(seed) +
                               " mid-cycle");
    }
  }
}

TEST(KnowledgeCache, TracksHoldTimeExpiryAfterPermanentCrash) {
  const Graph g = testing::random_geometric_graph(91, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = 0;
  crash.duration = 0.0;  // permanent
  sim.inject(crash);

  // Step across the neighbor-hold (6 s) and topology-hold (15 s) windows
  // at an offset that never aligns with a tick or a purge deadline: every
  // intermediate instant must show cached == fresh, including the lag
  // between an entry's hold deadline passing and its purge event firing.
  const double start = sim.now();
  for (double t = start + 0.7; t < start + 22.0; t += 0.7) {
    sim.run_until(t);
    check_all_nodes(sim, "t=" + std::to_string(t));
  }
}

TEST(KnowledgeCache, TracksCrashAndRestart) {
  const Graph g = testing::Fig2::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = testing::Fig2::u;
  crash.duration = 6.0;
  sim.inject(crash);
  check_all_nodes(sim, "just crashed");

  const double start = sim.now();
  for (double t = start + 0.9; t < start + 10.0; t += 0.9) {
    sim.run_until(t);
    check_all_nodes(sim, "crash/restart t=" + std::to_string(t));
  }
  sim.run_to_convergence();
  check_all_nodes(sim, "reconverged after restart");
}

TEST(KnowledgeCache, TracksLinkFlap) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  FaultIncident flap;
  flap.kind = FaultIncident::Kind::kLinkFlap;
  flap.link_u = testing::Fig1::v1;
  flap.link_v = testing::Fig1::v6;
  flap.duration = 8.0;
  sim.inject(flap);

  const double start = sim.now();
  for (double t = start + 0.5; t < start + 26.0; t += 0.5) {
    sim.run_until(t);
    check_all_nodes(sim, "flap t=" + std::to_string(t));
  }
}

TEST(KnowledgeCache, TracksLiarPoisoning) {
  // A liar's phantom links land in every honest topology base; the cached
  // view must carry exactly the same poison as a fresh read (detection is
  // the monitor's job, not the cache's).
  const Graph g = testing::random_geometric_graph(55, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  AdversarySpec spec;
  spec.kinds = {AdversaryKind::kLiar};
  spec.nodes = {1};
  Simulator sim(g, flooding, ans, next_hop_routes(), SimConfig{}, nullptr,
                &spec);
  sim.run_to_convergence();
  check_all_nodes(sim, "liar converged");
  sim.run_until(sim.now() + 2.3);
  check_all_nodes(sim, "liar mid-cycle");
}

}  // namespace
}  // namespace qolsr
