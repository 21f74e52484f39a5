// The tentpole correctness gate of the incremental maintenance layer:
// after *every* epoch of a randomized mobility/churn trace, the
// incrementally patched selection state (dirty nodes only re-ran) must
// equal a from-scratch rebuild — identical ANS for every node and every
// selector, and an identical advertised CSR topology. Also pins the
// event-delta contract: replaying an epoch's LinkEvents on the pre-step
// link set yields exactly the post-step link set.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/deployment.hpp"
#include "olsr/incremental.hpp"
#include "olsr/selector_registry.hpp"
#include "routing/advertised_topology.hpp"
#include "sim/mobility.hpp"
#include "util/rng.hpp"

namespace qolsr {
namespace {

constexpr std::size_t kEpochs = 55;  // the gate demands >= 50

std::set<std::pair<NodeId, NodeId>> link_set(const Graph& g) {
  std::set<std::pair<NodeId, NodeId>> links;
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (const Edge& e : g.neighbors(u))
      if (e.to > u) links.insert({u, e.to});
  return links;
}

/// Replaying the epoch's events on the before-set must produce the
/// after-set (each event reflects one applied mutation, in order).
void expect_events_replay(const Graph& before, const Graph& after,
                          const std::vector<LinkEvent>& events) {
  std::set<std::pair<NodeId, NodeId>> links = link_set(before);
  for (const LinkEvent& event : events) {
    ASSERT_LT(event.a, event.b) << "events must be normalized";
    if (event.up) {
      EXPECT_TRUE(links.insert({event.a, event.b}).second)
          << "up event for a live link (" << event.a << "," << event.b << ")";
    } else {
      EXPECT_EQ(links.erase({event.a, event.b}), 1u)
          << "down event for a dead link (" << event.a << "," << event.b
          << ")";
    }
  }
  EXPECT_EQ(links, link_set(after));
}

std::vector<std::vector<std::vector<NodeId>>> full_selection(
    const Graph& graph, const std::vector<const AnsSelector*>& selectors) {
  std::vector<std::vector<std::vector<NodeId>>> ans(selectors.size());
  LocalViewBuilder builder;
  LocalView view;
  SelectionWorkspace selection;
  for (auto& per_node : ans) per_node.resize(graph.node_count());
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    builder.build(graph, u, view);
    for (std::size_t si = 0; si < selectors.size(); ++si)
      selectors[si]->select_into(view, selection, ans[si][u]);
  }
  return ans;
}

void expect_same_csr(const CsrTopology& a, const CsrTopology& b,
                     const std::string& context) {
  ASSERT_EQ(a.node_count(), b.node_count()) << context;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << context;
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto ra = a.neighbors(u);
    const auto rb = b.neighbors(u);
    ASSERT_EQ(ra.size(), rb.size()) << context << " row " << u;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].to, rb[i].to) << context << " row " << u;
      EXPECT_EQ(ra[i].qos, rb[i].qos) << context << " row " << u;
    }
  }
}

Graph sampled_graph(std::uint64_t seed, double degree, double side,
                    util::Rng& rng) {
  DeploymentConfig field;
  field.width = side;
  field.height = side;
  field.degree = degree;
  Graph graph;
  do {
    graph = sample_poisson_deployment(field, rng);
  } while (graph.node_count() < 10);
  QosIntervals qos{.bandwidth_hi = 5.0, .delay_hi = 5.0, .integral = true};
  assign_uniform_qos(graph, qos, rng);
  (void)seed;
  return graph;
}

/// Runs `model` for kEpochs epochs, asserting after every epoch that the
/// incremental state equals a from-scratch rebuild for all seven registry
/// selectors: the paper's five and FNBP's two ablations.
void check_incremental_equals_rebuild(MobilityModel& model, Graph& graph,
                                      util::Rng& rng,
                                      const QosIntervals& qos) {
  (void)qos;
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  std::vector<std::unique_ptr<AnsSelector>> owned;
  std::vector<const AnsSelector*> selectors;
  for (const std::string& name : registry.names()) {
    owned.push_back(registry.create(name, MetricId::kBandwidth));
    selectors.push_back(owned.back().get());
  }
  ASSERT_EQ(selectors.size(), 7u);

  auto incremental = full_selection(graph, selectors);

  LocalViewBuilder view_builder;
  LocalView view;
  SelectionWorkspace selection;
  DirtyNodeTracker dirty;
  std::vector<LinkEvent> events;
  AdvertisedTopologyBuilder builder_a, builder_b;
  CsrTopology csr_a, csr_b;

  std::size_t total_dirty = 0;
  for (std::size_t epoch = 1; epoch <= kEpochs; ++epoch) {
    SCOPED_TRACE("epoch=" + std::to_string(epoch));
    const Graph before = graph;
    events.clear();
    model.step(graph, rng, events);
    expect_events_replay(before, graph, events);

    dirty.begin_epoch(graph.node_count());
    collect_dirty_nodes(graph, events, dirty);
    refresh_dirty_selection(graph, selectors, dirty, view_builder, view,
                            selection, incremental);
    total_dirty += dirty.sorted_nodes().size();

    const auto rebuilt = full_selection(graph, selectors);
    for (std::size_t si = 0; si < selectors.size(); ++si) {
      ASSERT_EQ(incremental[si], rebuilt[si])
          << "selector " << selectors[si]->name();
      builder_a.build_advertised(graph, incremental[si], csr_a);
      builder_b.build_advertised(graph, rebuilt[si], csr_b);
      expect_same_csr(csr_a, csr_b, std::string(selectors[si]->name()));
    }
  }
  // The point of the layer: the dirty sweep must genuinely be partial
  // (otherwise this is a slow full rebuild with extra steps).
  EXPECT_LT(total_dirty, kEpochs * graph.node_count());
}

TEST(IncrementalEquivalence, RandomWaypointTrace) {
  util::Rng rng(2024);
  Graph graph = sampled_graph(2024, 7.0, 320.0, rng);
  WaypointConfig config;
  config.width = 320.0;
  config.height = 320.0;
  config.radius = 100.0;
  config.speed_min = 2.0;
  config.speed_max = 14.0;
  config.pause_epochs = 2;
  config.epoch_duration = 1.0;
  config.qos = {.bandwidth_hi = 5.0, .delay_hi = 5.0, .integral = true};
  RandomWaypointModel model(config, graph, rng);
  check_incremental_equals_rebuild(model, graph, rng, config.qos);
}

TEST(IncrementalEquivalence, LinkChurnTrace) {
  util::Rng rng(77);
  Graph graph = sampled_graph(77, 8.0, 300.0, rng);
  LinkChurnModel model(ChurnConfig{0.08, 0.3});
  QosIntervals qos{.bandwidth_hi = 5.0, .delay_hi = 5.0, .integral = true};
  check_incremental_equals_rebuild(model, graph, rng, qos);
}

TEST(IncrementalEquivalence, HeavyChurnTearsAndHealsConsistently) {
  // Aggressive rates hit the corners: nodes isolated entirely, whole
  // neighborhoods flapping within one epoch.
  util::Rng rng(5150);
  Graph graph = sampled_graph(5150, 6.0, 260.0, rng);
  LinkChurnModel model(ChurnConfig{0.35, 0.5});
  QosIntervals qos{.bandwidth_hi = 5.0, .delay_hi = 5.0, .integral = true};
  check_incremental_equals_rebuild(model, graph, rng, qos);
}

}  // namespace
}  // namespace qolsr
