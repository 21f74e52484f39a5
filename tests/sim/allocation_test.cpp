// Steady-state allocation contracts of the packet simulator's hot paths.
// This TU replaces the global operator new/delete pair with counting
// wrappers; each test warms a structure to its high-water capacity, then
// asserts the steady-state window performs zero (duplicate set, knowledge
// cache) or strictly bounded (whole forwarding path) heap allocations —
// the regressions this guards against are exactly the per-packet
// to_graph/Dijkstra/map-node allocations the caching work removed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/fnbp.hpp"
#include "core/multi_criteria.hpp"
#include "graph/deployment.hpp"
#include "olsr/selector_registry.hpp"
#include "proto/duplicate_set.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qolsr {
namespace {

using testing::next_hop_routes;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Allocation, DuplicateSetSteadyStateAllocatesNothing) {
  DuplicateSet set(/*hold_time=*/5.0);
  double now = 0.0;
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      now += 1.0;
      for (NodeId originator = 0; originator < 40; ++originator)
        set.check_and_insert(originator,
                             static_cast<std::uint16_t>(r * 40 + originator),
                             now);
      set.expire(now);
    }
  };
  // Warm to the high-water live set (~5 rounds in flight) and let the
  // first expiry sweeps size the compaction spare.
  churn(32);
  const std::size_t warm_capacity = set.capacity();
  const std::uint64_t before = allocations();
  churn(256);
  EXPECT_EQ(allocations() - before, 0u)
      << "pooled duplicate set allocated in steady state";
  EXPECT_EQ(set.capacity(), warm_capacity);
}

TEST(Allocation, KnowledgeCacheHitAllocatesNothing) {
  const Graph g = testing::random_geometric_graph(13, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  OlsrNode& node = sim.node(0);
  (void)node.knowledge_graph();  // one rebuild charges the cache
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) (void)node.knowledge_graph();
  EXPECT_EQ(allocations() - before, 0u)
      << "cached knowledge view allocated on a pure hit";
}

TEST(Allocation, WarmSelectionAllocatesNothing) {
  // Every registry selector on both metric families, through one shared
  // SelectionWorkspace as an eval worker or a simulator node runs them.
  // The views' sizes go up and down from node to node, so a table that
  // freed its fp lists on a smaller view would allocate again on the next
  // larger one. Two passes warm every buffer to its high-water size; the
  // third must not touch the heap.
  Graph g = testing::random_geometric_graph(29, 20.0, 500.0);
  util::Rng rng(31);
  QosIntervals qos;
  qos.integral = true;  // the evaluation's draws: exact ties in fP
  assign_uniform_qos(g, qos, rng);
  std::vector<LocalView> views;
  for (NodeId u = 0; u < g.node_count(); ++u) views.emplace_back(g, u);

  const SelectorRegistry& registry = SelectorRegistry::builtin();
  SelectionWorkspace ws;
  std::vector<NodeId> out;
  for (const MetricId metric : {MetricId::kBandwidth, MetricId::kDelay}) {
    for (const std::string& name : registry.names()) {
      const auto selector = registry.create(name, metric);
      const auto pass = [&] {
        for (const LocalView& view : views)
          selector->select_into(view, ws, out);
      };
      pass();
      pass();
      const std::uint64_t before = allocations();
      pass();
      EXPECT_EQ(allocations() - before, 0u)
          << name << " on " << metric_name(metric)
          << " allocated over a warm pass of " << views.size() << " views";
    }
  }
}

TEST(Allocation, WarmBicriteriaSelectionAllocatesNothing) {
  // The bi-criteria FNBP selector is not in the registry, so the pass
  // above does not cover it: it must run the same allocation-free rule
  // body through select_into, not an allocating copy.
  Graph g = testing::random_geometric_graph(29, 20.0, 500.0);
  util::Rng rng(31);
  QosIntervals qos;
  qos.integral = true;
  assign_uniform_qos(g, qos, rng);
  std::vector<LocalView> views;
  for (NodeId u = 0; u < g.node_count(); ++u) views.emplace_back(g, u);

  const BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric> selector;
  SelectionWorkspace ws;
  std::vector<NodeId> out;
  const auto pass = [&] {
    for (const LocalView& view : views) selector.select_into(view, ws, out);
  };
  pass();
  pass();
  const std::uint64_t before = allocations();
  pass();
  EXPECT_EQ(allocations() - before, 0u)
      << selector.name() << " allocated over a warm pass of " << views.size()
      << " views";
}

TEST(Allocation, WarmNodeSelectionAllocatesNothing) {
  // A node's selection recompute — the HELLO-table view build and both
  // select_into calls — through one SelectionScratch lent to every node,
  // as the Simulator lends its bundle. Neighborhoods grow and shrink from
  // node to node, so a scratch that freed a row on a smaller one would
  // allocate again on the next larger one. Two passes warm every buffer;
  // the third must not touch the heap.
  Graph g = testing::random_geometric_graph(29, 20.0, 300.0);
  util::Rng rng(31);
  QosIntervals qos;
  qos.integral = true;
  assign_uniform_qos(g, qos, rng);
  const Rfc3626Selector rfc;
  Simulator sim(g, rfc, rfc, [](const Graph&, NodeId, NodeId) {
    return kInvalidNode;
  });
  sim.run_to_convergence();

  const SelectorRegistry& registry = SelectorRegistry::builtin();
  SelectionScratch s;
  for (const MetricId metric : {MetricId::kBandwidth, MetricId::kDelay}) {
    for (const std::string& name : registry.names()) {
      const auto flooding = registry.create_flooding(name, metric);
      const auto ans = registry.create(name, metric);
      const auto pass = [&] {
        for (NodeId u = 0; u < g.node_count(); ++u) {
          sim.node(u).tables().build_local_view(s.view_input, s.view);
          flooding->select_into(s.view, s.workspace, s.flooding);
          ans->select_into(s.view, s.workspace, s.ans);
        }
      };
      pass();
      pass();
      const std::uint64_t before = allocations();
      pass();
      EXPECT_EQ(allocations() - before, 0u)
          << name << " on " << metric_name(metric)
          << " allocated over a warm pass of " << g.node_count()
          << " nodes";
    }
  }
}

TEST(Allocation, FanoutCostDoesNotGrowWithReceivers) {
  // One broadcast's heap traffic — the delivery closure, its receiver
  // list, the decoded frame — must not depend on how many neighbors hear
  // it: the fan-out decodes once, not once per receiver. Ticks are parked
  // past one HELLO round, as in BM_BroadcastFanout, so nothing but the
  // measured broadcast runs; a warm-up broadcast of the same TTL-1 frame
  // fills the duplicate sets, so every receiver of the measured one drops
  // it after the decode.
  const Graph g = testing::random_geometric_graph(23, 30.0, 400.0);
  const auto hub_near = [&g](std::size_t degree) {
    NodeId best = 0;
    const auto gap = [&](NodeId u) {
      const std::size_t d = g.neighbors(u).size();
      return d > degree ? d - degree : degree - d;
    };
    for (NodeId u = 1; u < g.node_count(); ++u)
      if (gap(u) < gap(best)) best = u;
    return best;
  };
  const NodeId small_hub = hub_near(13);
  const NodeId large_hub = hub_near(39);
  ASSERT_LT(g.neighbors(small_hub).size() * 2,
            g.neighbors(large_hub).size());

  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  SimConfig config;
  config.node.hello_interval = 1e9;
  config.node.tc_interval = 1e9;
  Simulator sim(g, flooding, ans,
                [](const Graph&, NodeId, NodeId) { return kInvalidNode; },
                config);
  sim.run_until(2.0 * config.node.jitter + 1.0);

  const double drain = 2.0 * kPropagationDelay;
  const auto broadcast_cost = [&](NodeId hub) {
    TcMessage tc;
    tc.originator = hub;
    for (const Edge& e : g.neighbors(hub))
      tc.advertised.push_back({e.to, LinkStatus::kSymmetric, e.qos});
    PacketHeader header;
    header.type = MessageType::kTc;
    header.originator = hub;
    header.ttl = 1;
    const SharedBytes bytes = make_shared_bytes(serialize(header, tc));
    sim.broadcast(hub, bytes);
    sim.run_until(sim.now() + drain);
    const std::uint64_t before = allocations();
    sim.broadcast(hub, bytes);
    sim.run_until(sim.now() + drain);
    return allocations() - before;
  };
  const std::uint64_t small = broadcast_cost(small_hub);
  const std::uint64_t large = broadcast_cost(large_hub);
  EXPECT_EQ(small, large) << "a fan-out to "
                          << g.neighbors(small_hub).size()
                          << " receivers allocated " << small
                          << " times, one to "
                          << g.neighbors(large_hub).size() << " " << large;
}

TEST(Allocation, SteadyStateForwardingIsBounded) {
  // End-to-end budget for the whole data path — route memo hit, serialize,
  // delivery event, journey bookkeeping — once caches are warm. The
  // pre-cache code paid a Graph materialization plus a full Dijkstra per
  // traversed hop (hundreds of allocations per packet); the budget below
  // fails loudly if anything per-hop-heavy creeps back in.
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  // Warm: route memo for the v1->v3 destination, journey-map buckets.
  sim.node(testing::Fig1::v1).send_data(testing::Fig1::v3, 1);
  sim.run_until(sim.now() + 1.0);
  ASSERT_EQ(sim.trace().data_delivered, 1u);

  const int kPackets = 50;
  const std::uint64_t before = allocations();
  for (int i = 0; i < kPackets; ++i) {
    sim.node(testing::Fig1::v1).send_data(testing::Fig1::v3, 100 + i);
    sim.run_until(sim.now() + 0.05);
  }
  const std::uint64_t per_packet = (allocations() - before) / kPackets;
  EXPECT_EQ(sim.trace().data_delivered, 1u + kPackets);
  // 4 hops: per hop a serialized frame, its shared holder and one
  // delivery closure, plus the journey record and its path — 18 in all.
  // Anything per-hop-heavy blows well past this.
  EXPECT_LE(per_packet, 20u)
      << "forwarding allocated " << per_packet << " times per packet";
}

}  // namespace
}  // namespace qolsr
