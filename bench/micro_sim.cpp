// Microbenchmarks of the discrete-event control plane: events/sec, the
// cost of converging a whole network, and the steady-state allocation
// behavior of the pooled duplicate set and data-forwarding paths (the
// allocation counters double as assertions — a benchmark fails with
// SkipWithError when a path contracted to be allocation-free allocates).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/fnbp.hpp"
#include "graph/deployment.hpp"
#include "proto/duplicate_set.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator: lets the steady-state benchmarks report (and
// assert on) allocs/op alongside time/op.
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

namespace {

using namespace qolsr;

Graph make_network(double degree, std::uint64_t seed = 23) {
  util::Rng rng(seed);
  DeploymentConfig config;
  config.width = 400.0;
  config.height = 400.0;
  config.degree = degree;
  Graph g = sample_poisson_deployment(config, rng);
  assign_uniform_qos(g, {}, rng);
  return g;
}

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    int counter = 0;
    for (int i = 0; i < 10000; ++i)
      q.schedule_at(static_cast<SimTime>(i % 97), [&counter] { ++counter; });
    q.run_until(100.0);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}

// The broadcast fan-out hot point: one TC delivered to every neighbor of
// the densest node. The Medium hands all deliveries the same immutable
// SharedBytes buffer in one batched event, which parses it once and hands
// the decoded frame to each receiver, so the steady-state cost is one
// event + one parse per broadcast and the receiver's cheap drop
// (handshake check or duplicate-set hit) per neighbor — never a
// per-neighbor copy or parse of the message bytes. Regressing to either
// shows up directly in items/sec at high degree.
void BM_BroadcastFanout(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  NodeId hub = 0;
  for (NodeId u = 0; u < g.node_count(); ++u)
    if (g.neighbors(u).size() > g.neighbors(hub).size()) hub = u;
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  const auto routes = [&dws, &bfs](const Graph& graph, NodeId self,
                                   NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest, dws, bfs);
  };
  // Park the protocol ticks far in the future and run past the one
  // (jittered) HELLO round before measuring: inside the loop nothing but
  // the measured broadcasts runs on the queue, and the receivers' tables
  // no longer change between iterations.
  SimConfig config;
  config.node.hello_interval = 1e9;
  config.node.tc_interval = 1e9;
  Simulator sim(g, flooding, ans, routes, config);
  sim.run_until(2.0 * config.node.jitter + 1.0);

  TcMessage tc;
  tc.originator = hub;
  for (const Edge& e : g.neighbors(hub))
    tc.advertised.push_back({e.to, LinkStatus::kSymmetric, e.qos});
  PacketHeader header;
  header.type = MessageType::kTc;
  header.originator = hub;
  header.ttl = 1;  // receivers must not re-flood inside the measurement
  const SharedBytes bytes = make_shared_bytes(serialize(header, tc));

  const double drain = 2.0 * sim.config().propagation_delay;
  for (auto _ : state) {
    sim.broadcast(hub, bytes);
    sim.run_until(sim.now() + drain);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.neighbors(hub).size()));
  state.counters["fanout"] = static_cast<double>(g.neighbors(hub).size());
  state.counters["bytes"] = static_cast<double>(bytes->size());
}

void BM_ControlPlaneConvergence(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  const auto routes = [&dws, &bfs](const Graph& graph, NodeId self,
                                   NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest, dws, bfs);
  };
  for (auto _ : state) {
    Simulator sim(g, flooding, ans, routes);
    sim.run_to_convergence();
    benchmark::DoNotOptimize(sim.trace().control_bytes);
    state.counters["events"] = static_cast<double>(sim.queue().processed());
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
}

// Steady-state duplicate-set churn at a run's high-water live set: after
// warmup the pooled table must process check_and_insert + expiry sweeps
// with ZERO heap allocations — asserted, not just reported.
void BM_DuplicateSetSteadyState(benchmark::State& state) {
  DuplicateSet set(/*hold_time=*/5.0);
  double now = 0.0;
  std::uint16_t seq = 0;
  const auto round = [&] {
    now += 1.0;
    for (NodeId originator = 0; originator < 64; ++originator)
      set.check_and_insert(originator, seq, now);
    ++seq;
    set.expire(now);
  };
  for (int i = 0; i < 32; ++i) round();  // grow to high water, size spare
  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) round();
  const std::uint64_t allocated = g_allocations.load() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["allocs/op"] =
      static_cast<double>(allocated) / static_cast<double>(state.iterations());
  if (allocated != 0)
    state.SkipWithError("pooled duplicate set allocated in steady state");
}

// Steady-state data forwarding with warm caches: route memo hits, cached
// knowledge view, workspace Dijkstra. Reports allocs/packet (serialize +
// delivery events + journey record) and asserts the per-packet
// to_graph/Dijkstra allocation storm stays gone. The topology is a short
// chain rather than a dense deployment so the measurement window is packet
// work, not amortized HELLO/TC flood noise.
void BM_SteadyStateDataForwarding(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Graph chain;
  util::Rng rng(29);
  for (NodeId i = 0; i < n; ++i)
    chain.add_node({static_cast<double>(i) * 50.0, 0.0});
  for (NodeId i = 0; i + 1 < n; ++i) chain.add_edge(i, i + 1);
  assign_uniform_qos(chain, {}, rng);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  const auto routes = [&dws, &bfs](const Graph& graph, NodeId self,
                                   NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest, dws, bfs);
  };
  Simulator sim(chain, flooding, ans, routes);
  sim.run_to_convergence();
  // Full-length path; one warm packet fills the route memos.
  const NodeId src = 0;
  const NodeId dst = n - 1;
  std::uint32_t payload = 1;
  const double drain =
      2.0 * static_cast<double>(n) * sim.config().propagation_delay;
  sim.node(src).send_data(dst, payload++);
  sim.run_until(sim.now() + drain);

  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) {
    sim.node(src).send_data(dst, payload++);
    sim.run_until(sim.now() + drain);
  }
  const std::uint64_t allocated = g_allocations.load() - before;
  const double per_packet =
      static_cast<double>(allocated) / static_cast<double>(state.iterations());
  state.counters["allocs/packet"] = per_packet;
  state.counters["delivered"] =
      static_cast<double>(sim.trace().data_delivered);
  state.counters["hops"] = static_cast<double>(n - 1);
  // Generous ceiling: a handful per hop (frame copy + delivery closure +
  // journey record). The pre-cache path paid a Graph materialization plus
  // a full Dijkstra per hop — well over a hundred for this chain.
  if (per_packet > 60.0)
    state.SkipWithError("forwarding path allocation regression");
}

}  // namespace

BENCHMARK(BM_EventQueueThroughput);
BENCHMARK(BM_DuplicateSetSteadyState);
BENCHMARK(BM_SteadyStateDataForwarding)->Arg(8);
BENCHMARK(BM_BroadcastFanout)->Arg(10)->Arg(30);
BENCHMARK(BM_ControlPlaneConvergence)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);
