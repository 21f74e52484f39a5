// Microbenchmarks of the forwarding hot path: advertised-topology
// construction (Graph and CSR), per-hop next-hop computation, and full
// packet routes under the hop-by-hop and ANS-chain models, all on the CSR
// base + KnowledgeView overlay + reused scratch, for both metric families.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/fnbp.hpp"
#include "graph/deployment.hpp"
#include "olsr/selection_workspace.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"
#include "routing/routing_table.hpp"

namespace {

using namespace qolsr;

struct Fixture {
  Graph full;
  std::vector<std::vector<NodeId>> ans;
  CsrTopology advertised_csr;
  std::vector<std::pair<NodeId, NodeId>> pairs;  ///< sampled (s, d)

  explicit Fixture(double degree, std::uint64_t seed = 17) {
    util::Rng rng(seed);
    DeploymentConfig config;
    config.degree = degree;
    full = sample_poisson_deployment(config, rng);
    assign_uniform_qos(full, {}, rng);

    const FnbpSelector<BandwidthMetric> fnbp;
    EvalWorkspaceLite scratch;
    ans.resize(full.node_count());
    for (NodeId u = 0; u < full.node_count(); ++u) {
      scratch.builder.build(full, u, scratch.view);
      fnbp.select_into(scratch.view, scratch.selection, ans[u]);
    }
    AdvertisedTopologyBuilder builder;
    builder.build_advertised(full, ans, advertised_csr);

    const auto n = static_cast<NodeId>(full.node_count());
    for (int i = 0; i < 64; ++i) {
      const NodeId s = static_cast<NodeId>(rng.uniform_int(n));
      const NodeId d = static_cast<NodeId>(rng.uniform_int(n));
      if (s != d) pairs.emplace_back(s, d);
    }
  }

 private:
  struct EvalWorkspaceLite {
    LocalViewBuilder builder;
    LocalView view;
    SelectionWorkspace selection;
  };
};

// --------------------------------------------------- advertised topology --

void BM_BuildAdvertisedGraph(benchmark::State& state) {
  const Fixture f(static_cast<double>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(build_advertised_topology(f.full, f.ans));
  state.counters["nodes"] = static_cast<double>(f.full.node_count());
}

void BM_BuildAdvertisedCsr(benchmark::State& state) {
  const Fixture f(static_cast<double>(state.range(0)));
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  for (auto _ : state) {
    builder.build_advertised(f.full, f.ans, csr);
    benchmark::DoNotOptimize(csr.node_count());
  }
  state.counters["nodes"] = static_cast<double>(f.full.node_count());
}

// ------------------------------------------------------- per-hop next hop --
// The cost one traversed node pays: knowledge assembly + next-hop
// computation.

template <Metric M>
void run_next_hop_workspace(benchmark::State& state) {
  const Fixture f(static_cast<double>(state.range(0)));
  ForwardingWorkspace ws;
  ws.knowledge.reset(f.advertised_csr);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [s, d] = f.pairs[i];
    ws.knowledge.begin_hop();
    for (const Edge& e : f.full.neighbors(s)) {
      ws.knowledge.add_link(s, e.to, e.qos);
      ws.knowledge.add_link(e.to, s, e.qos);
    }
    ws.knowledge.finalize_hop();
    benchmark::DoNotOptimize(compute_next_hop<M, KnowledgeView>(
        ws.knowledge, s, d, ws.dijkstra, ws.next_hop));
    i = (i + 1) % f.pairs.size();
  }
}

void BM_NextHopWidestWorkspace(benchmark::State& state) {
  run_next_hop_workspace<BandwidthMetric>(state);
}
void BM_NextHopDelayWorkspace(benchmark::State& state) {
  run_next_hop_workspace<DelayMetric>(state);
}

// ---------------------------------------------------------- whole packets --

template <Metric M>
void run_forward_packet(benchmark::State& state) {
  const Fixture f(static_cast<double>(state.range(0)));
  ForwardingWorkspace ws;
  ForwardingOptions options;  // hop-by-hop, QoS-first, local views off
  options.use_local_views = false;
  std::size_t i = 0;
  std::size_t delivered = 0;
  for (auto _ : state) {
    const auto [s, d] = f.pairs[i];
    const ForwardingResult r =
        forward_packet<M>(f.full, f.advertised_csr, s, d, options, ws);
    delivered += r.delivered() ? 1 : 0;
    benchmark::DoNotOptimize(r.path.data());
    i = (i + 1) % f.pairs.size();
  }
  state.counters["delivered"] = static_cast<double>(delivered);
}

template <Metric M>
void run_forward_via_ans(benchmark::State& state) {
  const Fixture f(static_cast<double>(state.range(0)));
  ForwardingWorkspace ws;
  ForwardingOptions options;
  std::size_t i = 0;
  std::size_t delivered = 0;
  for (auto _ : state) {
    const auto [s, d] = f.pairs[i];
    const ForwardingResult r =
        forward_via_ans<M>(f.full, f.ans, s, d, options, ws);
    delivered += r.delivered() ? 1 : 0;
    benchmark::DoNotOptimize(r.path.data());
    i = (i + 1) % f.pairs.size();
  }
  state.counters["delivered"] = static_cast<double>(delivered);
}

void BM_ForwardPacketWidestWorkspace(benchmark::State& state) {
  run_forward_packet<BandwidthMetric>(state);
}
void BM_ForwardPacketDelayWorkspace(benchmark::State& state) {
  run_forward_packet<DelayMetric>(state);
}
void BM_ForwardViaAnsWidestWorkspace(benchmark::State& state) {
  run_forward_via_ans<BandwidthMetric>(state);
}
void BM_ForwardViaAnsDelayWorkspace(benchmark::State& state) {
  run_forward_via_ans<DelayMetric>(state);
}

}  // namespace

BENCHMARK(BM_BuildAdvertisedGraph)->Arg(10)->Arg(20);
BENCHMARK(BM_BuildAdvertisedCsr)->Arg(10)->Arg(20);
BENCHMARK(BM_NextHopWidestWorkspace)->Arg(10)->Arg(20);
BENCHMARK(BM_NextHopDelayWorkspace)->Arg(10)->Arg(20);
BENCHMARK(BM_ForwardPacketWidestWorkspace)->Arg(10)->Arg(20);
BENCHMARK(BM_ForwardPacketDelayWorkspace)->Arg(10)->Arg(20);
BENCHMARK(BM_ForwardViaAnsWidestWorkspace)->Arg(10)->Arg(20);
BENCHMARK(BM_ForwardViaAnsDelayWorkspace)->Arg(10)->Arg(20);
