// Microbenchmarks of the path engine: generic Dijkstra (both metric
// families) and the per-node fP computation on 2-hop views.
#include <benchmark/benchmark.h>

#include "graph/deployment.hpp"
#include "path/dijkstra.hpp"
#include "path/first_hops.hpp"

namespace {

using namespace qolsr;

Graph make_network(double degree, std::uint64_t seed = 17) {
  util::Rng rng(seed);
  DeploymentConfig config;
  config.degree = degree;
  Graph g = sample_poisson_deployment(config, rng);
  assign_uniform_qos(g, {}, rng);
  return g;
}

/// Full-graph Dijkstra from every node in turn through one reused
/// workspace.
template <Metric M>
void run_dijkstra_bench(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  DijkstraWorkspace ws;
  NodeId source = 0;
  for (auto _ : state) {
    dijkstra<M>(g, source, kInvalidNode, ws);
    benchmark::DoNotOptimize(ws.size());
    source = (source + 1) % static_cast<NodeId>(g.node_count());
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
}

void BM_DijkstraWidestWorkspace(benchmark::State& state) {
  run_dijkstra_bench<BandwidthMetric>(state);
}

void BM_DijkstraDelayFullGraph(benchmark::State& state) {
  run_dijkstra_bench<DelayMetric>(state);
}

/// fP of every node in turn: labels, heap, CSR mirror and the fP table
/// itself are reused across nodes — the per-node cost the eval pipeline
/// actually pays.
template <Metric M>
void run_first_hops_workspace_bench(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  std::vector<LocalView> views;
  for (NodeId u = 0; u < g.node_count(); ++u) views.emplace_back(g, u);
  DijkstraWorkspace ws;
  FirstHopTable table;
  std::size_t i = 0;
  for (auto _ : state) {
    compute_first_hops<M>(views[i], ws, table);
    benchmark::DoNotOptimize(table.best.data());
    i = (i + 1) % views.size();
  }
}

void BM_FirstHopsPerNodeWorkspace(benchmark::State& state) {
  run_first_hops_workspace_bench<BandwidthMetric>(state);
}

void BM_FirstHopsDelayPerNodeWorkspace(benchmark::State& state) {
  run_first_hops_workspace_bench<DelayMetric>(state);
}

}  // namespace

BENCHMARK(BM_DijkstraDelayFullGraph)->Arg(10)->Arg(20)->Arg(35);
BENCHMARK(BM_DijkstraWidestWorkspace)->Arg(10)->Arg(20)->Arg(35);
BENCHMARK(BM_FirstHopsPerNodeWorkspace)->Arg(10)->Arg(20)->Arg(35);
BENCHMARK(BM_FirstHopsDelayPerNodeWorkspace)->Arg(10)->Arg(20)->Arg(35);
