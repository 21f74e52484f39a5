// Microbenchmarks: per-node CPU cost of each selection heuristic as the
// network densifies (google-benchmark).
#include <benchmark/benchmark.h>

#include "core/fnbp.hpp"
#include "graph/deployment.hpp"
#include "olsr/mpr.hpp"
#include "olsr/qolsr_mpr.hpp"
#include "olsr/topology_filtering.hpp"

namespace {

using namespace qolsr;

Graph make_network(double degree, std::uint64_t seed = 9) {
  util::Rng rng(seed);
  DeploymentConfig config;
  config.width = 600.0;
  config.height = 600.0;
  config.degree = degree;
  Graph g = sample_poisson_deployment(config, rng);
  assign_uniform_qos(g, {}, rng);
  return g;
}

/// Runs `select(view, ws, out)` on every node's view through the workspace
/// interface the eval pipeline uses (one SelectionWorkspace and one output
/// reused across nodes), counting nodes/sec.
template <typename SelectFn>
void run_selection_bench(benchmark::State& state, SelectFn&& select) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  std::vector<LocalView> views;
  views.reserve(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) views.emplace_back(g, u);
  SelectionWorkspace ws;
  std::vector<NodeId> out;
  for (auto _ : state) {
    for (const LocalView& view : views) {
      select(view, ws, out);
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(views.size()));
}

void BM_SelectRfc3626Mpr(benchmark::State& state) {
  run_selection_bench(state, [](const LocalView& v, SelectionWorkspace& ws,
                                std::vector<NodeId>& out) {
    select_mpr_rfc3626(v, ws, out);
  });
}

void BM_SelectQolsrMpr2(benchmark::State& state) {
  run_selection_bench(state, [](const LocalView& v, SelectionWorkspace& ws,
                                std::vector<NodeId>& out) {
    select_qolsr_mpr<BandwidthMetric>(v, QolsrVariant::kMpr2, ws, out);
  });
}

void BM_SelectTopologyFiltering(benchmark::State& state) {
  run_selection_bench(state, [](const LocalView& v, SelectionWorkspace& ws,
                                std::vector<NodeId>& out) {
    select_topology_filtering_ans<BandwidthMetric>(v, ws, out);
  });
}

void BM_BuildLocalView(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    for (NodeId u = 0; u < g.node_count(); ++u)
      benchmark::DoNotOptimize(LocalView(g, u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}

/// The eval hot loop's form: one builder + one view reused across all
/// nodes — steady-state allocation-free (CSR rows and scratch recycled).
void BM_BuildLocalViewReused(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  LocalViewBuilder builder;
  LocalView view;
  for (auto _ : state) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      benchmark::DoNotOptimize(view.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}

void BM_SelectFnbpWorkspace(benchmark::State& state) {
  run_selection_bench(state, [](const LocalView& v, SelectionWorkspace& ws,
                                std::vector<NodeId>& out) {
    select_fnbp_ans<BandwidthMetric>(v, ws, out);
  });
}

void BM_SelectFnbpDelayWorkspace(benchmark::State& state) {
  run_selection_bench(state, [](const LocalView& v, SelectionWorkspace& ws,
                                std::vector<NodeId>& out) {
    select_fnbp_ans<DelayMetric>(v, ws, out);
  });
}

/// End-to-end per-node cost as execute_run pays it: build the view, then
/// run one selection on it, all through the reused workspaces.
void BM_BuildAndSelectFnbp(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  LocalViewBuilder builder;
  LocalView view;
  SelectionWorkspace ws;
  std::vector<NodeId> out;
  for (auto _ : state) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      builder.build(g, u, view);
      select_fnbp_ans<BandwidthMetric>(view, ws, out);
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.node_count()));
}

}  // namespace

// Degree 40 stresses the dense-graph corner: two-hop discovery used to pay
// an O(deg·two_hop·log deg) membership probe per candidate edge; the
// builder's epoch stamps make it O(1) per edge.
BENCHMARK(BM_SelectRfc3626Mpr)->Arg(10)->Arg(20)->Arg(30);
BENCHMARK(BM_SelectQolsrMpr2)->Arg(10)->Arg(20)->Arg(30);
BENCHMARK(BM_SelectTopologyFiltering)->Arg(10)->Arg(20)->Arg(30);
BENCHMARK(BM_SelectFnbpWorkspace)->Arg(10)->Arg(20)->Arg(30);
BENCHMARK(BM_SelectFnbpDelayWorkspace)->Arg(10)->Arg(20)->Arg(30);
BENCHMARK(BM_BuildLocalView)->Arg(10)->Arg(20)->Arg(30)->Arg(40);
BENCHMARK(BM_BuildLocalViewReused)->Arg(10)->Arg(20)->Arg(30)->Arg(40);
BENCHMARK(BM_BuildAndSelectFnbp)->Arg(10)->Arg(20)->Arg(30);
