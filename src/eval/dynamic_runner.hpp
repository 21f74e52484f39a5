#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eval/runner.hpp"
#include "olsr/incremental.hpp"
#include "sim/mobility.hpp"

namespace qolsr {

/// Per-worker scratch of the dynamics epoch loop: the static workspace
/// bundle (view builder, selection, forwarding) plus the epoch-delta
/// machinery — link events, the dirty-node tracker, and per-selector
/// *advertised* state (the possibly stale ANS tables + CSR topologies of
/// the last TC refresh, and the graph snapshot they were disseminated
/// from). These are reused across epochs and runs, so the selection and
/// forwarding hot paths stay allocation-free; the epoch *measurement*
/// path is not — connected_components (kAnyConnected pair draws) and the
/// geometry rebuild inside update_unit_disk_links allocate O(n) transient
/// buffers per epoch, a deliberate trade (they are a small fraction of an
/// epoch's cost next to the dirty-node selection sweep).
struct DynamicEvalWorkspace {
  EvalWorkspace eval;
  std::vector<LinkEvent> events;
  DirtyNodeTracker dirty;
  /// advertised_ans[si][u]: u's ANS as of the last refresh (selector si).
  std::vector<std::vector<std::vector<NodeId>>> advertised_ans;
  /// CSR advertised-union topology per selector, rebuilt at each refresh.
  std::vector<CsrTopology> advertised;
  /// The true graph at the last refresh — what the TC flood described.
  Graph snapshot;
  /// Per-epoch optimum (QoS value and min-hop distance) on the current
  /// graph; separate from the forwarding Dijkstra so both stay warm.
  DijkstraWorkspace optima;
};

namespace eval_detail {

/// One dynamics run: sample a deployment, run full selection once (epoch
/// 0), advertise it, then per epoch: evolve the topology, re-select for
/// the dirty nodes only, refresh the advertised state every
/// `refresh_interval` epochs, and route one packet per selector on the
/// (possibly stale) advertised knowledge — counting delivery, stale-link
/// losses, QoS overhead and hop stretch against the *current* optimum,
/// and the TC re-advertisements each refresh triggers. `scenario` is the
/// sweep point's (Scenario::at), which holds its density or speed.
template <Metric M>
void execute_dynamic_run(const Scenario& scenario, double /*axis_value*/,
                         std::size_t /*run_index*/, std::uint64_t run_seed,
                         const std::vector<const AnsSelector*>& selectors,
                         DensityStats& stats, DynamicEvalWorkspace& ws) {
  const DeploymentConfig& field = scenario.field;
  const DynamicsSpec& dyn = scenario.dynamics;
  util::Rng rng(run_seed);

  Graph graph;
  sample_topology(scenario, field, rng, graph,
                  [](const Graph&) { return true; });
  stats.node_count.add(static_cast<double>(graph.node_count()));
  const std::size_t n = graph.node_count();

  std::unique_ptr<MobilityModel> model;
  if (dyn.model == DynamicsSpec::Model::kWaypoint) {
    WaypointConfig config;
    config.width = field.width;
    config.height = field.height;
    config.radius = field.radius;
    config.speed_min = dyn.speed_min;
    config.speed_max = dyn.speed_max;
    config.pause_epochs = dyn.pause_epochs;
    config.epoch_duration = dyn.epoch_duration;
    config.qos = scenario.qos;
    model = std::make_unique<RandomWaypointModel>(config, graph, rng);
  } else {
    model = std::make_unique<LinkChurnModel>(
        ChurnConfig{dyn.link_down_rate, dyn.link_up_rate});
  }

  // Epoch 0: full selection everywhere (the incremental pipeline with
  // every node dirty), then the first advertisement.
  auto& ans = ws.eval.ans;
  ans.resize(selectors.size());
  for (auto& per_node : ans) per_node.resize(n);
  ws.dirty.begin_epoch(n);
  for (NodeId u = 0; u < n; ++u) ws.dirty.mark(u);
  refresh_dirty_selection(graph, selectors, ws.dirty, ws.eval.view_builder,
                          ws.eval.view, ws.eval.selection, ans);
  const bool union_model =
      scenario.routing_model == Scenario::RoutingModel::kAdvertisedUnion;
  ws.advertised_ans.resize(selectors.size());
  ws.advertised.resize(selectors.size());
  // The union model freezes its stale knowledge into the CSR right here,
  // so only the chain model — which replans its relay base per packet —
  // needs the refresh-time graph kept around.
  if (!union_model) ws.snapshot = graph;
  for (std::size_t si = 0; si < selectors.size(); ++si) {
    ws.advertised_ans[si] = ans[si];
    if (union_model)
      ws.eval.advertised_builder.build_advertised(graph, ws.advertised_ans[si],
                                                  ws.advertised[si]);
  }

  for (std::size_t epoch = 1; epoch <= dyn.epochs; ++epoch) {
    // -- evolve + incremental selection maintenance ----------------------
    ws.events.clear();
    model->step(graph, rng, ws.events);
    ws.dirty.begin_epoch(n);
    collect_dirty_nodes(graph, ws.events, ws.dirty);
    refresh_dirty_selection(graph, selectors, ws.dirty, ws.eval.view_builder,
                            ws.eval.view, ws.eval.selection, ans);

    // -- TC refresh: the advertised state catches up ---------------------
    if (epoch % dyn.refresh_interval == 0) {
      if (!union_model) ws.snapshot = graph;
      for (std::size_t si = 0; si < selectors.size(); ++si) {
        stats.protocols[si].readvertised.add(static_cast<double>(
            count_changed_ans(ans[si], ws.advertised_ans[si])));
        ws.advertised_ans[si] = ans[si];
        if (union_model)
          ws.eval.advertised_builder.build_advertised(
              graph, ws.advertised_ans[si], ws.advertised[si]);
      }
    }

    // -- draw this epoch's measured pair on the current graph ------------
    // The pair is connected *now*, so every undelivered packet below is a
    // loss chargeable to stale or insufficient advertised state. An epoch
    // with no drawable pair (the churn tore the graph apart) records set
    // sizes but no packet, for every selector alike.
    NodeId source = kInvalidNode, destination = kInvalidNode;
    const bool pair_found =
        draw_pair(graph, scenario, rng, ws.eval, source, destination);
    double optimal_value = 0.0;
    double optimal_hops = 0.0;
    if (pair_found) {
      dijkstra<M>(graph, source, kInvalidNode, ws.optima);
      optimal_value = ws.optima.value(destination);
      dijkstra_min_hop<M>(graph, source, kInvalidNode, ws.optima);
      optimal_hops = static_cast<double>(ws.optima.hops(destination));
    }

    // -- route one packet per selector on its advertised knowledge -------
    for (std::size_t si = 0; si < selectors.size(); ++si) {
      ProtocolStats& ps = stats.protocols[si];
      ps.set_size.add(average_set_size(ans[si]));
      if (!pair_found) continue;

      ForwardingOptions options;
      options.verify_links = true;
      if (!union_model) options.advertised_snapshot = &ws.snapshot;
      const ForwardingResult routed = route_packet<M>(
          scenario, *selectors[si], graph, ws.advertised_ans[si],
          ws.advertised[si], source, destination, options,
          ws.eval.forwarding);
      if (routed.delivered()) {
        ++ps.delivered;
        ps.overhead.add(qos_overhead<M>(routed.value, optimal_value));
        const double hops = static_cast<double>(routed.path.size() - 1);
        ps.path_hops.add(hops);
        ps.stretch.add(optimal_hops > 0.0 ? hops / optimal_hops : 1.0);
      } else {
        ++ps.failed;
        if (routed.status == ForwardingStatus::kStaleLink) ++ps.stale_losses;
      }
    }
  }
}

}  // namespace eval_detail

/// The dynamics counterpart of run_sweep: same threaded harness, same
/// determinism contract (run r of sweep-point index d derives its RNG
/// stream from the scenario seed alone, so every thread count prints the
/// same bytes), but each run is a mobility/churn trace evaluated per epoch
/// instead of one static topology. Sweep-point values are densities
/// (kDensity) or waypoint speeds (kSpeed) per `scenario.sweep_axis`.
template <Metric M>
std::vector<DensityStats> run_dynamic_sweep(
    const Scenario& scenario, const std::vector<const AnsSelector*>& selectors,
    unsigned threads = 0) {
  return eval_detail::sweep_harness<DynamicEvalWorkspace>(
      scenario, selectors, threads, eval_detail::execute_dynamic_run<M>);
}

}  // namespace qolsr
