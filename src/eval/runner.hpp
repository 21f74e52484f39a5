#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/scenario.hpp"
#include "graph/connectivity.hpp"
#include "graph/local_view.hpp"
#include "metrics/metric.hpp"
#include "olsr/selector.hpp"
#include "path/dijkstra.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"
#include "sim/invariants.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace qolsr {

/// Control-plane cost of running one protocol on one sampled topology,
/// measured by the packet-level backend (eval/packet_runner.hpp) from the
/// discrete-event simulator's trace — the quantities the paper reasons
/// about (smaller ANS ⇒ smaller/fewer TCs) but the oracle path cannot
/// produce. One sample per run, network-wide totals; empty (count 0) under
/// the oracle backend.
struct ControlPlaneStats {
  util::RunningStats hello_msgs;       ///< HELLOs sent per run
  util::RunningStats tc_msgs;          ///< TCs originated per run
  util::RunningStats tc_forwards;      ///< MPR retransmissions per run
  util::RunningStats duplicate_drops;  ///< duplicate-set hits per run
  util::RunningStats control_bytes;    ///< broadcast control bytes per run
  /// Measured convergence time (seconds of simulated time until the
  /// network-wide protocol state last changed — see
  /// Simulator::run_to_convergence), not an assumed horizon.
  util::RunningStats convergence_time;
  /// Runs that hit the simulator's hard time cap while the state was
  /// still changing: their convergence_time sample is only a lower bound
  /// and the measurements were taken from not-yet-quiescent state. Any
  /// nonzero value flags the sweep point as suspect (all sinks emit it).
  std::size_t unconverged = 0;
  // ---- fault-engine block (zero under a fault-free plan) ----------------
  /// Control frames dropped by the Bernoulli loss gate per run — what the
  /// protocol's re-flooding cost pays to overcome.
  util::RunningStats frames_lost;
  /// Frames suppressed by the up/down overlay (downed links, crashed
  /// nodes, partitions) per run.
  util::RunningStats frames_blocked;
  /// Seconds from an injected incident to the network-wide state settling
  /// again; one sample per scheduled FaultIncident per run.
  util::RunningStats reconvergence_time;
  /// Re-convergence attempts that hit the hard cap still changing — the
  /// incident counterpart of `unconverged`.
  std::size_t reconv_unconverged = 0;

  bool measured() const { return convergence_time.count() > 0; }

  void merge(const ControlPlaneStats& other) {
    hello_msgs.merge(other.hello_msgs);
    tc_msgs.merge(other.tc_msgs);
    tc_forwards.merge(other.tc_forwards);
    duplicate_drops.merge(other.duplicate_drops);
    control_bytes.merge(other.control_bytes);
    convergence_time.merge(other.convergence_time);
    unconverged += other.unconverged;
    frames_lost.merge(other.frames_lost);
    frames_blocked.merge(other.frames_blocked);
    reconvergence_time.merge(other.reconvergence_time);
    reconv_unconverged += other.reconv_unconverged;
  }
};

/// Flow-level outcome of the traffic workload of one protocol at one sweep
/// point (packet backend with an active TrafficSpec; empty otherwise).
/// Counters are packet totals across runs; the distributions sample per
/// packet resp. per flow, and the sinks report their quantiles and
/// histograms, not just means.
struct TrafficStats {
  std::size_t offered = 0;    ///< data packets scheduled
  std::size_t delivered = 0;  ///< data packets that reached their sink
  // Fate classification of undelivered packets (sums to offered-delivered):
  std::size_t queue_drops = 0;    ///< tail-dropped at a saturated link queue
  std::size_t no_route_drops = 0; ///< a hop had no route to the destination
  std::size_t loop_drops = 0;     ///< TTL exhausted (routing loop)
  std::size_t medium_drops = 0;   ///< lost mid-flight on the lossy medium
  /// End-to-end latency of each delivered packet, seconds.
  util::RunningStats latency;
  /// Per-flow delivered fraction (one sample per flow per run).
  util::RunningStats flow_delivery;
  /// Per-flow goodput in bytes/second (delivered payload over the traffic
  /// duration; one sample per flow per run).
  util::RunningStats flow_throughput;

  bool measured() const { return offered > 0; }

  double delivery_ratio() const {
    return offered > 0
               ? static_cast<double>(delivered) / static_cast<double>(offered)
               : 0.0;
  }

  void merge(const TrafficStats& other) {
    offered += other.offered;
    delivered += other.delivered;
    queue_drops += other.queue_drops;
    no_route_drops += other.no_route_drops;
    loop_drops += other.loop_drops;
    medium_drops += other.medium_drops;
    latency.merge(other.latency);
    flow_delivery.merge(other.flow_delivery);
    flow_throughput.merge(other.flow_throughput);
  }
};

/// Invariant-monitor outcome of one protocol at one sweep point (packet
/// backend with an active AdversarySpec; empty otherwise). The counters
/// are violation totals across runs; the distributions sample per run so
/// the sinks can report how early and how hard the roster bites.
struct InvariantStats {
  /// Violation counters summed across runs (sim/invariants.hpp).
  InvariantCounters counters;
  /// Frames the wire-corruption gate flipped, per run.
  util::RunningStats frames_corrupted;
  /// Received frames the hardened parser rejected, per run.
  util::RunningStats frames_malformed;
  /// Seconds of simulated time from run start to the first monitored
  /// violation; one sample per run that had any (violation-free runs
  /// contribute nothing, so the mean is conditional).
  util::RunningStats time_to_first_violation;
  /// Failed probes whose recorded journey visited an adversary — routes
  /// the roster poisoned, as opposed to honest routing failures.
  std::size_t poisoned_routes = 0;

  bool measured() const {
    return frames_corrupted.count() > 0 || counters.total() > 0;
  }

  void merge(const InvariantStats& other) {
    counters.add(other.counters);
    frames_corrupted.merge(other.frames_corrupted);
    frames_malformed.merge(other.frames_malformed);
    time_to_first_violation.merge(other.time_to_first_violation);
    poisoned_routes += other.poisoned_routes;
  }
};

/// Aggregated measurements of one protocol at one sweep point. Static
/// sweeps sample once per run; the dynamics epoch loop samples once per
/// measured epoch (set_size, overhead, path_hops, delivered/failed) and
/// additionally fills the dynamics-only aggregates below.
struct ProtocolStats {
  std::string name;
  util::RunningStats set_size;   ///< mean |ANS| per node, one sample per run
  util::RunningStats overhead;   ///< (b*−b)/b* resp. (d−d*)/d*, per run
  util::RunningStats path_hops;  ///< hop length of the delivered route
  std::size_t delivered = 0;
  std::size_t failed = 0;        ///< no-route / loop / stale-link outcomes
  // ---- dynamics-mode only (empty in static sweeps) ----------------------
  /// Of `failed`: packets lost handing off over an advertised link that no
  /// longer exists (ForwardingStatus::kStaleLink) — losses specifically
  /// chargeable to advertisement *age*, as opposed to advertised state
  /// that never connected the pair (kNoRoute) or a routing loop (kLoop).
  std::size_t stale_losses = 0;
  /// Hop stretch of delivered epoch packets: traversed hops / min-hop
  /// distance on the *current* true graph.
  util::RunningStats stretch;
  /// Per TC refresh: nodes whose advertised set changed since the last
  /// refresh (TC messages the refresh floods).
  util::RunningStats readvertised;
  // ---- packet-backend only (empty under the oracle backend) -------------
  /// Measured control-plane cost (messages, bytes, duplicate suppression,
  /// convergence time) of disseminating this protocol's advertised state.
  ControlPlaneStats control;
  /// Fate classification of failed probes under the fault engine: dropped
  /// for lack of a route (a blackhole — soft state aged out or never
  /// built), dropped by the TTL cap (a routing loop on inconsistent
  /// knowledge), or lost on the medium itself (the Bernoulli gate ate a
  /// data frame). Sums to `failed` in packet-backend static sweeps.
  std::size_t no_route_losses = 0;
  std::size_t loop_losses = 0;
  std::size_t medium_losses = 0;
  /// Per-run probe delivery fraction (probes_delivered / probe_packets,
  /// one sample per run) — the distribution behind the delivered/failed
  /// totals, emitted alongside the fault block.
  util::RunningStats probe_delivery;
  /// Flow-level outcomes of the traffic workload (active TrafficSpec only).
  TrafficStats traffic;
  /// Invariant-monitor outcome under the adversary engine (active
  /// AdversarySpec only).
  InvariantStats invariants;

  /// Delivered fraction of attempted packets (0 when none were attempted)
  /// — the headline dynamics series, shared by every result emitter.
  double delivery_ratio() const {
    const std::size_t attempted = delivered + failed;
    return attempted > 0
               ? static_cast<double>(delivered) / static_cast<double>(attempted)
               : 0.0;
  }
};

/// One run's raw measurements, kept only when Scenario::record_runs is on
/// (result sinks can then emit per-run records next to the aggregates).
struct RunRecord {
  std::size_t run_index = 0;  ///< index into the density's run sequence
  std::size_t nodes = 0;
  struct Protocol {
    double set_size = 0.0;   ///< mean |ANS| per node on this topology
    bool delivered = false;  ///< every probe of the run arrived
    double value = 0.0;      ///< routed QoS value (when delivered)
    double overhead = 0.0;   ///< vs. the centralized optimum (when delivered)
    std::size_t hops = 0;    ///< routed path length (when delivered)
    // ---- packet-backend only (defaults under the oracle backend) --------
    double convergence_time = 0.0;     ///< measured, this run
    bool converged = true;             ///< quiescence confirmed before cap
    double control_bytes = 0.0;        ///< control bytes to convergence
    std::size_t probes_delivered = 0;  ///< of Scenario::probe_packets
    std::size_t probes_failed = 0;
    // ---- traffic workload (defaults without an active TrafficSpec) ------
    std::size_t traffic_offered = 0;    ///< data packets scheduled this run
    std::size_t traffic_delivered = 0;  ///< of those, delivered
    double traffic_latency_p95 = 0.0;   ///< this run's p95 latency, seconds
    // ---- adversary engine (defaults without an active AdversarySpec) -----
    std::size_t invariant_violations = 0;  ///< monitor total() this run
    std::size_t poisoned_routes = 0;  ///< failed probes through an adversary
  };
  std::vector<Protocol> protocols;  ///< same order as DensityStats::protocols
};

struct DensityStats {
  double density = 0.0;
  std::size_t runs = 0;
  util::RunningStats node_count;
  std::vector<ProtocolStats> protocols;
  /// In run order; empty unless Scenario::record_runs.
  std::vector<RunRecord> run_records;
};

/// Per-run artifacts shared by all protocols on one sampled topology.
struct SampledRun {
  Graph graph;
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  double optimal_value = 0.0;  ///< b* / d* on the full graph (Dijkstra)
};

/// Per-worker-thread scratch for the eval pipeline: one view builder, one
/// reused view, and the selection workspace shared by every heuristic. With
/// one bundle per thread, a full sweep builds every node's view and ANS
/// with zero per-node allocation (DESIGN.md §5).
struct EvalWorkspace {
  LocalViewBuilder view_builder;
  LocalView view;
  SelectionWorkspace selection;
  /// Per-selector, per-node ANS of the current run; the nested vectors are
  /// resized (keeping capacity) instead of reallocated each run.
  std::vector<std::vector<std::vector<NodeId>>> ans;
  /// The advertised topology as a reusable CSR view (rebuilt in place per
  /// selector per run) and the forwarding scratch that routes on it.
  AdvertisedTopologyBuilder advertised_builder;
  CsrTopology advertised;
  ForwardingWorkspace forwarding;
};

/// Tries draw_pair makes before it gives up on a topology.
inline constexpr std::size_t kMaxPairDraws = 64;

/// Draws a measured (source, destination) pair on `graph`: up to
/// kMaxPairDraws tries of a uniform source, then a uniform member of its
/// 2-hop set (kTwoHop) or a uniform node of its component (kAnyConnected).
/// Returns false when every try failed. sample_run and the dynamics epoch
/// loop both draw here, so their RNG draws agree.
inline bool draw_pair(const Graph& graph, const Scenario& scenario,
                      util::Rng& rng, EvalWorkspace& ws, NodeId& source,
                      NodeId& destination) {
  const bool two_hop = scenario.pair_mode == Scenario::PairMode::kTwoHop;
  const Components components =
      two_hop ? Components{} : connected_components(graph);
  const auto n = static_cast<NodeId>(graph.node_count());
  for (std::size_t attempt = 0; attempt < kMaxPairDraws; ++attempt) {
    const NodeId s = static_cast<NodeId>(rng.uniform_int(n));
    NodeId d = kInvalidNode;
    if (two_hop) {
      ws.view_builder.build(graph, s, ws.view);
      if (ws.view.two_hop().empty()) continue;
      const std::uint32_t pick = static_cast<std::uint32_t>(
          rng.uniform_int(std::uint64_t{ws.view.two_hop().size()}));
      d = ws.view.global_id(ws.view.two_hop()[pick]);
    } else {
      d = static_cast<NodeId>(rng.uniform_int(n));
      if (s == d || !components.connected(s, d)) continue;
    }
    source = s;
    destination = d;
    return true;
  }
  return false;
}

/// Samples one deployment of `field` into `graph`: a Poisson deployment
/// with uniform link QoS, drawn again while it has fewer than 2 nodes or
/// `usable(graph)` rejects it. A degenerate deployment configuration
/// (expected node count near zero, or a field too sparse to ever connect a
/// pair) raises an error after `scenario.max_topology_resamples` tries
/// instead of spinning forever. sample_run and execute_dynamic_run both
/// sample here.
template <typename Usable>
void sample_topology(const Scenario& scenario, const DeploymentConfig& field,
                     util::Rng& rng, Graph& graph, const Usable& usable) {
  for (std::size_t resample = 0;; ++resample) {
    if (resample >= scenario.max_topology_resamples)
      throw std::runtime_error(
          "no usable deployment after " +
          std::to_string(scenario.max_topology_resamples) +
          " topology resamples at density " + std::to_string(field.degree) +
          " (expected nodes per deployment: " +
          std::to_string(field.expected_nodes()) +
          ") - the deployment configuration is degenerate");
    graph = sample_poisson_deployment(field, rng);
    if (graph.node_count() < 2) continue;
    assign_uniform_qos(graph, scenario.qos, rng);
    if (usable(graph)) return;
  }
}

/// Samples one evaluation topology (sample_topology) with a random
/// connected (source, destination) pair (draw_pair). When no pair is
/// drawn, resamples the whole topology — a disconnected pair has no
/// optimum to compare against (DESIGN.md §4.8).
template <Metric M>
SampledRun sample_run(const Scenario& scenario, double density,
                      util::Rng& rng, EvalWorkspace& ws) {
  SampledRun run;
  DeploymentConfig field = scenario.field;
  field.degree = density;
  sample_topology(scenario, field, rng, run.graph, [&](const Graph& graph) {
    return draw_pair(graph, scenario, rng, ws, run.source, run.destination);
  });
  DijkstraWorkspace& optima = ws.forwarding.dijkstra;
  dijkstra<M>(run.graph, run.source, kInvalidNode, optima);
  run.optimal_value = optima.value(run.destination);
  return run;
}

/// Convenience form with a throwaway workspace (tests, one-off callers).
template <Metric M>
SampledRun sample_run(const Scenario& scenario, double density,
                      util::Rng& rng) {
  EvalWorkspace ws;
  return sample_run<M>(scenario, density, rng, ws);
}

/// QoS overhead of an achieved route value vs. the optimum (paper §IV-A):
/// bandwidth-style (concave) metrics lose (b*−b)/b*; delay-style (additive)
/// metrics pay (d−d*)/d*.
template <Metric M>
double qos_overhead(double achieved, double optimal) {
  // A zero optimum makes the ratio 0/0 — all-zero additive link costs
  // (e.g. the loss interval under integral weights) or a zero-bandwidth
  // bottleneck when a QoS interval starts at 0. A route matching the
  // optimum is exactly optimal; anything else is unboundedly worse.
  if (optimal == 0.0)
    return achieved == optimal ? 0.0
                               : std::numeric_limits<double>::infinity();
  if constexpr (M::kind == MetricKind::kConcave) {
    return (optimal - achieved) / optimal;
  } else {
    return (achieved - optimal) / optimal;
  }
}

/// Routes one measured packet of `selector` under the scenario's routing
/// model: the ANS-chain walk over `ans` (kAnsChain), otherwise the
/// advertised union `advertised`, hop by hop or source-routed
/// (Scenario::hop_by_hop). Sets the scenario's knowledge mode and the
/// selector's routing discipline on `options`; the caller sets the rest.
template <Metric M>
ForwardingResult route_packet(const Scenario& scenario,
                              const AnsSelector& selector, const Graph& full,
                              const std::vector<std::vector<NodeId>>& ans,
                              const CsrTopology& advertised, NodeId source,
                              NodeId destination, ForwardingOptions options,
                              ForwardingWorkspace& ws) {
  options.use_local_views = scenario.use_local_views;
  options.min_hop_routing = !selector.qos_first_routing();
  if (scenario.routing_model == Scenario::RoutingModel::kAnsChain)
    return forward_via_ans<M>(full, ans, source, destination, options, ws);
  if (scenario.hop_by_hop)
    return forward_packet<M>(full, advertised, source, destination, options,
                             ws);
  return source_route_packet<M>(full, advertised, source, destination,
                                options, ws);
}

namespace eval_detail {

/// Executes one sampled run and folds the measurements into `stats`.
/// `ws` is the calling worker thread's scratch bundle.
template <Metric M>
void execute_run(const Scenario& scenario, double density,
                 std::size_t run_index, std::uint64_t run_seed,
                 const std::vector<const AnsSelector*>& selectors,
                 DensityStats& stats, EvalWorkspace& ws) {
  util::Rng rng(run_seed);
  const SampledRun run = sample_run<M>(scenario, density, rng, ws);
  stats.node_count.add(static_cast<double>(run.graph.node_count()));
  RunRecord record;
  if (scenario.record_runs) {
    record.run_index = run_index;
    record.nodes = run.graph.node_count();
    record.protocols.resize(selectors.size());
  }

  // Every node's view is built once (into the reused workspace view) and
  // shared by all selectors; the ANS buffers are recycled run to run.
  auto& ans = ws.ans;
  ans.resize(selectors.size());
  for (auto& per_node : ans) per_node.resize(run.graph.node_count());
  for (NodeId u = 0; u < run.graph.node_count(); ++u) {
    ws.view_builder.build(run.graph, u, ws.view);
    for (std::size_t si = 0; si < selectors.size(); ++si)
      selectors[si]->select_into(ws.view, ws.selection, ans[si][u]);
  }

  for (std::size_t si = 0; si < selectors.size(); ++si) {
    ProtocolStats& ps = stats.protocols[si];
    const double set_size = average_set_size(ans[si]);
    ps.set_size.add(set_size);

    if (scenario.routing_model == Scenario::RoutingModel::kAdvertisedUnion)
      ws.advertised_builder.build_advertised(run.graph, ans[si],
                                             ws.advertised);
    const ForwardingResult routed = route_packet<M>(
        scenario, *selectors[si], run.graph, ans[si], ws.advertised,
        run.source, run.destination, {}, ws.forwarding);
    const double overhead =
        routed.delivered() ? qos_overhead<M>(routed.value, run.optimal_value)
                           : 0.0;
    if (routed.delivered()) {
      ++ps.delivered;
      ps.overhead.add(overhead);
      ps.path_hops.add(static_cast<double>(routed.path.size() - 1));
    } else {
      ++ps.failed;
    }
    if (scenario.record_runs) {
      RunRecord::Protocol& rp = record.protocols[si];
      rp.set_size = set_size;
      rp.delivered = routed.delivered();
      if (routed.delivered()) {
        rp.value = routed.value;
        rp.overhead = overhead;
        rp.hops = routed.path.size() - 1;
      }
    }
  }
  if (scenario.record_runs) stats.run_records.push_back(std::move(record));
}

/// Appends a worker's partial stats to `into`. `from` is consumed: its run
/// records (each holding a per-protocol vector) are moved, not copied.
inline void merge_into(DensityStats& into, DensityStats& from) {
  into.node_count.merge(from.node_count);
  into.run_records.insert(into.run_records.end(),
                          std::make_move_iterator(from.run_records.begin()),
                          std::make_move_iterator(from.run_records.end()));
  for (std::size_t si = 0; si < into.protocols.size(); ++si) {
    ProtocolStats& a = into.protocols[si];
    const ProtocolStats& b = from.protocols[si];
    a.set_size.merge(b.set_size);
    a.overhead.merge(b.overhead);
    a.path_hops.merge(b.path_hops);
    a.delivered += b.delivered;
    a.failed += b.failed;
    a.no_route_losses += b.no_route_losses;
    a.loop_losses += b.loop_losses;
    a.medium_losses += b.medium_losses;
    a.stale_losses += b.stale_losses;
    a.stretch.merge(b.stretch);
    a.readvertised.merge(b.readvertised);
    a.control.merge(b.control);
    a.probe_delivery.merge(b.probe_delivery);
    a.traffic.merge(b.traffic);
    a.invariants.merge(b.invariants);
  }
}

inline DensityStats empty_stats(
    double density, std::size_t runs,
    const std::vector<const AnsSelector*>& selectors) {
  DensityStats stats;
  stats.density = density;
  stats.runs = runs;
  stats.protocols.resize(selectors.size());
  for (std::size_t si = 0; si < selectors.size(); ++si)
    stats.protocols[si].name = std::string(selectors[si]->name());
  return stats;
}

}  // namespace eval_detail

namespace eval_detail {

/// The RNG seed of run `run_index` at sweep point `point_index`: every run
/// draws from its own stream, so each backend samples the same deployment
/// for the same (point, run) whatever order it runs them in.
inline std::uint64_t run_seed(const Scenario& scenario,
                              std::size_t point_index, std::size_t run_index) {
  return scenario.seed + 0x1000003 * (point_index + 1) + run_index;
}

/// The threaded sweep scaffold of the static, dynamics and packet runners,
/// and the one place that shapes a sweep. Per sweep point it builds the
/// point's scenario (`scenario.at(axis_value)`), splits the
/// `scenario.runs` independent runs into one contiguous block per worker
/// (each worker owns one `Workspace`), and merges the partial stats in
/// worker order. `execute` is called as `execute(point, axis_value,
/// run_index, run_seed, selectors, stats, ws)` — the per-run body is the
/// only thing the runners do differently.
///
/// Each run derives its own RNG stream from the scenario seed, and the
/// merged accumulators and run records hold every sample in run order, so
/// every thread count prints the same bytes. `threads == 0` means
/// hardware_concurrency.
template <typename Workspace, typename ExecuteRun>
std::vector<DensityStats> sweep_harness(
    const Scenario& scenario, const std::vector<const AnsSelector*>& selectors,
    unsigned threads, const ExecuteRun& execute) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(scenario.runs, 1)));

  std::vector<DensityStats> sweep;
  sweep.reserve(scenario.densities.size());

  // Worker t runs the block [first_run(t), first_run(t + 1)) on its own
  // workspace; the first runs % threads blocks hold one run more.
  const auto first_run = [&](std::size_t t) {
    return scenario.runs / threads * t +
           std::min<std::size_t>(t, scenario.runs % threads);
  };

  for (std::size_t di = 0; di < scenario.densities.size(); ++di) {
    const double axis_value = scenario.densities[di];
    // Simulator::reset borrows the fault, traffic and adversary specs of
    // the point, which outlives every worker's workspace.
    const Scenario point = scenario.at(axis_value);
    std::vector<DensityStats> partials(
        threads,
        eval_detail::empty_stats(axis_value, scenario.runs, selectors));
    auto work = [&](unsigned t) {
      Workspace ws;
      for (std::size_t r = first_run(t); r < first_run(t + 1); ++r)
        execute(point, axis_value, r, run_seed(scenario, di, r), selectors,
                partials[t], ws);
    };
    if (threads == 1) {
      work(0);
    } else {
      // A worker that throws (e.g. the sample_topology resample cap) parks
      // the exception and stops; the first one is rethrown on the calling
      // thread after the join.
      std::vector<std::exception_ptr> errors(threads);
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          try {
            work(t);
          } catch (...) {
            errors[t] = std::current_exception();
          }
        });
      }
      for (std::thread& w : workers) w.join();
      for (const std::exception_ptr& error : errors)
        if (error) std::rethrow_exception(error);
    }

    DensityStats stats = std::move(partials[0]);
    for (unsigned t = 1; t < threads; ++t)
      eval_detail::merge_into(stats, partials[t]);
    sweep.push_back(std::move(stats));
  }
  return sweep;
}

}  // namespace eval_detail

/// Runs the full density sweep for a set of selection heuristics under
/// metric M: per run, every node's ANS (oracle selection on its exact
/// G_u), the advertised topology, and one routed packet per protocol on the
/// shared (source, destination) pair. The dynamics counterpart is
/// `run_dynamic_sweep` (eval/dynamic_runner.hpp), which drives the same
/// harness with an epoch loop per run.
template <Metric M>
std::vector<DensityStats> run_sweep(
    const Scenario& scenario, const std::vector<const AnsSelector*>& selectors,
    unsigned threads = 0) {
  return eval_detail::sweep_harness<EvalWorkspace>(
      scenario, selectors, threads, eval_detail::execute_run<M>);
}

}  // namespace qolsr
