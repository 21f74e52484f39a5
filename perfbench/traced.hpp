#pragma once

// The traced run: the same per-run sequence the oracle, packet and wire
// backends execute (eval/runner.hpp, eval/packet_runner.hpp,
// eval/wire_runner.hpp), driven through the library's public calls with a
// span around each call and the simulator's counters read between them.
// The result feeds the same DensityStats and ResultSink, and run.py checks
// the emitted rows against the untraced run byte for byte — a divergence
// means these bodies no longer mirror the runners.
//
// Only the configurations the benchmark workloads use are mirrored: static
// sweeps with advertised-union source routing, no per-run records and no
// adversary roster. traced_experiment rejects anything else.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/backend.hpp"
#include "eval/packet_runner.hpp"
#include "eval/runner.hpp"
#include "eval/wire_runner.hpp"
#include "tracing.hpp"

namespace perfbench {

/// Work counts of the traced run, read from the simulator and the wire
/// harness at the same boundaries the spans are recorded at.
struct LayerCounts {
  std::uint64_t runs = 0;
  std::uint64_t nodes = 0;
  std::uint64_t converge_events = 0;
  std::uint64_t probe_events = 0;
  std::uint64_t traffic_events = 0;
  std::uint64_t reconverge_events = 0;
  double sim_seconds = 0.0;  ///< simulated time over every protocol run
  std::uint64_t mutations = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_blocked = 0;
  std::uint64_t frames_queue_dropped = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t journeys = 0;
  std::uint64_t hello_sent = 0;
  std::uint64_t tc_originated = 0;
  std::uint64_t tc_forwarded = 0;
  std::uint64_t tc_dup_drops = 0;
  std::uint64_t control_bytes = 0;
  double fleet_converge_s = 0.0;
  std::uint64_t processes = 0;
  std::uint64_t digest_mismatches = 0;
};

inline LayerCounts& counts() {
  static LayerCounts instance;
  return instance;
}

namespace detail {

inline void begin_run() {
  tracer().set_run(static_cast<std::uint32_t>(counts().runs++));
}

/// Events the simulator's queue processed inside `body`.
template <typename Body>
std::uint64_t events_of(qolsr::Simulator& sim, SpanKind kind, Body&& body) {
  const std::uint64_t before = sim.queue().processed();
  {
    ScopedSpan span(kind);
    body();
  }
  return sim.queue().processed() - before;
}

/// Mirrors eval_detail::execute_run<M>.
template <qolsr::Metric M>
void oracle_run(const qolsr::Scenario& scenario, double density,
                std::uint64_t run_seed,
                const std::vector<const qolsr::AnsSelector*>& selectors,
                qolsr::DensityStats& stats, qolsr::EvalWorkspace& ws) {
  using namespace qolsr;
  begin_run();
  ScopedSpan run_span(SpanKind::kRun);
  util::Rng rng(run_seed);
  SampledRun run;
  {
    ScopedSpan span(SpanKind::kSample);
    run = sample_run<M>(scenario, density, rng, ws);
  }
  counts().nodes += run.graph.node_count();
  stats.node_count.add(static_cast<double>(run.graph.node_count()));

  auto& ans = ws.ans;
  ans.resize(selectors.size());
  for (auto& per_node : ans) per_node.resize(run.graph.node_count());
  for (NodeId u = 0; u < run.graph.node_count(); ++u) {
    {
      ScopedSpan span(SpanKind::kViewBuild);
      ws.view_builder.build(run.graph, u, ws.view);
    }
    for (std::size_t si = 0; si < selectors.size(); ++si)
      selectors[si]->select_into(ws.view, ws.selection, ans[si][u]);
  }

  for (std::size_t si = 0; si < selectors.size(); ++si) {
    ProtocolStats& ps = stats.protocols[si];
    ps.set_size.add(average_set_size(ans[si]));

    ForwardingOptions options;
    options.use_local_views = scenario.use_local_views;
    options.min_hop_routing = !selectors[si]->qos_first_routing();
    {
      ScopedSpan span(SpanKind::kAdvertised);
      ws.advertised_builder.build_advertised(run.graph, ans[si],
                                             ws.advertised);
    }
    ForwardingResult routed;
    {
      ScopedSpan span(SpanKind::kForward);
      routed = source_route_packet<M>(run.graph, ws.advertised, run.source,
                                      run.destination, options,
                                      ws.forwarding);
    }
    if (routed.delivered()) {
      ++ps.delivered;
      ps.overhead.add(qos_overhead<M>(routed.value, run.optimal_value));
      ps.path_hops.add(static_cast<double>(routed.path.size() - 1));
    } else {
      ++ps.failed;
    }
  }
}

/// Mirrors eval_detail::execute_packet_run<M> (no adversary roster, no
/// per-run records).
template <qolsr::Metric M>
void packet_run(const qolsr::Scenario& scenario, double axis_value,
                std::uint64_t run_seed,
                const qolsr::ResolvedProtocols& protocols,
                qolsr::DensityStats& stats, qolsr::PacketEvalWorkspace& ws) {
  using namespace qolsr;
  using Drop = TraceStats::Journey::Drop;
  const bool loss_axis = scenario.sweep_axis == Scenario::SweepAxis::kLoss;
  const bool load_axis = scenario.sweep_axis == Scenario::SweepAxis::kLoad;
  const double density =
      loss_axis || load_axis ? scenario.field.degree : axis_value;
  FaultPlan plan = scenario.faults;
  if (loss_axis) plan.loss_rate = axis_value;
  const FaultPlan* faults = plan.active() ? &plan : nullptr;
  TrafficSpec traffic = scenario.traffic;
  if (load_axis) traffic.load = axis_value;
  const TrafficSpec* traffic_spec = traffic.active() ? &traffic : nullptr;

  begin_run();
  ScopedSpan run_span(SpanKind::kRun);
  util::Rng rng(run_seed);
  SampledRun run;
  {
    ScopedSpan span(SpanKind::kSample);
    run = sample_run<M>(scenario, density, rng, ws.eval);
  }
  const std::size_t n = run.graph.node_count();
  counts().nodes += n;
  stats.node_count.add(static_cast<double>(n));

  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    const AnsSelector& ans = *protocols.ans[si];
    const AnsSelector& flooding = *protocols.flooding[si];
    DijkstraWorkspace* const dws = &ws.route_dijkstra;
    NextHopScratch* const bfs = &ws.route_bfs;
    OlsrNode::RouteFn route =
        ans.qos_first_routing()
            ? OlsrNode::RouteFn(
                  [dws, bfs](const Graph& g, NodeId self, NodeId dest) {
                    return compute_next_hop<M>(g, self, dest, *dws, *bfs);
                  })
            : OlsrNode::RouteFn(
                  [dws](const Graph& g, NodeId self, NodeId dest) {
                    return compute_min_hop_next_hop<M>(g, self, dest, *dws);
                  });
    {
      ScopedSpan span(SpanKind::kSimReset);
      ws.sim.reset(run.graph, flooding, ans, std::move(route), run_seed,
                   faults, traffic_spec, nullptr);
    }
    ConvergenceReport report;
    counts().converge_events += events_of(ws.sim, SpanKind::kConverge, [&] {
      report = ws.sim.run_to_convergence();
    });

    ProtocolStats& ps = stats.protocols[si];
    double total_ans = 0.0;
    for (NodeId u = 0; u < n; ++u)
      total_ans += static_cast<double>(ws.sim.node(u).ans().size());
    ps.set_size.add(n > 0 ? total_ans / static_cast<double>(n) : 0.0);

    const TraceStats& converged = ws.sim.trace_at_convergence();
    ps.control.hello_msgs.add(static_cast<double>(converged.hello_sent));
    ps.control.tc_msgs.add(static_cast<double>(converged.tc_originated));
    ps.control.tc_forwards.add(static_cast<double>(converged.tc_forwarded));
    ps.control.duplicate_drops.add(
        static_cast<double>(converged.tc_dropped_duplicate));
    ps.control.control_bytes.add(
        static_cast<double>(converged.control_bytes));
    ps.control.convergence_time.add(report.converged_at);
    if (!report.converged) ++ps.control.unconverged;
    ps.control.frames_lost.add(static_cast<double>(converged.frames_lost));
    ps.control.frames_blocked.add(
        static_cast<double>(converged.frames_blocked));

    const std::size_t probes = std::max<std::size_t>(scenario.probe_packets, 1);
    const TraceStats& trace = ws.sim.trace();
    counts().probe_events += events_of(ws.sim, SpanKind::kProbe, [&] {
      for (std::uint32_t pid = 1; pid <= probes; ++pid)
        ws.sim.node(run.source).send_data(run.destination, pid);
      ws.sim.run_until(ws.sim.now() + 1.0);
    });

    std::size_t probes_delivered = 0;
    for (std::uint32_t pid = 1; pid <= probes; ++pid) {
      const auto journey = trace.journeys.find(pid);
      const bool delivered =
          journey != trace.journeys.end() && journey->second.delivered;
      if (delivered) {
        const double value =
            evaluate_path<M>(ws.sim.network(), journey->second.path);
        ++ps.delivered;
        ps.overhead.add(qos_overhead<M>(value, run.optimal_value));
        ps.path_hops.add(
            static_cast<double>(journey->second.path.size() - 1));
        ++probes_delivered;
      } else {
        ++ps.failed;
        const Drop fate = journey != trace.journeys.end()
                              ? journey->second.drop
                              : Drop::kNone;
        if (fate == Drop::kNoRoute) ++ps.no_route_losses;
        if (fate == Drop::kTtl) ++ps.loop_losses;
        if (fate == Drop::kNone) ++ps.medium_losses;
      }
    }
    ps.probe_delivery.add(static_cast<double>(probes_delivered) /
                          static_cast<double>(probes));

    if (traffic_spec != nullptr) {
      TrafficMatrix matrix = [&] {
        ScopedSpan span(SpanKind::kTrafficGen);
        return TrafficMatrix::generate(traffic, run.graph, run_seed);
      }();
      counts().traffic_events += events_of(ws.sim, SpanKind::kTraffic, [&] {
        const double t0 = ws.sim.now();
        for (const TrafficMatrix::Packet& packet : matrix.packets()) {
          const TrafficMatrix::Flow& flow = matrix.flows()[packet.flow];
          ws.sim.queue().schedule_at(t0 + packet.offset, [&ws, flow, packet] {
            ws.sim.node(flow.source).send_data(flow.destination,
                                               packet.payload_id);
          });
        }
        const double drain =
            2.0 + static_cast<double>(traffic.queue_bytes) /
                      traffic.link_capacity * 10.0;
        ws.sim.run_until(t0 + traffic.duration + drain);
      });

      std::vector<std::size_t> flow_offered(matrix.flows().size(), 0);
      std::vector<std::size_t> flow_delivered(matrix.flows().size(), 0);
      for (const TrafficMatrix::Packet& packet : matrix.packets()) {
        ++ps.traffic.offered;
        ++flow_offered[packet.flow];
        const auto journey = trace.journeys.find(packet.payload_id);
        if (journey != trace.journeys.end() && journey->second.delivered) {
          ++ps.traffic.delivered;
          ++flow_delivered[packet.flow];
          ps.traffic.latency.add(journey->second.delivered_at -
                                 journey->second.sent_at);
        } else {
          const Drop fate = journey != trace.journeys.end()
                                ? journey->second.drop
                                : Drop::kNone;
          if (fate == Drop::kQueueDrop) ++ps.traffic.queue_drops;
          if (fate == Drop::kNoRoute) ++ps.traffic.no_route_drops;
          if (fate == Drop::kTtl) ++ps.traffic.loop_drops;
          if (fate == Drop::kNone) ++ps.traffic.medium_drops;
        }
      }
      for (std::size_t f = 0; f < matrix.flows().size(); ++f) {
        if (flow_offered[f] == 0) continue;
        ps.traffic.flow_delivery.add(static_cast<double>(flow_delivered[f]) /
                                     static_cast<double>(flow_offered[f]));
        ps.traffic.flow_throughput.add(
            static_cast<double>(flow_delivered[f]) *
            static_cast<double>(traffic.packet_bytes) / traffic.duration);
      }
    }

    if (faults != nullptr) {
      for (const FaultIncident& incident : faults->incidents) {
        const double injected_at = ws.sim.now();
        ConvergenceReport reconv;
        counts().reconverge_events += events_of(
            ws.sim, SpanKind::kInject, [&] { ws.sim.inject(incident); });
        counts().reconverge_events +=
            events_of(ws.sim, SpanKind::kReconverge,
                      [&] { reconv = ws.sim.run_to_convergence(); });
        ps.control.reconvergence_time.add(reconv.converged_at - injected_at);
        if (!reconv.converged) ++ps.control.reconv_unconverged;
      }
    }

    // Whole-run counters (not the as-of-convergence snapshot): these are
    // the frames and mutations the events above processed.
    LayerCounts& c = counts();
    c.sim_seconds += ws.sim.now();
    c.mutations += ws.sim.mutations().count();
    c.frames_lost += trace.frames_lost;
    c.frames_blocked += trace.frames_blocked;
    c.frames_queue_dropped += trace.frames_queue_dropped;
    c.data_forwarded += trace.data_forwarded;
    c.journeys += trace.journeys.size();
    c.hello_sent += trace.hello_sent;
    c.tc_originated += trace.tc_originated;
    c.tc_forwarded += trace.tc_forwarded;
    c.tc_dup_drops += trace.tc_dropped_duplicate;
    c.control_bytes += trace.control_bytes;
  }
}

/// Mirrors eval_detail::execute_wire_run<M>, except that a digest mismatch
/// is counted instead of thrown.
template <qolsr::Metric M>
void wire_run(const qolsr::ExperimentSpec& spec, double density,
              std::uint64_t run_seed,
              const qolsr::ResolvedProtocols& protocols,
              qolsr::DensityStats& stats, qolsr::EvalWorkspace& ws) {
  using namespace qolsr;
  begin_run();
  ScopedSpan run_span(SpanKind::kRun);
  util::Rng rng(run_seed);
  SampledRun run;
  {
    ScopedSpan span(SpanKind::kSample);
    run = sample_run<M>(spec.scenario, density, rng, ws);
  }
  const std::size_t n = run.graph.node_count();
  counts().nodes += n;
  stats.node_count.add(static_cast<double>(n));

  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    net::WireRunConfig wire;
    wire.protocol = spec.selectors[si];
    wire.metric = spec.metric;
    wire.seed = run_seed;
    wire.timing = ProtocolTiming{}.scaled(spec.wire_scale);
    net::WireRunResult result;
    {
      ScopedSpan span(SpanKind::kFleet);
      result = net::run_wire_network(run.graph, wire);
    }
    counts().processes += n + 1;

    const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
      return kInvalidNode;
    };
    SimConfig sim_config;
    static_cast<ProtocolTiming&>(sim_config.node) = wire.timing;
    sim_config.seed = run_seed;
    ScopedSpan twin_span(SpanKind::kTwin);
    Simulator sim(run.graph, *protocols.flooding[si], *protocols.ans[si],
                  no_routes, sim_config);
    const ConvergenceReport report = sim.run_to_convergence();
    for (NodeId id = 0; id < n; ++id)
      if (result.reports[id].digest != sim.node(id).converged_digest())
        ++counts().digest_mismatches;
    // The twin replays the fleet's protocol exchange (same topology, seed
    // and timing), so its counters stand for the daemons' message work.
    LayerCounts& c = counts();
    c.hello_sent += sim.trace().hello_sent;
    c.tc_originated += sim.trace().tc_originated;
    c.tc_forwarded += sim.trace().tc_forwarded;
    c.tc_dup_drops += sim.trace().tc_dropped_duplicate;
    c.control_bytes += sim.trace().control_bytes;

    ProtocolStats& ps = stats.protocols[si];
    double total_ans = 0.0;
    double settled_at = 0.0;
    for (NodeId id = 0; id < n; ++id) {
      total_ans += static_cast<double>(result.reports[id].ans_size);
      settled_at = std::max(settled_at, result.reports[id].last_mutation);
    }
    ps.set_size.add(n > 0 ? total_ans / static_cast<double>(n) : 0.0);
    ps.control.convergence_time.add(settled_at);
    if (!report.converged) ++ps.control.unconverged;
    counts().fleet_converge_s += settled_at;
  }
}

}  // namespace detail

/// The traced counterpart of run_experiment: same protocol resolution and
/// sweep harness (one worker), the per-run bodies above.
inline qolsr::ExperimentResult traced_experiment(
    const qolsr::ExperimentSpec& spec,
    const qolsr::SelectorRegistry& registry) {
  using namespace qolsr;
  const Scenario& scenario = spec.scenario;
  if (scenario.dynamics.enabled() || scenario.record_runs || spec.per_run ||
      scenario.adversaries.active() ||
      scenario.routing_model != Scenario::RoutingModel::kAdvertisedUnion ||
      scenario.hop_by_hop)
    throw ExperimentError("traced run: spec '" + spec.name +
                          "' uses a configuration the traced bodies do not "
                          "mirror");
  const ResolvedProtocols protocols = resolve_protocols(spec, registry);
  ExperimentResult result;
  result.spec = spec;
  result.sweep = dispatch_metric(spec.metric, [&](auto tag) {
    using M = typename decltype(tag)::type;
    switch (spec.backend) {
      case BackendId::kPacket:
        return eval_detail::sweep_harness<PacketEvalWorkspace>(
            scenario, protocols.ans, 1,
            [&protocols](const Scenario& sc, double axis_value, std::size_t,
                         std::uint64_t run_seed,
                         const std::vector<const AnsSelector*>&,
                         DensityStats& stats, PacketEvalWorkspace& ws) {
              detail::packet_run<M>(sc, axis_value, run_seed, protocols,
                                    stats, ws);
            });
      case BackendId::kWire:
        return eval_detail::sweep_harness<EvalWorkspace>(
            scenario, protocols.ans, 1,
            [&spec, &protocols](const Scenario&, double density, std::size_t,
                                std::uint64_t run_seed,
                                const std::vector<const AnsSelector*>&,
                                DensityStats& stats, EvalWorkspace& ws) {
              detail::wire_run<M>(spec, density, run_seed, protocols, stats,
                                  ws);
            });
      case BackendId::kOracle:
        break;
    }
    return eval_detail::sweep_harness<EvalWorkspace>(
        scenario, protocols.ans, 1,
        [](const Scenario& sc, double density, std::size_t,
           std::uint64_t run_seed,
           const std::vector<const AnsSelector*>& selectors,
           DensityStats& stats, EvalWorkspace& ws) {
          detail::oracle_run<M>(sc, density, run_seed, selectors, stats, ws);
        });
  });
  return result;
}

}  // namespace perfbench
