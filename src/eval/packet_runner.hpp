#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "eval/backend.hpp"
#include "sim/fault_plan.hpp"
#include "eval/runner.hpp"
#include "path/path.hpp"
#include "routing/forwarding.hpp"
#include "sim/simulator.hpp"

namespace qolsr {

/// Per-worker scratch of the packet-level backend: the shared eval bundle
/// (deployment sampling + pair drawing reuse sample_run unchanged) plus
/// one Simulator reused across every (run, protocol) via its seed-driven
/// reset — node objects, queue and trace survive instead of being
/// reallocated for each of the sweep's runs.
struct PacketEvalWorkspace {
  EvalWorkspace eval;
  /// Route-computation scratch shared by every node of the simulator (the
  /// event loop is single-threaded per workspace, and each next-hop call
  /// runs to completion): with these, the per-hop RouteFn allocates
  /// nothing. Declared before `sim` so they outlive the simulator (whose
  /// queued events capture nodes holding the bound RouteFn).
  DijkstraWorkspace route_dijkstra;
  NextHopScratch route_bfs;
  Simulator sim;
};

namespace eval_detail {

/// Folds one converged run's control-plane counters into `stats`: the
/// message, byte and fault-engine frame counts, the convergence time, and
/// an unconverged run when the state had not `settled`. Both runners that
/// converge a Simulator share it, so every measured block carries the
/// same samples.
inline void add_control_plane(ControlPlaneStats& stats,
                              const TraceCounters& converged,
                              double convergence_time, bool settled) {
  stats.hello_msgs.add(static_cast<double>(converged.hello_sent));
  stats.tc_msgs.add(static_cast<double>(converged.tc_originated));
  stats.tc_forwards.add(static_cast<double>(converged.tc_forwarded));
  stats.duplicate_drops.add(
      static_cast<double>(converged.tc_dropped_duplicate));
  stats.control_bytes.add(static_cast<double>(converged.control_bytes));
  stats.convergence_time.add(convergence_time);
  // A run stopped by the hard cap mid-change is measured from
  // not-yet-quiescent state; count it so the sweep point is flagged
  // instead of silently averaged in.
  if (!settled) ++stats.unconverged;
  // Fault-engine frame counters — the price paid reaching convergence.
  stats.frames_lost.add(static_cast<double>(converged.frames_lost));
  stats.frames_blocked.add(static_cast<double>(converged.frames_blocked));
}

/// One packet-level run: sample the same deployment and (source,
/// destination) pair the oracle backend would (identical RNG stream), then
/// per protocol bring up a full distributed control plane — HELLO link
/// sensing, the protocol's flooding + ANS heuristics, TC flooding with
/// duplicate suppression — run it to *measured* convergence, and take
/// every figure from the converged protocol state: set sizes from the
/// nodes' own ANS tables, delivery/overhead from data packets routed
/// hop-by-hop on per-node knowledge (TC topology base + own links), and
/// the ControlPlaneStats block from the simulator trace.
///
/// Under a fault plan the same run additionally measures graceful
/// degradation, in a fixed order that keeps the fault-free measurements
/// byte-identical: converge under ambient loss, measure, route the probe
/// packets and classify every failure (blackhole / loop / medium loss),
/// and only then inject the scheduled incidents one by one, timing each
/// re-convergence. `scenario` is the sweep point's (Scenario::at): the
/// simulator borrows its active specs.
template <Metric M>
void execute_packet_run(const Scenario& scenario, std::size_t run_index,
                        std::uint64_t run_seed,
                        const ResolvedProtocols& protocols,
                        DensityStats& stats, PacketEvalWorkspace& ws) {
  const FaultPlan* faults =
      scenario.faults.active() ? &scenario.faults : nullptr;
  const TrafficSpec& traffic = scenario.traffic;
  const TrafficSpec* traffic_spec = traffic.active() ? &traffic : nullptr;
  const AdversarySpec* adv_spec =
      scenario.adversaries.active() ? &scenario.adversaries : nullptr;

  util::Rng rng(run_seed);
  SampledRun run =
      sample_run<M>(scenario, scenario.field.degree, rng, ws.eval);
  const std::size_t n = run.graph.node_count();
  stats.node_count.add(static_cast<double>(n));
  RunRecord record;
  if (scenario.record_runs) {
    record.run_index = run_index;
    record.nodes = n;
    record.protocols.resize(protocols.ans.size());
  }

  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    const AnsSelector& ans = *protocols.ans[si];
    const AnsSelector& flooding = *protocols.flooding[si];
    // Same discipline split as the oracle's ForwardingOptions: OLSR/QOLSR
    // route hop-count-first (QoS as tie-break), the QANS designs QoS-first.
    // The next-hop engines run on the shared scratch, so a traversed hop
    // allocates nothing. Two raw pointers keep the lambdas inside
    // std::function's small-buffer storage.
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
    // One seed for every protocol of the run: all contenders experience
    // identical tick jitter (and the very same loss/fault draws), so
    // differences are chargeable to the heuristics alone. The sampled
    // graph is borrowed, never copied — faults live in the simulator's
    // overlay, and `run` outlives every reset of this loop.
    ws.sim.reset(run.graph, flooding, ans, std::move(route), run_seed,
                 faults, traffic_spec, adv_spec);
    const ConvergenceReport report = ws.sim.run_to_convergence();

    ProtocolStats& ps = stats.protocols[si];
    double total_ans = 0.0;
    for (NodeId u = 0; u < n; ++u)
      total_ans += static_cast<double>(ws.sim.node(u).ans().size());
    const double set_size = n > 0 ? total_ans / static_cast<double>(n) : 0.0;
    ps.set_size.add(set_size);

    // Counters as of converged_at, not of whenever the quiescence dwell
    // stopped the clock: every protocol's control-plane cost covers the
    // same window — reaching its converged state — so a slow converger is
    // charged more *time*, not padded with post-convergence keepalives.
    // Read before the incident loop below: its re-convergence calls
    // overwrite trace_at_convergence().
    const TraceStats& converged = ws.sim.trace_at_convergence();
    add_control_plane(ps.control, converged, report.converged_at,
                      report.converged);

    // Data probes between the shared pair, forwarded by the nodes
    // themselves on whatever their converged knowledge routes. The slack
    // covers the TTL-capped worst case, 64 hops (a data packet's starting
    // TTL) of propagation delay, with generous margin. Every failed probe
    // is charged to a fate: no route at some hop (blackhole), TTL
    // exhaustion (loop), or a frame the lossy medium ate in flight.
    const std::size_t probes = std::max<std::size_t>(scenario.probe_packets, 1);
    const TraceStats& trace = ws.sim.trace();
    for (std::uint32_t pid = 1; pid <= probes; ++pid)
      ws.sim.node(run.source).send_data(run.destination, pid);
    ws.sim.run_until(ws.sim.now() + 1.0);

    std::size_t probes_delivered = 0;
    double first_value = 0.0;
    double first_overhead = 0.0;
    std::size_t first_hops = 0;
    for (std::uint32_t pid = 1; pid <= probes; ++pid) {
      const auto journey = trace.journeys.find(pid);
      const bool delivered =
          journey != trace.journeys.end() && journey->second.delivered;
      if (delivered) {
        const double value =
            evaluate_path<M>(ws.sim.network(), journey->second.path);
        const double overhead = qos_overhead<M>(value, run.optimal_value);
        ++ps.delivered;
        ps.overhead.add(overhead);
        ps.path_hops.add(
            static_cast<double>(journey->second.path.size() - 1));
        if (probes_delivered == 0) {
          first_value = value;
          first_overhead = overhead;
          first_hops = journey->second.path.size() - 1;
        }
        ++probes_delivered;
      } else {
        ++ps.failed;
        using Drop = TraceStats::Journey::Drop;
        const Drop fate = journey != trace.journeys.end()
                              ? journey->second.drop
                              : Drop::kNone;
        switch (fate) {
          case Drop::kNoRoute:
            ++ps.no_route_losses;
            break;
          case Drop::kTtl:
            ++ps.loop_losses;
            break;
          case Drop::kQueueDrop:  // probes only queue-drop under traffic
            break;
          case Drop::kAdversary:   // absorbed by a misbehaving relay —
          case Drop::kMalformed:   // or wire-corrupted; both are counted
            break;                 // in the invariants block below
          case Drop::kNone:  // vanished in flight: the medium took it
            ++ps.medium_losses;
            break;
        }
      }
    }
    // Per-run probe delivery fraction — the sample distribution behind
    // the delivered/failed totals (one sample per packet run).
    ps.probe_delivery.add(static_cast<double>(probes_delivered) /
                          static_cast<double>(probes));

    // ---- traffic workload (active TrafficSpec only) ---------------------
    // The flow schedule replays from the run seed via a dedicated salted
    // stream, so it is identical for every protocol of the run (and every
    // thread count): selectors compete on routing the *same* packets
    // through the *same* contended links. Ordered after the probe fates
    // so every figure above stays byte-identical when traffic is added.
    util::RunningStats run_latency;
    std::size_t traffic_delivered_run = 0;
    std::size_t traffic_offered_run = 0;
    if (traffic_spec != nullptr) {
      const TrafficMatrix matrix =
          TrafficMatrix::generate(traffic, run.graph, run_seed);
      const double t0 = ws.sim.now();
      for (const TrafficMatrix::Packet& packet : matrix.packets()) {
        const TrafficMatrix::Flow& flow = matrix.flows()[packet.flow];
        ws.sim.queue().schedule_at(t0 + packet.offset, [&ws, flow, packet] {
          ws.sim.node(flow.source).send_data(flow.destination,
                                             packet.payload_id);
        });
      }
      // Drain slack: time for the deepest queue backlog to serialize out
      // on the slowest (unit-bandwidth) link, plus propagation margin.
      const double drain =
          2.0 + static_cast<double>(traffic.queue_bytes) /
                    traffic.link_capacity * 10.0;
      ws.sim.run_until(t0 + traffic.duration + drain);

      std::vector<std::size_t> flow_offered(matrix.flows().size(), 0);
      std::vector<std::size_t> flow_delivered(matrix.flows().size(), 0);
      for (const TrafficMatrix::Packet& packet : matrix.packets()) {
        ++ps.traffic.offered;
        ++flow_offered[packet.flow];
        const auto journey = trace.journeys.find(packet.payload_id);
        const bool arrived =
            journey != trace.journeys.end() && journey->second.delivered;
        if (arrived) {
          ++ps.traffic.delivered;
          ++flow_delivered[packet.flow];
          const double latency =
              journey->second.delivered_at - journey->second.sent_at;
          ps.traffic.latency.add(latency);
          run_latency.add(latency);
        } else {
          using Drop = TraceStats::Journey::Drop;
          const Drop fate = journey != trace.journeys.end()
                                ? journey->second.drop
                                : Drop::kNone;
          switch (fate) {
            case Drop::kQueueDrop:
              ++ps.traffic.queue_drops;
              break;
            case Drop::kNoRoute:
              ++ps.traffic.no_route_drops;
              break;
            case Drop::kTtl:
              ++ps.traffic.loop_drops;
              break;
            case Drop::kAdversary:  // charged to the invariants block, not
            case Drop::kMalformed:  // the traffic fates (which then sum to
              break;                // offered-delivered only honestly)
            case Drop::kNone:  // vanished in flight: the medium took it
              ++ps.traffic.medium_drops;
              break;
          }
        }
      }
      for (std::size_t f = 0; f < matrix.flows().size(); ++f) {
        if (flow_offered[f] == 0) continue;
        ps.traffic.flow_delivery.add(
            static_cast<double>(flow_delivered[f]) /
            static_cast<double>(flow_offered[f]));
        ps.traffic.flow_throughput.add(
            static_cast<double>(flow_delivered[f]) *
            static_cast<double>(traffic.packet_bytes) / traffic.duration);
        traffic_delivered_run += flow_delivered[f];
      }
      traffic_offered_run = matrix.packets().size();
    }

    // ---- adversary engine (active AdversarySpec only) -------------------
    // Audit the converged TopologyBases against the ground truth (phantom
    // links, inflated QoS, poisoned holders), then fold the monitor's
    // event counters. Ordered after probes and traffic so every honest
    // figure above stays byte-identical when the roster is empty — and
    // before the incident loop, whose re-convergences would blur the
    // converged-state audit.
    std::size_t poisoned_routes_run = 0;
    std::size_t violations_run = 0;
    if (adv_spec != nullptr) {
      audit_topology(ws.sim.monitor(), ws.sim, run.graph);
      // A failed probe whose recorded journey visited a roster member was
      // routed into the adversary's hands — a poisoned route, as opposed
      // to an honest routing failure.
      for (std::uint32_t pid = 1; pid <= probes; ++pid) {
        const auto journey = trace.journeys.find(pid);
        if (journey == trace.journeys.end() || journey->second.delivered)
          continue;
        for (const NodeId hop : journey->second.path) {
          if (ws.sim.is_adversary(hop)) {
            ++poisoned_routes_run;
            break;
          }
        }
      }
      const InvariantCounters& caught = ws.sim.monitor().counters();
      ps.invariants.counters.add(caught);
      ps.invariants.frames_corrupted.add(
          static_cast<double>(trace.frames_corrupted));
      ps.invariants.frames_malformed.add(
          static_cast<double>(trace.frames_malformed));
      if (ws.sim.monitor().first_violation_at() >= 0.0)
        ps.invariants.time_to_first_violation.add(
            ws.sim.monitor().first_violation_at());
      ps.invariants.poisoned_routes += poisoned_routes_run;
      violations_run = caught.total();
    }

    if (scenario.record_runs) {
      RunRecord::Protocol& rp = record.protocols[si];
      rp.set_size = set_size;
      rp.delivered = probes_delivered == probes;
      rp.convergence_time = report.converged_at;
      rp.converged = report.converged;
      rp.control_bytes = static_cast<double>(converged.control_bytes);
      rp.probes_delivered = probes_delivered;
      rp.probes_failed = probes - probes_delivered;
      rp.traffic_offered = traffic_offered_run;
      rp.traffic_delivered = traffic_delivered_run;
      rp.traffic_latency_p95 =
          util::quantile_sorted(run_latency.sorted(), 0.95);
      rp.invariant_violations = violations_run;
      rp.poisoned_routes = poisoned_routes_run;
      if (probes_delivered > 0) {
        rp.value = first_value;
        rp.overhead = first_overhead;
        rp.hops = first_hops;
      }
    }

    // The incident schedule runs *after* the measurement phase, one
    // incident at a time: inject, then time how long the network takes to
    // settle again. Ordering the probes first keeps every figure above
    // identical whether or not incidents are scheduled — incidents only
    // add the re-convergence series.
    if (faults != nullptr) {
      for (const FaultIncident& incident : faults->incidents) {
        const double injected_at = ws.sim.now();
        ws.sim.inject(incident);
        const ConvergenceReport reconv = ws.sim.run_to_convergence();
        ps.control.reconvergence_time.add(reconv.converged_at - injected_at);
        if (!reconv.converged) ++ps.control.reconv_unconverged;
      }
    }
  }
  if (scenario.record_runs) stats.run_records.push_back(std::move(record));
}

}  // namespace eval_detail

/// The packet-level counterpart of run_sweep: the same threaded harness
/// and determinism contract (run r at sweep-point d derives its RNG stream
/// and simulator seed from the scenario seed alone, so every thread count
/// prints the same bytes), but each run converges one Simulator per
/// protocol and measures from distributed state.
template <Metric M>
std::vector<DensityStats> run_packet_sweep(const Scenario& scenario,
                                           const ResolvedProtocols& protocols,
                                           unsigned threads = 0) {
  return eval_detail::sweep_harness<PacketEvalWorkspace>(
      scenario, protocols.ans, threads,
      [&protocols](const Scenario& point, double /*axis_value*/,
                   std::size_t run_index, std::uint64_t run_seed,
                   const std::vector<const AnsSelector*>& /*selectors*/,
                   DensityStats& stats, PacketEvalWorkspace& ws) {
        eval_detail::execute_packet_run<M>(point, run_index, run_seed,
                                           protocols, stats, ws);
      });
}

}  // namespace qolsr
