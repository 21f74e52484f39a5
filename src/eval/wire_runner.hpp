#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/backend.hpp"
#include "eval/packet_runner.hpp"
#include "eval/runner.hpp"
#include "net/wire_harness.hpp"
#include "sim/simulator.hpp"

namespace qolsr {

/// The multi-process counterpart of run_packet_sweep. Every run samples
/// the deployment the oracle and packet backends would at this (density,
/// run) — the same per-run RNG stream — and every (run, protocol) then
/// converges a fleet of real qolsr_node processes over the software switch.
/// All runs are sampled first, and the whole sweep goes to the wire harness
/// as one batch, whose fleets overlap under net::kWireProcessBudget on one
/// thread (spec.threads does not apply).
///
/// As each fleet ends, an in-process Simulator twin converges on the same
/// topology, seed and scaled timing, and the two must agree byte-for-byte
/// on every node's converged digest. A mismatch is not a data point — it
/// is a correctness failure of the transport (or of the determinism
/// argument), so it throws, and the harness tears every fleet in flight
/// down first. Overlap cannot move a digest: on a loss-free medium the
/// converged state depends only on topology and selector.
///
/// Measured figures: set sizes straight from the daemons' status frames,
/// and the wire's own wall-clock convergence time (the latest local
/// mutation any daemon reported — real elapsed seconds, not simulated
/// time, so it scales with `wire_scale`). The control plane's message and
/// byte counts are the twin's, as of its convergence: the daemons report
/// none, and the twin runs the same protocol on the same topology, seed
/// and timing. Everything is folded in (run, protocol) order, whatever
/// order the fleets end in, so the output is the same as running the
/// fleets one by one.
template <Metric M>
std::vector<DensityStats> run_wire_sweep(const ExperimentSpec& spec,
                                         const ResolvedProtocols& protocols) {
  const Scenario& scenario = spec.scenario;
  const std::size_t protocol_count = protocols.ans.size();

  // graphs[di * runs + r]: the run's deployment, which its fleets and
  // twins share.
  std::vector<Graph> graphs;
  graphs.reserve(scenario.densities.size() * scenario.runs);
  {
    EvalWorkspace ws;
    for (std::size_t di = 0; di < scenario.densities.size(); ++di)
      for (std::size_t r = 0; r < scenario.runs; ++r) {
        util::Rng rng(eval_detail::run_seed(scenario, di, r));
        graphs.push_back(
            sample_run<M>(scenario, scenario.densities[di], rng, ws).graph);
      }
  }

  // jobs[run * protocol_count + si], with run = di * runs + r.
  std::vector<net::WireJob> jobs;
  jobs.reserve(graphs.size() * protocol_count);
  for (std::size_t run = 0; run < graphs.size(); ++run)
    for (std::size_t si = 0; si < protocol_count; ++si) {
      net::WireJob& job = jobs.emplace_back();
      job.graph = &graphs[run];
      job.config.protocol = spec.selectors[si];
      job.config.metric = spec.metric;
      job.config.seed = eval_detail::run_seed(scenario, run / scenario.runs,
                                              run % scenario.runs);
      job.config.timing = ProtocolTiming{}.scaled(spec.wire_scale);
    }

  struct Measured {
    double set_size = 0.0;
    double settled_at = 0.0;
    bool converged = false;
    TraceCounters control;  ///< the twin's counters at convergence
  };
  std::vector<Measured> measured(jobs.size());
  net::run_wire_networks(jobs, [&](std::size_t index,
                                   net::WireRunResult&& result) {
    const net::WireJob& job = jobs[index];
    const std::size_t si = index % protocol_count;
    const Graph& graph = *job.graph;
    const std::size_t n = graph.node_count();

    // The in-process twin: same topology, same seed, same (scaled) timing
    // struct — the converged state it folds is the reference the real
    // processes must reproduce exactly.
    const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
      return kInvalidNode;
    };
    SimConfig sim_config;
    static_cast<ProtocolTiming&>(sim_config.node) = job.config.timing;
    sim_config.seed = job.config.seed;
    Simulator sim(graph, *protocols.flooding[si], *protocols.ans[si],
                  no_routes, sim_config);
    const ConvergenceReport report = sim.run_to_convergence();

    for (NodeId id = 0; id < n; ++id) {
      const std::uint64_t expected = sim.node(id).converged_digest();
      if (result.reports[id].digest != expected)
        throw ExperimentError(
            "wire backend: converged-digest mismatch at node " +
            std::to_string(id) + " (protocol '" + job.config.protocol +
            "', seed " + std::to_string(job.config.seed) + "): wire " +
            std::to_string(result.reports[id].digest) + " vs simulator " +
            std::to_string(expected) +
            " - the processes did not converge to the simulator's state");
    }

    Measured& m = measured[index];
    double total_ans = 0.0;
    for (NodeId id = 0; id < n; ++id) {
      total_ans += static_cast<double>(result.reports[id].ans_size);
      m.settled_at = std::max(m.settled_at, result.reports[id].last_mutation);
    }
    m.set_size = n > 0 ? total_ans / static_cast<double>(n) : 0.0;
    m.converged = report.converged;
    m.control = sim.trace_at_convergence();
  });

  std::vector<DensityStats> sweep;
  sweep.reserve(scenario.densities.size());
  for (std::size_t di = 0; di < scenario.densities.size(); ++di) {
    DensityStats stats = eval_detail::empty_stats(
        scenario.densities[di], scenario.runs, protocols.ans);
    for (std::size_t r = 0; r < scenario.runs; ++r) {
      const std::size_t run = di * scenario.runs + r;
      stats.node_count.add(static_cast<double>(graphs[run].node_count()));
      for (std::size_t si = 0; si < protocol_count; ++si) {
        const Measured& m = measured[run * protocol_count + si];
        ProtocolStats& ps = stats.protocols[si];
        ps.set_size.add(m.set_size);
        eval_detail::add_control_plane(ps.control, m.control, m.settled_at,
                                       m.converged);
      }
    }
    sweep.push_back(std::move(stats));
  }
  return sweep;
}

}  // namespace qolsr
