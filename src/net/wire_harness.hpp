#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "metrics/metric_id.hpp"
#include "net/wire_format.hpp"
#include "proto/protocol_timing.hpp"

namespace qolsr::net {

/// One wire run: which deployment to stand up as real processes, which
/// protocol/metric every daemon runs, and how patient to be.
struct WireRunConfig {
  std::string protocol = "olsr_mpr";  ///< SelectorRegistry name
  MetricId metric = MetricId::kBandwidth;
  std::uint64_t seed = 1;
  /// The one timing struct (satellite: shared with SimConfig). Wire runs
  /// default to heavily compressed intervals — the converged fixpoint is
  /// timing-independent, so scaling buys wall-clock speed, not drift; the
  /// caller passes the *same* struct to the comparison Simulator.
  ProtocolTiming timing = ProtocolTiming{}.scaled(0.02);
  /// Hard wall-clock budget for the whole fleet (spawn → converged
  /// digests), counted from its admission. Expired budget kills every
  /// child and throws.
  double timeout_seconds = 60.0;
  /// Override the daemon/switch binary paths (tests point them at the
  /// build tree; empty = `qolsr_node`/`qolsr_switch` next to /proc/self/exe,
  /// overridable via QOLSR_NODE_BIN / QOLSR_SWITCH_BIN).
  std::string node_binary;
  std::string switch_binary;
};

/// What the N processes converged to, per node id: the digest the
/// equivalence assertion compares byte-for-byte against
/// Simulator-side OlsrNode::converged_digest(), plus the set sizes the
/// eval backend reports.
struct WireRunResult {
  std::vector<StatusReport> reports;  ///< index == node id
};

/// The processes every wire fleet in flight shares: a fleet of N nodes
/// costs N + 1 (its daemons and its switch). The eval backend also refuses
/// deployments that expect more nodes than this.
inline constexpr std::size_t kWireProcessBudget = 64;

/// One fleet of a batch: the deployment to stand up and how to run it.
/// `graph` must outlive the run_wire_networks call.
struct WireJob {
  const Graph* graph = nullptr;
  WireRunConfig config;
};

/// Runs every job as a fleet of real processes — the software switch plus
/// one qolsr_node daemon per node (Unix SOCK_SEQPACKET under a private
/// temp dir) — and calls `done(index, result)` on the calling thread as
/// each fleet ends, in completion order.
///
/// Each fleet uploads its adjacency, configures and starts every daemon,
/// and stops by the simulator's own rule — at the fleet's last mutation +
/// the convergence dwell, certified by status rounds over the control
/// socket (see next_status_round). It then collects each daemon's
/// converged digest and tears its process tree down.
///
/// Fleets overlap. Jobs are admitted in order while the processes in
/// flight stay within kWireProcessBudget (see admits_fleet), and one poll
/// loop over every fleet's plug and pidfds drives them all. A fleet's
/// `timeout_seconds` counts from its admission.
///
/// Throws std::runtime_error on a timeout, a spawn failure, or a child
/// that exits before shutdown (at once, naming the node or the switch, its
/// exit status and the fleet), and rethrows whatever `done` throws. Every
/// fleet in flight is killed and reaped, and its socket dir removed,
/// before the error propagates — no child is ever leaked.
void run_wire_networks(
    const std::vector<WireJob>& jobs,
    const std::function<void(std::size_t, WireRunResult&&)>& done);

/// One fleet: run_wire_networks on a single job.
WireRunResult run_wire_network(const Graph& graph, const WireRunConfig& config);

/// One daemon's answer to a status round, stamped with its arrival time on
/// the harness's monotonic clock.
struct StatusReply {
  StatusReport report;
  double received_at = 0.0;
};

/// The stopping rule of a wire run, free of processes and sockets. Each
/// daemon read `quiet_for` after the round was sent at `round_sent` and
/// before its reply arrived, so it mutated last no later than
/// `received_at - quiet_for` and stayed quiet from then until
/// `round_sent`. Quiet time before Start (`start_sent`) never counts.
/// The fleet is therefore quiet since
///   max(start_sent, max_i(received_at_i - quiet_for_i)),
/// and the round certifies quiescence when that window spans `dwell`.
/// Returns nullopt when it does, else the instant a later round can first
/// succeed. Replies carrying another round's id are skipped; the caller
/// passes one reply of `round` per daemon.
std::optional<double> next_status_round(const std::vector<StatusReply>& replies,
                                        std::uint32_t round, double round_sent,
                                        double start_sent, double dwell);

/// The admission rule of run_wire_networks, free of processes: whether a
/// fleet of `cost` processes may start while `in_flight` processes run.
/// It may when both fit within kWireProcessBudget, or when nothing is in
/// flight — a fleet larger than the budget then runs alone.
bool admits_fleet(std::size_t in_flight, std::size_t cost);

/// The bundled-binary discovery used when WireRunConfig paths are empty:
/// $QOLSR_NODE_BIN / $QOLSR_SWITCH_BIN, else `name` next to the running
/// executable.
std::string find_sibling_binary(const char* env_var, const char* name);

}  // namespace qolsr::net
