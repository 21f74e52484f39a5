#pragma once

#include <cstdint>
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
  /// Hard wall-clock budget for the whole run (spawn → converged digests).
  /// Expired budget kills every child and throws.
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

/// Spawns the software switch plus one qolsr_node daemon per node of
/// `graph` (Unix SOCK_SEQPACKET under a private temp dir), uploads the
/// adjacency, configures and starts every daemon, and stops by the
/// simulator's own rule — at the fleet's last mutation + the convergence
/// dwell, certified by status rounds over the control socket (see
/// next_status_round). Then it collects each daemon's converged digest and
/// tears the whole process tree down. Throws std::runtime_error on
/// timeout, a spawn failure, or a child that exits before shutdown (at
/// once, naming the node or the switch and its exit status) — never leaks
/// children.
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

/// The bundled-binary discovery used when WireRunConfig paths are empty:
/// $QOLSR_NODE_BIN / $QOLSR_SWITCH_BIN, else `name` next to the running
/// executable.
std::string find_sibling_binary(const char* env_var, const char* name);

}  // namespace qolsr::net
