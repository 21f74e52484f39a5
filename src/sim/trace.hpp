#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/node_id.hpp"

namespace qolsr {

/// The scalar control- and data-plane counters of TraceStats. TC bytes are
/// the quantity the paper's set-size figures proxy: each TC carries one
/// advert per ANS member.
struct TraceCounters {
  std::uint64_t hello_sent = 0;
  std::uint64_t tc_originated = 0;
  std::uint64_t tc_forwarded = 0;
  std::uint64_t tc_dropped_duplicate = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_dropped = 0;
  // ---- fault layer (LossyMedium; zero on an unimpaired medium) ----------
  /// Frame deliveries dropped by the Bernoulli loss gate.
  std::uint64_t frames_lost = 0;
  /// Frame deliveries suppressed by the up/down overlay (crashed node,
  /// downed link, active partition).
  std::uint64_t frames_blocked = 0;
  // ---- capacity layer (ContendedMedium; zero without a traffic spec) ----
  /// Frame deliveries tail-dropped at a full per-link FIFO queue.
  std::uint64_t frames_queue_dropped = 0;
  // ---- adversary layer (zero without an active AdversarySpec) -----------
  /// Frame deliveries with wire bits flipped by the corruption gate (the
  /// frame is still delivered; the receiver's parser decides its fate).
  std::uint64_t frames_corrupted = 0;
  /// Received frames the hardened parser rejected as malformed.
  std::uint64_t frames_malformed = 0;
};

/// Everything the simulator traces, shared by all nodes of one run: the
/// counters plus each data packet's journey.
struct TraceStats : TraceCounters {
  /// Journey of one data packet, keyed by payload id.
  struct Journey {
    /// Why an undelivered packet died, recorded by the node that dropped
    /// it. A journey that is neither delivered nor marked was lost in the
    /// medium (Bernoulli loss or a fault-blocked hop) mid-flight.
    enum class Drop : std::uint8_t {
      kNone,       ///< still in flight (or delivered)
      kNoRoute,    ///< a hop's knowledge graph had no route (blackhole)
      kTtl,        ///< hop limit exhausted (routing loop / overlong path)
      kQueueDrop,  ///< tail-dropped at a saturated link queue (congestion)
      kAdversary,  ///< silently absorbed by a misbehaving relay
      kMalformed,  ///< wire-corrupted in flight (bits flipped on the frame)
    };
    NodeId source = kInvalidNode;
    NodeId destination = kInvalidNode;
    bool delivered = false;
    Drop drop = Drop::kNone;
    /// Clock stamps for end-to-end latency: set by send_data resp. the
    /// destination's handle_data (0 until then; SimTime is double).
    double sent_at = 0.0;
    double delivered_at = 0.0;
    std::vector<NodeId> path;  ///< nodes traversed, starting at the source
  };
  std::unordered_map<std::uint32_t, Journey> journeys;
};

/// Copies only the scalar counters of `from` into `to`, leaving `to`'s
/// journey map untouched — the cheap per-mutation snapshot the event-driven
/// convergence detector takes at every state change (copying the journey
/// map there would put an O(packets) cost on every table mutation).
inline void copy_counters(TraceStats& to, const TraceStats& from) {
  static_cast<TraceCounters&>(to) = from;
}

}  // namespace qolsr
