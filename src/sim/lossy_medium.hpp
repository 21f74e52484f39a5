#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/medium.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace qolsr {

/// The fault overlay of the packet backend: the state and gates that
/// Simulator::broadcast and Simulator::unicast run on every frame leg
/// before it is delivered:
///
///   1. up/down overlay: legs from or to a crashed node, over a downed
///      link (flap incidents, Simulator::fail_link), or across an active
///      partition boundary are suppressed (trace.frames_blocked);
///   2. Bernoulli loss: the leg is dropped with the link's loss rate
///      (FaultPlan per-link override, else the global rate), drawn from a
///      dedicated RNG seeded per run (trace.frames_lost);
///   3. wire corruption: a surviving leg may carry a bit-flipped copy of
///      the frame (trace.frames_corrupted).
///
/// The overlay never mutates the ground-truth Graph — that is what lets
/// the Simulator borrow it const — and when no fault source is active it
/// is contractually invisible: gates 1–2 reduce to one flag test, a zero
/// corruption rate draws nothing, and event order is byte-identical to the
/// ideal medium's.
class LossyMedium {
 public:
  explicit LossyMedium(TraceStats& trace) : trace_(&trace) {}

  /// Per-run (re)configuration for a deployment of `node_count` nodes:
  /// binds the plan (nullptr = fault-free), reseeds the loss and
  /// corruption RNGs, and clears all overlay state. The plan is borrowed
  /// and must stay alive until the next reset. `corrupt_rate` is the
  /// adversary engine's wire-corruption probability per delivered leg.
  void reset(const FaultPlan* plan, std::uint64_t seed, double corrupt_rate,
             std::size_t node_count);

  // ---- overlay state (driven by Simulator::inject / fail_link) ----------
  void set_link_down(NodeId u, NodeId v, bool down);
  bool link_down(NodeId u, NodeId v) const {
    return down_links_.count(link_key(u, v)) != 0;
  }
  void set_node_down(NodeId id, bool down);
  bool node_down(NodeId id) const {
    return id < node_down_.size() && node_down_[id] != 0;
  }
  /// Partitions nest: each active partition blocks frames between the two
  /// id-halves of the network (u < n/2 vs. the rest).
  void add_partition(int delta) { partitions_ += delta; }
  bool partitioned() const { return partitions_ > 0; }

  /// Any reason left for gates 1–2 to stop a leg?
  bool impaired() const {
    return ambient_loss_ || !down_links_.empty() || down_nodes_ > 0 ||
           partitions_ > 0;
  }

  /// Gates 1–2 for one leg: false (and the leg counted as blocked or lost)
  /// when the overlay suppresses it or the loss draw eats it. Draws and
  /// counts nothing while !impaired().
  bool passes(NodeId from, NodeId to);

  /// Gate 3 for one leg that passed gates 1–2: with probability
  /// `corrupt_rate` returns a copy of the frame with 1-3 seeded bit flips
  /// (the receiver still gets it — its hardened parser decides the fate),
  /// else the shared buffer unchanged. Checks the rate first, so a zero
  /// rate draws nothing. Data frames are fate-marked kMalformed from the
  /// *pre-flip* payload id, so a corrupted probe that dies is charged to
  /// corruption, not the medium.
  SharedBytes maybe_corrupt(const SharedBytes& bytes);

 private:
  static std::uint64_t link_key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  bool blocked(NodeId from, NodeId to) const;
  /// Draws the Bernoulli loss gate for one leg. Zero-rate links draw
  /// nothing, so overlay-only faults (fail_link, crash) stay RNG-silent.
  bool lost(NodeId from, NodeId to);

  TraceStats* trace_;
  const FaultPlan* plan_ = nullptr;
  util::Rng rng_{1};
  util::Rng corrupt_rng_{1};
  double corrupt_rate_ = 0.0;
  bool ambient_loss_ = false;  ///< plan has a nonzero loss source
  NodeId partition_half_ = 0;  ///< first id of a partition's upper half
  std::vector<char> node_down_;
  std::size_t down_nodes_ = 0;
  std::unordered_set<std::uint64_t> down_links_;
  std::unordered_map<std::uint64_t, double> link_loss_;
  int partitions_ = 0;
};

}  // namespace qolsr
