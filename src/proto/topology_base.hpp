#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/node_id.hpp"
#include "proto/messages.hpp"

namespace qolsr {

/// RFC 3626 §19 circular comparison over the 16-bit sequence space: is
/// `a` newer than `b`? Wrap-aware — 0 is newer than 65535 — and exactly
/// half the space (32768 values) counts as "newer", so a stale replay from
/// the recent past is always rejected while an honest wrap is accepted.
inline bool ansn_newer(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>(a - b) < 0x8000 && a != b;
}

/// RFC 3626 topology information base: what a node has learned from TC
/// floods. Keyed by originator; a newer ANSN replaces the stale advert,
/// and entries expire when not refreshed.
///
/// Storage is flat: one slot per originator id, indexed directly, with a
/// held flag. Every originator that reaches a node has passed the
/// deployment range check (ids are dense 0..n-1), so the slots never
/// outgrow the deployment, and walking them in index order visits the
/// originators ascending.
class TopologyBase {
 public:
  explicit TopologyBase(double hold_time = 15.0) : hold_time_(hold_time) {}

  /// What apply_tc did with a TC — the change taxonomy the caller needs to
  /// keep derived state coherent without diffing the whole base:
  ///  - `fresh`: the TC was accepted (not rejected as a stale ANSN).
  ///  - `links_changed`: the held advertised neighbor-id sequence changed,
  ///    i.e. the accept is visible to `digest` (a pure refresh that renews
  ///    the hold time of an identical advertisement is not).
  ///  - `view_changed`: the *routing view* contribution of this originator
  ///    changed — neighbor ids or QoS differ, or a held-but-expired entry
  ///    (excluded from the validity-aware to_graph) came back to life — so
  ///    any cached to_graph product must be invalidated.
  struct TcOutcome {
    bool fresh = false;
    bool links_changed = false;
    bool view_changed = false;
  };

  /// Processes a TC and reports exactly what changed.
  TcOutcome apply_tc(const TcMessage& tc, double now);

  /// Processes a TC. Returns false when the TC is stale (older ANSN than
  /// what we hold) and was ignored.
  bool on_tc(const TcMessage& tc, double now) {
    return apply_tc(tc, now).fresh;
  }

  /// Drops entries past their hold time. Returns true when anything was
  /// removed — a digest-visible state change.
  bool expire(double now);

  /// Earliest hold-time deadline over every held entry (+infinity when the
  /// base is empty) — when the next expiry-driven purge event is due.
  double next_expiry() const;

  /// All live advertised links, as an undirected QoS graph over
  /// `node_count` nodes — the knowledge a routing-table computation merges
  /// with the local view.
  Graph to_graph(std::size_t node_count) const;

  /// Validity-aware form (RFC 3626 soft state): entries whose hold time
  /// has passed by `now` are excluded even when the periodic purge has not
  /// run yet — what a node should route on between expiry sweeps. With a
  /// healthy control plane every entry is continually refreshed and both
  /// forms agree; under loss or crash faults this is where stale links
  /// disappear first.
  Graph to_graph(std::size_t node_count, double now) const;

  /// Rebuilds `out` in place (capacity-preserving) with exactly what the
  /// validity-aware to_graph would return, and reports how long the result
  /// stays faithful: the earliest hold-time deadline among the *included*
  /// entries (+infinity when none expire). Until that instant — and absent
  /// any mutation — a caller may keep routing on `out` without rebuilding.
  double to_graph_into(Graph& out, std::size_t node_count, double now) const;

  /// Live advertised set of one originator (empty when unknown).
  std::vector<NodeId> advertised_of(NodeId originator) const;

  /// The ANSN currently held for `originator` (nullopt when unknown) — the
  /// value a fresher TC must beat under ansn_newer.
  std::optional<std::uint16_t> ansn_of(NodeId originator) const;

  /// Visits every held advert as (originator, advert), originators
  /// ascending — the invariant monitor's audit walks this to compare a
  /// converged base against the ground-truth graph.
  template <typename Fn>
  void for_each_advert(Fn&& fn) const {
    for (NodeId originator = 0; originator < entries_.size(); ++originator)
      if (entries_[originator].held)
        for (const LinkAdvert& a : entries_[originator].advertised)
          fn(originator, a);
  }

  std::size_t originator_count() const { return held_; }

  /// Folds the advertised topology — (originator, advertised neighbor)
  /// pairs, deterministic order — into a running state digest. Expiry
  /// timestamps are deliberately excluded: periodic TC refreshes that keep
  /// the same advertisement alive must not look like state changes to the
  /// convergence detector (see Simulator::run_to_convergence).
  std::uint64_t digest(std::uint64_t h) const;

  /// The cross-process comparison fold: the advertised topology *with*
  /// each advert's status and QoS bits — but still excluding ANSN and
  /// expiry timestamps. ANSN is history (how many TC generations it took
  /// to reach the fixpoint differs between a wall-clock wire run and the
  /// event-driven Simulator); the converged advert content is not. See
  /// NeighborTables::converged_digest for the equality this underwrites.
  std::uint64_t converged_digest(std::uint64_t h) const;

 private:
  struct Entry {
    bool held = false;  ///< the originator has an entry
    std::uint16_t ansn = 0;
    double expires = 0.0;
    std::vector<LinkAdvert> advertised;
  };

  /// The held entry of `originator`, or nullptr.
  const Entry* find(NodeId originator) const {
    return originator < entries_.size() && entries_[originator].held
               ? &entries_[originator]
               : nullptr;
  }

  /// ANSN comparison with wrap-around (RFC 3626 §9.2 semantics).
  static bool newer(std::uint16_t a, std::uint16_t b) {
    return ansn_newer(a, b);
  }

  double hold_time_;
  std::vector<Entry> entries_;  ///< indexed by originator id
  std::size_t held_ = 0;        ///< entries with `held` set
};

}  // namespace qolsr
