#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/node_id.hpp"
#include "util/names.hpp"

namespace qolsr {

/// A node's protocol behavior. kHonest is the default for every node; the
/// four misbehaviors are assigned from an AdversarySpec roster. The liar
/// and blackhole both *look* honest to link sensing — they HELLO, they get
/// MPR-selected — which is exactly what makes them dangerous.
enum class AdversaryKind : std::uint8_t {
  kHonest = 0,
  /// Advertises and accepts MPR duty normally, then silently drops every
  /// data/TC frame it was supposed to forward.
  kBlackhole,
  /// Injects phantom links and inflated bandwidth QoS into its own TC
  /// advertisements, poisoning every honest TopologyBase that accepts them.
  kLiar,
  /// Captures one foreign TC and keeps re-broadcasting it with fresh
  /// message sequence numbers but the original (stale) ANSN.
  kReplayer,
  /// Refuses MPR duty: accepts selection, never forwards a TC.
  kSelfish,
};

/// The `--adversaries` kind names. kHonest is not a roster kind and has no
/// row, so it neither parses nor prints.
inline constexpr util::Named<AdversaryKind> kAdversaryKinds[] = {
    {AdversaryKind::kBlackhole, "blackhole"},
    {AdversaryKind::kLiar, "liar"},
    {AdversaryKind::kReplayer, "replayer"},
    {AdversaryKind::kSelfish, "selfish"},
};

/// Declarative, seeded roster of misbehaving nodes plus a wire-corruption
/// rate for one packet-backend run. Like FaultPlan and TrafficSpec, an
/// inactive spec (the default) is contractually invisible: no roster is
/// drawn, no node changes role, the invariant monitor stays disarmed, the
/// medium draws no corruption randoms, and the run is byte-identical to a
/// run with no spec at all.
struct AdversarySpec {
  /// Misbehavior kinds, assigned round-robin over the drawn roster.
  std::vector<AdversaryKind> kinds;
  /// Roster size (`--adversaries=K@...`); ignored when `fraction` >= 0 or
  /// `nodes` names victims explicitly.
  std::size_t count = 0;
  /// Roster size as a fraction of the deployment (the `--axis=adversary`
  /// sweep value); < 0 defers to `count`. A positive fraction always
  /// corrupts at least one node.
  double fraction = -1.0;
  /// Explicit roster (tests, ad-hoc experiments); when non-empty no random
  /// draw happens and `count`/`fraction` are ignored.
  std::vector<NodeId> nodes;
  /// P(any individual frame delivery has 1-3 wire bits flipped), in
  /// [0, 1]. Corrupted frames are still delivered — the receiver's
  /// hardened parser decides their fate.
  double corrupt_rate = 0.0;

  bool roster_active() const {
    if (kinds.empty()) return false;
    if (!nodes.empty()) return true;
    return fraction >= 0.0 ? fraction > 0.0 : count > 0;
  }
  bool active() const { return roster_active() || corrupt_rate > 0.0; }

  /// Roster size for a deployment of `node_count` nodes.
  std::size_t roster_size(std::size_t node_count) const {
    if (!roster_active()) return 0;
    if (!nodes.empty()) return nodes.size() < node_count ? nodes.size()
                                                         : node_count;
    std::size_t k = count;
    if (fraction >= 0.0) {
      k = static_cast<std::size_t>(
          std::llround(fraction * static_cast<double>(node_count)));
      if (k == 0) k = 1;  // a positive fraction always fields an adversary
    }
    return k < node_count ? k : node_count;
  }
};

}  // namespace qolsr
