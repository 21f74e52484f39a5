#pragma once

#include <map>
#include <vector>

#include "graph/local_view.hpp"
#include "graph/node_id.hpp"
#include "proto/messages.hpp"

namespace qolsr {

/// Caller-owned storage for NeighborTables::build_local_view: the builder
/// and its HELLO-form input rows (u's symmetric links, then each
/// neighbor's advertised links), reused build after build so that a warm
/// rebuild allocates nothing, whichever node's tables it reads.
struct LocalViewInput {
  LocalViewBuilder builder;
  std::vector<LocalView::NeighborLink> one_hop;
  std::vector<std::vector<LocalView::NeighborLink>> neighbor_links;
  /// Rows past the current neighborhood, kept with their capacity. The
  /// last row parked is the first handed back, so each row slot always
  /// gets its own buffer back.
  std::vector<std::vector<LocalView::NeighborLink>> parked;
};

/// HELLO-derived neighbor state of one node: the link set (with the RFC
/// 3626 two-way handshake), each symmetric neighbor's own advertised link
/// table (giving the 2-hop view), and who selected us as MPR.
///
/// Timers are simulated seconds; an entry not refreshed within `hold_time`
/// vanishes, so a dead link heals out of the tables automatically.
class NeighborTables {
 public:
  explicit NeighborTables(NodeId self, double hold_time = 6.0)
      : self_(self), hold_time_(hold_time) {}

  /// What a mutation (on_hello / expire) changed — the two facets derived
  /// state cares about: `digest_changed` means the fold `digest` computes
  /// is different (an entry appeared/vanished, a sym bit or MPR-selector
  /// bit flipped), i.e. the convergence detector must see a state change;
  /// `view_changed` means the node's own symmetric-link contribution to
  /// its knowledge graph (symmetric neighbor set or a symmetric link's
  /// QoS) is different, i.e. a cached routing view must be invalidated.
  /// Timer refreshes that alter neither report {false, false}.
  struct Outcome {
    bool digest_changed = false;
    bool view_changed = false;
  };

  /// Processes a received HELLO. `qos` is the measured QoS of the link the
  /// HELLO arrived on (link measurement is out of the paper's scope; the
  /// simulator supplies the ground-truth value).
  Outcome on_hello(const HelloMessage& hello, const LinkQos& qos, double now);

  /// Drops expired links / neighbor tables / selector entries.
  Outcome expire(double now);

  /// Forgets every neighbor — the per-run reset of a reused protocol stack.
  void clear() { links_.clear(); }

  /// Folds the link-state that selection depends on — symmetric neighbor
  /// ids and who selected us as MPR — into a running state digest. Hold
  /// timers are excluded so periodic HELLO refreshes don't read as change
  /// (see Simulator::run_to_convergence).
  std::uint64_t digest(std::uint64_t h) const;

  /// The cross-process comparison fold: everything `digest` covers *plus*
  /// the measured link QoS (exact IEEE bits) and each neighbor's
  /// advertised link table — but still no timers, sequence numbers or any
  /// other history of how the state was reached. The converged link state
  /// on a loss-free medium is a pure function of (topology, selectors),
  /// so a wall-clock wire daemon and the discrete-event Simulator fold to
  /// the *same* value here even though their schedules (and hold-time
  /// deadlines) differ — the equality the wire backend asserts.
  std::uint64_t converged_digest(std::uint64_t h) const;

  /// Symmetric neighbors, ascending id.
  std::vector<NodeId> symmetric_neighbors() const;

  /// Visits every symmetric neighbor as (id, qos), ascending id — the
  /// allocation-free counterpart of symmetric_neighbors() + link_qos()
  /// used by the cached knowledge-graph rebuild.
  template <typename Fn>
  void for_each_symmetric(Fn&& fn) const {
    for (const auto& [id, entry] : links_)
      if (entry.sym_until >= 0.0) fn(id, entry.qos);
  }

  /// Every neighbor with a live (possibly still asymmetric) link entry,
  /// ascending id — what a HELLO must list for the two-way handshake.
  std::vector<NodeId> heard_neighbors() const;

  /// True when `neighbor` advertises us as its MPR — i.e. we must forward
  /// its floods (and it belongs to our MPR-selector set).
  bool selected_us_as_mpr(NodeId neighbor) const;

  /// True when the two-way handshake with `neighbor` completed.
  bool is_symmetric(NodeId neighbor) const;

  /// QoS of the (symmetric) link to `neighbor`; nullptr when unknown.
  const LinkQos* link_qos(NodeId neighbor) const;

  /// Nodes that advertise us as their MPR (our MPR-selector set — what
  /// original OLSR would advertise in TCs).
  std::vector<NodeId> mpr_selectors() const;

  /// Builds the local view G_self from the HELLO state into `out`: our
  /// symmetric links plus every symmetric neighbor's advertised links.
  /// All storage comes from `input` and `out`.
  void build_local_view(LocalViewInput& input, LocalView& out) const;
  /// Allocating convenience form of the above.
  LocalView build_local_view() const;

 private:
  struct LinkEntry {
    LinkQos qos;
    double sym_until = -1.0;   ///< symmetric while now < sym_until
    double asym_until = -1.0;  ///< heard-from while now < asym_until
    bool selected_us_mpr = false;
    std::vector<LinkAdvert> advertised;  ///< neighbor's own link table
  };

  NodeId self_;
  double hold_time_;
  std::map<NodeId, LinkEntry> links_;  // ordered => deterministic iteration
};

}  // namespace qolsr
