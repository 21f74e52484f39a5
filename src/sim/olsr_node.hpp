#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/local_view.hpp"
#include "olsr/selection_workspace.hpp"
#include "olsr/selector.hpp"
#include "proto/duplicate_set.hpp"
#include "proto/messages.hpp"
#include "proto/neighbor_tables.hpp"
#include "proto/protocol_timing.hpp"
#include "proto/topology_base.hpp"
#include "routing/routing_table.hpp"
#include "sim/adversary.hpp"
#include "sim/invariants.hpp"
#include "sim/medium.hpp"
#include "sim/mutation_clock.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace qolsr {

/// The storage a node borrows to recompute its selections: the view
/// builder's input rows, the view it builds, the selectors' workspace and
/// the two output sets. Nothing in it outlives one recompute, so a
/// Simulator lends a single bundle to all of its nodes (the wire daemon
/// owns one for its one node), and a warm recompute allocates nothing.
struct SelectionScratch {
  LocalViewInput view_input;
  LocalView view;
  SelectionWorkspace workspace;
  std::vector<NodeId> flooding;
  std::vector<NodeId> ans;
};

/// One OLSR/QOLSR node: HELLO link sensing, the two selection roles
/// (flooding MPRs + advertised neighbor set), TC origination and
/// MPR-forwarding, topology base, and QoS data forwarding.
///
/// The selection heuristics are plugged in, so the same state machine runs
/// original OLSR (flooding set == ANS == RFC 3626 MPR), QOLSR (both ==
/// MPR-2), or the split designs where the RFC MPR set floods while
/// topology-filtering/FNBP pick what is advertised (paper §II–III).
class OlsrNode {
 public:
  /// Computes the QoS next hop toward a destination on a knowledge graph —
  /// bound to the metric by the simulator (e.g.
  /// compute_next_hop<BandwidthMetric>). Returns kInvalidNode when the
  /// destination is unreachable.
  using RouteFn = std::function<NodeId(const Graph&, NodeId, NodeId)>;

  /// The selectors, the route function and the selection scratch are
  /// borrowed, not copied — the Simulator owns them and outlives its
  /// nodes, and `reset` can rebind the heuristics without reconstructing
  /// the node. The deleted rvalue overloads keep a temporary RouteFn (e.g.
  /// a lambda literal converting to std::function at the call site) from
  /// silently dangling.
  OlsrNode(NodeId id, Medium& medium, TraceStats& trace,
           SelectionScratch& scratch, const AnsSelector& flooding_selector,
           const AnsSelector& ans_selector, const RouteFn& route_fn,
           const ProtocolTiming& config, std::uint64_t seed);
  OlsrNode(NodeId id, Medium& medium, TraceStats& trace,
           SelectionScratch& scratch, const AnsSelector& flooding_selector,
           const AnsSelector& ans_selector, RouteFn&& route_fn,
           const ProtocolTiming& config, std::uint64_t seed) = delete;

  /// Per-run reset of a reused node: forgets every table, rebinds the
  /// heuristics, and re-derives the RNG stream from `seed`. Construction
  /// runs it too, so a reset node is indistinguishable from a fresh one.
  /// Does not reschedule ticks; call `start` afterwards.
  void reset(const AnsSelector& flooding_selector,
             const AnsSelector& ans_selector, const RouteFn& route_fn,
             const ProtocolTiming& config, std::uint64_t seed);
  void reset(const AnsSelector& flooding_selector,
             const AnsSelector& ans_selector, RouteFn&& route_fn,
             const ProtocolTiming& config, std::uint64_t seed) = delete;

  /// Schedules the first HELLO and TC (with per-node jitter).
  void start();

  /// Crash-fault semantics (driven by Simulator::inject): a crashed node
  /// loses all protocol soft state — neighbor tables, topology base,
  /// duplicate set, selections — and goes silent; its timer wheel keeps
  /// ticking (drawing the same jitter stream, so a crash never perturbs
  /// the run's RNG sequencing) but every tick body and reception is
  /// skipped until restart. The message sequence counters survive, the
  /// RFC's "stable storage" assumption: a restarted node's first TC must
  /// not be rejected as stale by neighbors still holding its pre-crash
  /// ANSN and duplicate-set entries.
  void crash();
  void restart();
  bool alive() const { return alive_; }

  /// Wires the network-wide mutation clock (owned by the Simulator): every
  /// digest-visible state change of this node is reported the instant it
  /// happens. Nullptr (the default) disarms the reporting — standalone
  /// node tests pay nothing.
  void set_mutation_clock(MutationClock* clock) { mutations_ = clock; }

  /// Adversary wiring (driven by Simulator::reset when an AdversarySpec is
  /// active; reset() reverts both). A misbehaving node draws its lie
  /// parameters from a dedicated adversary-salted stream of the run seed —
  /// honest nodes' RNG streams are never perturbed, so an inactive spec
  /// stays byte-identical. The monitor pointer arms the runtime invariant
  /// checks; honest runs carry nullptr and pay nothing.
  void set_role(AdversaryKind role, std::uint64_t seed);
  AdversaryKind role() const { return role_; }
  void set_monitor(InvariantMonitor* monitor) { monitor_ = monitor; }

  /// MAC upcall for one frame addressed to or overheard by this node:
  /// decode, then on_frame. The single-receiver paths use it (a
  /// per-leg delivery, the wire daemon); a batched fan-out decodes once
  /// and calls on_frame per receiver instead.
  void on_receive(NodeId from, const std::vector<std::byte>& bytes);

  /// Parses `bytes` and sanitizes the result for a deployment of
  /// `node_count` dense ids; nullopt means malformed. A pure function of
  /// its arguments, so every receiver of one buffer gets the same answer.
  static std::optional<ParsedPacket> decode(
      const std::vector<std::byte>& bytes, std::size_t node_count);

  /// Handles one decoded frame: `packet` is decode's result for
  /// `bytes` (nullptr when it rejected them), and `bytes` stays readable
  /// for the call — a relay copies it instead of re-encoding the message.
  void on_frame(NodeId from, const ParsedPacket* packet,
                const std::vector<std::byte>& bytes);

  /// Injects one data packet to route toward `destination`.
  void send_data(NodeId destination, std::uint32_t payload_id);

  // -- Inspection (integration tests compare these against the oracle) --
  NodeId id() const { return id_; }
  const NeighborTables& tables() const { return tables_; }
  const TopologyBase& topology() const { return topology_; }
  const std::vector<NodeId>& flooding_mpr() const { return flooding_mpr_; }
  const std::vector<NodeId>& ans() const { return ans_; }
  /// Knowledge graph the node routes on: TC topology merged with its own
  /// HELLO-derived local view. Cached: the returned reference stays valid
  /// (and the rebuild is skipped) until the next protocol mutation — TC
  /// accept with changed content, neighbor-table change, soft-state
  /// expiry, crash/restart — so steady-state forwarding costs two
  /// comparisons per frame instead of a Graph materialization per frame.
  /// The reference is invalidated by any subsequent protocol event.
  const Graph& knowledge_graph();

  /// Folds the node's protocol state (selection results, link state,
  /// topology base — no timers) into a running digest. Equal across steps
  /// ⇔ the node's converged-state snapshot did not change; the Simulator's
  /// convergence detector compares the fold over all nodes.
  std::uint64_t state_digest(std::uint64_t h) const;

  /// Standalone digest of the node's *converged* protocol state for
  /// cross-process comparison: selection results, link state with QoS
  /// bits, neighbor advert tables, and the topology base with QoS — but
  /// no timers, no ANSN, no sequence counters, no duplicate-set history.
  /// On a loss-free medium the converged fixpoint is a pure function of
  /// (topology, selectors), so a wire daemon on real sockets and real
  /// timers folds to the same value as the in-process Simulator for the
  /// same deployment — the byte-for-byte equality `--backend=wire`
  /// asserts per node.
  std::uint64_t converged_digest() const;

 private:
  void hello_tick();
  void tc_tick();
  void topology_purge_tick();
  /// Ensures a purge event is pending whenever the topology base holds
  /// entries (the lazy-deletion timer: one pending event per node, fired
  /// at a past earliest-deadline, rescheduled at the then-current one).
  void schedule_topology_purge();
  /// Forgets every table, the selections and the knowledge cache — what
  /// both a reset and a crash lose. Sequence counters are the caller's.
  void wipe_soft_state();
  /// Reports one digest-visible state change to the network clock.
  void note_mutation();
  /// Applies what a neighbor-table mutation changed to the derived state:
  /// the mutation clock, the knowledge cache and the selections.
  void note_table_change(const NeighborTables::Outcome& changed);
  /// The same for an applied TC (our own or a neighbor's): the mutation
  /// clock, the knowledge cache and the purge timer.
  void note_tc_applied(const TopologyBase::TcOutcome& applied);
  /// Recomputes the flooding MPRs and the ANS from the local view, unless
  /// the view has not moved since the last recompute.
  void recompute_selection();
  void lie_in_tc(TcMessage& tc);
  void replay_captured_tc();
  std::vector<LinkAdvert> build_hello_links() const;
  void handle_hello(const HelloMessage& hello, NodeId from);
  void handle_tc(const PacketHeader& header, const TcMessage& tc,
                 NodeId from, const std::vector<std::byte>& bytes);
  void handle_data(PacketHeader header, const DataMessage& data);
  void forward_or_deliver(PacketHeader header, const DataMessage& data);
  /// Counts one dropped data packet and, unless an earlier drop of the
  /// same packet already set it, charges the journey's fate to `reason`.
  void drop_data(std::uint32_t payload_id, TraceStats::Journey::Drop reason);

  NodeId id_;
  Medium& medium_;
  TraceStats& trace_;
  SelectionScratch* scratch_;
  const AnsSelector* flooding_selector_;
  const AnsSelector* ans_selector_;
  const RouteFn* route_fn_;
  ProtocolTiming config_;
  util::Rng rng_;

  NeighborTables tables_;
  TopologyBase topology_;
  DuplicateSet duplicates_;
  std::vector<NodeId> flooding_mpr_;
  std::vector<NodeId> ans_;
  std::uint16_t ansn_ = 0;
  std::vector<NodeId> last_advertised_;
  std::uint16_t next_sequence_ = 0;
  bool alive_ = true;  ///< false between crash() and restart()
  /// flooding_mpr_ and ans_ are the selections of the current local view:
  /// cleared by every neighbor-table change that moves the view, and by
  /// crash, restart and reset.
  bool selection_valid_ = false;
  MutationClock* mutations_ = nullptr;  ///< network clock; may be null

  // ---- cached knowledge view (see knowledge_graph) ----------------------
  Graph knowledge_;              ///< reusable storage, rebuilt on demand
  bool knowledge_valid_ = false;
  /// Per-destination next-hop memo over knowledge_: entry `kRouteNotCached`
  /// means "not computed this epoch"; anything else (including
  /// kInvalidNode = no route) is the memoized result of route_fn_ on the
  /// current cached view. Reset whenever knowledge_ is rebuilt, so a hit is
  /// byte-identical to re-invoking the route function — forwarding a flow
  /// of packets costs one route computation per (epoch, destination)
  /// instead of one full Dijkstra per traversed hop.
  std::vector<NodeId> route_cache_;
  /// Earliest hold-time deadline among the topology entries baked into
  /// knowledge_: past it the cached view could include an entry the
  /// validity-aware read would exclude, so the next query rebuilds.
  double knowledge_fresh_until_ = 0.0;
  /// Whether a topology purge event is pending on the event queue. Events
  /// cannot be cancelled, so this stays true until the event fires; the
  /// simulator clears the queue before reset, which resets it.
  bool purge_pending_ = false;

  // ---- adversary state (inert while role_ == kHonest) -------------------
  AdversaryKind role_ = AdversaryKind::kHonest;
  InvariantMonitor* monitor_ = nullptr;
  util::Rng adv_rng_{1};  ///< lie parameters; a stream honest nodes never use
  std::vector<NodeId> phantom_targets_;  ///< liar: stable fabricated links
  bool phantoms_drawn_ = false;
  bool captured_valid_ = false;  ///< replayer: holds a foreign TC to re-emit
  PacketHeader captured_header_;
  TcMessage captured_tc_;
  std::uint16_t replay_count_ = 0;
};

}  // namespace qolsr
