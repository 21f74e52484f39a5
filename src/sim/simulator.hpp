#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "sim/adversary.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariants.hpp"
#include "sim/lossy_medium.hpp"
#include "sim/medium.hpp"
#include "sim/mutation_clock.hpp"
#include "sim/olsr_node.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace qolsr {

/// One-hop propagation + processing latency of the ideal MAC, in seconds.
inline constexpr double kPropagationDelay = 0.001;

/// Simulation-wide configuration: every node's protocol timing and the run
/// seed.
struct SimConfig {
  ProtocolTiming node{};
  std::uint64_t seed = 1;
};

/// What run_to_convergence measured: when the protocol state last changed
/// (the *actual* convergence time the control-plane stats report) and
/// whether the dwell window confirmed quiescence before the hard cap.
struct ConvergenceReport {
  /// Exact timestamp of the final state-changing event (event-driven via
  /// the MutationClock — not rounded up to a sampling grid). Never earlier
  /// than the instant run_to_convergence was called: a window that
  /// observes no mutation reports "converged when asked", so timed
  /// re-convergence after a no-op incident is 0, not negative.
  SimTime converged_at = 0.0;
  SimTime end_time = 0.0;  ///< simulation clock when the run stopped
  bool converged = false;  ///< state held stable for the dwell window
};

/// Whole-network discrete-event simulation of the OLSR control plane over
/// an ideal MAC: the ground-truth topology is `graph` (positions define
/// radio range; link QoS is what nodes "measure"), every node runs the
/// plugged-in flooding + ANS selection heuristics, and data packets are
/// routed hop-by-hop with the QoS routing function.
///
/// This is the distributed counterpart of the oracle evaluation path: the
/// packet evaluation backend (eval/packet_runner.hpp) measures set sizes,
/// delivery and control-plane cost from the converged state, and
/// integration tests assert that, once converged, each node's neighbor
/// view, ANS and topology base equal the direct graph computations.
///
/// Batch use: default-construct once, then per run `reset(...)` +
/// `run_to_convergence()` — the node objects, queue and trace are reused
/// instead of being reallocated per run.
///
/// Faults never touch the ground truth: the graph is *borrowed* const (it
/// must outlive the simulator's use, i.e. stay alive until the next
/// reset), and everything adverse — Bernoulli frame loss, link flaps,
/// node crashes, partitions — lives in the LossyMedium overlay the nodes
/// transmit through. An optional FaultPlan (also borrowed) seeds the
/// ambient loss; discrete incidents are injected mid-run via `inject`.
class Simulator final : public Medium {
 public:
  /// An empty simulator (no nodes); bring it to life with `reset`.
  Simulator() : lossy_(*this, trace_), contended_(*this, trace_) {}

  Simulator(const Graph& graph, const AnsSelector& flooding_selector,
            const AnsSelector& ans_selector, OlsrNode::RouteFn route_fn,
            SimConfig config = {}, const FaultPlan* faults = nullptr,
            const AdversarySpec* adversaries = nullptr);
  /// The graph is borrowed — a temporary would dangle.
  Simulator(Graph&& graph, const AnsSelector& flooding_selector,
            const AnsSelector& ans_selector, OlsrNode::RouteFn route_fn,
            SimConfig config = {}, const FaultPlan* faults = nullptr,
            const AdversarySpec* adversaries = nullptr) = delete;

  /// The seed-driven batch-run entry point: rewinds the clock, drops every
  /// pending event and trace counter, installs the new ground truth and
  /// heuristics (and the run's fault plan, if any), and restarts every
  /// node. A reset simulator behaves identically to a freshly constructed
  /// one with `config.seed = seed`; node objects surviving from the
  /// previous run are reused.
  void reset(const Graph& graph, const AnsSelector& flooding_selector,
             const AnsSelector& ans_selector, OlsrNode::RouteFn route_fn,
             std::uint64_t seed, const FaultPlan* faults = nullptr,
             const TrafficSpec* traffic = nullptr,
             const AdversarySpec* adversaries = nullptr);
  void reset(Graph&& graph, const AnsSelector& flooding_selector,
             const AnsSelector& ans_selector, OlsrNode::RouteFn route_fn,
             std::uint64_t seed, const FaultPlan* faults = nullptr,
             const TrafficSpec* traffic = nullptr,
             const AdversarySpec* adversaries = nullptr) = delete;

  /// Advances the simulation clock.
  void run_until(SimTime horizon) { queue_.run_until(horizon); }

  /// Runs until no node has reported a state mutation for the
  /// config-derived dwell window (or the config-derived hard cap is hit).
  /// Event-driven and exact: nodes bump the network MutationClock at every
  /// digest-visible state change, so the detector waits on quiescence
  /// directly — no sampling grid — and `converged_at` is the precise
  /// timestamp of the last state-changing event.
  ConvergenceReport run_to_convergence();

  /// The network mutation clock (inspection: exact last-change time and
  /// the monotonic mutation count the convergence detector waits on).
  const MutationClock& mutations() const { return mutations_; }

  /// Failure injection: takes the radio link (u,v) down in the fault
  /// overlay (the ground-truth graph is untouched — it is borrowed const).
  /// HELLOs stop crossing it, so both ends' neighbor entries expire within
  /// the hold time and the control plane re-converges around the failure.
  /// Returns false when no such link exists or it is already down.
  bool fail_link(NodeId u, NodeId v);

  /// Applies one FaultIncident now: crashes nodes (their soft state is
  /// gone; sequence counters survive as "stable storage"), takes links
  /// down, or splits the network at the id-halves boundary. Random victims
  /// are drawn from the per-run fault RNG stream; a positive duration
  /// schedules the heal (restart / link up / merge) on the event queue.
  /// Callers measure re-convergence by timing run_to_convergence from the
  /// injection instant.
  void inject(const FaultIncident& incident);

  /// The fault overlay (inspection; tests assert on blocked/lost frames).
  const LossyMedium& faults() const { return lossy_; }

  /// The runtime invariant monitor — armed (and its counters meaningful)
  /// only when the run's AdversarySpec is active.
  const InvariantMonitor& monitor() const { return monitor_; }
  InvariantMonitor& monitor() { return monitor_; }
  /// This run's drawn adversary roster, ascending by node id; empty on an
  /// honest run.
  const std::vector<NodeId>& adversary_ids() const { return adversary_ids_; }
  bool is_adversary(NodeId id) const {
    return std::binary_search(adversary_ids_.begin(), adversary_ids_.end(),
                              id);
  }

  /// The capacity layer (inspection; tests assert on queue drops).
  const ContendedMedium& contention() const { return contended_; }
  /// Whether a traffic spec is loading the medium this run — when false,
  /// delivery takes the ideal-MAC fast path (and broadcast fan-outs may be
  /// batched into a single event, since per-leg admission is moot).
  bool contention_active() const { return contended_.active(); }

  OlsrNode& node(NodeId id) { return *nodes_[id]; }
  const OlsrNode& node(NodeId id) const { return *nodes_[id]; }
  const Graph& network() const { return *graph_; }
  const TraceStats& trace() const { return trace_; }
  /// The trace counters as of ConvergenceReport::converged_at — snapshotted
  /// by the MutationClock at the last state-changing event, so
  /// control-plane cost is measured over the same window for every
  /// protocol regardless of how long the quiescence dwell (or the hard
  /// cap) kept the simulation running afterwards. Scalar counters only;
  /// the journey map is not part of the snapshot (and is empty here).
  const TraceStats& trace_at_convergence() const {
    return trace_at_convergence_;
  }
  EventQueue& queue() { return queue_; }
  const SimConfig& config() const { return config_; }

  /// Fold of every node's protocol state (selections, link state, topology
  /// bases — no timers); equal digests across steps mean no node's
  /// converged-state snapshot changed.
  std::uint64_t state_digest() const;

  /// Schedules the delivery of one frame after the propagation delay —
  /// the ideal-MAC core the LossyMedium decorator forwards surviving
  /// frames to. With an active traffic spec the frame first passes the
  /// capacity layer's admission: it may be tail-dropped or delayed by the
  /// link's queue backlog on top of propagation.
  void deliver(NodeId from, NodeId to, SharedBytes bytes);

  /// Batched broadcast fan-out: one scheduled event delivering `bytes` to
  /// every receiver, instead of one event (and one std::function
  /// allocation) per leg. Only valid on the uncontended fast path — the
  /// legs share one delivery time — and ordering-equivalent to per-leg
  /// deliver calls because those would occupy contiguous sequence numbers
  /// at the same timestamp anyway. The event decodes the frame once and
  /// hands the result to each receiver in order (OlsrNode::on_frame), so
  /// a fan-out to k neighbors costs one parse, not k.
  void deliver_fanout(NodeId from, const std::vector<NodeId>& receivers,
                      SharedBytes bytes);

  // -- Medium (delegates through the fault layer, so direct use of the
  // simulator as a Medium sees the same lossy world the nodes do) --
  SimTime now() const override { return queue_.now(); }
  void schedule_in(SimTime delay, std::function<void()> callback) override {
    queue_.schedule_in(delay, std::move(callback));
  }
  void broadcast(NodeId from, SharedBytes bytes) override {
    lossy_.broadcast(from, std::move(bytes));
  }
  void unicast(NodeId from, NodeId to, SharedBytes bytes) override {
    lossy_.unicast(from, to, std::move(bytes));
  }
  const LinkQos* measured_qos(NodeId a, NodeId b) const override {
    return graph_->edge_qos(a, b);
  }
  std::size_t node_count() const override {
    return graph_ != nullptr ? graph_->node_count() : 0;
  }

 private:
  const Graph* graph_ = nullptr;  ///< borrowed; alive until the next reset
  SimConfig config_;
  EventQueue queue_;
  TraceStats trace_;
  TraceStats trace_at_convergence_;  ///< see trace_at_convergence()
  MutationClock mutations_;  ///< nodes report every state change here
  LossyMedium lossy_;           ///< the Medium the nodes transmit through
  ContendedMedium contended_;   ///< capacity layer under the fault layer
  util::Rng fault_rng_{1};      ///< victim draws for random incidents
  InvariantMonitor monitor_;    ///< armed only under an active AdversarySpec
  std::vector<NodeId> adversary_ids_;  ///< drawn roster, sorted
  OlsrNode::RouteFn route_fn_;  ///< shared by all nodes (they borrow it)
  /// Lent to every node for its selection recomputes: one bundle per
  /// simulator, since a node's recompute never overlaps another's.
  SelectionScratch selection_scratch_;
  std::vector<std::unique_ptr<OlsrNode>> nodes_;
};

}  // namespace qolsr
