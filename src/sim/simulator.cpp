#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/digest.hpp"

namespace qolsr {

namespace {
/// Domain-separates the incident-victim stream from the node RNGs and the
/// LossyMedium's loss stream (all derive from the same run seed).
constexpr std::uint64_t kFaultStreamSalt = 0xc2b2ae3d27d4eb4fULL;
/// The adversary roster draw: its own stream, touched only when an
/// AdversarySpec is active — an honest run draws nothing from it.
constexpr std::uint64_t kAdversaryStreamSalt = 0xbb67ae8584caa73bULL;
}  // namespace

Simulator::Simulator(const Graph& graph, const AnsSelector& flooding_selector,
                     const AnsSelector& ans_selector,
                     OlsrNode::RouteFn route_fn, SimConfig config,
                     const FaultPlan* faults, const AdversarySpec* adversaries)
    : config_(config), lossy_(*this, trace_), contended_(*this, trace_) {
  reset(graph, flooding_selector, ans_selector, std::move(route_fn),
        config.seed, faults, nullptr, adversaries);
}

void Simulator::reset(const Graph& graph,
                      const AnsSelector& flooding_selector,
                      const AnsSelector& ans_selector,
                      OlsrNode::RouteFn route_fn, std::uint64_t seed,
                      const FaultPlan* faults, const TrafficSpec* traffic,
                      const AdversarySpec* adversaries) {
  // The queued callbacks capture node pointers from the previous run; drop
  // them before touching the node vector.
  queue_.reset();
  graph_ = &graph;
  config_.seed = seed;
  trace_ = TraceStats{};
  trace_at_convergence_ = TraceStats{};
  mutations_.bind(&trace_);
  mutations_.reset(0.0);
  const bool adversarial = adversaries != nullptr && adversaries->active();
  lossy_.reset(faults, seed, adversarial ? adversaries->corrupt_rate : 0.0);
  contended_.reset(traffic);
  fault_rng_ = util::Rng(seed ^ kFaultStreamSalt);
  monitor_.reset();
  adversary_ids_.clear();
  route_fn_ = std::move(route_fn);

  const std::size_t n = graph.node_count();
  if (nodes_.size() > n) nodes_.resize(n);
  for (std::size_t id = 0; id < nodes_.size(); ++id)
    nodes_[id]->reset(flooding_selector, ans_selector, route_fn_,
                      config_.node, seed);
  nodes_.reserve(n);
  while (nodes_.size() < n)
    nodes_.push_back(std::make_unique<OlsrNode>(
        static_cast<NodeId>(nodes_.size()), lossy_, trace_, selection_scratch_,
        flooding_selector, ans_selector, route_fn_, config_.node, seed));
  for (auto& node : nodes_) node->set_mutation_clock(&mutations_);

  if (adversarial) {
    // Roster draw from a dedicated salted stream: replayable from the run
    // seed alone, identical for every protocol of the run and for every
    // thread count, and invisible to the honest RNG domains.
    std::vector<NodeId> roster = adversaries->nodes;
    const std::size_t want = adversaries->roster_size(n);
    if (roster.empty() && want > 0) {
      util::Rng roster_rng(seed ^ kAdversaryStreamSalt);
      std::vector<NodeId> pool(n);
      for (NodeId id = 0; id < n; ++id) pool[id] = id;
      // Partial Fisher–Yates: distinct victims, one draw per victim.
      for (std::size_t i = 0; i < want; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(roster_rng.uniform_int(n - i));
        std::swap(pool[i], pool[j]);
        roster.push_back(pool[i]);
      }
    }
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (roster[i] >= n) continue;
      nodes_[roster[i]]->set_role(
          adversaries->kinds.empty()
              ? AdversaryKind::kHonest
              : adversaries->kinds[i % adversaries->kinds.size()],
          seed);
      adversary_ids_.push_back(roster[i]);
    }
    std::sort(adversary_ids_.begin(), adversary_ids_.end());
    for (auto& node : nodes_) node->set_monitor(&monitor_);
  }

  for (auto& node : nodes_) node->start();
}

ConvergenceReport Simulator::run_to_convergence() {
  // The dwell is ProtocolTiming::convergence_dwell(), the same window the
  // wire harness uses to declare a wall-clock run quiescent, so both
  // backends share one definition of "settled".
  const double dwell = config_.node.convergence_dwell();
  // The cap is a *budget from now*, not an absolute clock value: a second
  // call — measuring re-convergence after an injected fault — gets the
  // same observation window as the first.
  const double deadline = now() + config_.node.max_horizon();

  // Anchor the clock at this call: a window that observes no further
  // mutation converged *when asked*, never at a change that predates it
  // (timed re-convergence after a no-op incident must be 0, not negative).
  if (mutations_.last_at() < now()) mutations_.rebase(now());

  // Event-driven quiescence: chase `last mutation + dwell`. Every chunk
  // either reaches the current settle point (no mutation happened inside
  // it — the network is quiescent) or a node moved the goalpost while it
  // ran; no digest polling, no sampling grid.
  while (now() < deadline) {
    const double settled_at = mutations_.last_at() + dwell;
    if (now() >= settled_at) break;
    run_until(std::min(settled_at, deadline));
  }

  ConvergenceReport report;
  report.converged_at = mutations_.last_at();
  report.end_time = now();
  // Same float expression the loop chased (converged_at + dwell), so the
  // quiescent exit always classifies as converged.
  report.converged = report.end_time >= report.converged_at + dwell;
  copy_counters(trace_at_convergence_, mutations_.counters_at_last());
  return report;
}

std::uint64_t Simulator::state_digest() const {
  std::uint64_t h = util::kDigestSeed;
  for (const auto& node : nodes_) h = node->state_digest(h);
  return h;
}

bool Simulator::fail_link(NodeId u, NodeId v) {
  if (graph_ == nullptr || !graph_->has_edge(u, v) || lossy_.link_down(u, v))
    return false;
  lossy_.set_link_down(u, v, true);
  return true;
}

void Simulator::inject(const FaultIncident& incident) {
  switch (incident.kind) {
    case FaultIncident::Kind::kNodeCrash: {
      std::vector<NodeId> victims;
      if (incident.node != kInvalidNode) {
        if (incident.node < nodes_.size()) victims.push_back(incident.node);
      } else {
        // Partial Fisher–Yates over the currently-alive nodes: distinct
        // victims, bounded work, one RNG draw per victim.
        std::vector<NodeId> alive;
        for (NodeId u = 0; u < nodes_.size(); ++u)
          if (!lossy_.node_down(u)) alive.push_back(u);
        const std::size_t want = std::min(incident.count, alive.size());
        for (std::size_t i = 0; i < want; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(
                      fault_rng_.uniform_int(alive.size() - i));
          std::swap(alive[i], alive[j]);
          victims.push_back(alive[i]);
        }
      }
      for (NodeId v : victims) {
        lossy_.set_node_down(v, true);
        nodes_[v]->crash();
      }
      if (incident.duration > 0.0 && !victims.empty())
        queue_.schedule_in(incident.duration, [this, victims] {
          for (NodeId v : victims) {
            lossy_.set_node_down(v, false);
            nodes_[v]->restart();
          }
        });
      break;
    }
    case FaultIncident::Kind::kLinkFlap: {
      std::vector<std::pair<NodeId, NodeId>> victims;
      if (incident.link_u != kInvalidNode && incident.link_v != kInvalidNode) {
        if (graph_->has_edge(incident.link_u, incident.link_v) &&
            !lossy_.link_down(incident.link_u, incident.link_v))
          victims.emplace_back(incident.link_u, incident.link_v);
      } else {
        std::vector<std::pair<NodeId, NodeId>> up;
        for (NodeId u = 0; u < graph_->node_count(); ++u)
          for (const Edge& e : graph_->neighbors(u))
            if (u < e.to && !lossy_.link_down(u, e.to))
              up.emplace_back(u, e.to);
        const std::size_t want = std::min(incident.count, up.size());
        for (std::size_t i = 0; i < want; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(
                      fault_rng_.uniform_int(up.size() - i));
          std::swap(up[i], up[j]);
          victims.push_back(up[i]);
        }
      }
      for (const auto& [u, v] : victims) lossy_.set_link_down(u, v, true);
      if (incident.duration > 0.0 && !victims.empty())
        queue_.schedule_in(incident.duration, [this, victims] {
          for (const auto& [u, v] : victims) lossy_.set_link_down(u, v, false);
        });
      break;
    }
    case FaultIncident::Kind::kPartition: {
      lossy_.add_partition(1);
      if (incident.duration > 0.0)
        queue_.schedule_in(incident.duration,
                           [this] { lossy_.add_partition(-1); });
      break;
    }
  }
}

void Simulator::deliver(NodeId from, NodeId to, SharedBytes bytes) {
  // Ideal MAC: the receiver gets the same intact buffer after the
  // propagation delay — one immutable allocation shared across a whole
  // broadcast fan-out, never a per-neighbor copy.
  double delay = kPropagationDelay;
  if (contended_.active()) {
    const double queued = contended_.admit(from, to, *bytes, now());
    if (queued < 0.0) return;  // tail-dropped at the link queue
    delay += queued;
  }
  queue_.schedule_in(delay, [this, from, to, bytes = std::move(bytes)] {
    nodes_[to]->on_receive(from, *bytes);
  });
}

void Simulator::deliver_fanout(NodeId from,
                               const std::vector<NodeId>& receivers,
                               SharedBytes bytes) {
  if (receivers.empty()) return;
  queue_.schedule_in(kPropagationDelay,
                     [this, from, receivers, bytes = std::move(bytes)] {
                       // One decode for the whole fan-out: it is a pure
                       // function of the shared bytes and the deployment
                       // size, so each receiver would compute the same.
                       const auto packet =
                           OlsrNode::decode(*bytes, node_count());
                       const ParsedPacket* frame =
                           packet.has_value() ? &*packet : nullptr;
                       for (const NodeId to : receivers)
                         nodes_[to]->on_frame(from, frame, *bytes);
                     });
}

}  // namespace qolsr
