#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "proto/messages.hpp"
#include "util/rng.hpp"

namespace qolsr {

namespace {

/// Domain-separates the traffic stream (endpoint and arrival draws) from
/// the node RNGs, the loss stream and the fault-victim stream, all of
/// which derive from the same run seed.
constexpr std::uint64_t kTrafficStreamSalt = 0x94d049bb133111ebULL;

/// Random node with at least one link (bounded retries keep the draw count
/// deterministic-ish in expectation but the retry loop itself is fully
/// deterministic given the stream; an all-isolated graph gives up and
/// returns the last draw).
NodeId draw_attached_node(util::Rng& rng, const Graph& graph) {
  const auto n = static_cast<std::uint64_t>(graph.node_count());
  NodeId pick = 0;
  for (int attempt = 0; attempt < 16; ++attempt) {
    pick = static_cast<NodeId>(rng.uniform_int(n));
    if (graph.degree(pick) > 0) return pick;
  }
  return pick;
}

/// Random attached node different from `avoid` (same bounded-retry
/// discipline; degenerate single-node graphs return whatever was drawn).
NodeId draw_attached_node_except(util::Rng& rng, const Graph& graph,
                                 NodeId avoid) {
  NodeId pick = draw_attached_node(rng, graph);
  for (int attempt = 0; attempt < 16 && pick == avoid; ++attempt)
    pick = draw_attached_node(rng, graph);
  return pick;
}

/// The max-degree node, ties broken toward the lowest id — computed from
/// the ground truth alone, no RNG, so the gateway is the same for every
/// protocol of a run.
NodeId gateway_node(const Graph& graph) {
  NodeId best = 0;
  std::size_t best_degree = 0;
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    if (graph.degree(u) > best_degree) {
      best = u;
      best_degree = graph.degree(u);
    }
  }
  return best;
}

}  // namespace

TrafficMatrix TrafficMatrix::generate(const TrafficSpec& spec,
                                      const Graph& graph,
                                      std::uint64_t seed) {
  TrafficMatrix matrix;
  if (!spec.active() || graph.node_count() < 2) return matrix;

  util::Rng rng(seed ^ kTrafficStreamSalt);

  // ---- flow endpoints (drawn first, flow by flow, so the arrival draws
  // below land at stream positions independent of the pattern) ------------
  std::vector<NodeId> hot;
  switch (spec.pattern) {
    case TrafficSpec::Pattern::kHotspot: {
      const std::size_t want =
          std::min(std::max<std::size_t>(spec.hotspots, 1),
                   graph.node_count());
      while (hot.size() < want) {
        const NodeId h = draw_attached_node(rng, graph);
        if (std::find(hot.begin(), hot.end(), h) == hot.end())
          hot.push_back(h);
      }
      break;
    }
    case TrafficSpec::Pattern::kGateway:
      hot.push_back(gateway_node(graph));
      break;
    case TrafficSpec::Pattern::kUniform:
      break;
  }
  matrix.flows_.reserve(spec.flows);
  for (std::size_t f = 0; f < spec.flows; ++f) {
    Flow flow;
    if (hot.empty()) {
      flow.source = draw_attached_node(rng, graph);
      flow.destination = draw_attached_node_except(rng, graph, flow.source);
    } else {
      flow.destination = hot[f % hot.size()];
      flow.source = draw_attached_node_except(rng, graph, flow.destination);
    }
    matrix.flows_.push_back(flow);
  }

  // ---- arrival times (flow-major; payload ids in generation order) ------
  const double mean = 1.0 / (spec.packet_rate * spec.load);
  const double alpha = std::max(spec.pareto_shape, 1.05);
  // Pareto scale chosen so the mean inter-arrival matches the other
  // processes at the same load: E[X] = x_m * alpha / (alpha - 1).
  const double pareto_xm = mean * (alpha - 1.0) / alpha;
  std::uint32_t next_id = kFirstPayloadId;
  for (std::size_t f = 0; f < matrix.flows_.size(); ++f) {
    double t = 0.0;
    if (spec.arrival == TrafficSpec::Arrival::kCbr)
      t = rng.uniform01() * mean;  // per-flow phase; then a fixed interval
    while (t < spec.duration) {
      matrix.packets_.push_back(Packet{t, f, next_id++});
      switch (spec.arrival) {
        case TrafficSpec::Arrival::kPoisson:
          t += -mean * std::log(1.0 - rng.uniform01());
          break;
        case TrafficSpec::Arrival::kCbr:
          t += mean;
          break;
        case TrafficSpec::Arrival::kPareto:
          t += pareto_xm /
               std::pow(1.0 - rng.uniform01(), 1.0 / alpha);
          break;
        case TrafficSpec::Arrival::kNone:
          return matrix;  // unreachable: active() excluded it
      }
    }
  }
  std::sort(matrix.packets_.begin(), matrix.packets_.end(),
            [](const Packet& a, const Packet& b) {
              if (a.offset != b.offset) return a.offset < b.offset;
              return a.payload_id < b.payload_id;
            });
  return matrix;
}

void ContendedMedium::reset(const TrafficSpec* spec) {
  spec_ = spec;
  active_ = spec != nullptr && spec->active();
  busy_until_.clear();
}

double ContendedMedium::admit(NodeId from, NodeId to, const LinkQos* qos,
                              const std::vector<std::byte>& bytes,
                              double now) {
  const bool data = is_data_frame(bytes);
  const double frame_bytes = static_cast<double>(
      bytes.size() + (data ? spec_->packet_bytes : 0));

  const double scale = qos != nullptr && qos->bandwidth > 0.0
                           ? qos->bandwidth
                           : 1.0;
  const double capacity = spec_->link_capacity * scale;

  double& busy_until = busy_until_[directed_key(from, to)];
  const double backlog_bytes =
      std::max(0.0, busy_until - now) * capacity;
  if (backlog_bytes + frame_bytes >
      static_cast<double>(spec_->queue_bytes)) {
    trace_->frames_queue_dropped += 1;
    if (data) {
      // First drop reason wins, mirroring OlsrNode::drop_data — a packet
      // tail-dropped at its first congested hop stays a queue drop even
      // if a retransmitted duplicate later dies differently.
      const auto it =
          trace_->journeys.find(peek_data_payload_id(bytes));
      if (it != trace_->journeys.end() && !it->second.delivered &&
          it->second.drop == TraceStats::Journey::Drop::kNone)
        it->second.drop = TraceStats::Journey::Drop::kQueueDrop;
    }
    return -1.0;
  }
  busy_until = std::max(now, busy_until) + frame_bytes / capacity;
  return busy_until - now;
}

}  // namespace qolsr
