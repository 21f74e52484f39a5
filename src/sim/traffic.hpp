#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/node_id.hpp"
#include "sim/trace.hpp"
#include "util/names.hpp"

namespace qolsr {

/// Declarative, seeded traffic workload for one packet-backend run: a set
/// of concurrent flows whose data packets are injected into the converged
/// network, contending for per-link capacity in the ContendedMedium below.
/// An inactive spec (the default) is contractually invisible: no random
/// numbers are drawn, the capacity layer takes the pass-through fast path,
/// and the run is byte-identical to a run with no spec at all — the same
/// contract the FaultPlan already honors.
struct TrafficSpec {
  /// Inter-arrival process of each flow's packets.
  enum class Arrival : std::uint8_t {
    kNone,    ///< no traffic (the spec is inactive)
    kPoisson, ///< exponential inter-arrivals (memoryless)
    kCbr,     ///< constant bit rate: fixed interval, random per-flow phase
    kPareto,  ///< heavy-tailed inter-arrivals (bursty; shape > 1)
  };
  /// How flow endpoints are placed on the network.
  enum class Pattern : std::uint8_t {
    kUniform,  ///< independent random connected source/destination pairs
    kHotspot,  ///< many sources converge on a few hot destinations
    kGateway,  ///< every flow sinks at the max-degree node (Internet gateway)
  };

  Arrival arrival = Arrival::kNone;
  Pattern pattern = Pattern::kUniform;
  /// Number of concurrent flows.
  std::size_t flows = 16;
  /// Offered-load multiplier — the sweep axis. Per-flow packet rate is
  /// `packet_rate * load`; 0 makes the spec inactive (CLI `--load=0` must
  /// be indistinguishable from passing no traffic flags at all).
  double load = 1.0;
  /// Packets per second per flow at load 1.0.
  double packet_rate = 20.0;
  /// Seconds of traffic generated after convergence.
  double duration = 10.0;
  /// Pareto shape alpha (> 1 so the mean inter-arrival exists); smaller is
  /// heavier-tailed.
  double pareto_shape = 1.5;
  /// Modeled payload bytes per data packet. The wire frame stays the
  /// 21-byte header+addresses (what the nodes serialize); the capacity
  /// layer adds this on top for data frames only, so a data packet loads
  /// a link like a real payload would.
  std::size_t packet_bytes = 512;
  /// Per-link capacity in bytes/second at bandwidth QoS 1.0; a link's
  /// actual capacity scales with its bandwidth annotation, which is what
  /// lets bandwidth-aware ANS selection win under load.
  double link_capacity = 20000.0;
  /// Per-directed-link FIFO queue bound in bytes; the backlog beyond it is
  /// tail-dropped (Journey::Drop::kQueueDrop).
  std::size_t queue_bytes = 16384;
  /// Hot destinations for Pattern::kHotspot.
  std::size_t hotspots = 2;

  bool active() const {
    return arrival != Arrival::kNone && flows > 0 && load > 0.0 &&
           packet_rate > 0.0 && duration > 0.0;
  }
};

/// The `--traffic` arrival process names.
inline constexpr util::Named<TrafficSpec::Arrival> kTrafficArrivals[] = {
    {TrafficSpec::Arrival::kNone, "none"},
    {TrafficSpec::Arrival::kPoisson, "poisson"},
    {TrafficSpec::Arrival::kCbr, "cbr"},
    {TrafficSpec::Arrival::kPareto, "pareto"},
};

/// The `--pattern` endpoint pattern names.
inline constexpr util::Named<TrafficSpec::Pattern> kTrafficPatterns[] = {
    {TrafficSpec::Pattern::kUniform, "uniform"},
    {TrafficSpec::Pattern::kHotspot, "hotspot"},
    {TrafficSpec::Pattern::kGateway, "gateway"},
};

/// The materialized workload of one run: flow endpoints plus every data
/// packet's send offset, generated up front from a dedicated seeded RNG
/// stream so the schedule replays identically for every protocol of a run
/// and for every thread count.
class TrafficMatrix {
 public:
  /// Data payload ids start here — disjoint from the probe phase's small
  /// consecutive ids, so journeys from the two phases never collide in the
  /// trace's journey map.
  static constexpr std::uint32_t kFirstPayloadId = 0x01000000;

  struct Flow {
    NodeId source = kInvalidNode;
    NodeId destination = kInvalidNode;
  };
  struct Packet {
    double offset = 0.0;  ///< seconds after traffic start
    std::size_t flow = 0;
    std::uint32_t payload_id = 0;
  };

  /// Draws endpoints and arrival times for `spec` over `graph` from a
  /// traffic-salted RNG stream derived from `seed` (the run seed). An
  /// inactive spec yields an empty matrix and draws nothing. Packets come
  /// out sorted by (offset, payload id) — the injection order.
  static TrafficMatrix generate(const TrafficSpec& spec, const Graph& graph,
                                std::uint64_t seed);

  const std::vector<Flow>& flows() const { return flows_; }
  const std::vector<Packet>& packets() const { return packets_; }
  bool empty() const { return packets_.empty(); }

 private:
  std::vector<Flow> flows_;
  std::vector<Packet> packets_;
};

/// The capacity layer of the packet backend: each directed link's FIFO
/// queue, drained at finite capacity. Simulator::deliver admits every leg
/// through it while a traffic spec is active, after the fault overlay let
/// the leg pass:
///
///   - the link's virtual clock `busy_until` says when its queue drains;
///     the backlog implied by it is `(busy_until - now) * capacity` bytes;
///   - a frame that would push the backlog past `queue_bytes` is
///     tail-dropped (trace.frames_queue_dropped; data packets get their
///     journey marked Drop::kQueueDrop);
///   - an admitted frame extends the virtual clock by its serialization
///     time `bytes / capacity` and is delivered when the clock says the
///     link got to it — FIFO order is preserved because `busy_until` is
///     monotone per link.
///
/// Capacity is `spec.link_capacity` scaled by the link's bandwidth QoS, so
/// links a bandwidth-aware selector prefers really do carry more. Control
/// frames contend too (a congested link delays HELLOs just as it delays
/// data) but carry only their wire bytes; data frames add the modeled
/// payload. The model draws no random numbers, and when no spec is active
/// nothing is admitted through it — contractually invisible.
class ContendedMedium {
 public:
  explicit ContendedMedium(TraceStats& trace) : trace_(&trace) {}

  /// Per-run (re)configuration: binds the spec (nullptr = uncontended) and
  /// clears every link's virtual clock. The spec is borrowed and must stay
  /// alive until the next reset.
  void reset(const TrafficSpec* spec);

  bool active() const { return active_; }

  /// Admission decision for one frame delivery on the directed link
  /// (from, to), whose ground-truth QoS is `qos`, at time `now`: the extra
  /// queueing delay in seconds to add on top of propagation (0 on an idle
  /// link), or a negative value when the frame is tail-dropped. Mutates
  /// the link's virtual clock and the trace counters; the caller must
  /// honor the verdict.
  double admit(NodeId from, NodeId to, const LinkQos* qos,
               const std::vector<std::byte>& bytes, double now);

 private:
  static std::uint64_t directed_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  TraceStats* trace_;
  const TrafficSpec* spec_ = nullptr;
  bool active_ = false;
  /// Virtual clock per directed link: the time its FIFO queue drains.
  std::unordered_map<std::uint64_t, double> busy_until_;
};

}  // namespace qolsr
