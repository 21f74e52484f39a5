#include "net/node_daemon.hpp"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include <poll.h>

#include "metrics/metric_id.hpp"
#include "net/socket.hpp"
#include "net/wire_format.hpp"
#include "olsr/selector_registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/medium.hpp"
#include "sim/mutation_clock.hpp"
#include "sim/olsr_node.hpp"
#include "sim/trace.hpp"

namespace qolsr::net {

namespace {

/// The wall-clock side of the Scheduler seam: the Medium a daemon's
/// OlsrNode runs against. `now()` is seconds since construction on the
/// monotonic clock; `schedule_in` arms a timer in the daemon's event
/// queue (served between socket polls); broadcast/unicast wrap the serialized
/// OLSR packet in a wire frame and hand it to the switch. The protocol
/// code is byte-identical to what the Simulator runs — only the clock and
/// the transport changed underneath it.
class WireMedium final : public Medium {
 public:
  WireMedium(Fd& sock, const NodeSetup& setup)
      : sock_(sock), setup_(setup), start_(monotonic_now()) {
    for (const NodeSetup::Neighbor& n : setup.neighbors)
      neighbor_qos_[n.id] = n.qos;
  }

  SimTime now() const override { return monotonic_now() - start_; }

  void schedule_in(SimTime delay, std::function<void()> callback) override {
    timers_.schedule_at(now() + delay, std::move(callback));
  }

  void broadcast(NodeId from, SharedBytes bytes) override {
    send_packet(from, kBroadcastDest, *bytes);
  }

  void unicast(NodeId from, NodeId to, SharedBytes bytes) override {
    send_packet(from, to, *bytes);
  }

  const LinkQos* measured_qos(NodeId a, NodeId b) const override {
    // The daemon only knows its own radio links (the harness supplies the
    // ground truth, exactly like the Simulator hands nodes true values).
    const NodeId peer = a == setup_.id ? b : (b == setup_.id ? a : kInvalidNode);
    const auto it = neighbor_qos_.find(peer);
    return it == neighbor_qos_.end() ? nullptr : &it->second;
  }

  std::size_t node_count() const override { return setup_.node_count; }

  /// Seconds until the earliest pending timer (nullopt when none).
  std::optional<double> until_next_timer() const {
    if (timers_.empty()) return std::nullopt;
    return timers_.next_time() - now();
  }

  /// Fires every timer due by now, in deadline order (FIFO among equal
  /// deadlines). A callback that re-arms itself (every protocol tick
  /// does) runs again only on a later pass.
  void fire_due() { timers_.run_until(now()); }

 private:
  void send_packet(NodeId from, NodeId dest,
                   const std::vector<std::byte>& payload) {
    Frame f;
    f.kind = kKindPacket;
    f.sender = from;
    f.dest = dest;
    f.payload = payload;
    send_datagram(sock_, encode_frame(f));
  }

  Fd& sock_;
  const NodeSetup setup_;
  double start_;
  std::map<NodeId, LinkQos> neighbor_qos_;
  EventQueue timers_;
};

void send_control(Fd& sock, NodeId self, NodeId dest,
                  std::vector<std::byte> payload) {
  Frame f;
  f.kind = kKindControl;
  f.sender = self;
  f.dest = dest;
  f.payload = std::move(payload);
  send_datagram(sock, encode_frame(f));
}

}  // namespace

int run_node_daemon(const std::string& path, NodeId id) {
  Fd sock = connect_unix(path);
  if (!sock.valid()) return 1;

  {
    Frame reg;
    reg.kind = kKindRegister;
    reg.sender = id;
    reg.dest = kSwitchDest;
    if (!send_datagram(sock, encode_frame(reg))) return 1;
  }
  // Announce right behind the Register frame: the switch routes a plug's
  // frames in order, so by the time the harness sees this the plug is
  // addressable and the Configure it sends back cannot be lost.
  send_control(sock, id, kControllerId, encode_control(ControlOp::kAnnounce));

  // Phase 1: blocking wait for the harness's Configure.
  RecvBuffer rx;
  NodeSetup setup;
  for (;;) {
    const auto datagram = recv_datagram(sock, rx);
    if (!datagram.has_value()) return 1;  // switch died before config
    const auto frame = decode_frame(*datagram);
    if (!frame.has_value() || frame->kind != kKindControl) continue;
    if (peek_control_op(frame->payload) == ControlOp::kShutdown) return 0;
    if (const auto s = decode_configure(frame->payload)) {
      setup = *s;
      break;
    }
  }
  if (setup.id != id) return 1;

  // Resolve the protocol through the same registry calls the packet
  // backend uses; unknown names are a config error, not a crash.
  const auto& registry = SelectorRegistry::builtin();
  if (!registry.contains(setup.protocol)) return 1;
  const auto metric = static_cast<MetricId>(setup.metric);
  const auto ans_selector = registry.create(setup.protocol, metric);
  const auto flooding_selector =
      registry.create_flooding(setup.protocol, metric);

  WireMedium medium(sock, setup);
  TraceStats trace;
  MutationClock mutations;
  mutations.bind(&trace);
  mutations.reset(medium.now());
  // Data forwarding is not exercised over the wire (the equivalence run
  // converges the control plane only), so the route hook is inert.
  const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
    return kInvalidNode;
  };
  SelectionScratch scratch;
  OlsrNode node(id, medium, trace, scratch, *flooding_selector,
                *ans_selector, no_routes, setup.timing, setup.seed);
  node.set_mutation_clock(&mutations);

  send_control(sock, id, kControllerId, encode_control(ControlOp::kReady));

  // Phase 2: the real-time event loop — timers and frames, one thread.
  // Reads go nonblocking (drained between timer deadlines); writes keep
  // effectively-blocking semantics via send_datagram's POLLOUT wait.
  set_nonblocking(sock);
  std::vector<std::byte> datagram;
  for (;;) {
    medium.fire_due();
    const auto wait = medium.until_next_timer();
    pollfd pfd{sock.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait ? poll_timeout_ms(*wait) : -1);
    if (rc < 0) continue;  // EINTR
    if (rc == 0) continue;  // timer due; top of loop fires it

    for (;;) {
      const RecvStatus st = try_recv_datagram(sock, rx, datagram);
      if (st == RecvStatus::kWouldBlock) break;
      if (st == RecvStatus::kClosed) return 1;  // switch vanished
      const auto frame = decode_frame(datagram);
      if (!frame.has_value()) continue;

      if (frame->kind == kKindPacket) {
        node.on_receive(frame->sender, frame->payload);
        continue;
      }
      if (frame->kind != kKindControl) continue;
      switch (peek_control_op(frame->payload)) {
        case ControlOp::kStart:
          node.start();
          break;
        case ControlOp::kStatusReq: {
          const auto round = decode_status_req(frame->payload);
          if (!round.has_value()) break;
          StatusReport report;
          report.round = *round;
          report.last_mutation = mutations.last_at();
          report.quiet_for = medium.now() - mutations.last_at();
          report.digest = node.converged_digest();
          report.ans_size = static_cast<std::uint16_t>(node.ans().size());
          send_control(sock, id, kControllerId, encode_status(report));
          break;
        }
        case ControlOp::kShutdown:
          return 0;
        default:
          break;
      }
    }
  }
}

}  // namespace qolsr::net
