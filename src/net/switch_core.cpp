#include "net/switch_core.hpp"

#include <algorithm>

namespace qolsr::net {

std::size_t SwitchCore::add_port() {
  ports_.emplace_back();
  ports_.back().live = true;
  return ports_.size() - 1;
}

void SwitchCore::remove_port(std::size_t port) {
  if (port >= ports_.size() || !ports_[port].live) return;
  if (ports_[port].id != kInvalidNode) port_by_id_.erase(ports_[port].id);
  ports_[port] = Port{};  // live=false, id=kInvalidNode
}

bool SwitchCore::port_live(std::size_t port) const {
  return port < ports_.size() && ports_[port].live;
}

std::size_t SwitchCore::live_ports() const {
  return static_cast<std::size_t>(
      std::count_if(ports_.begin(), ports_.end(),
                    [](const Port& p) { return p.live; }));
}

void SwitchCore::set_link(NodeId a, NodeId b) {
  if (a == b) return;
  links_.insert({std::min(a, b), std::max(a, b)});
}

std::size_t SwitchCore::port_of(NodeId id) const {
  const auto it = port_by_id_.find(id);
  return it == port_by_id_.end() ? SIZE_MAX : it->second;
}

NodeId SwitchCore::id_of(std::size_t port) const {
  return port < ports_.size() ? ports_[port].id : kInvalidNode;
}

bool SwitchCore::route(std::size_t port, const Frame& frame,
                       std::vector<std::size_t>& out) {
  if (!port_live(port)) return true;

  if (frame.kind == kKindRegister) {
    // Late re-registration rebinds; a stale mapping to this port is gone.
    if (ports_[port].id != kInvalidNode) port_by_id_.erase(ports_[port].id);
    ports_[port].id = frame.sender;
    port_by_id_[frame.sender] = port;
    return true;
  }

  if (frame.dest == kSwitchDest) {
    if (frame.kind != kKindControl) return true;
    switch (peek_control_op(frame.payload)) {
      case ControlOp::kLink:
        if (const auto link = decode_link(frame.payload))
          set_link(link->first, link->second);
        return true;
      case ControlOp::kShutdown:
        return false;
      default:
        return true;  // unknown op addressed to the switch: ignored
    }
  }

  if (frame.dest != kBroadcastDest) {
    const std::size_t dst = port_of(frame.dest);
    if (dst == SIZE_MAX || dst == port) return true;
    if (frame.kind == kKindPacket) {
      // Radio scope: a unicast to an out-of-range node vanishes, exactly
      // like the Simulator's ideal MAC.
      const NodeId a = ports_[port].id, b = frame.dest;
      if (!links_.contains({std::min(a, b), std::max(a, b)})) return true;
    }
    out.push_back(dst);
    return true;
  }

  // Broadcast: packet frames fan out to the sender's radio neighborhood,
  // never back to the sender. (Control broadcasts are not part of the
  // protocol; they fan out nowhere.)
  if (frame.kind != kKindPacket) return true;
  const NodeId self = ports_[port].id;
  for (const auto& [id, dst] : port_by_id_) {  // ordered: deterministic
    if (dst == port) continue;
    if (!links_.contains({std::min(self, id), std::max(self, id)})) continue;
    out.push_back(dst);
  }
  return true;
}

}  // namespace qolsr::net
