#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <vector>

#include "graph/node_id.hpp"
#include "net/wire_format.hpp"

namespace qolsr::net {

/// The software switch's forwarding brain, separated from its sockets so
/// the routing rules are unit-testable with plain frames (the vde2 shape:
/// the switch engine knows ports and hub/steering rules; the process
/// wrapper owns fds and the poll loop).
///
/// Ports are small dense indices handed out by add_port (the process
/// wrapper maps fd ⇄ port). A plug becomes addressable when its first
/// kKindRegister frame names its id. Packet frames are *radio-scoped*: a
/// broadcast fans out only to ports adjacent to the sender in the uploaded
/// topology (the switch plays the role of the shared ether with radio
/// range), and a unicast to a non-adjacent destination vanishes exactly
/// like the Simulator's ideal MAC drops out-of-range sends. Control
/// frames are pure steering — the harness↔daemon RPC channel — and ignore
/// adjacency.
///
/// The medium is loss-free and adds no delay: every routed copy goes out
/// at once. Each daemon's converged digest is checked against a loss-free
/// Simulator twin, which holds only if the wire drops nothing; loss,
/// delay and crashes are the fault engine's, on the packet backend.
class SwitchCore {
 public:
  /// Registers a new (not yet addressable) port; returns its index.
  std::size_t add_port();

  /// Unplugs a port: its id mapping and adjacency role drop; the index is
  /// never reused.
  void remove_port(std::size_t port);

  bool port_live(std::size_t port) const;
  std::size_t live_ports() const;

  /// Adjacency upload (ControlOp::kLink): nodes a and b are in radio range.
  void set_link(NodeId a, NodeId b);

  /// Routes one inbound frame from `port`, appending the index of each
  /// port it goes out on to `out` (not cleared — callers batch). Register
  /// frames bind the port's id and produce no output. Frames addressed to
  /// kSwitchDest are consumed here (adjacency and shutdown ops; any other
  /// op is ignored). Returns false when the frame asked the switch itself
  /// to shut down.
  bool route(std::size_t port, const Frame& frame,
             std::vector<std::size_t>& out);

  /// The port a node id is plugged into (SIZE_MAX when unknown).
  std::size_t port_of(NodeId id) const;
  /// The id registered on a port (kInvalidNode before registration).
  NodeId id_of(std::size_t port) const;

 private:
  struct Port {
    bool live = false;
    NodeId id = kInvalidNode;
  };

  std::vector<Port> ports_;
  std::map<NodeId, std::size_t> port_by_id_;
  std::set<std::pair<NodeId, NodeId>> links_;  ///< normalized (min,max)
};

}  // namespace qolsr::net
