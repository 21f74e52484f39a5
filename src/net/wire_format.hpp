#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/node_id.hpp"
#include "metrics/link_qos.hpp"
#include "proto/protocol_timing.hpp"

namespace qolsr::net {

/// Datagram framing for the wire transport (src/net): every message on a
/// switch plug — OLSR packets, plug registration, harness control — is one
/// frame. The layout is UDP-ready (self-describing: versioned magic,
/// length-prefixed payload) even though the Unix SOCK_SEQPACKET transport
/// already preserves message boundaries, so moving a plug onto a UDP
/// socket changes no bytes. All integers little-endian via wire::Writer
/// (proto/wire_endian.hpp) — the same helpers the OLSR codec is pinned
/// with.
///
///   magic u8 ('Q') | version u8 | kind u8 | sender u32 | dest u32 |
///   timestamp f64  | payload_len u16 | payload bytes
struct Frame {
  std::uint8_t kind = 0;
  NodeId sender = kInvalidNode;
  NodeId dest = kInvalidNode;
  double timestamp = 0.0;  ///< sender's clock at emission (diagnostic)
  std::vector<std::byte> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

inline constexpr std::uint8_t kFrameMagic = 0x51;  // 'Q'
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 1 + 1 + 1 + 4 + 4 + 8 + 2;

/// Frame kinds.
inline constexpr std::uint8_t kKindRegister = 1;  ///< plug announces its id
inline constexpr std::uint8_t kKindPacket = 2;    ///< payload = OLSR codec bytes
inline constexpr std::uint8_t kKindControl = 3;   ///< payload = control message

/// Destination sentinels (top of the NodeId space, below kRouteNotCached
/// = kInvalidNode-1 which olsr_node uses internally; real deployments are
/// orders of magnitude smaller).
inline constexpr NodeId kBroadcastDest = kInvalidNode;
inline constexpr NodeId kSwitchDest = kInvalidNode - 2;    ///< for the switch itself
inline constexpr NodeId kControllerId = kInvalidNode - 3;  ///< the harness plug

std::vector<std::byte> encode_frame(const Frame& frame);

/// Hardened decode: nullopt on bad magic/version/kind, truncation, or a
/// length prefix that disagrees with the datagram size.
std::optional<Frame> decode_frame(const std::byte* data, std::size_t size);
std::optional<Frame> decode_frame(const std::vector<std::byte>& bytes);

// ---------------------------------------------------------------------------
// Control messages (the payload of kKindControl frames). First byte is the
// op; the harness↔daemon RPCs ride through the switch like any other
// unicast, and the switch itself consumes ops addressed to kSwitchDest.

enum class ControlOp : std::uint8_t {
  kConfigure = 1,  ///< harness→daemon: NodeSetup
  kReady = 2,      ///< daemon→harness: configured, timers not yet running
  kStart = 3,      ///< harness→daemon: start the protocol
  kStatusReq = 4,  ///< harness→daemon: report your state (u32 round id)
  kStatus = 5,     ///< daemon→harness: StatusReport
  kShutdown = 6,   ///< harness→daemon (or →switch): exit cleanly
  kLink = 7,       ///< harness→switch: adjacency edge (a,b) up
  kAnnounce = 9,   ///< daemon→harness: registered, send my Configure
};

/// Everything a daemon needs to run one OlsrNode: who it is, the world
/// size, the run seed, the shared timing struct (the *same* object the
/// comparison Simulator consumes — satellite: no duplicated constants to
/// drift), the selector pair by registry name, and the measured QoS of
/// its radio links (link measurement is out of the paper's scope; the
/// harness supplies ground truth exactly like the Simulator does).
struct NodeSetup {
  NodeId id = 0;
  std::uint32_t node_count = 0;
  std::uint64_t seed = 1;
  ProtocolTiming timing;
  std::uint8_t metric = 0;  ///< MetricId the selectors are instantiated for
  /// Registry name of the protocol ("olsr_mpr", "fnbp", …). The daemon
  /// resolves the (flooding, ANS) selector pair through the same
  /// SelectorRegistry calls the packet backend uses, so both sides of the
  /// equivalence run the identical heuristics by construction.
  std::string protocol;
  struct Neighbor {
    NodeId id = 0;
    LinkQos qos;
    friend bool operator==(const Neighbor&, const Neighbor&) = default;
  };
  std::vector<Neighbor> neighbors;

  friend bool operator==(const NodeSetup&, const NodeSetup&) = default;
};

/// What a daemon reports when polled: the status round it answers, how
/// long its MutationClock has been quiet when it replies (the harness's
/// quiescence test: the fleet stops at last mutation + dwell, see
/// next_status_round), the exact last-change time, its converged digest,
/// and the ANS size the eval backend reports (the digest already folds
/// the flooding set, so no separate size travels for it).
struct StatusReport {
  std::uint32_t round = 0;     ///< echo of the StatusReq's round id
  double last_mutation = 0.0;  ///< daemon wall clock, seconds since start
  double quiet_for = 0.0;      ///< seconds since last_mutation, at reply
  std::uint64_t digest = 0;
  std::uint16_t ans_size = 0;

  friend bool operator==(const StatusReport&, const StatusReport&) = default;
};

ControlOp peek_control_op(const std::vector<std::byte>& payload);

std::vector<std::byte> encode_control(ControlOp op);  ///< op-only message
std::vector<std::byte> encode_status_req(std::uint32_t round);
std::vector<std::byte> encode_configure(const NodeSetup& setup);
std::vector<std::byte> encode_status(const StatusReport& report);
std::vector<std::byte> encode_link(NodeId a, NodeId b);

std::optional<std::uint32_t> decode_status_req(const std::vector<std::byte>& p);
std::optional<NodeSetup> decode_configure(const std::vector<std::byte>& p);
std::optional<StatusReport> decode_status(const std::vector<std::byte>& p);
std::optional<std::pair<NodeId, NodeId>> decode_link(
    const std::vector<std::byte>& p);

}  // namespace qolsr::net
