// SwitchCore routing rules (no sockets: plain frames through the
// forwarding brain) plus a kernel-socketpair loopback that pushes a real
// serialized OLSR packet through a SEQPACKET pair and re-parses it, and
// checks that a received datagram holds only its own bytes.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "net/socket.hpp"
#include "net/switch_core.hpp"
#include "net/wire_format.hpp"
#include "proto/messages.hpp"

namespace qolsr::net {
namespace {

Frame register_frame(NodeId id) {
  Frame f;
  f.kind = kKindRegister;
  f.sender = id;
  f.dest = kSwitchDest;
  return f;
}

Frame packet_frame(NodeId sender, NodeId dest) {
  Frame f;
  f.kind = kKindPacket;
  f.sender = sender;
  f.dest = dest;
  f.payload = {std::byte{0x42}};
  return f;
}

/// A 4-port switch: nodes 0,1,2 plugged and registered, triangle 0-1-2
/// fully linked except 0-2 (so 0 and 2 are out of radio range), plus the
/// controller plug.
struct SmallSwitch {
  SwitchCore core;
  std::size_t p0, p1, p2, pc;
  std::vector<std::size_t> out;

  SmallSwitch() {
    p0 = core.add_port();
    p1 = core.add_port();
    p2 = core.add_port();
    pc = core.add_port();
    route(p0, register_frame(0));
    route(p1, register_frame(1));
    route(p2, register_frame(2));
    route(pc, register_frame(kControllerId));
    core.set_link(0, 1);
    core.set_link(1, 2);
  }

  std::vector<std::size_t>& route(std::size_t port, const Frame& frame) {
    out.clear();
    core.route(port, frame, out);
    return out;
  }
};

TEST(SwitchCore, RegisterBindsAndUnplugUnbinds) {
  SmallSwitch sw;
  EXPECT_EQ(sw.core.port_of(0), sw.p0);
  EXPECT_EQ(sw.core.port_of(2), sw.p2);
  EXPECT_EQ(sw.core.id_of(sw.p1), 1u);
  EXPECT_EQ(sw.core.live_ports(), 4u);

  sw.core.remove_port(sw.p1);
  EXPECT_EQ(sw.core.port_of(1), SIZE_MAX);
  EXPECT_FALSE(sw.core.port_live(sw.p1));
  EXPECT_EQ(sw.core.live_ports(), 3u);
  // Traffic to the unplugged node vanishes instead of crashing.
  EXPECT_TRUE(sw.route(sw.p0, packet_frame(0, 1)).empty());
}

TEST(SwitchCore, UnicastSteersToThePluggedPortOnly) {
  SmallSwitch sw;
  auto& out = sw.route(sw.p0, packet_frame(0, 1));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], sw.p1);

  // Out of radio range: a unicast 0→2 vanishes like the sim's ideal MAC.
  EXPECT_TRUE(sw.route(sw.p0, packet_frame(0, 2)).empty());
  // Unknown destination: vanishes.
  EXPECT_TRUE(sw.route(sw.p0, packet_frame(0, 9)).empty());
}

TEST(SwitchCore, BroadcastFansOutToNeighborsExcludingSender) {
  SmallSwitch sw;
  // 1 is linked to both 0 and 2: its broadcast reaches exactly those two.
  auto& out = sw.route(sw.p1, packet_frame(1, kBroadcastDest));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], sw.p0);
  EXPECT_EQ(out[1], sw.p2);

  // 0 is linked only to 1 — and the controller plug, being no radio
  // neighbor, never hears packet traffic.
  auto& from0 = sw.route(sw.p0, packet_frame(0, kBroadcastDest));
  ASSERT_EQ(from0.size(), 1u);
  EXPECT_EQ(from0[0], sw.p1);
}

TEST(SwitchCore, ControlFramesIgnoreAdjacency) {
  SmallSwitch sw;
  Frame rpc;
  rpc.kind = kKindControl;
  rpc.sender = kControllerId;
  rpc.dest = 2;  // controller has no radio link to anyone
  rpc.payload = encode_control(ControlOp::kStart);
  auto& out = sw.route(sw.pc, rpc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], sw.p2);
}

TEST(SwitchCore, AnnounceBehindRegisterReachesTheController) {
  // The harness's handshake order: the controller registers first, then a
  // daemon plugs in and sends Register and its announce back to back. The
  // announce, routed right after the Register, must reach the controller,
  // and the Configure sent in reply must reach the new plug.
  SwitchCore core;
  std::vector<std::size_t> out;
  const std::size_t pc = core.add_port();
  core.route(pc, register_frame(kControllerId), out);
  const std::size_t pd = core.add_port();
  core.route(pd, register_frame(5), out);
  EXPECT_TRUE(out.empty());

  Frame announce;
  announce.kind = kKindControl;
  announce.sender = 5;
  announce.dest = kControllerId;
  announce.payload = encode_control(ControlOp::kAnnounce);
  ASSERT_TRUE(core.route(pd, announce, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], pc);

  Frame configure;
  configure.kind = kKindControl;
  configure.sender = kControllerId;
  configure.dest = 5;
  configure.payload = encode_configure(NodeSetup{});
  out.clear();
  ASSERT_TRUE(core.route(pc, configure, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], pd);
}

TEST(SwitchCore, SwitchAddressedOpsAreConsumedNotForwarded) {
  SmallSwitch sw;
  Frame link;
  link.kind = kKindControl;
  link.sender = kControllerId;
  link.dest = kSwitchDest;
  link.payload = encode_link(0, 2);
  EXPECT_TRUE(sw.route(sw.pc, link).empty());
  // The new 0-2 adjacency is live: the formerly-vanishing unicast routes.
  auto& out = sw.route(sw.p0, packet_frame(0, 2));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], sw.p2);

  // An op the switch does not know (8 is unassigned) is consumed and
  // ignored: nothing forwarded, the switch keeps running, and every radio
  // neighbour still hears the next broadcast.
  Frame unknown;
  unknown.kind = kKindControl;
  unknown.sender = kControllerId;
  unknown.dest = kSwitchDest;
  unknown.payload = encode_control(static_cast<ControlOp>(8));
  std::vector<std::size_t> consumed;
  EXPECT_TRUE(sw.core.route(sw.pc, unknown, consumed));
  EXPECT_TRUE(consumed.empty());
  auto& from0 = sw.route(sw.p0, packet_frame(0, kBroadcastDest));
  ASSERT_EQ(from0.size(), 2u);
  EXPECT_EQ(from0[0], sw.p1);
  EXPECT_EQ(from0[1], sw.p2);

  Frame shutdown;
  shutdown.kind = kKindControl;
  shutdown.sender = kControllerId;
  shutdown.dest = kSwitchDest;
  shutdown.payload = encode_control(ControlOp::kShutdown);
  std::vector<std::size_t> out2;
  EXPECT_FALSE(sw.core.route(sw.pc, shutdown, out2));  // stop signal
}

TEST(SocketLoopback, SeqpacketRoundTripsAnOlsrPacket) {
  auto [left, right] = seqpacket_pair();
  ASSERT_TRUE(left.valid());
  ASSERT_TRUE(right.valid());

  // A real OLSR HELLO through the real kernel: serialize → frame →
  // sendmsg → recvmsg → decode → parse_packet → reserialize, asserting
  // byte identity end to end (the parse⇒reserialize loopback contract).
  PacketHeader header;
  header.type = MessageType::kHello;
  header.originator = 5;
  header.sequence = 99;
  header.ttl = 1;
  header.hop_count = 0;
  HelloMessage hello;
  hello.originator = 5;
  hello.willingness = 3;
  LinkQos qos;
  qos.bandwidth = 12.5;
  hello.links.push_back({6, LinkStatus::kMpr, qos});
  const auto packet_bytes = serialize(header, hello);

  Frame f;
  f.kind = kKindPacket;
  f.sender = 5;
  f.dest = kBroadcastDest;
  f.payload = packet_bytes;
  ASSERT_TRUE(send_datagram(left, encode_frame(f)));

  RecvBuffer rx;
  const auto received = recv_datagram(right, rx);
  ASSERT_TRUE(received.has_value());
  const auto back = decode_frame(*received);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);

  const auto parsed = parse_packet(back->payload);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->hello.has_value());
  EXPECT_EQ(serialize(parsed->header, *parsed->hello), packet_bytes);

  // Message boundaries hold: two sends arrive as two datagrams.
  ASSERT_TRUE(send_datagram(left, encode_frame(f)));
  ASSERT_TRUE(send_datagram(left, encode_frame(f)));
  EXPECT_EQ(recv_datagram(right, rx)->size(), encode_frame(f).size());
  EXPECT_EQ(recv_datagram(right, rx)->size(), encode_frame(f).size());
}

TEST(SocketLoopback, ReceivedDatagramHoldsExactlyItsBytes) {
  // Every datagram lands in the loop's one RecvBuffer and is handed out at
  // its own size: the switch queues each received frame as is, so a frame
  // that kept the buffer's 64 KB capacity would pin it for as long as it
  // waits in an output queue.
  auto [left, right] = seqpacket_pair();
  ASSERT_TRUE(left.valid());
  ASSERT_TRUE(right.valid());
  const std::vector<std::byte> sent(100, std::byte{0x5a});
  RecvBuffer rx;

  ASSERT_TRUE(send_datagram(left, sent));
  const auto blocking = recv_datagram(right, rx);
  ASSERT_TRUE(blocking.has_value());
  EXPECT_EQ(*blocking, sent);
  EXPECT_LT(blocking->capacity(), 1024u);

  ASSERT_TRUE(send_datagram(left, sent));
  set_nonblocking(right);
  std::vector<std::byte> polled;
  ASSERT_EQ(try_recv_datagram(right, rx, polled), RecvStatus::kOk);
  EXPECT_EQ(polled, sent);
  EXPECT_LT(polled.capacity(), 1024u);
  EXPECT_EQ(try_recv_datagram(right, rx, polled), RecvStatus::kWouldBlock);
}

}  // namespace
}  // namespace qolsr::net
