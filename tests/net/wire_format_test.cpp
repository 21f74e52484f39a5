// Frame + control codec: round trips, the hardened decode contract
// (magic/version/kind/length all verified before any payload is trusted),
// and the golden layout of the frame header.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "net/wire_format.hpp"

namespace qolsr::net {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  for (const unsigned v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

Frame sample_frame() {
  Frame f;
  f.kind = kKindPacket;
  f.sender = 7;
  f.dest = kBroadcastDest;
  f.payload = {std::byte{0xAA}, std::byte{0xBB}, std::byte{0xCC}};
  return f;
}

TEST(WireFrame, RoundTrips) {
  const Frame f = sample_frame();
  const auto bytes = encode_frame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + f.payload.size());
  const auto back = decode_frame(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(WireFrame, HeaderLayoutIsPinned) {
  Frame f;
  f.kind = kKindControl;
  f.sender = 0x01020304;
  f.dest = 0x0A0B0C0D;
  f.payload = {std::byte{0xEE}};
  const auto bytes = encode_frame(f);
  EXPECT_EQ(kFrameHeaderBytes, 13u);
  EXPECT_EQ(bytes, bytes_of({0x51, 0x02, kKindControl,  // magic 'Q', version
                             0x04, 0x03, 0x02, 0x01,    // sender, LE
                             0x0D, 0x0C, 0x0B, 0x0A,    // dest, LE
                             0x01, 0x00,                // payload_len, LE
                             0xEE}));                   // payload
}

TEST(WireFrame, DecodeRejectsCorruption) {
  const auto good = encode_frame(sample_frame());
  EXPECT_TRUE(decode_frame(good).has_value());

  auto bad_magic = good;
  bad_magic[0] = std::byte{0x52};
  EXPECT_FALSE(decode_frame(bad_magic).has_value());

  auto bad_version = good;
  bad_version[1] = std::byte{0x03};
  EXPECT_FALSE(decode_frame(bad_version).has_value());

  // A version-1 frame (an f64 sender timestamp between dest and the
  // length prefix) is refused, not misread.
  const std::vector<std::byte> version_1 =
      bytes_of({0x51, 0x01, kKindPacket, 0x07, 0x00, 0x00, 0x00, 0xFF, 0xFF,
                0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF4, 0x3F,
                0x00, 0x00});
  EXPECT_FALSE(decode_frame(version_1).has_value());

  auto bad_kind = good;
  bad_kind[2] = std::byte{0x7F};
  EXPECT_FALSE(decode_frame(bad_kind).has_value());

  // Truncated datagram: the length prefix promises more than arrived.
  auto truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(decode_frame(truncated).has_value());

  // Trailing garbage: more arrived than the prefix accounts for.
  auto padded = good;
  padded.push_back(std::byte{0x00});
  EXPECT_FALSE(decode_frame(padded).has_value());

  EXPECT_FALSE(decode_frame(std::vector<std::byte>{}).has_value());
}

TEST(WireControl, ConfigureRoundTrips) {
  NodeSetup s;
  s.id = 3;
  s.node_count = 8;
  s.seed = 0xDEADBEEFCAFE1234ULL;
  s.timing = ProtocolTiming{}.scaled(0.02);
  s.metric = 1;
  s.protocol = "topology_filtering";
  LinkQos qos;
  qos.bandwidth = 3.5;
  qos.delay = 0.125;
  s.neighbors = {{1, qos}, {5, LinkQos{}}};

  const auto back = decode_configure(encode_configure(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(peek_control_op(encode_configure(s)), ControlOp::kConfigure);
}

TEST(WireControl, StatusAndLinkRoundTrip) {
  StatusReport r;
  r.round = 0xA1B2C3D4u;
  r.last_mutation = 2.5;
  r.quiet_for = 0.375;
  r.digest = 0xFEEDFACE12345678ULL;
  r.ans_size = 5;
  const auto status_back = decode_status(encode_status(r));
  ASSERT_TRUE(status_back.has_value());
  EXPECT_EQ(*status_back, r);

  const auto req = encode_status_req(0x01020304u);
  EXPECT_EQ(peek_control_op(req), ControlOp::kStatusReq);
  const auto round_back = decode_status_req(req);
  ASSERT_TRUE(round_back.has_value());
  EXPECT_EQ(*round_back, 0x01020304u);
  // The round id travels little-endian right behind the op byte.
  ASSERT_EQ(req.size(), 5u);
  EXPECT_EQ(static_cast<unsigned>(req[1]), 0x04u);
  EXPECT_EQ(static_cast<unsigned>(req[4]), 0x01u);

  const auto announce = encode_control(ControlOp::kAnnounce);
  EXPECT_EQ(announce.size(), 1u);
  EXPECT_EQ(peek_control_op(announce), ControlOp::kAnnounce);

  const auto link_back = decode_link(encode_link(2, 9));
  ASSERT_TRUE(link_back.has_value());
  EXPECT_EQ(link_back->first, 2u);
  EXPECT_EQ(link_back->second, 9u);
}

TEST(WireControl, DecodersRejectTruncationAndWrongOp) {
  auto conf = encode_configure(NodeSetup{});
  conf.pop_back();
  EXPECT_FALSE(decode_configure(conf).has_value());
  // A status blob is not a configure blob, even if long enough.
  EXPECT_FALSE(decode_configure(encode_status(StatusReport{})).has_value());
  EXPECT_FALSE(decode_status(encode_control(ControlOp::kStart)).has_value());
  EXPECT_FALSE(decode_link(encode_control(ControlOp::kLink)).has_value());

  // Every new StatusReport field is required: dropping any tail byte
  // (the last u16 ANS size back into quiet_for and the round id) fails.
  const auto status = encode_status(StatusReport{});
  for (std::size_t keep = 0; keep < status.size(); ++keep)
    EXPECT_FALSE(decode_status({status.begin(),
                                status.begin() +
                                    static_cast<std::ptrdiff_t>(keep)})
                     .has_value())
        << keep;
  auto padded_status = status;
  padded_status.push_back(std::byte{0});
  EXPECT_FALSE(decode_status(padded_status).has_value());

  // A StatusReq must carry its whole round id, and nothing else decodes
  // as one: not the op-only form, not a status reply, not an announce.
  auto req = encode_status_req(7);
  req.pop_back();
  EXPECT_FALSE(decode_status_req(req).has_value());
  EXPECT_FALSE(decode_status_req(encode_control(ControlOp::kStatusReq))
                   .has_value());
  auto long_req = encode_status_req(7);
  long_req.push_back(std::byte{0});
  EXPECT_FALSE(decode_status_req(long_req).has_value());
  EXPECT_FALSE(decode_status_req(encode_status(StatusReport{})).has_value());
  auto announce_as_req = encode_status_req(7);
  announce_as_req[0] = static_cast<std::byte>(ControlOp::kAnnounce);
  EXPECT_FALSE(decode_status_req(announce_as_req).has_value());
  // Nor is a StatusReq (or an announce) mistaken for a status reply.
  EXPECT_FALSE(decode_status(encode_status_req(7)).has_value());
  EXPECT_FALSE(decode_status(encode_control(ControlOp::kAnnounce)).has_value());
}

}  // namespace
}  // namespace qolsr::net
