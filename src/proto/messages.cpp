#include "proto/messages.hpp"

#include <cassert>
#include <cmath>

#include "proto/wire_endian.hpp"

namespace qolsr {

namespace {

// The codec is pinned little-endian via the shared wire::Writer/Reader
// helpers (proto/wire_endian.hpp) — the same pair the net/ datagram
// framing uses, so a socket wire run exchanges exactly the bytes the
// in-process simulation serializes.
using wire::Reader;
using wire::Writer;

void write_header(Writer& w, const PacketHeader& h) {
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u32(h.originator);
  w.u16(h.sequence);
  w.u8(h.ttl);
  w.u8(h.hop_count);
}

/// Byte offsets of the header fields a relay rewrites (see write_header).
constexpr std::size_t kTtlOffset = 1 + 4 + 2;
constexpr std::size_t kHopCountOffset = kTtlOffset + 1;

bool read_header(Reader& r, PacketHeader& h) {
  std::uint8_t type = 0;
  if (!r.u8(type) || !r.u32(h.originator) || !r.u16(h.sequence) ||
      !r.u8(h.ttl) || !r.u8(h.hop_count))
    return false;
  if (type != static_cast<std::uint8_t>(MessageType::kHello) &&
      type != static_cast<std::uint8_t>(MessageType::kTc) &&
      type != static_cast<std::uint8_t>(MessageType::kData))
    return false;
  h.type = static_cast<MessageType>(type);
  return true;
}

void write_advert(Writer& w, const LinkAdvert& a) {
  w.u32(a.neighbor);
  w.u8(static_cast<std::uint8_t>(a.status));
  w.qos(a.qos);
}

/// Every QoS quantity on the wire is a nonnegative finite measurement; a
/// NaN/Inf/negative double (a bit-flipped frame, or a hostile sender) must
/// not reach the metric algebra.
bool valid_qos(double v) { return std::isfinite(v) && v >= 0.0; }

bool read_advert(Reader& r, LinkAdvert& a) {
  std::uint8_t status = 0;
  if (!r.u32(a.neighbor) || !r.u8(status) || !r.qos(a.qos)) return false;
  if (status < static_cast<std::uint8_t>(LinkStatus::kAsymmetric) ||
      status > static_cast<std::uint8_t>(LinkStatus::kMpr))
    return false;
  if (!valid_qos(a.qos.bandwidth) || !valid_qos(a.qos.delay) ||
      !valid_qos(a.qos.jitter) || !valid_qos(a.qos.loss_cost) ||
      !valid_qos(a.qos.energy) || !valid_qos(a.qos.buffers))
    return false;
  a.status = static_cast<LinkStatus>(status);
  return true;
}

constexpr std::size_t kHeaderBytes = 1 + 4 + 2 + 1 + 1;
constexpr std::size_t kAdvertBytes = 4 + 1 + 6 * 8;

/// Reads the `count` adverts that must make up the rest of the frame.
bool read_adverts(Reader& r, std::uint16_t count,
                  std::vector<LinkAdvert>& out) {
  // Length check before allocation: a hostile count field must not size a
  // vector the payload cannot back (and trailing garbage is rejected here
  // instead of after count adverts of work).
  if (r.remaining() != count * kAdvertBytes) return false;
  out.resize(count);
  for (LinkAdvert& a : out)
    if (!read_advert(r, a)) return false;
  return r.done();
}

}  // namespace

std::vector<std::byte> serialize(const PacketHeader& header,
                                 const HelloMessage& hello) {
  std::vector<std::byte> out;
  out.reserve(kHeaderBytes + 5 + 2 + hello.links.size() * kAdvertBytes);
  Writer w(out);
  write_header(w, header);
  w.u32(hello.originator);
  w.u8(hello.willingness);
  w.u16(static_cast<std::uint16_t>(hello.links.size()));
  for (const LinkAdvert& a : hello.links) write_advert(w, a);
  return out;
}

std::vector<std::byte> serialize(const PacketHeader& header,
                                 const TcMessage& tc) {
  std::vector<std::byte> out;
  out.reserve(tc_wire_size(tc.advertised.size()));
  Writer w(out);
  write_header(w, header);
  w.u32(tc.originator);
  w.u16(tc.ansn);
  w.u16(static_cast<std::uint16_t>(tc.advertised.size()));
  for (const LinkAdvert& a : tc.advertised) write_advert(w, a);
  return out;
}

std::vector<std::byte> serialize(const PacketHeader& header,
                                 const DataMessage& data) {
  std::vector<std::byte> out;
  out.reserve(kHeaderBytes + 12);
  Writer w(out);
  write_header(w, header);
  w.u32(data.source);
  w.u32(data.destination);
  w.u32(data.payload_id);
  return out;
}

std::vector<std::byte> relay_frame(const std::vector<std::byte>& frame) {
  assert(frame.size() > kHopCountOffset && "relay of a truncated frame");
  const auto ttl = static_cast<std::uint8_t>(frame[kTtlOffset]);
  const auto hops = static_cast<std::uint8_t>(frame[kHopCountOffset]);
  std::vector<std::byte> out = frame;
  out[kTtlOffset] = static_cast<std::byte>(static_cast<std::uint8_t>(ttl - 1));
  out[kHopCountOffset] =
      static_cast<std::byte>(static_cast<std::uint8_t>(hops + 1));
  return out;
}

std::optional<ParsedPacket> parse_packet(const std::vector<std::byte>& bytes) {
  Reader r(bytes);
  ParsedPacket packet;
  if (!read_header(r, packet.header)) return std::nullopt;
  switch (packet.header.type) {
    case MessageType::kHello: {
      HelloMessage hello;
      std::uint16_t count = 0;
      if (!r.u32(hello.originator) || !r.u8(hello.willingness) ||
          !r.u16(count) || !read_adverts(r, count, hello.links))
        return std::nullopt;
      packet.hello = std::move(hello);
      return packet;
    }
    case MessageType::kTc: {
      TcMessage tc;
      std::uint16_t count = 0;
      if (!r.u32(tc.originator) || !r.u16(tc.ansn) || !r.u16(count) ||
          !read_adverts(r, count, tc.advertised))
        return std::nullopt;
      packet.tc = std::move(tc);
      return packet;
    }
    case MessageType::kData: {
      DataMessage data;
      if (!r.u32(data.source) || !r.u32(data.destination) ||
          !r.u32(data.payload_id))
        return std::nullopt;
      if (!r.done()) return std::nullopt;
      packet.data = data;
      return packet;
    }
  }
  return std::nullopt;
}

std::size_t tc_wire_size(std::size_t ans_size) {
  return kHeaderBytes + 4 + 2 + 2 + ans_size * kAdvertBytes;
}

namespace {
/// Serialized data frame: header + source u32 + destination u32 +
/// payload_id u32. The payload id therefore sits at a fixed offset.
constexpr std::size_t kDataFrameBytes = kHeaderBytes + 12;
constexpr std::size_t kPayloadIdOffset = kHeaderBytes + 8;
}  // namespace

bool is_data_frame(const std::vector<std::byte>& bytes) {
  return bytes.size() == kDataFrameBytes &&
         static_cast<std::uint8_t>(bytes[0]) ==
             static_cast<std::uint8_t>(MessageType::kData);
}

std::uint32_t peek_data_payload_id(const std::vector<std::byte>& bytes) {
  if (!is_data_frame(bytes)) return 0;
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < 4; ++i)
    id |= static_cast<std::uint32_t>(bytes[kPayloadIdOffset + i]) << (8 * i);
  return id;
}

}  // namespace qolsr
