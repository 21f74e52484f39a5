#include "net/wire_format.hpp"

#include "proto/wire_endian.hpp"

namespace qolsr::net {

namespace {
using wire::Reader;
using wire::Writer;

void write_qos(Writer& w, const LinkQos& q) {
  w.f64(q.bandwidth);
  w.f64(q.delay);
  w.f64(q.jitter);
  w.f64(q.loss_cost);
  w.f64(q.energy);
  w.f64(q.buffers);
}

bool read_qos(Reader& r, LinkQos& q) {
  return r.f64(q.bandwidth) && r.f64(q.delay) && r.f64(q.jitter) &&
         r.f64(q.loss_cost) && r.f64(q.energy) && r.f64(q.buffers);
}

void write_string(Writer& w, const std::string& s) {
  w.u8(static_cast<std::uint8_t>(s.size()));
  for (char c : s) w.u8(static_cast<std::uint8_t>(c));
}

bool read_string(Reader& r, std::string& s) {
  std::uint8_t len = 0;
  if (!r.u8(len)) return false;
  s.clear();
  s.reserve(len);
  for (std::uint8_t i = 0; i < len; ++i) {
    std::uint8_t c = 0;
    if (!r.u8(c)) return false;
    s.push_back(static_cast<char>(c));
  }
  return true;
}

}  // namespace

std::vector<std::byte> encode_frame(const Frame& frame) {
  std::vector<std::byte> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  Writer w(out);
  w.u8(kFrameMagic);
  w.u8(kFrameVersion);
  w.u8(frame.kind);
  w.u32(frame.sender);
  w.u32(frame.dest);
  w.f64(frame.timestamp);
  w.u16(static_cast<std::uint16_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

std::optional<Frame> decode_frame(const std::byte* data, std::size_t size) {
  Reader r(data, size);
  std::uint8_t magic = 0, version = 0;
  Frame f;
  std::uint16_t payload_len = 0;
  if (!r.u8(magic) || !r.u8(version) || !r.u8(f.kind) || !r.u32(f.sender) ||
      !r.u32(f.dest) || !r.f64(f.timestamp) || !r.u16(payload_len))
    return std::nullopt;
  if (magic != kFrameMagic || version != kFrameVersion) return std::nullopt;
  if (f.kind < kKindRegister || f.kind > kKindControl) return std::nullopt;
  // The length prefix must account for every remaining byte: a frame with
  // trailing garbage (or a lying prefix) is rejected, not partially read.
  if (r.remaining() != payload_len) return std::nullopt;
  f.payload.assign(data + (size - payload_len), data + size);
  return f;
}

std::optional<Frame> decode_frame(const std::vector<std::byte>& bytes) {
  return decode_frame(bytes.data(), bytes.size());
}

ControlOp peek_control_op(const std::vector<std::byte>& payload) {
  if (payload.empty()) return static_cast<ControlOp>(0);
  return static_cast<ControlOp>(payload[0]);
}

std::vector<std::byte> encode_control(ControlOp op) {
  std::vector<std::byte> out;
  Writer(out).u8(static_cast<std::uint8_t>(op));
  return out;
}

std::vector<std::byte> encode_status_req(std::uint32_t round) {
  std::vector<std::byte> out;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(ControlOp::kStatusReq));
  w.u32(round);
  return out;
}

std::optional<std::uint32_t> decode_status_req(
    const std::vector<std::byte>& p) {
  Reader r(p);
  std::uint8_t op = 0;
  std::uint32_t round = 0;
  if (!r.u8(op) || op != static_cast<std::uint8_t>(ControlOp::kStatusReq) ||
      !r.u32(round) || !r.done())
    return std::nullopt;
  return round;
}

std::vector<std::byte> encode_configure(const NodeSetup& setup) {
  std::vector<std::byte> out;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(ControlOp::kConfigure));
  w.u32(setup.id);
  w.u32(setup.node_count);
  w.u64(setup.seed);
  w.f64(setup.timing.hello_interval);
  w.f64(setup.timing.tc_interval);
  w.f64(setup.timing.jitter);
  w.f64(setup.timing.neighbor_hold);
  w.f64(setup.timing.topology_hold);
  w.u8(setup.metric);
  write_string(w, setup.protocol);
  w.u16(static_cast<std::uint16_t>(setup.neighbors.size()));
  for (const NodeSetup::Neighbor& n : setup.neighbors) {
    w.u32(n.id);
    write_qos(w, n.qos);
  }
  return out;
}

std::optional<NodeSetup> decode_configure(const std::vector<std::byte>& p) {
  Reader r(p);
  std::uint8_t op = 0;
  NodeSetup s;
  std::uint16_t count = 0;
  if (!r.u8(op) ||
      op != static_cast<std::uint8_t>(ControlOp::kConfigure) ||
      !r.u32(s.id) || !r.u32(s.node_count) || !r.u64(s.seed) ||
      !r.f64(s.timing.hello_interval) || !r.f64(s.timing.tc_interval) ||
      !r.f64(s.timing.jitter) || !r.f64(s.timing.neighbor_hold) ||
      !r.f64(s.timing.topology_hold) || !r.u8(s.metric) ||
      !read_string(r, s.protocol) || !r.u16(count))
    return std::nullopt;
  s.neighbors.resize(count);
  for (NodeSetup::Neighbor& n : s.neighbors)
    if (!r.u32(n.id) || !read_qos(r, n.qos)) return std::nullopt;
  if (!r.done()) return std::nullopt;
  return s;
}

std::vector<std::byte> encode_status(const StatusReport& report) {
  std::vector<std::byte> out;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(ControlOp::kStatus));
  w.u32(report.round);
  w.f64(report.last_mutation);
  w.f64(report.quiet_for);
  w.u64(report.digest);
  w.u16(report.ans_size);
  return out;
}

std::optional<StatusReport> decode_status(const std::vector<std::byte>& p) {
  Reader r(p);
  std::uint8_t op = 0;
  StatusReport s;
  if (!r.u8(op) || op != static_cast<std::uint8_t>(ControlOp::kStatus) ||
      !r.u32(s.round) || !r.f64(s.last_mutation) || !r.f64(s.quiet_for) ||
      !r.u64(s.digest) || !r.u16(s.ans_size) || !r.done())
    return std::nullopt;
  return s;
}

std::vector<std::byte> encode_link(NodeId a, NodeId b) {
  std::vector<std::byte> out;
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(ControlOp::kLink));
  w.u32(a);
  w.u32(b);
  return out;
}

std::optional<std::pair<NodeId, NodeId>> decode_link(
    const std::vector<std::byte>& p) {
  Reader r(p);
  std::uint8_t op = 0;
  NodeId a = 0, b = 0;
  if (!r.u8(op) || op != static_cast<std::uint8_t>(ControlOp::kLink) ||
      !r.u32(a) || !r.u32(b) || !r.done())
    return std::nullopt;
  return std::make_pair(a, b);
}

}  // namespace qolsr::net
