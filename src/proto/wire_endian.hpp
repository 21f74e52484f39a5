#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "metrics/link_qos.hpp"

namespace qolsr::wire {

/// The codec's byte order, pinned explicitly: every multi-byte quantity in
/// the repository's wire formats — the OLSR packet codec (proto/messages)
/// and the net/ datagram framing — is serialized **little-endian by
/// construction** (byte-by-byte shifts, never a memcpy of host
/// representation), so two hosts of different endianness exchange
/// bit-identical frames. Doubles travel as the little-endian bytes of
/// their IEEE-754 bit pattern (std::bit_cast), which round-trips exactly —
/// the cross-backend digest comparisons depend on that exactness.
///
/// tests/proto/wire_golden_test.cpp pins the resulting byte dumps, so a
/// codec change that silently reorders bytes fails a golden, not a
/// cross-host interop run.

/// Little-endian byte writer (appends to a caller-owned buffer).
class Writer {
 public:
  explicit Writer(std::vector<std::byte>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// One link's QoS record: its six fields, in declaration order.
  void qos(const LinkQos& q) {
    f64(q.bandwidth);
    f64(q.delay);
    f64(q.jitter);
    f64(q.loss_cost);
    f64(q.energy);
    f64(q.buffers);
  }

 private:
  std::vector<std::byte>& out_;
};

/// Bounds-checked little-endian reader. Every accessor returns false on
/// truncation instead of reading out of bounds — the hardened-parser
/// contract the codec fuzz harness hammers.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::byte>& in)
      : Reader(in.data(), in.size()) {}

  bool u8(std::uint8_t& v) {
    if (pos_ >= size_) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u16(std::uint16_t& v) {
    std::uint8_t lo = 0, hi = 0;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (hi << 8));
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t lo = 0, hi = 0;
    if (!u16(lo) || !u16(hi)) return false;
    v = static_cast<std::uint32_t>(lo) |
        (static_cast<std::uint32_t>(hi) << 16);
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    if (!u32(lo) || !u32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) |
        (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  /// Reads what Writer::qos wrote; the values are not range-checked.
  bool qos(LinkQos& q) {
    return f64(q.bandwidth) && f64(q.delay) && f64(q.jitter) &&
           f64(q.loss_cost) && f64(q.energy) && f64(q.buffers);
  }
  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace qolsr::wire
