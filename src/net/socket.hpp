#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace qolsr::net {

/// RAII file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Unix-domain SOCK_SEQPACKET helpers. SEQPACKET gives the wire transport
/// datagram message boundaries (one sendmsg = one frame, like UDP) *with*
/// connection-oriented reliability and connection teardown detection —
/// the right local stand-in for the UDP deployment target, where the
/// framing layer (net/wire_format) is already self-describing.
Fd listen_unix(const std::string& path, int backlog);
Fd accept_unix(const Fd& listener);
/// Connects once; invalid Fd when nothing listens at `path`. A fleet needs
/// no retry: the wire harness listens before it spawns the switch or any
/// daemon, then hands the listener to the switch.
Fd connect_unix(const std::string& path);

/// A connected SOCK_SEQPACKET pair — the loopback harness for transport
/// tests that need a real kernel socket without a switch process.
std::pair<Fd, Fd> seqpacket_pair();

void set_nonblocking(const Fd& fd);

/// Sends one datagram (blocking, EINTR-retried). False on a dead peer.
bool send_datagram(const Fd& fd, const std::vector<std::byte>& bytes);

/// The buffer a socket loop receives into: room for the largest datagram
/// the transport accepts (the fixed header plus a u16-length payload).
/// Each loop owns one and allocates it once, uninitialized, so only the
/// pages a receive writes become resident. A receive copies out only the
/// bytes that arrived, so a queued frame never pins the full capacity.
class RecvBuffer {
 public:
  RecvBuffer();

  std::byte* data() { return bytes_.get(); }
  std::size_t size() const;

 private:
  std::unique_ptr<std::byte[]> bytes_;
};

/// Receives one datagram (blocking, EINTR-retried) through `buf`. nullopt
/// on EOF / dead peer; a datagram that fills `buf` is an error (nullopt) —
/// frames are bounded by the u16 length prefix plus the fixed header.
std::optional<std::vector<std::byte>> recv_datagram(const Fd& fd,
                                                    RecvBuffer& buf);

/// Nonblocking receive outcome.
enum class RecvStatus { kOk, kWouldBlock, kClosed };

/// Nonblocking receive of one datagram through `buf` into `out`, which
/// holds exactly the received bytes afterwards (only written on kOk).
RecvStatus try_recv_datagram(const Fd& fd, RecvBuffer& buf,
                             std::vector<std::byte>& out);

}  // namespace qolsr::net
