#include "net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <memory>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace qolsr::net {

namespace {

/// Largest datagram the transport accepts: the frame header plus a
/// u16-length payload. Anything bigger is not a well-formed frame.
constexpr std::size_t kMaxDatagram = 64 * 1024 + 64;

bool fill_addr(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;  // sun_path cap
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr;
  if (!fill_addr(path, addr)) return Fd();
  Fd fd(::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Fd();
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return Fd();
  if (::listen(fd.get(), backlog) != 0) return Fd();
  return fd;
}

Fd accept_unix(const Fd& listener) {
  for (;;) {
    const int fd = ::accept4(listener.get(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return Fd(fd);
    if (errno != EINTR) return Fd();
  }
}

Fd connect_unix(const std::string& path) {
  sockaddr_un addr;
  if (!fill_addr(path, addr)) return Fd();
  Fd fd(::socket(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Fd();
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    return Fd();
  return fd;
}

std::pair<Fd, Fd> seqpacket_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, fds) != 0)
    return {Fd(), Fd()};
  return {Fd(fds[0]), Fd(fds[1])};
}

void set_nonblocking(const Fd& fd) {
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
}

bool send_datagram(const Fd& fd, const std::vector<std::byte>& bytes) {
  for (;;) {
    const ssize_t n =
        ::send(fd.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(bytes.size())) return true;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Effectively-blocking semantics even on a nonblocking fd: wait for
      // buffer space instead of silently dropping the frame.
      pollfd pfd{fd.get(), POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) <= 0) return false;
      continue;
    }
    return false;
  }
}

RecvBuffer::RecvBuffer()
    : bytes_(std::make_unique_for_overwrite<std::byte[]>(kMaxDatagram)) {}

std::size_t RecvBuffer::size() const { return kMaxDatagram; }

std::optional<std::vector<std::byte>> recv_datagram(const Fd& fd,
                                                    RecvBuffer& buf) {
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buf.data(), buf.size(), 0);
    if (n > 0) {
      if (static_cast<std::size_t>(n) >= buf.size()) return std::nullopt;
      return std::vector<std::byte>(buf.data(), buf.data() + n);
    }
    if (n == 0) return std::nullopt;  // orderly shutdown
    if (errno != EINTR) return std::nullopt;
  }
}

RecvStatus try_recv_datagram(const Fd& fd, RecvBuffer& buf,
                             std::vector<std::byte>& out) {
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buf.data(), buf.size(), 0);
    if (n > 0) {
      if (static_cast<std::size_t>(n) >= buf.size()) return RecvStatus::kClosed;
      out.assign(buf.data(), buf.data() + n);
      return RecvStatus::kOk;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvStatus::kWouldBlock;
    if (errno != EINTR) return RecvStatus::kClosed;
  }
}

}  // namespace qolsr::net
