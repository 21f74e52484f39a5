#include "net/switch_process.hpp"

#include <cerrno>
#include <cstdlib>
#include <deque>
#include <memory>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/socket.hpp"
#include "net/switch_core.hpp"
#include "net/wire_format.hpp"

namespace qolsr::net {

namespace {

/// A forwarded copy shares the original datagram bytes — forwarding never
/// re-encodes (the frame is immutable in flight), mirroring SharedBytes in
/// the in-process Medium.
using RawFrame = std::shared_ptr<const std::vector<std::byte>>;

struct PortState {
  Fd fd;
  std::deque<RawFrame> outq;  ///< copies waiting for POLLOUT
};

}  // namespace

int run_switch(const std::string& path) {
  // Socket activation: a harness that already listens at `path` hands its
  // listener over, so its plugs connect at once instead of retrying while
  // this process starts.
  const char* inherited = std::getenv(kSwitchListenFdEnv);
  Fd listener = inherited != nullptr ? Fd(std::atoi(inherited))
                                     : listen_unix(path, 64);
  if (!listener.valid()) return 1;

  SwitchCore core;
  std::vector<PortState> ports;  // index == SwitchCore port index
  std::vector<std::size_t> deliveries;
  bool running = true;

  const auto drop_port = [&](std::size_t port) {
    core.remove_port(port);
    ports[port].fd.reset();
    ports[port].outq.clear();
  };

  const auto drain = [&](std::size_t port) {
    PortState& p = ports[port];
    while (!p.outq.empty()) {
      const auto& bytes = *p.outq.front();
      const ssize_t n = ::send(p.fd.get(), bytes.data(), bytes.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n == static_cast<ssize_t>(bytes.size())) {
        p.outq.pop_front();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      drop_port(port);  // dead peer
      return;
    }
  };

  RecvBuffer rx;
  std::vector<std::byte> datagram;
  while (running) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> pfd_port;  // pfds[i>0] -> port index
    pfds.push_back({listener.get(), POLLIN, 0});
    pfd_port.push_back(SIZE_MAX);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (!core.port_live(i)) continue;
      short events = POLLIN;
      if (!ports[i].outq.empty()) events |= POLLOUT;
      pfds.push_back({ports[i].fd.get(), events, 0});
      pfd_port.push_back(i);
    }

    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return 1;
    }

    if (pfds[0].revents & POLLIN) {
      Fd conn = accept_unix(listener);
      if (conn.valid()) {
        set_nonblocking(conn);
        const std::size_t port = core.add_port();
        if (port == ports.size()) ports.emplace_back();
        ports[port].fd = std::move(conn);
      }
    }

    for (std::size_t i = 1; i < pfds.size(); ++i) {
      const std::size_t port = pfd_port[i];
      if (!core.port_live(port)) continue;  // dropped earlier this pass
      if (pfds[i].revents & POLLOUT) drain(port);
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const RecvStatus st = try_recv_datagram(ports[port].fd, rx, datagram);
        if (st == RecvStatus::kWouldBlock) break;
        if (st == RecvStatus::kClosed) {
          drop_port(port);
          break;
        }
        const auto frame = decode_frame(datagram);
        if (!frame.has_value()) continue;  // malformed: dropped, not fatal
        deliveries.clear();
        if (!core.route(port, *frame, deliveries)) running = false;
        if (deliveries.empty()) continue;
        const auto raw = std::make_shared<const std::vector<std::byte>>(
            std::move(datagram));
        datagram = {};
        for (const std::size_t dst : deliveries)
          if (core.port_live(dst)) ports[dst].outq.push_back(raw);
      }
    }

    // Opportunistic drain: most queues empty without waiting for POLLOUT.
    for (std::size_t i = 0; i < ports.size(); ++i)
      if (core.port_live(i) && !ports[i].outq.empty()) drain(i);
  }

  // Orderly exit: flush what is already queued (e.g. the per-daemon
  // Shutdown frames the controller sent just before stopping the switch)
  // under a short budget, so daemons exit cleanly instead of via SIGKILL.
  const double flush_deadline = monotonic_now() + 1.0;
  for (bool pending = true; pending && monotonic_now() < flush_deadline;) {
    pending = false;
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (!core.port_live(i) || ports[i].outq.empty()) continue;
      drain(i);
      if (core.port_live(i) && !ports[i].outq.empty()) pending = true;
    }
  }

  ::unlink(path.c_str());
  return 0;
}

}  // namespace qolsr::net
