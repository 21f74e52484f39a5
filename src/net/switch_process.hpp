#pragma once

#include <string>

namespace qolsr::net {

/// Names the fd of an inherited listener: a parent that already listens at
/// the socket path sets it, and run_switch adopts that fd instead of
/// binding its own.
inline constexpr const char* kSwitchListenFdEnv = "QOLSR_SWITCH_LISTEN_FD";

/// Runs the software switch process: listens on the Unix SOCK_SEQPACKET
/// socket at `path` (or adopts the listener named by kSwitchListenFdEnv),
/// accepts plugs, and forwards frames per SwitchCore's rules in a
/// single-threaded poll() loop (the vde2 shape — one process, one loop,
/// per-port outbound queues). Port fds are nonblocking: a copy
/// that would block queues on its port and drains on POLLOUT, so one slow
/// plug never stalls the others.
///
/// Returns the process exit code: 0 after an orderly ControlOp::kShutdown
/// addressed to the switch, nonzero when the listener could not be set up.
int run_switch(const std::string& path);

}  // namespace qolsr::net
