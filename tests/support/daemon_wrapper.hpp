#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "graph/node_id.hpp"

namespace qolsr::testing {

/// Writes an executable /bin/sh wrapper around the node daemon at `real`
/// and returns its path; the caller unlinks it. Node `victim` runs the
/// real daemon, which the wrapper SIGKILLs 0.3 s after spawn, once a fleet
/// is past its handshake, before exiting 9 itself; every other node execs
/// the real daemon directly. Returns "" when the script cannot be written.
inline std::string write_daemon_kill_wrapper(const std::string& real,
                                             NodeId victim) {
  char path[] = "/tmp/qolsr_node_wrapper_XXXXXX";
  const int fd = ::mkstemp(path);
  if (fd < 0) return {};
  const std::string body =
      "#!/bin/sh\n"
      "if [ \"$2\" != " + std::to_string(victim) + " ]; then exec '" + real +
      "' \"$@\"; fi\n"
      "'" + real + "' \"$@\" & pid=$!\n"
      "sleep 0.3; kill -9 $pid; wait $pid; exit 9\n";
  const bool written =
      ::write(fd, body.data(), body.size()) ==
          static_cast<ssize_t>(body.size()) &&
      ::fchmod(fd, 0700) == 0;
  ::close(fd);
  if (!written) {
    ::unlink(path);
    return {};
  }
  return path;
}

}  // namespace qolsr::testing
