// qolsr_switch — the vde2-style software switch: a single-threaded poll
// loop serving Unix SOCK_SEQPACKET plugs at <socket-path>. Daemons
// register their node id, the harness uploads the radio adjacency, and
// packet frames fan out within it, loss-free and at once.
#include <cstdio>

#include "net/switch_process.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <socket-path>\n", argv[0]);
    return 2;
  }
  return qolsr::net::run_switch(argv[1]);
}
