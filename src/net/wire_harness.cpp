#include "net/wire_harness.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "net/socket.hpp"
#include "net/switch_process.hpp"

extern char** environ;

namespace qolsr::net {

namespace {

double monotonic_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// poll() timeout for a wait of `seconds`, rounded up so a wait never
/// wakes before its instant.
int poll_timeout_ms(double seconds) {
  return static_cast<int>(std::ceil(std::max(seconds, 0.0) * 1000.0));
}

std::string exit_text(int status) {
  if (WIFSIGNALED(status))
    return "was killed by signal " + std::to_string(WTERMSIG(status));
  return "exited with status " + std::to_string(WEXITSTATUS(status));
}

/// One run's process tree, its temp socket dir and the harness's switch
/// plug. Every wait polls the plug beside one pidfd per child, so a child
/// that exits before shutdown throws at once, naming itself and its exit
/// status; the destructor guarantees no child outlives a throw anywhere in
/// the run.
class Fleet {
 public:
  Fleet(std::string dir, double deadline)
      : dir_(std::move(dir)), deadline_(deadline) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    for (const Child& c : children_) ::kill(c.pid, SIGKILL);
    for (const Child& c : children_) ::waitpid(c.pid, nullptr, 0);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// fork + exec of `argv`. A `listener` is handed to the child under
  /// kSwitchListenFdEnv (socket activation of the switch).
  void spawn(const std::vector<std::string>& argv, std::string name,
             const Fd* listener = nullptr) {
    // Everything is built before fork: the child only execs.
    std::vector<char*> cargv;
    for (const std::string& a : argv)
      cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    std::string listen_env;
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
    if (listener != nullptr) {
      listen_env = std::string(kSwitchListenFdEnv) + "=" +
                   std::to_string(listener->get());
      envp.push_back(listen_env.data());
    }
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
      throw std::runtime_error("wire harness: cannot fork " + name + ": " +
                               std::strerror(errno));
    if (pid == 0) {
      if (listener != nullptr) ::fcntl(listener->get(), F_SETFD, 0);
      ::execve(cargv[0], cargv.data(), envp.data());
      _exit(127);  // exec failed: the parent's pidfd sees the exit at once
    }
    children_.push_back(
        {pid, Fd(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0))),
         std::move(name)});
    if (!children_.back().pidfd.valid())
      throw std::runtime_error(std::string("wire harness: pidfd_open: ") +
                               std::strerror(errno));
  }

  /// Names the phase the run is in, for its errors.
  void enter(const char* stage) { stage_ = stage; }

  /// Takes the harness's connected switch plug and registers it.
  void plug_in(Fd sock) {
    if (!sock.valid())
      throw std::runtime_error("wire harness: cannot reach the switch");
    plug_ = std::move(sock);
    set_nonblocking(plug_);
    Frame reg;
    reg.kind = kKindRegister;
    reg.sender = kControllerId;
    reg.dest = kSwitchDest;
    if (!send_datagram(plug_, encode_frame(reg))) fail("register failed");
  }

  void send_to(NodeId dest, std::vector<std::byte> payload) {
    Frame f;
    f.kind = kKindControl;
    f.sender = kControllerId;
    f.dest = dest;
    f.payload = std::move(payload);
    if (!send_datagram(plug_, encode_frame(f))) fail("control send failed");
  }

  /// The next well-formed control frame, or nullopt once `until` passes.
  /// Throws when a child exits, and when the run's budget ends first.
  std::optional<Frame> recv_until(double until) {
    std::vector<std::byte> datagram;
    for (;;) {
      const RecvStatus st = try_recv_datagram(plug_, datagram);
      if (st == RecvStatus::kOk) {
        if (auto frame = decode_frame(datagram);
            frame.has_value() && frame->kind == kKindControl)
          return frame;
        continue;
      }
      if (st == RecvStatus::kClosed) fail("the switch closed the plug");
      const double now = monotonic_now();
      if (now >= until) return std::nullopt;
      if (now >= deadline_) fail_now("timeout");
      wait(true, std::min(until, deadline_) - now);
    }
  }

  Frame recv() {
    return *recv_until(std::numeric_limits<double>::infinity());
  }

  /// Orderly teardown after the shutdown frames: waits on each pidfd, then
  /// reaps. Children still running at the budget's end are SIGKILLed by
  /// the destructor.
  void reap() {
    const double until = std::max(deadline_, monotonic_now() + 1.0);
    while (!children_.empty()) {
      pollfd pfd{children_.back().pidfd.get(), POLLIN, 0};
      const int rc =
          ::poll(&pfd, 1, poll_timeout_ms(until - monotonic_now()));
      if (rc == 0) return;
      if (rc < 0) continue;  // EINTR
      ::waitpid(children_.back().pid, nullptr, 0);
      children_.pop_back();
    }
  }

 private:
  struct Child {
    pid_t pid = -1;
    Fd pidfd;  ///< polls readable once the child has exited
    std::string name;
  };

  /// Polls the plug (when `plug`) and every pidfd for up to `seconds`;
  /// throws if a child exited.
  void wait(bool plug, double seconds) {
    std::vector<pollfd> pfds;
    pfds.push_back({plug ? plug_.get() : -1, POLLIN, 0});
    for (const Child& c : children_)
      pfds.push_back({c.pidfd.get(), POLLIN, 0});
    if (::poll(pfds.data(), pfds.size(), poll_timeout_ms(seconds)) <= 0)
      return;
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Child& c = children_[i - 1];
      int status = 0;
      ::waitpid(c.pid, &status, 0);
      const std::string what = c.name + " (pid " + std::to_string(c.pid) +
                               ") " + exit_text(status);
      children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(i - 1));
      fail_now(what);
    }
  }

  /// The plug broke: most likely the switch died, so wait for a child's
  /// exit to name it; report `what` if none exits before the deadline.
  [[noreturn]] void fail(const std::string& what) {
    while (monotonic_now() < deadline_)
      wait(false, deadline_ - monotonic_now());
    fail_now(what);
  }

  [[noreturn]] void fail_now(const std::string& what) const {
    throw std::runtime_error("wire harness: " + what + " during " + stage_);
  }

  std::string dir_;
  double deadline_;
  const char* stage_ = "spawn";
  std::vector<Child> children_;
  Fd plug_;
};

NodeSetup setup_for(const Graph& graph, NodeId id,
                    const WireRunConfig& config) {
  NodeSetup s;
  s.id = id;
  s.node_count = static_cast<std::uint32_t>(graph.node_count());
  s.seed = config.seed;
  s.timing = config.timing;
  s.metric = static_cast<std::uint8_t>(config.metric);
  s.protocol = config.protocol;
  for (const Edge& e : graph.neighbors(id))
    s.neighbors.push_back({e.to, e.qos});
  return s;
}

}  // namespace

std::string find_sibling_binary(const char* env_var, const char* name) {
  if (const char* override_path = std::getenv(env_var);
      override_path != nullptr && *override_path != '\0')
    return override_path;
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return (self.parent_path() / name).string();
  return name;  // last resort: rely on PATH-less execv failing loudly
}

std::optional<double> next_status_round(const std::vector<StatusReply>& replies,
                                        std::uint32_t round, double round_sent,
                                        double start_sent, double dwell) {
  double quiet_since = start_sent;
  for (const StatusReply& r : replies)
    if (r.report.round == round)
      quiet_since = std::max(quiet_since, r.received_at - r.report.quiet_for);
  if (round_sent - quiet_since >= dwell) return std::nullopt;
  return quiet_since + dwell;
}

WireRunResult run_wire_network(const Graph& graph,
                               const WireRunConfig& config) {
  const std::size_t n = graph.node_count();
  if (n == 0) return {};
  const double deadline = monotonic_now() + config.timeout_seconds;

  const std::string switch_bin =
      config.switch_binary.empty()
          ? find_sibling_binary("QOLSR_SWITCH_BIN", "qolsr_switch")
          : config.switch_binary;
  const std::string node_bin =
      config.node_binary.empty()
          ? find_sibling_binary("QOLSR_NODE_BIN", "qolsr_node")
          : config.node_binary;

  char dir_template[] = "/tmp/qolsr_wire_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr)
    throw std::runtime_error("wire harness: mkdtemp failed");
  Fleet fleet(dir_template, deadline);
  const std::string sock_path = std::string(dir_template) + "/switch.sock";

  {
    // Socket activation: the harness listens before the switch exists and
    // hands it the listener, so no connect — the harness's or a daemon's —
    // ever retries. Once the harness's copy closes, a dead switch refuses
    // every later connect.
    const Fd listener = listen_unix(sock_path, 64);
    if (!listener.valid())
      throw std::runtime_error("wire harness: cannot listen at " + sock_path);
    fleet.plug_in(connect_unix(sock_path));
    fleet.spawn({switch_bin, sock_path}, "the switch", &listener);
  }
  for (NodeId id = 0; id < n; ++id)
    fleet.spawn({node_bin, sock_path, std::to_string(id)},
                "node " + std::to_string(id));

  // Radio topology upload: the switch becomes the shared ether.
  fleet.enter("topology upload");
  for (NodeId u = 0; u < n; ++u)
    for (const Edge& e : graph.neighbors(u))
      if (u < e.to) fleet.send_to(kSwitchDest, encode_link(u, e.to));

  // Each daemon announces itself right behind its Register frame and gets
  // its Configure in reply. No Configure is lost: the controller registered
  // before any daemon was spawned, and a plug's frames are routed in order.
  fleet.enter("configure handshake");
  for (std::size_t ready = 0; ready < n;) {
    const Frame frame = fleet.recv();
    if (frame.sender >= n) continue;
    const ControlOp op = peek_control_op(frame.payload);
    if (op == ControlOp::kAnnounce)
      fleet.send_to(frame.sender,
                    encode_configure(setup_for(graph, frame.sender, config)));
    else if (op == ControlOp::kReady)
      ++ready;
  }

  for (NodeId id = 0; id < n; ++id)
    fleet.send_to(id, encode_control(ControlOp::kStart));
  const double start_sent = monotonic_now();

  // Quiescence by the simulator's own rule (Simulator::run_to_convergence):
  // stop at the fleet's last mutation + dwell. Each round's replies either
  // certify that or name the instant the next round can; frames arriving
  // in between, such as replies of an earlier round, are dropped.
  const double dwell = config.timing.convergence_dwell();
  const bool debug = std::getenv("QOLSR_WIRE_DEBUG") != nullptr;
  std::vector<StatusReply> replies(n);
  double next_round_at = start_sent + dwell;
  for (std::uint32_t round = 1;; ++round) {
    fleet.enter("quiescence wait");
    while (fleet.recv_until(next_round_at)) {
    }
    fleet.enter("status round");
    const double round_sent = monotonic_now();
    for (NodeId id = 0; id < n; ++id)
      fleet.send_to(id, encode_status_req(round));
    for (std::size_t got = 0; got < n;) {
      const Frame frame = fleet.recv();
      const auto report = decode_status(frame.payload);
      if (!report.has_value() || report->round != round || frame.sender >= n)
        continue;
      replies[frame.sender] = {*report, monotonic_now()};
      ++got;
    }
    const auto next =
        next_status_round(replies, round, round_sent, start_sent, dwell);
    if (debug) {
      std::fprintf(stderr, "status round %u at +%.6f s: %s; quiet_for:", round,
                   round_sent - start_sent,
                   next ? ("next at +" + std::to_string(*next - start_sent) +
                           " s").c_str()
                        : "quiescent");
      for (const StatusReply& r : replies)
        std::fprintf(stderr, " %.6f", r.report.quiet_for);
      std::fprintf(stderr, "\n");
    }
    if (!next.has_value()) break;
    next_round_at = *next;
  }

  fleet.enter("shutdown");
  for (NodeId id = 0; id < n; ++id)
    fleet.send_to(id, encode_control(ControlOp::kShutdown));
  fleet.send_to(kSwitchDest, encode_control(ControlOp::kShutdown));
  fleet.reap();

  WireRunResult result;
  result.reports.reserve(n);
  for (const StatusReply& r : replies) result.reports.push_back(r.report);
  return result;
}

}  // namespace qolsr::net
