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
#include <memory>
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

/// Whether `pid` has begun to exit. The kernel sets PF_EXITING in the
/// task's flags (field 9 of /proc/<pid>/stat) early in do_exit, before the
/// task closes any descriptor, and the flag stays until it is reaped.
bool exiting(pid_t pid) {
  std::FILE* f =
      std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(), "r");
  if (f == nullptr) return false;
  char buf[512];
  const std::size_t len = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[len] = '\0';
  const char* after_comm = std::strrchr(buf, ')');  // comm may hold spaces
  unsigned flags = 0;
  constexpr unsigned kPfExiting = 0x4;
  return after_comm != nullptr &&
         std::sscanf(after_comm + 1, " %*c %*d %*d %*d %*d %*d %u", &flags) ==
             1 &&
         (flags & kPfExiting) != 0;
}

std::string exit_text(int status) {
  if (WIFSIGNALED(status))
    return "was killed by signal " + std::to_string(WTERMSIG(status));
  return "exited with status " + std::to_string(WEXITSTATUS(status));
}

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

/// One (run, protocol) fleet of a batch: its process tree, its temp socket
/// dir, the harness's switch plug, and its progress through the status
/// rounds. Every wait polls the plug beside one pidfd per child, so a child
/// that exits before shutdown throws at once, naming itself, its exit
/// status and the fleet; the destructor guarantees no child outlives a
/// throw anywhere in the batch. The switch's death cuts every daemon's
/// link, so its daemons exit right behind it and are often seen first:
/// while the switch is down, the error names the switch.
class Fleet {
 public:
  /// Creates the socket dir; `job` must outlive the fleet. The fleet's
  /// timeout counts from here.
  Fleet(std::size_t index, const WireJob& job)
      : index_(index),
        graph_(*job.graph),
        config_(job.config),
        tag_(" (fleet '" + config_.protocol + "', seed " +
             std::to_string(config_.seed) + ")"),
        deadline_(monotonic_now() + config_.timeout_seconds),
        dwell_(config_.timing.convergence_dwell()),
        replies_(graph_.node_count()) {
    char dir_template[] = "/tmp/qolsr_wire_XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) throw error("mkdtemp failed");
    dir_ = dir_template;
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    for (const Child& c : children_) ::kill(c.pid, SIGKILL);
    for (const Child& c : children_) ::waitpid(c.pid, nullptr, 0);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::size_t index() const { return index_; }

  /// The processes the fleet counts against kWireProcessBudget.
  std::size_t cost() const { return graph_.node_count() + 1; }

  /// Spawns the switch and one daemon per node, uploads the adjacency,
  /// configures and starts every daemon. Blocks on this fleet only.
  void launch() {
    const std::size_t n = graph_.node_count();
    const std::string switch_bin =
        config_.switch_binary.empty()
            ? find_sibling_binary("QOLSR_SWITCH_BIN", "qolsr_switch")
            : config_.switch_binary;
    const std::string node_bin =
        config_.node_binary.empty()
            ? find_sibling_binary("QOLSR_NODE_BIN", "qolsr_node")
            : config_.node_binary;
    const std::string sock_path = dir_ + "/switch.sock";
    {
      // Socket activation: the harness listens before the switch exists
      // and hands it the listener, so no connect — the harness's or a
      // daemon's — ever retries. Once the harness's copy closes, a dead
      // switch refuses every later connect.
      const Fd listener = listen_unix(sock_path, 64);
      if (!listener.valid()) throw error("cannot listen at " + sock_path);
      plug_in(connect_unix(sock_path));
      spawn_switch({switch_bin, sock_path}, listener);
    }
    for (NodeId id = 0; id < n; ++id)
      spawn({node_bin, sock_path, std::to_string(id)},
            "node " + std::to_string(id));

    // Radio topology upload: the switch becomes the shared ether.
    enter("topology upload");
    for (NodeId u = 0; u < n; ++u)
      for (const Edge& e : graph_.neighbors(u))
        if (u < e.to) send_to(kSwitchDest, encode_link(u, e.to));

    // Each daemon announces itself right behind its Register frame and
    // gets its Configure in reply. No Configure is lost: the controller
    // registered before any daemon was spawned, and a plug's frames are
    // routed in order.
    enter("configure handshake");
    for (std::size_t ready = 0; ready < n;) {
      const Frame frame = recv();
      if (frame.sender >= n) continue;
      const ControlOp op = peek_control_op(frame.payload);
      if (op == ControlOp::kAnnounce)
        send_to(frame.sender,
                encode_configure(setup_for(graph_, frame.sender, config_)));
      else if (op == ControlOp::kReady)
        ++ready;
    }

    for (NodeId id = 0; id < n; ++id)
      send_to(id, encode_control(ControlOp::kStart));
    start_sent_ = monotonic_now();
    next_round_at_ = start_sent_ + dwell_;
    enter("quiescence wait");
  }

  /// When the batch loop must next serve this fleet: at its next status
  /// round, or at its deadline.
  double wake_at() const { return std::min(next_round_at_, deadline_); }

  /// Appends what a wait on this fleet polls: its plug, then one pidfd per
  /// child.
  void watch(std::vector<pollfd>& pfds) const {
    pfds.push_back({plug_.get(), POLLIN, 0});
    for (const Child& c : children_)
      pfds.push_back({c.pidfd.get(), POLLIN, 0});
  }

  /// Called whenever the batch loop wakes: a child that exited throws,
  /// frames between rounds (such as replies of an earlier round) are
  /// dropped, and a due status round runs, blocking on this fleet only.
  /// True once a round certified quiescence.
  bool serve() {
    wait(0.0);
    while (recv_until(0.0).has_value()) {
    }
    const double now = monotonic_now();
    if (now >= next_round_at_) return status_round();
    if (now >= deadline_) fail_now("timeout");
    return false;
  }

  /// Shuts the quiesced fleet down and returns each daemon's report.
  WireRunResult finish() {
    enter("shutdown");
    for (NodeId id = 0; id < graph_.node_count(); ++id)
      send_to(id, encode_control(ControlOp::kShutdown));
    send_to(kSwitchDest, encode_control(ControlOp::kShutdown));
    reap();

    WireRunResult result;
    result.reports.reserve(replies_.size());
    for (const StatusReply& r : replies_) result.reports.push_back(r.report);
    return result;
  }

 private:
  struct Child {
    pid_t pid = -1;
    Fd pidfd;  ///< polls readable once the child has exited
    std::string name;
  };

  /// Quiescence by the simulator's own rule
  /// (Simulator::run_to_convergence): the fleet ends at its last mutation
  /// + dwell. Each round's replies either certify that or name the instant
  /// the next round can (next_status_round). True when they certify it.
  bool status_round() {
    const std::size_t n = graph_.node_count();
    enter("status round");
    ++round_;
    const double round_sent = monotonic_now();
    for (NodeId id = 0; id < n; ++id)
      send_to(id, encode_status_req(round_));
    for (std::size_t got = 0; got < n;) {
      const Frame frame = recv();
      const auto report = decode_status(frame.payload);
      if (!report.has_value() || report->round != round_ || frame.sender >= n)
        continue;
      replies_[frame.sender] = {*report, monotonic_now()};
      ++got;
    }
    const auto next =
        next_status_round(replies_, round_, round_sent, start_sent_, dwell_);
    if (debug_) {
      std::fprintf(stderr, "status round %u at +%.6f s: %s; quiet_for:",
                   round_, round_sent - start_sent_,
                   next ? ("next at +" + std::to_string(*next - start_sent_) +
                           " s").c_str()
                        : "quiescent");
      for (const StatusReply& r : replies_)
        std::fprintf(stderr, " %.6f", r.report.quiet_for);
      std::fprintf(stderr, "%s\n", tag_.c_str());
    }
    enter("quiescence wait");
    if (!next.has_value()) return true;
    next_round_at_ = *next;
    return false;
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
      throw error("cannot fork " + name + ": " + std::strerror(errno));
    if (pid == 0) {
      if (listener != nullptr) ::fcntl(listener->get(), F_SETFD, 0);
      ::execve(cargv[0], cargv.data(), envp.data());
      _exit(127);  // exec failed: the parent's pidfd sees the exit at once
    }
    children_.push_back(
        {pid, Fd(static_cast<int>(::syscall(SYS_pidfd_open, pid, 0))),
         std::move(name)});
    if (!children_.back().pidfd.valid())
      throw error(std::string("pidfd_open: ") + std::strerror(errno));
  }

  /// Spawns the switch, handing it `listener` (see spawn).
  void spawn_switch(const std::vector<std::string>& argv, const Fd& listener) {
    spawn(argv, "the switch", &listener);
    switch_pid_ = children_.back().pid;
  }

  /// Names the phase the fleet is in, for its errors.
  void enter(const char* stage) { stage_ = stage; }

  /// Takes the harness's connected switch plug and registers it.
  void plug_in(Fd sock) {
    if (!sock.valid()) throw error("cannot reach the switch");
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
  /// Throws when a child exits, and when the fleet's budget ends first.
  std::optional<Frame> recv_until(double until) {
    for (;;) {
      const RecvStatus st = try_recv_datagram(plug_, rx_, datagram_);
      if (st == RecvStatus::kOk) {
        if (auto frame = decode_frame(datagram_);
            frame.has_value() && frame->kind == kKindControl)
          return frame;
        continue;
      }
      if (st == RecvStatus::kClosed) fail("the switch closed the plug");
      const double now = monotonic_now();
      if (now >= until) return std::nullopt;
      if (now >= deadline_) fail_now("timeout");
      wait(std::min(until, deadline_) - now);
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

  /// Polls this fleet alone for up to `seconds`; throws if a child exited.
  void wait(double seconds) {
    std::vector<pollfd> pfds;
    watch(pfds);
    if (::poll(pfds.data(), pfds.size(), poll_timeout_ms(seconds)) <= 0)
      return;
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (children_[i - 1].pid != switch_pid_ && switch_down())
        fail("the switch went down");
      fail_child(children_.begin() + static_cast<std::ptrdiff_t>(i - 1));
    }
  }

  /// Whether the switch closed the harness's plug or has begun to exit. A
  /// daemon sees its link close only after the switch began to exit, but
  /// may exit before the switch's pidfd fires, hence the task-flag test.
  bool switch_down() {
    pollfd pfd{plug_.get(), 0, 0};
    ::poll(&pfd, 1, 0);
    return (pfd.revents & (POLLHUP | POLLERR)) != 0 ||
           (switch_pid_ > 0 && exiting(switch_pid_));
  }

  /// The plug broke or the switch is down: wait for the switch to exit
  /// and name it, ignoring daemons that go down with it; report `what` if
  /// the switch is still running at the deadline.
  [[noreturn]] void fail(const std::string& what) {
    const auto sw = find_switch();
    if (sw != children_.end()) {
      pollfd pfd{sw->pidfd.get(), POLLIN, 0};
      while (pfd.revents == 0 && monotonic_now() < deadline_)
        ::poll(&pfd, 1, poll_timeout_ms(deadline_ - monotonic_now()));
      if (pfd.revents != 0) fail_child(sw);
    }
    fail_now(what);
  }

  /// Reaps an exited child and throws its name and exit status.
  [[noreturn]] void fail_child(std::vector<Child>::iterator child) {
    int status = 0;
    ::waitpid(child->pid, &status, 0);
    const std::string what = child->name + " (pid " +
                             std::to_string(child->pid) + ") " +
                             exit_text(status);
    children_.erase(child);
    fail_now(what);
  }

  std::vector<Child>::iterator find_switch() {
    return std::find_if(children_.begin(), children_.end(),
                        [this](const Child& c) { return c.pid == switch_pid_; });
  }

  [[noreturn]] void fail_now(const std::string& what) const {
    throw error(what + " during " + stage_);
  }

  /// A harness error, tagged with the fleet it came from.
  std::runtime_error error(const std::string& what) const {
    return std::runtime_error("wire harness: " + what + tag_);
  }

  const std::size_t index_;
  const Graph& graph_;
  const WireRunConfig& config_;
  const std::string tag_;  ///< " (fleet '<protocol>', seed <seed>)"
  const double deadline_;
  const double dwell_;
  const bool debug_ = std::getenv("QOLSR_WIRE_DEBUG") != nullptr;
  std::string dir_;
  const char* stage_ = "spawn";
  std::vector<Child> children_;
  pid_t switch_pid_ = -1;
  Fd plug_;
  RecvBuffer rx_;
  std::vector<std::byte> datagram_;
  double start_sent_ = 0.0;
  double next_round_at_ = std::numeric_limits<double>::infinity();
  std::uint32_t round_ = 0;
  std::vector<StatusReply> replies_;  ///< index == node id
};

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

bool admits_fleet(std::size_t in_flight, std::size_t cost) {
  return in_flight == 0 || in_flight + cost <= kWireProcessBudget;
}

void run_wire_networks(
    const std::vector<WireJob>& jobs,
    const std::function<void(std::size_t, WireRunResult&&)>& done) {
  // The fleets in flight, in admission order. Destroying a Fleet kills and
  // reaps its children and removes its socket dir, so whatever throws
  // below — a child's exit, a fleet's timeout, or `done` — tears every
  // fleet down before it propagates.
  std::vector<std::unique_ptr<Fleet>> fleets;
  std::size_t in_flight = 0;  // processes of the fleets above
  std::vector<pollfd> pfds;
  for (std::size_t next = 0; next < jobs.size() || !fleets.empty();) {
    // Admit in job order while the budget allows. A launch blocks on the
    // new fleet alone; the others keep to their own timers meanwhile, and
    // a status round served late can only end its fleet late.
    while (next < jobs.size() &&
           admits_fleet(in_flight, jobs[next].graph->node_count() + 1)) {
      const std::size_t index = next++;
      if (jobs[index].graph->node_count() == 0) {
        done(index, {});
        continue;
      }
      fleets.push_back(std::make_unique<Fleet>(index, jobs[index]));
      in_flight += fleets.back()->cost();
      fleets.back()->launch();
    }
    if (fleets.empty()) continue;

    // One poll over every fleet until the soonest round or deadline, or
    // until a plug or pidfd stirs; then each fleet is served in turn. A
    // fleet that quiesced is shut down and handed to `done` before the
    // next one is served, so fleets end one at a time.
    double wake = std::numeric_limits<double>::infinity();
    pfds.clear();
    for (const auto& fleet : fleets) {
      wake = std::min(wake, fleet->wake_at());
      fleet->watch(pfds);
    }
    ::poll(pfds.data(), pfds.size(), poll_timeout_ms(wake - monotonic_now()));
    for (auto it = fleets.begin(); it != fleets.end();) {
      Fleet& fleet = **it;
      if (!fleet.serve()) {
        ++it;
        continue;
      }
      WireRunResult result = fleet.finish();
      const std::size_t index = fleet.index();
      in_flight -= fleet.cost();
      it = fleets.erase(it);
      done(index, std::move(result));
    }
  }
}

WireRunResult run_wire_network(const Graph& graph,
                               const WireRunConfig& config) {
  WireRunResult result;
  run_wire_networks({{&graph, config}},
                    [&result](std::size_t, WireRunResult&& fleet) {
                      result = std::move(fleet);
                    });
  return result;
}

}  // namespace qolsr::net
