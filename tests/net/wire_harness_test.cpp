// The wire harness's stopping and admission rules as pure functions (no
// processes), and its fail-fast contract with real ones: a fleet whose
// daemon or switch cannot start, or whose daemon or switch dies mid-run,
// throws at once, naming the child, its exit status and the fleet, and a
// failing batch leaves no process behind.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "graph/graph.hpp"
#include "net/wire_harness.hpp"
#include "support/daemon_wrapper.hpp"

namespace qolsr::net {
namespace {

StatusReply reply(std::uint32_t round, double quiet_for, double received_at) {
  StatusReply r;
  r.report.round = round;
  r.report.quiet_for = quiet_for;
  r.received_at = received_at;
  return r;
}

// Times below are binary fractions, so every comparison is exact.

TEST(StatusRound, LeastQuietDaemonSetsTheNextRound) {
  const double dwell = 0.5;
  // Sent and answered at 10.0: the daemons last mutated at 9.0, 9.75 and
  // 9.5, so the fleet has been quiet only since 9.75.
  const std::vector<StatusReply> first = {
      reply(1, 1.0, 10.0), reply(1, 0.25, 10.0), reply(1, 0.5, 10.0)};
  const auto next = next_status_round(first, 1, 10.0, 0.0, dwell);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 10.25);

  // A round at that instant, with nobody mutating meanwhile, stops.
  const std::vector<StatusReply> second = {
      reply(2, 1.25, 10.25), reply(2, 0.5, 10.25), reply(2, 0.75, 10.25)};
  EXPECT_FALSE(next_status_round(second, 2, 10.25, 0.0, dwell).has_value());

  // If the least quiet daemon mutated again (at 10.125), the goalpost moves
  // with it, exactly like the simulator's last mutation + dwell.
  const std::vector<StatusReply> moved = {
      reply(2, 1.25, 10.25), reply(2, 0.125, 10.25), reply(2, 0.75, 10.25)};
  const auto later = next_status_round(moved, 2, 10.25, 0.0, dwell);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(*later, 10.625);
}

TEST(StatusRound, QuietTimeBeforeStartNeverCounts) {
  // A daemon that never mutates reports the time since its clock was
  // reset, which predates Start. The wait still lasts Start + dwell.
  const double start = 5.0, dwell = 0.5;
  const std::vector<StatusReply> early = {reply(1, 100.0, 5.25),
                                          reply(1, 100.0, 5.25)};
  const auto next = next_status_round(early, 1, 5.25, start, dwell);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, start + dwell);

  const std::vector<StatusReply> at_dwell = {reply(2, 100.5, 5.5),
                                             reply(2, 100.5, 5.5)};
  EXPECT_FALSE(next_status_round(at_dwell, 2, 5.5, start, dwell).has_value());
}

TEST(StatusRound, RepliesOfAnotherRoundAreIgnored) {
  const double dwell = 0.5;
  const std::vector<StatusReply> current = {reply(3, 1.0, 10.0),
                                            reply(3, 1.0, 10.0)};
  ASSERT_FALSE(next_status_round(current, 3, 10.0, 0.0, dwell).has_value());

  // A late reply of round 2, from just after a mutation, does not block
  // round 3's verdict...
  std::vector<StatusReply> with_stale = current;
  with_stale.push_back(reply(2, 0.0, 10.0));
  EXPECT_FALSE(next_status_round(with_stale, 3, 10.0, 0.0, dwell).has_value());

  // ...and a stale reply showing a long quiet cannot hide a mutation that
  // the current round saw.
  const std::vector<StatusReply> busy = {reply(2, 5.0, 10.0),
                                         reply(3, 0.25, 10.0)};
  const auto next = next_status_round(busy, 3, 10.0, 0.0, dwell);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 10.25);
}

TEST(StatusRound, StaggeredArrivalsBoundTheCommonQuietWindowFromBelow) {
  // Each daemon reads its clock at some t in [round_sent, received_at] and
  // reports quiet_for = t - last_mutation. Over a grid of read times,
  // arrival delays and mutation times (some after the round was sent), the
  // window the rule credits never starts before the true last mutation,
  // and a "stop" is never given while a mutation sits inside the dwell.
  const double round_sent = 10.0, start = 0.0, dwell = 0.5;
  const double offsets[] = {0.0, 0.125, 0.25};
  const double mutated[] = {9.0, 9.5, 9.75, 10.0, 10.125};
  for (const double read_a : offsets)
    for (const double delay_a : offsets)
      for (const double last_a : mutated)
        for (const double read_b : offsets)
          for (const double delay_b : offsets)
            for (const double last_b : mutated) {
              const double t_a = round_sent + read_a;
              const double t_b = round_sent + read_b;
              if (last_a > t_a || last_b > t_b) continue;  // not yet happened
              const std::vector<StatusReply> replies = {
                  reply(1, t_a - last_a, t_a + delay_a),
                  reply(1, t_b - last_b, t_b + delay_b)};
              const auto next =
                  next_status_round(replies, 1, round_sent, start, dwell);
              const double true_last = std::max(last_a, last_b);
              if (!next.has_value()) {
                EXPECT_GE(round_sent - true_last, dwell)
                    << "stopped with a mutation at " << true_last;
              } else {
                // The next round is never scheduled before the true
                // settle point: the credited window is a lower bound.
                EXPECT_GE(*next, true_last + dwell);
              }
            }
}

TEST(FleetAdmission, AFleetThatFitsIsAdmitted) {
  EXPECT_TRUE(admits_fleet(0, 9));
  EXPECT_TRUE(admits_fleet(54, 9));  // 63 of 64
  EXPECT_TRUE(admits_fleet(kWireProcessBudget - 9, 9));
}

TEST(FleetAdmission, AFleetOverTheBudgetWaits) {
  EXPECT_FALSE(admits_fleet(63, 9));
  EXPECT_FALSE(admits_fleet(kWireProcessBudget - 8, 9));
  EXPECT_FALSE(admits_fleet(1, kWireProcessBudget));
}

TEST(FleetAdmission, AFleetLargerThanTheBudgetRunsAlone) {
  // A Poisson draw can exceed the expected size the backend guards: such a
  // fleet waits for every other to end, then runs rather than never.
  EXPECT_TRUE(admits_fleet(0, kWireProcessBudget + 7));
  EXPECT_FALSE(admits_fleet(5, kWireProcessBudget + 7));
}

/// 4 nodes on a ring with one chord.
Graph ring_graph() {
  Graph g(4);
  LinkQos q;
  q.bandwidth = 2.0;
  q.delay = 0.01;
  for (const auto& [u, v] : {std::pair<NodeId, NodeId>{0, 1},
                             {1, 2}, {2, 3}, {3, 0}, {0, 2}})
    g.add_edge(u, v, q);
  return g;
}

/// Runs a fleet that must fail, and returns the error and how long it took.
std::pair<std::string, double> failing_run(const WireRunConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string what;
  try {
    run_wire_network(ring_graph(), config);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  return {what, took.count()};
}

/// The harness reaped every child it spawned: none is running, and none
/// is left as a zombie.
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(WireHarness, MissingNodeBinaryFailsFastAndNamesTheNode) {
  WireRunConfig config;
  config.timeout_seconds = 30.0;
  config.node_binary = "/nonexistent/qolsr_node";
  const auto [what, took] = failing_run(config);
  ASSERT_FALSE(what.empty()) << "the run did not throw";
  EXPECT_NE(what.find("node "), std::string::npos) << what;
  EXPECT_NE(what.find("exited with status 127"), std::string::npos) << what;
  EXPECT_NE(what.find("(fleet 'olsr_mpr', seed 1)"), std::string::npos)
      << what;
  EXPECT_LT(took, 10.0) << what;
  expect_no_children();
}

TEST(WireHarness, MissingSwitchBinaryFailsFastAndNamesTheSwitch) {
  WireRunConfig config;
  config.timeout_seconds = 30.0;
  config.switch_binary = "/nonexistent/qolsr_switch";
  const auto [what, took] = failing_run(config);
  ASSERT_FALSE(what.empty()) << "the run did not throw";
  EXPECT_NE(what.find("the switch"), std::string::npos) << what;
  EXPECT_NE(what.find("exited with status 127"), std::string::npos) << what;
  EXPECT_LT(took, 10.0) << what;
  expect_no_children();
}

TEST(WireHarness, DaemonKilledMidRunFailsFastAndNamesIt) {
  // Node 2 is SIGKILLed 0.3 s after spawn, once the fleet is past its
  // handshake, and its wrapper exits 9; every other node runs the real
  // daemon directly.
  const std::string script = testing::write_daemon_kill_wrapper(
      find_sibling_binary("QOLSR_NODE_BIN", "qolsr_node"), 2);
  ASSERT_FALSE(script.empty());

  WireRunConfig config;
  config.timeout_seconds = 30.0;
  config.node_binary = script;
  const auto [what, took] = failing_run(config);
  ::unlink(script.c_str());
  ASSERT_FALSE(what.empty()) << "the run did not throw";
  EXPECT_NE(what.find("node 2 "), std::string::npos) << what;
  EXPECT_NE(what.find("exited with status 9"), std::string::npos) << what;
  EXPECT_LT(took, 10.0) << what;
  expect_no_children();
}

/// Four fleets of 5 processes on the ring, seeds 1 to 4: all in flight
/// at once.
std::vector<WireJob> four_ring_jobs(const Graph& graph) {
  std::vector<WireJob> jobs(4);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].graph = &graph;
    jobs[j].config.seed = j + 1;
    jobs[j].config.timeout_seconds = 30.0;
  }
  return jobs;
}

TEST(WireHarness, DaemonKilledInOneOfFourFleetsNamesThatFleet) {
  // Job 2's node 2 runs under the kill wrapper while three healthy fleets
  // are in flight beside it. The error names the daemon, its exit status
  // and its fleet, and every fleet is torn down before it propagates.
  const std::string script = testing::write_daemon_kill_wrapper(
      find_sibling_binary("QOLSR_NODE_BIN", "qolsr_node"), 2);
  ASSERT_FALSE(script.empty());
  const Graph graph = ring_graph();
  std::vector<WireJob> jobs = four_ring_jobs(graph);
  jobs[2].config.node_binary = script;

  const auto t0 = std::chrono::steady_clock::now();
  std::string what;
  try {
    run_wire_networks(jobs, [](std::size_t, WireRunResult&&) {});
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - t0;
  ::unlink(script.c_str());
  ASSERT_FALSE(what.empty()) << "the batch did not throw";
  EXPECT_NE(what.find("node 2 "), std::string::npos) << what;
  EXPECT_NE(what.find("exited with status 9"), std::string::npos) << what;
  EXPECT_NE(what.find("(fleet 'olsr_mpr', seed 3)"), std::string::npos)
      << what;
  EXPECT_LT(took.count(), 10.0) << what;
  expect_no_children();
}

TEST(WireHarness, ThrowingDoneTearsEveryFleetDown) {
  // A digest mismatch surfaces as `done` throwing. The first call throws
  // while the other three fleets are still in flight; the error reaches
  // the caller only after all of them are killed and reaped.
  const Graph graph = ring_graph();
  std::size_t calls = 0;
  std::string what;
  try {
    run_wire_networks(four_ring_jobs(graph),
                      [&calls](std::size_t, WireRunResult&&) {
                        ++calls;
                        throw std::runtime_error("rejected by done");
                      });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "rejected by done");
  EXPECT_EQ(calls, 1u);
  expect_no_children();
}

TEST(WireHarness, SwitchKilledMidRunFailsFastAndNamesIt) {
  // The switch runs under a wrapper that starts a background SIGKILL of
  // its own pid 0.3 s out and then execs the real switch, so the pid the
  // harness tracks is the switch itself. Every daemon loses its link at
  // that instant and exits right behind the switch; the harness must still
  // name the switch, whichever exit it sees first.
  const std::string real =
      find_sibling_binary("QOLSR_SWITCH_BIN", "qolsr_switch");
  char script[] = "/tmp/qolsr_switch_wrapper_XXXXXX";
  const int fd = ::mkstemp(script);
  ASSERT_GE(fd, 0);
  const std::string body =
      "#!/bin/sh\n"
      "(sleep 0.3; kill -9 $$) &\n"
      "exec '" + real + "' \"$@\"\n";
  ASSERT_EQ(::write(fd, body.data(), body.size()),
            static_cast<ssize_t>(body.size()));
  ::fchmod(fd, 0700);
  ::close(fd);

  WireRunConfig config;
  config.timeout_seconds = 30.0;
  config.switch_binary = script;
  const auto [what, took] = failing_run(config);
  ::unlink(script);
  ASSERT_FALSE(what.empty()) << "the run did not throw";
  EXPECT_NE(what.find("the switch"), std::string::npos) << what;
  EXPECT_NE(what.find("killed by signal 9"), std::string::npos) << what;
  EXPECT_LT(took, 10.0) << what;
  expect_no_children();
}

}  // namespace
}  // namespace qolsr::net
