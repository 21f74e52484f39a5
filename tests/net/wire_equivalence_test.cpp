// The tentpole acceptance criterion, as a ctest: a real multi-process
// wire run — qolsr_switch + one qolsr_node daemon per node over Unix
// SOCK_SEQPACKET — converges to per-node digests equal byte-for-byte to
// an in-process Simulator run of the same topology, seed and (shared)
// timing struct, for all five registry selectors, with their fleets in
// flight together; and a batch larger than the process budget overlaps
// its fleets without exceeding it.
//
// The daemon/switch binaries are discovered next to this test binary
// (all CMake targets land in the build root); QOLSR_NODE_BIN /
// QOLSR_SWITCH_BIN override for out-of-tree runs.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "graph/graph.hpp"
#include "net/wire_harness.hpp"
#include "olsr/selector_registry.hpp"
#include "sim/simulator.hpp"

namespace qolsr {
namespace {

/// 8 nodes: a ring with node 0 as a hub plus extra chords — enough
/// structure that all five selectors produce pairwise-distinct converged
/// state (verified below), small enough that 9 processes converge in
/// wall-clock milliseconds at the scaled timing.
Graph test_graph() {
  Graph g(8);
  const auto qos_of = [](NodeId u, NodeId v) {
    LinkQos q;
    q.bandwidth = 1.0 + 0.5 * static_cast<double>(u + v);
    q.delay = 0.01 * static_cast<double>(u * 7 + v + 1);
    q.jitter = 0.001 * static_cast<double>(v);
    q.loss_cost = 0.002 * static_cast<double>(u);
    q.energy = 1.0 + 0.25 * static_cast<double>(v);
    q.buffers = 2.0 + static_cast<double>(u);
    return q;
  };
  const std::pair<NodeId, NodeId> edges[] = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0},  // ring
      {0, 2}, {0, 3}, {0, 4},                                  // hub spokes
      {1, 4}, {2, 6},                                          // chords
      {3, 7}, {5, 7},                                          // node 7
  };
  for (const auto& [u, v] : edges) g.add_edge(u, v, qos_of(u, v));
  return g;
}

std::vector<std::uint64_t> simulator_digests(const Graph& graph,
                                             const std::string& protocol,
                                             const ProtocolTiming& timing,
                                             std::uint64_t seed) {
  const auto& registry = SelectorRegistry::builtin();
  const auto ans = registry.create(protocol, MetricId::kBandwidth);
  const auto flooding =
      registry.create_flooding(protocol, MetricId::kBandwidth);
  const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
    return kInvalidNode;
  };
  SimConfig config;
  config.node = timing;
  config.seed = seed;
  Simulator sim(graph, *flooding, *ans, no_routes, config);
  const ConvergenceReport report = sim.run_to_convergence();
  EXPECT_TRUE(report.converged) << protocol << ": simulator never settled";
  std::vector<std::uint64_t> digests(graph.node_count());
  for (NodeId id = 0; id < graph.node_count(); ++id)
    digests[id] = sim.node(id).converged_digest();
  return digests;
}

/// The processes whose parent is this test, read from /proc: the wire
/// harness's children, running or not yet reaped.
std::size_t child_processes() {
  const pid_t self = ::getpid();
  std::size_t count = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc", ec), end;
       !ec && it != end; it.increment(ec)) {
    std::ifstream stat(it->path() / "stat");
    std::string line;
    std::getline(stat, line);
    const std::size_t after_comm = line.rfind(')');  // comm may hold spaces
    if (after_comm == std::string::npos) continue;
    std::istringstream fields(line.substr(after_comm + 1));
    char state = 0;
    pid_t parent = 0;
    if (fields >> state >> parent && parent == self) ++count;
  }
  return count;
}

/// Runs `jobs` as one batch and returns each fleet's converged digests,
/// indexed by job. With `live_children_at_done`, also records how many
/// child processes were alive at each `done`.
std::vector<std::vector<std::uint64_t>> wire_digests(
    const std::vector<net::WireJob>& jobs,
    std::vector<std::size_t>* live_children_at_done = nullptr) {
  std::vector<std::vector<std::uint64_t>> digests(jobs.size());
  net::run_wire_networks(
      jobs, [&](std::size_t index, net::WireRunResult&& wire) {
        if (live_children_at_done != nullptr)
          live_children_at_done->push_back(child_processes());
        for (const net::StatusReport& report : wire.reports)
          digests[index].push_back(report.digest);
      });
  return digests;
}

TEST(WireEquivalence, AllFiveSelectorsMatchTheSimulatorByteForByte) {
  // One batch: the paper's five contenders' fleets (45 processes) are in
  // flight together. FNBP's ablations are left out: on this graph
  // fnbp_id_tiebreak converges to topology_filtering's state, so the
  // distinctness check below could not hold over the whole registry; their
  // fleets are digest-checked by FleetsOverlapWithinTheProcessBudget.
  const Graph graph = test_graph();
  const std::vector<std::string> protocols = {
      "olsr_mpr", "qolsr_mpr1", "qolsr_mpr2", "topology_filtering", "fnbp"};
  std::vector<net::WireJob> jobs(protocols.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].graph = &graph;
    jobs[i].config.protocol = protocols[i];
    jobs[i].config.seed = 20260808;
    jobs[i].config.timeout_seconds = 60.0;
  }
  const auto per_protocol = wire_digests(jobs);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(protocols[i]);
    ASSERT_EQ(per_protocol[i].size(), graph.node_count());
    // Byte-for-byte: the N processes on real sockets and wall-clock
    // timers folded exactly the state the discrete-event run folded.
    EXPECT_EQ(per_protocol[i],
              simulator_digests(graph, protocols[i], jobs[i].config.timing,
                                jobs[i].config.seed));
  }

  // Sanity that the equality above is not vacuous: on this graph every
  // selector converges to state distinct from every other selector's.
  ASSERT_EQ(per_protocol.size(), 5u);
  for (std::size_t i = 0; i < per_protocol.size(); ++i)
    for (std::size_t j = i + 1; j < per_protocol.size(); ++j)
      EXPECT_NE(per_protocol[i], per_protocol[j]) << i << " vs " << j;
}

TEST(WireHarness, FleetsOverlapWithinTheProcessBudget) {
  // Eight fleets of 9 processes: seven fit the budget together, and the
  // eighth queues until one ends. The harness ends fleets one at a time,
  // so when the first `done` runs, the six others admitted with it are
  // still alive.
  const Graph graph = test_graph();
  const std::vector<std::string> protocols =
      SelectorRegistry::builtin().names();
  std::vector<net::WireJob> jobs(8);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].graph = &graph;
    jobs[j].config.protocol = protocols[j % protocols.size()];
    jobs[j].config.seed = 20260808 + j;
    jobs[j].config.timeout_seconds = 60.0;
  }
  std::vector<std::size_t> live;
  const auto digests = wire_digests(jobs, &live);

  ASSERT_EQ(live.size(), jobs.size());
  EXPECT_EQ(live.front(), 6u * 9u);
  for (const std::size_t children : live)
    EXPECT_LE(children, net::kWireProcessBudget);
  for (std::size_t j = 0; j < jobs.size(); ++j)
    EXPECT_EQ(digests[j],
              simulator_digests(graph, jobs[j].config.protocol,
                                jobs[j].config.timing, jobs[j].config.seed))
        << "job " << j;
}

TEST(WireEquivalence, SetSizesTravelWithTheDigests) {
  // The eval backend reports ANS sizes straight from the status frames;
  // pin them against the in-process run for one selector. (The flooding
  // set and its size travel inside each digest, which the tests above
  // compare.)
  const Graph graph = test_graph();
  net::WireRunConfig config;
  config.protocol = "qolsr_mpr2";
  config.seed = 99;
  const net::WireRunResult wire = net::run_wire_network(graph, config);
  ASSERT_EQ(wire.reports.size(), graph.node_count());

  const auto& registry = SelectorRegistry::builtin();
  const auto ans = registry.create("qolsr_mpr2", MetricId::kBandwidth);
  const auto flooding =
      registry.create_flooding("qolsr_mpr2", MetricId::kBandwidth);
  const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
    return kInvalidNode;
  };
  SimConfig sim_config;
  sim_config.node = config.timing;
  sim_config.seed = 99;
  Simulator sim(graph, *flooding, *ans, no_routes, sim_config);
  ASSERT_TRUE(sim.run_to_convergence().converged);

  for (NodeId id = 0; id < graph.node_count(); ++id) {
    EXPECT_EQ(wire.reports[id].ans_size, sim.node(id).ans().size())
        << "node " << id;
  }
}

}  // namespace
}  // namespace qolsr
