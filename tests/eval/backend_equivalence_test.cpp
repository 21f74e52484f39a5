// Backend-equivalence suite: on static topologies the packet backend's
// *converged distributed state* must reproduce the oracle backend's direct
// graph computations — per-node ANS for every registry selector across
// multiple seeds, the TC-learned topology base against the oracle
// advertised topology, and (through the full experiment engine) identical
// set-size aggregates from both backends on the same sampled deployments.
// This is the contract that makes the oracle path a valid stand-in for the
// distributed protocol in the figure reproductions, and the packet path a
// valid measurement of its control-plane cost.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/fnbp.hpp"
#include "eval/backend.hpp"
#include "eval/packet_runner.hpp"
#include "eval/result_sink.hpp"
#include "graph/connectivity.hpp"
#include "routing/advertised_topology.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::next_hop_routes;

constexpr std::uint64_t kGraphSeeds[] = {11, 4242};

/// Every registered protocol by name (the paper's five and FNBP's two
/// ablations), with their packet-backend flooding roles resolved the same
/// way the engine resolves them.
std::vector<std::string> all_selector_names() {
  return SelectorRegistry::builtin().names();
}

TEST(BackendEquivalence, ConvergedAnsMatchesOracleForEveryRegistrySelector) {
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  for (const std::uint64_t graph_seed : kGraphSeeds) {
    const Graph g = testing::random_geometric_graph(graph_seed, 6.0, 250.0);
    for (const std::string& name : all_selector_names()) {
      SCOPED_TRACE("selector " + name + " graph seed " +
                   std::to_string(graph_seed));
      const auto ans = registry.create(name, MetricId::kBandwidth);
      const auto flooding =
          registry.create_flooding(name, MetricId::kBandwidth);
      Simulator sim(g, *flooding, *ans, next_hop_routes());
      const ConvergenceReport report = sim.run_to_convergence();
      EXPECT_TRUE(report.converged);
      EXPECT_LE(report.converged_at, report.end_time);
      for (NodeId u = 0; u < g.node_count(); ++u)
        EXPECT_EQ(sim.node(u).ans(), ans->select(LocalView(g, u)))
            << "node " << u;
    }
  }
}

TEST(BackendEquivalence, ConvergedTopologyBaseEqualsOracleAdvertisedGraph) {
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  const Graph g = testing::random_geometric_graph(kGraphSeeds[0], 6.0, 250.0);
  for (const std::string& name : all_selector_names()) {
    SCOPED_TRACE("selector " + name);
    const auto ans = registry.create(name, MetricId::kBandwidth);
    const auto flooding = registry.create_flooding(name, MetricId::kBandwidth);
    Simulator sim(g, *flooding, *ans, next_hop_routes());
    ASSERT_TRUE(sim.run_to_convergence().converged);

    std::vector<std::vector<NodeId>> oracle_ans(g.node_count());
    for (NodeId u = 0; u < g.node_count(); ++u)
      oracle_ans[u] = ans->select(LocalView(g, u));
    const Graph oracle_adv = build_advertised_topology(g, oracle_ans);

    // Once converged, every node has learned exactly the advertised
    // topology of *its component*: nothing missing (ideal MAC flooding —
    // but a flood cannot cross a component boundary) and nothing extra
    // anywhere (transient advertisements have expired within the dwell
    // window).
    const Components components = connected_components(g);
    for (NodeId u = 0; u < g.node_count(); ++u) {
      const Graph known = sim.node(u).topology().to_graph(g.node_count());
      for (NodeId a = 0; a < g.node_count(); ++a) {
        if (components.connected(u, a))
          for (const Edge& e : oracle_adv.neighbors(a))
            if (a < e.to)
              EXPECT_TRUE(known.has_edge(a, e.to))
                  << "node " << u << " missing " << a << "-" << e.to;
        for (const Edge& e : known.neighbors(a))
          if (a < e.to)
            EXPECT_TRUE(oracle_adv.has_edge(a, e.to))
                << "node " << u << " holds stale " << a << "-" << e.to;
      }
    }
  }
}

ExperimentSpec small_spec(BackendId backend) {
  ExperimentSpec spec;
  spec.backend = backend;
  spec.selectors = all_selector_names();
  spec.scenario.densities = {6};
  spec.scenario.field.width = 300.0;
  spec.scenario.field.height = 300.0;
  spec.scenario.runs = 3;
  spec.scenario.seed = 9;
  spec.threads = 1;
  return spec;
}

TEST(BackendEquivalence, BothBackendsAgreeOnSetSizesOfTheSameDeployments) {
  // Same scenario seed ⇒ both backends sample the identical deployments
  // and pairs (the packet backend reuses sample_run's RNG stream), and a
  // converged control plane selects exactly the oracle sets — so the
  // set-size aggregates must agree to the last bit, for all seven
  // registered selectors at once.
  const ExperimentResult oracle =
      run_experiment(small_spec(BackendId::kOracle));
  const ExperimentResult packet =
      run_experiment(small_spec(BackendId::kPacket));
  ASSERT_EQ(oracle.sweep.size(), packet.sweep.size());
  for (std::size_t di = 0; di < oracle.sweep.size(); ++di) {
    ASSERT_EQ(oracle.sweep[di].protocols.size(),
              packet.sweep[di].protocols.size());
    EXPECT_DOUBLE_EQ(oracle.sweep[di].node_count.mean(),
                     packet.sweep[di].node_count.mean());
    for (std::size_t si = 0; si < oracle.sweep[di].protocols.size(); ++si) {
      const ProtocolStats& o = oracle.sweep[di].protocols[si];
      const ProtocolStats& p = packet.sweep[di].protocols[si];
      EXPECT_EQ(o.name, p.name);
      EXPECT_DOUBLE_EQ(o.set_size.mean(), p.set_size.mean())
          << "selector " << o.name;
      EXPECT_DOUBLE_EQ(o.set_size.stddev(), p.set_size.stddev())
          << "selector " << o.name;
    }
  }
}

TEST(BackendEquivalence, PacketBackendMeasuresControlPlaneCost) {
  const ExperimentResult result =
      run_experiment(small_spec(BackendId::kPacket));
  ASSERT_EQ(result.sweep.size(), 1u);
  for (const ProtocolStats& p : result.sweep.front().protocols) {
    SCOPED_TRACE(p.name);
    EXPECT_TRUE(p.control.measured());
    EXPECT_EQ(p.control.convergence_time.count(), 3u);  // one per run
    EXPECT_GT(p.control.hello_msgs.mean(), 0.0);
    EXPECT_GT(p.control.tc_msgs.mean(), 0.0);
    EXPECT_GT(p.control.control_bytes.mean(), 0.0);
    EXPECT_GT(p.control.convergence_time.mean(), 0.0);
    // The measured convergence time can never exceed the simulated span,
    // and every run of this small static scenario must actually converge.
    EXPECT_LE(p.control.convergence_time.max(),
              SimConfig{}.node.max_horizon());
    EXPECT_EQ(p.control.unconverged, 0u);
    EXPECT_EQ(p.delivered + p.failed, 3u);
  }
  // The oracle backend leaves the block empty.
  const ExperimentResult oracle =
      run_experiment(small_spec(BackendId::kOracle));
  for (const ProtocolStats& p : oracle.sweep.front().protocols)
    EXPECT_FALSE(p.control.measured());
}

TEST(BackendEquivalence, PacketSweepIsThreadCountInvariant) {
  ExperimentSpec spec = small_spec(BackendId::kPacket);
  spec.selectors = {"qolsr_mpr2", "fnbp"};
  const auto csv_of = [&](unsigned threads) {
    spec.threads = threads;
    std::ostringstream os;
    CsvSink().write(run_experiment(spec), os);
    return os.str();
  };
  EXPECT_EQ(csv_of(1), csv_of(3));
}

TEST(BackendEquivalence, PacketCsvCarriesControlPlaneColumns) {
  std::ostringstream os;
  CsvSink().write(run_experiment(small_spec(BackendId::kPacket)), os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("convergence_time_mean"), std::string::npos);
  EXPECT_NE(csv.find("duplicate_drops_mean"), std::string::npos);
  // The oracle layout is untouched (its golden pins live in
  // golden_figures_test; this guards the header here too).
  std::ostringstream oracle_os;
  CsvSink().write(run_experiment(small_spec(BackendId::kOracle)), oracle_os);
  EXPECT_EQ(oracle_os.str().find("convergence_time"), std::string::npos);
}

TEST(BackendEquivalence, SimulatorResetReproducesAFreshRun) {
  const Graph a = testing::random_geometric_graph(kGraphSeeds[0], 6.0, 250.0);
  const Graph b = testing::random_geometric_graph(kGraphSeeds[1], 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const OlsrNode::RouteFn route = next_hop_routes();

  // One simulator driven through two runs via reset...
  Simulator reused(a, flooding, ans, route);
  reused.run_to_convergence();
  reused.reset(b, flooding, ans, route, /*seed=*/77);
  reused.run_to_convergence();

  // ...must match a simulator built fresh for the second run.
  SimConfig config;
  config.seed = 77;
  Simulator fresh(b, flooding, ans, route, config);
  fresh.run_to_convergence();

  EXPECT_EQ(reused.trace().hello_sent, fresh.trace().hello_sent);
  EXPECT_EQ(reused.trace().tc_originated, fresh.trace().tc_originated);
  EXPECT_EQ(reused.trace().control_bytes, fresh.trace().control_bytes);
  EXPECT_EQ(reused.state_digest(), fresh.state_digest());
  ASSERT_EQ(reused.network().node_count(), fresh.network().node_count());
  for (NodeId u = 0; u < b.node_count(); ++u)
    EXPECT_EQ(reused.node(u).ans(), fresh.node(u).ans()) << "node " << u;
}

}  // namespace
}  // namespace qolsr
