// Integration tests: the distributed OLSR control plane over the ideal MAC
// must converge to exactly the oracle state (neighbor views, ANS selection,
// advertised topology) that the evaluation harness computes directly from
// the graph — the justification for using the oracle in the figure
// reproductions (DESIGN.md §4.9).
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "core/fnbp.hpp"
#include "routing/advertised_topology.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::next_hop_routes;

TEST(Simulator, HelloHandshakeBuildsSymmetricNeighborhoods) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_until(5.0);  // a couple of HELLO rounds
  for (NodeId u = 0; u < g.node_count(); ++u) {
    std::vector<NodeId> expected;
    for (const Edge& e : g.neighbors(u)) expected.push_back(e.to);
    EXPECT_EQ(sim.node(u).tables().symmetric_neighbors(), expected)
        << "node " << u;
  }
}

TEST(Simulator, ConvergedLocalViewsEqualOracle) {
  const Graph g = testing::Fig2::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView oracle(g, u);
    const LocalView distributed = sim.node(u).tables().build_local_view();
    ASSERT_EQ(distributed.size(), oracle.size()) << "node " << u;
    for (std::uint32_t l = 0; l < oracle.size(); ++l)
      EXPECT_EQ(distributed.global_id(l), oracle.global_id(l));
    for (std::uint32_t a = 0; a < oracle.size(); ++a)
      for (std::uint32_t b = a + 1; b < oracle.size(); ++b)
        EXPECT_EQ(distributed.has_local_edge(a, b),
                  oracle.has_local_edge(a, b))
            << "node " << u << " pair " << oracle.global_id(a) << ","
            << oracle.global_id(b);
  }
}

TEST(Simulator, ConvergedAnsEqualsOracleSelection) {
  const Graph g = testing::Fig2::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(sim.node(u).ans(), ans.select(LocalView(g, u)))
        << "node " << u;
}

TEST(Simulator, TcFloodPopulatesEveryTopologyBase) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  // Oracle advertised topology.
  std::vector<std::vector<NodeId>> oracle_ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    oracle_ans[u] = ans.select(LocalView(g, u));
  const Graph oracle_adv = build_advertised_topology(g, oracle_ans);

  for (NodeId u = 0; u < g.node_count(); ++u) {
    const Graph known = sim.node(u).topology().to_graph(g.node_count());
    // Every advertised link must have reached u (ideal MAC, MPR flooding).
    for (NodeId a = 0; a < g.node_count(); ++a)
      for (const Edge& e : oracle_adv.neighbors(a))
        if (a < e.to)
          EXPECT_TRUE(known.has_edge(a, e.to))
              << "node " << u << " missing " << a << "-" << e.to;
  }
}

TEST(Simulator, DataPacketFollowsQosRoute) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  sim.node(testing::Fig1::v1).send_data(testing::Fig1::v3, /*payload=*/1);
  sim.run_until(sim.now() + 1.0);

  EXPECT_EQ(sim.trace().data_delivered, 1u);
  const auto it = sim.trace().journeys.find(1);
  ASSERT_NE(it, sim.trace().journeys.end());
  EXPECT_TRUE(it->second.delivered);
  // The converged FNBP state routes over the widest path (Fig. 1 claim).
  EXPECT_EQ(it->second.path,
            (std::vector<NodeId>{testing::Fig1::v1, testing::Fig1::v6,
                                 testing::Fig1::v5, testing::Fig1::v4,
                                 testing::Fig1::v3}));
}

TEST(Simulator, ControlTrafficCountersAdvance) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  const TraceStats& t = sim.trace();
  EXPECT_GT(t.hello_sent, 0u);
  EXPECT_GT(t.tc_originated, 0u);
  EXPECT_GT(t.tc_forwarded, 0u);
  EXPECT_GT(t.tc_dropped_duplicate, 0u);  // flooding always echoes some
  EXPECT_GT(t.control_bytes, 0u);
}

TEST(Simulator, DeterministicGivenSeed) {
  const Graph g = testing::random_geometric_graph(4242, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  SimConfig config;
  config.seed = 99;
  Simulator a(g, flooding, ans, next_hop_routes(), config);
  Simulator b(g, flooding, ans, next_hop_routes(), config);
  a.run_to_convergence();
  b.run_to_convergence();
  EXPECT_EQ(a.trace().hello_sent, b.trace().hello_sent);
  EXPECT_EQ(a.trace().tc_originated, b.trace().tc_originated);
  EXPECT_EQ(a.trace().control_bytes, b.trace().control_bytes);
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(a.node(u).ans(), b.node(u).ans());
}

TEST(Simulator, RandomNetworkConvergesToOracle) {
  const Graph g = testing::random_geometric_graph(31337, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(sim.node(u).ans(), ans.select(LocalView(g, u)))
        << "node " << u;
}

TEST(Simulator, QolsrModeUsesSameSetForFloodingAndRouting) {
  // Original QOLSR: the MPR-2 set is both the flooding set and the ANS.
  const Graph g = testing::Fig1::build();
  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  Simulator sim(g, qolsr, qolsr, next_hop_routes());
  sim.run_to_convergence();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(sim.node(u).ans(), sim.node(u).flooding_mpr());
    EXPECT_EQ(sim.node(u).ans(), qolsr.select(LocalView(g, u)));
  }
}

/// Forwards to a real selector and counts its select_into calls.
class CountingSelector final : public AnsSelector {
 public:
  explicit CountingSelector(const AnsSelector& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  void select_into(const LocalView& view, SelectionWorkspace& ws,
                   std::vector<NodeId>& out) const override {
    ++calls;
    inner_.select_into(view, ws, out);
  }
  bool qos_first_routing() const override {
    return inner_.qos_first_routing();
  }

  mutable std::size_t calls = 0;

 private:
  const AnsSelector& inner_;
};

TEST(Simulator, SelectsOnlyWhenTheLocalViewMoves) {
  const Graph g = testing::random_geometric_graph(17, 8.0, 300.0);
  const Rfc3626Selector rfc;
  const FnbpSelector<BandwidthMetric> fnbp;
  const CountingSelector flooding(rfc);
  const CountingSelector ans(fnbp);
  Simulator sim(g, flooding, ans, next_hop_routes());
  ASSERT_TRUE(sim.run_to_convergence().converged);
  ASSERT_GT(ans.calls, 0u);

  // A loss-free network at its fixpoint: every HELLO repeats what the
  // tables hold, so no tick's recompute finds a moved view.
  const std::size_t flooding_calls = flooding.calls;
  const std::size_t ans_calls = ans.calls;
  const ProtocolTiming& timing = sim.config().node;
  sim.run_until(sim.now() +
                3.0 * std::max(timing.hello_interval, timing.tc_interval));
  EXPECT_EQ(flooding.calls, flooding_calls);
  EXPECT_EQ(ans.calls, ans_calls);

  // A crash moves views around the victim; once the network has settled
  // again, every node's sets are the selections of its current tables.
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = 0;
  crash.duration = 6.0;
  sim.inject(crash);
  ASSERT_TRUE(sim.run_to_convergence().converged);
  EXPECT_GT(ans.calls, ans_calls);
  SelectionWorkspace ws;
  std::vector<NodeId> expected;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view = sim.node(u).tables().build_local_view();
    rfc.select_into(view, ws, expected);
    EXPECT_EQ(sim.node(u).flooding_mpr(), expected) << "node " << u;
    fnbp.select_into(view, ws, expected);
    EXPECT_EQ(sim.node(u).ans(), expected) << "node " << u;
  }
}

}  // namespace
}  // namespace qolsr
