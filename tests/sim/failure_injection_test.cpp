// Failure injection: links die mid-run; the control plane must expire the
// stale state and re-converge around the failure without manual resets.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;
using testing::next_hop_routes;

TEST(FailureInjection, NeighborEntriesExpireAfterLinkFailure) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  ASSERT_TRUE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));

  ASSERT_TRUE(sim.fail_link(Fig1::v1, Fig1::v6));
  // Past the neighbor hold time the dead link is gone from both ends.
  sim.run_until(sim.now() + 10.0);
  EXPECT_FALSE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));
  EXPECT_FALSE(sim.node(Fig1::v6).tables().is_symmetric(Fig1::v1));
}

TEST(FailureInjection, FailLinkLeavesGroundTruthIntact) {
  // Failures live in the fault overlay; the borrowed ground-truth graph is
  // const and must still show the edge after the radio link "dies".
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  ASSERT_TRUE(sim.fail_link(Fig1::v1, Fig1::v6));
  EXPECT_TRUE(sim.network().has_edge(Fig1::v1, Fig1::v6));
  EXPECT_TRUE(g.has_edge(Fig1::v1, Fig1::v6));
  EXPECT_TRUE(sim.faults().link_down(Fig1::v1, Fig1::v6));
  // The simulator borrows, it does not copy: same object.
  EXPECT_EQ(&sim.network(), &g);
}

TEST(FailureInjection, FailLinkRejectsUnknownLink) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  EXPECT_FALSE(sim.fail_link(Fig1::v1, Fig1::v4));  // never existed
  EXPECT_TRUE(sim.fail_link(Fig1::v1, Fig1::v6));
  EXPECT_FALSE(sim.fail_link(Fig1::v1, Fig1::v6));  // already gone
}

TEST(FailureInjection, SelectionsReconvergeToPostFailureOracle) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  // Kill the wide v1–v6 entry of the ring; every node must re-select
  // against the degraded topology.
  ASSERT_TRUE(sim.fail_link(Fig1::v1, Fig1::v6));
  sim.run_until(sim.now() + 25.0);

  Graph degraded = Fig1::build();
  ASSERT_TRUE(degraded.remove_edge(Fig1::v1, Fig1::v6));
  for (NodeId u = 0; u < degraded.node_count(); ++u)
    EXPECT_EQ(sim.node(u).ans(), ans.select(LocalView(degraded, u)))
        << "node " << u;
}

TEST(FailureInjection, DataReroutesAroundFailure) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  // Before the failure the v1→v3 flow rides the wide ring (Fig. 1 claim).
  sim.node(Fig1::v1).send_data(Fig1::v3, 1);
  sim.run_until(sim.now() + 1.0);
  ASSERT_TRUE(sim.trace().journeys.at(1).delivered);
  EXPECT_EQ(sim.trace().journeys.at(1).path.front(), Fig1::v1);
  EXPECT_EQ(sim.trace().journeys.at(1).path[1], Fig1::v6);

  // Cut the ring entry and let the control plane heal.
  ASSERT_TRUE(sim.fail_link(Fig1::v1, Fig1::v6));
  sim.run_until(sim.now() + 25.0);

  sim.node(Fig1::v1).send_data(Fig1::v3, 2);
  sim.run_until(sim.now() + 1.0);
  const auto& journey = sim.trace().journeys.at(2);
  ASSERT_TRUE(journey.delivered);
  // The new route must avoid the dead link and still arrive.
  for (std::size_t i = 0; i + 1 < journey.path.size(); ++i) {
    const bool dead = (journey.path[i] == Fig1::v1 &&
                       journey.path[i + 1] == Fig1::v6) ||
                      (journey.path[i] == Fig1::v6 &&
                       journey.path[i + 1] == Fig1::v1);
    EXPECT_FALSE(dead);
  }
}

TEST(FailureInjection, PartitionStopsDeliveryGracefully) {
  // Sever every link into E's side: packets for E are dropped, none loop.
  const Graph g = testing::Fig4::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  ASSERT_TRUE(sim.fail_link(testing::Fig4::d, testing::Fig4::e));
  sim.run_until(sim.now() + 25.0);

  sim.node(testing::Fig4::a).send_data(testing::Fig4::e, 7);
  sim.run_until(sim.now() + 2.0);
  const auto it = sim.trace().journeys.find(7);
  ASSERT_NE(it, sim.trace().journeys.end());
  EXPECT_FALSE(it->second.delivered);
  EXPECT_GE(sim.trace().data_dropped, 1u);
}

}  // namespace
}  // namespace qolsr
