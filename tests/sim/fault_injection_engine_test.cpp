// The fault-injection engine: Bernoulli frame loss and up/down overlays in
// the LossyMedium gates every frame leg passes, crash/restart with
// RFC-style soft-state expiry in OlsrNode, incident scheduling with timed
// re-convergence in the Simulator — and the contract that an *inactive*
// plan is contractually invisible (byte-identical behavior, zero RNG
// draws).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/fnbp.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;
using testing::next_hop_routes;

TEST(FaultEngine, EmptyPlanIsIndistinguishableFromNoPlan) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;

  Simulator plain(g, flooding, ans, next_hop_routes());
  const ConvergenceReport plain_report = plain.run_to_convergence();

  const FaultPlan inactive;  // loss 0, no overrides, no incidents
  ASSERT_FALSE(inactive.active());
  Simulator faulted(g, flooding, ans, next_hop_routes(), SimConfig{},
                    &inactive);
  const ConvergenceReport faulted_report = faulted.run_to_convergence();

  EXPECT_EQ(plain_report.converged_at, faulted_report.converged_at);
  EXPECT_EQ(plain.state_digest(), faulted.state_digest());
  EXPECT_EQ(plain.trace().control_bytes, faulted.trace().control_bytes);
  EXPECT_EQ(faulted.trace().frames_lost, 0u);
  EXPECT_EQ(faulted.trace().frames_blocked, 0u);
  EXPECT_FALSE(faulted.faults().impaired());
}

TEST(FaultEngine, AmbientLossIsSeededAndDeterministic) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  FaultPlan plan;
  plan.loss_rate = 0.3;

  SimConfig config;
  config.seed = 99;
  Simulator a(g, flooding, ans, next_hop_routes(), config, &plan);
  a.run_to_convergence();
  Simulator b(g, flooding, ans, next_hop_routes(), config, &plan);
  b.run_to_convergence();

  EXPECT_GT(a.trace().frames_lost, 0u);
  EXPECT_EQ(a.trace().frames_lost, b.trace().frames_lost);
  EXPECT_EQ(a.trace().control_bytes, b.trace().control_bytes);
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(FaultEngine, PerLinkTotalLossHidesANeighborForever) {
  // Rate-1 loss on every v6 link: v6's HELLOs never arrive anywhere, so no
  // node ever completes the handshake with it — the per-link override path
  // of the Bernoulli gate.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  FaultPlan plan;
  plan.link_loss.push_back({Fig1::v1, Fig1::v6, 1.0});
  plan.link_loss.push_back({Fig1::v5, Fig1::v6, 1.0});

  Simulator sim(g, flooding, ans, next_hop_routes(), SimConfig{}, &plan);
  sim.run_to_convergence();
  EXPECT_FALSE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));
  EXPECT_FALSE(sim.node(Fig1::v5).tables().is_symmetric(Fig1::v6));
  EXPECT_FALSE(sim.node(Fig1::v6).tables().is_symmetric(Fig1::v1));
  EXPECT_GT(sim.trace().frames_lost, 0u);
}

TEST(FaultEngine, CrashedNodeIsAgedOutWithinHoldTime) {
  // Soft-state expiry (RFC 3626): kill all of a node's HELLOs by crashing
  // it; every neighbor must age its link entries out within the neighbor
  // hold time instead of routing into the silent node forever.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  ASSERT_TRUE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));
  ASSERT_TRUE(sim.node(Fig1::v5).tables().is_symmetric(Fig1::v6));

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = Fig1::v6;
  crash.duration = 0.0;  // permanent
  sim.inject(crash);
  EXPECT_FALSE(sim.node(Fig1::v6).alive());

  // neighbor_hold (6 s) plus one HELLO period of slack: both neighbors
  // have expired the dead node from their link sets.
  sim.run_until(sim.now() + 10.0);
  EXPECT_FALSE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));
  EXPECT_FALSE(sim.node(Fig1::v5).tables().is_symmetric(Fig1::v6));
  EXPECT_GT(sim.trace().frames_blocked, 0u);
}

TEST(FaultEngine, CrashRestartRoundTripReconverges) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = Fig1::v6;
  crash.duration = 10.0;
  const double injected_at = sim.now();
  sim.inject(crash);
  const ConvergenceReport reconv = sim.run_to_convergence();

  // The outage plus the rebuild both took time, and the network settled.
  EXPECT_TRUE(reconv.converged);
  EXPECT_GT(reconv.converged_at - injected_at, crash.duration);
  EXPECT_TRUE(sim.node(Fig1::v6).alive());
  // Every node is back to the full-graph oracle selection — the restarted
  // node's first TCs were not rejected as stale (sequence counters are
  // stable storage across the crash).
  for (NodeId u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(sim.node(u).ans(), ans.select(LocalView(g, u))) << "node " << u;
}

TEST(FaultEngine, RandomCrashVictimIsSeedDeterministic) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;  // no explicit victim
  crash.count = 2;
  crash.duration = 0.0;

  auto crashed_set = [&](std::uint64_t seed) {
    SimConfig config;
    config.seed = seed;
    Simulator sim(g, flooding, ans, next_hop_routes(), config);
    sim.run_to_convergence();
    sim.inject(crash);
    std::vector<bool> down;
    for (NodeId u = 0; u < g.node_count(); ++u)
      down.push_back(!sim.node(u).alive());
    return down;
  };

  const auto first = crashed_set(7);
  EXPECT_EQ(first, crashed_set(7));
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(first.begin(), first.end(), true)),
            2u);
}

TEST(FaultEngine, LinkFlapHealsBack) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();
  ASSERT_TRUE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));

  FaultIncident flap;
  flap.kind = FaultIncident::Kind::kLinkFlap;
  flap.link_u = Fig1::v1;
  flap.link_v = Fig1::v6;
  flap.duration = 8.0;
  sim.inject(flap);
  EXPECT_TRUE(sim.faults().link_down(Fig1::v1, Fig1::v6));

  // Down long enough for both ends to expire the entry...
  sim.run_until(sim.now() + flap.duration - 0.5);
  EXPECT_FALSE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));

  // ...then the scheduled heal brings it back and HELLOs re-handshake.
  const ConvergenceReport reconv = sim.run_to_convergence();
  EXPECT_TRUE(reconv.converged);
  EXPECT_FALSE(sim.faults().link_down(Fig1::v1, Fig1::v6));
  EXPECT_TRUE(sim.node(Fig1::v1).tables().is_symmetric(Fig1::v6));
}

TEST(FaultEngine, PartitionBlocksCrossTrafficThenHeals) {
  // Fig. 1 halves at n/2 = 3: {v1,v2,v3} vs {v4,v5,v6}. During the
  // partition, cross-boundary frames are suppressed; after the heal the
  // control plane re-converges and cross traffic flows again.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  FaultIncident split;
  split.kind = FaultIncident::Kind::kPartition;
  split.duration = 25.0;
  sim.inject(split);
  EXPECT_TRUE(sim.faults().partitioned());

  // Give both sides time to expire the other half, then try to cross.
  sim.run_until(sim.now() + 10.0);
  sim.node(Fig1::v1).send_data(Fig1::v4, 1);
  sim.run_until(sim.now() + 2.0);
  EXPECT_FALSE(sim.trace().journeys.at(1).delivered);
  EXPECT_GT(sim.trace().frames_blocked, 0u);

  const ConvergenceReport healed = sim.run_to_convergence();
  EXPECT_TRUE(healed.converged);
  EXPECT_FALSE(sim.faults().partitioned());
  sim.node(Fig1::v1).send_data(Fig1::v4, 2);
  sim.run_until(sim.now() + 2.0);
  EXPECT_TRUE(sim.trace().journeys.at(2).delivered);
}

TEST(FaultEngine, DroppedDataFramesAreClassified) {
  // A crashed destination first blackholes traffic at the last hop (the
  // route still exists until soft state expires), then, once aged out,
  // senders report no-route drops — both land in Journey::Drop fates.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = Fig1::v3;
  crash.duration = 0.0;
  sim.inject(crash);
  sim.run_until(sim.now() + 30.0);  // all soft state mentioning v3 is gone

  sim.node(Fig1::v1).send_data(Fig1::v3, 1);
  sim.run_until(sim.now() + 2.0);
  const auto& journey = sim.trace().journeys.at(1);
  EXPECT_FALSE(journey.delivered);
  EXPECT_EQ(journey.drop, TraceStats::Journey::Drop::kNoRoute);
}

}  // namespace
}  // namespace qolsr
