// Event-driven convergence detection contracts: run_to_convergence waits
// on the network MutationClock directly (no sampling grid), so
// converged_at must be the exact timestamp of the final state-changing
// event — cross-checked against a fine-grained digest-sampled replay of
// the identical run — the report must anchor at the call instant (a
// re-convergence measurement can be zero, never negative), and the
// counters snapshot must be the state as of the last mutation.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::next_hop_routes;

TEST(ConvergenceExactness, ConvergedAtIsTheLastMutationTimestamp) {
  const Graph g = testing::Fig2::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  const ConvergenceReport report = sim.run_to_convergence();

  EXPECT_TRUE(report.converged);
  EXPECT_GT(sim.mutations().count(), 0u);
  // The report is the clock's exact record, not a rounded-up sample.
  EXPECT_EQ(report.converged_at, sim.mutations().last_at());
  const double dwell = sim.config().node.convergence_dwell();
  EXPECT_GE(report.end_time, report.converged_at + dwell);
}

TEST(ConvergenceExactness, MatchesFineGrainedDigestReplay) {
  // Replay the identical run sampling the state digest on a grid 4000x
  // finer than the old HELLO-interval sampler: the event-driven
  // converged_at must land inside the single grid cell where the digest
  // last changed. This is the exactness pin — the old sampler could only
  // ever report the cell's upper edge on a 2-second grid.
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  SimConfig config;
  config.seed = 21;

  Simulator exact(g, flooding, ans, next_hop_routes(), config);
  const ConvergenceReport report = exact.run_to_convergence();
  ASSERT_TRUE(report.converged);

  Simulator replay(g, flooding, ans, next_hop_routes(), config);
  const double grain = 0.0005;
  std::uint64_t digest = replay.state_digest();
  double last_change = 0.0;
  for (double t = grain; t <= report.end_time + grain; t += grain) {
    replay.run_until(t);
    const std::uint64_t next = replay.state_digest();
    if (next != digest) {
      digest = next;
      last_change = t;
    }
  }
  EXPECT_GT(last_change, 0.0);
  EXPECT_LE(report.converged_at, last_change);
  EXPECT_GT(report.converged_at, last_change - grain);
}

TEST(ConvergenceExactness, SecondCallAnchorsAtCallInstant) {
  // Re-measuring convergence on an already-quiescent network must report
  // "converged when asked": converged_at equals the call instant (the
  // previous report's end_time), so a timed re-convergence delta is zero —
  // never negative, never a stale pre-call timestamp.
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  const ConvergenceReport first = sim.run_to_convergence();
  ASSERT_TRUE(first.converged);

  const ConvergenceReport second = sim.run_to_convergence();
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(second.converged_at, first.end_time);
  EXPECT_GE(second.converged_at, first.converged_at);
}

TEST(ConvergenceExactness, CrashReconvergenceIsEventExact) {
  const Graph g = testing::random_geometric_graph(77, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  ASSERT_TRUE(sim.run_to_convergence().converged);

  const double injected_at = sim.now();
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = 0;
  crash.duration = 0.0;  // permanent
  sim.inject(crash);

  const ConvergenceReport report = sim.run_to_convergence();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.converged_at, sim.mutations().last_at());
  // The crash mutates at the injection instant and the healing-out of the
  // victim's soft state mutates strictly after it.
  EXPECT_GT(report.converged_at, injected_at);
}

TEST(ConvergenceExactness, SnapshotIsCountersAsOfLastMutation) {
  const Graph g = testing::Fig2::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  ASSERT_TRUE(sim.run_to_convergence().converged);

  const TraceStats& at = sim.trace_at_convergence();
  const TraceStats& end = sim.trace();
  // Work done by the quiescence dwell after the last mutation (HELLO/TC
  // refreshes) is excluded from the snapshot.
  EXPECT_GT(at.hello_sent, 0u);
  EXPECT_GT(at.tc_originated, 0u);
  EXPECT_LT(at.hello_sent, end.hello_sent);
  EXPECT_LE(at.tc_originated, end.tc_originated);
  EXPECT_LE(at.control_bytes, end.control_bytes);
  // Scalar counters only: the journey map is not part of the snapshot.
  EXPECT_TRUE(at.journeys.empty());
}

}  // namespace
}  // namespace qolsr
