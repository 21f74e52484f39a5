// The adversary engine: seeded misbehavior rosters (blackhole, liar,
// replayer, selfish) wired through Simulator::reset, the wire-corruption
// gate in LossyMedium, and the runtime invariant monitor that catches the
// violations as they form — plus the contract that an *inactive*
// AdversarySpec is contractually invisible (byte-identical behavior, zero
// RNG draws, disarmed monitor).
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

/// A spec naming its victims explicitly — no roster draw, so tests pin
/// exactly which node misbehaves.
AdversarySpec pinned(AdversaryKind kind, std::vector<NodeId> victims) {
  AdversarySpec spec;
  spec.kinds = {kind};
  spec.nodes = std::move(victims);
  return spec;
}

TEST(AdversaryEngine, InactiveSpecIsIndistinguishableFromNoSpec) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;

  Simulator plain(g, flooding, ans, next_hop_routes());
  const ConvergenceReport plain_report = plain.run_to_convergence();

  const AdversarySpec inactive;  // no kinds, no roster, corrupt 0
  ASSERT_FALSE(inactive.active());
  Simulator subverted(g, flooding, ans, next_hop_routes(), SimConfig{},
                      nullptr, &inactive);
  const ConvergenceReport subverted_report = subverted.run_to_convergence();

  EXPECT_EQ(plain_report.converged_at, subverted_report.converged_at);
  EXPECT_EQ(plain.state_digest(), subverted.state_digest());
  EXPECT_EQ(plain.trace().control_bytes, subverted.trace().control_bytes);
  EXPECT_TRUE(subverted.adversary_ids().empty());
  EXPECT_EQ(subverted.trace().frames_corrupted, 0u);
  EXPECT_EQ(subverted.trace().frames_malformed, 0u);
  EXPECT_EQ(subverted.monitor().counters().total(), 0u);
  EXPECT_LT(subverted.monitor().first_violation_at(), 0.0);
}

TEST(AdversaryEngine, BlackholeAbsorbsRelayedDataAndIsCaught) {
  // In Fig. 1 the widest v1→v4 path runs over v5 (v1·v6·v5·v4, bandwidth
  // 10), and v5's own TCs advertise the v5–v4 link — so the route survives
  // the subversion and the data frame dies *inside* the blackhole, not of
  // a missing route.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;

  Simulator honest(g, flooding, ans, next_hop_routes());
  honest.run_to_convergence();
  honest.node(Fig1::v1).send_data(Fig1::v4, 1);
  honest.run_until(honest.now() + 2.0);
  ASSERT_TRUE(honest.trace().journeys.at(1).delivered);

  const AdversarySpec spec = pinned(AdversaryKind::kBlackhole, {Fig1::v5});
  Simulator sim(g, flooding, ans, next_hop_routes(), SimConfig{}, nullptr,
                &spec);
  ASSERT_TRUE(sim.is_adversary(Fig1::v5));
  EXPECT_EQ(sim.node(Fig1::v5).role(), AdversaryKind::kBlackhole);
  sim.run_to_convergence();

  sim.node(Fig1::v1).send_data(Fig1::v4, 1);
  sim.run_until(sim.now() + 2.0);
  const auto& journey = sim.trace().journeys.at(1);
  EXPECT_FALSE(journey.delivered);
  EXPECT_EQ(journey.drop, TraceStats::Journey::Drop::kAdversary);
  // The absorbing hop is on the recorded path — that is what lets the
  // eval layer classify the route as poisoned.
  EXPECT_NE(std::find(journey.path.begin(), journey.path.end(), Fig1::v5),
            journey.path.end());
  EXPECT_GT(sim.monitor().counters().blackhole_absorptions, 0u);
  EXPECT_GE(sim.monitor().first_violation_at(), 0.0);
}

TEST(AdversaryEngine, SelfishNodeRefusesTcDutyButForwardsData) {
  // v5 is on every heuristic's relay set; a selfish v5 reneges on TC
  // forwarding (the monitor counts each refusal) yet still forwards data —
  // the route over it keeps delivering.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const AdversarySpec spec = pinned(AdversaryKind::kSelfish, {Fig1::v5});
  Simulator sim(g, flooding, ans, next_hop_routes(), SimConfig{}, nullptr,
                &spec);
  sim.run_to_convergence();

  EXPECT_GT(sim.monitor().counters().mpr_refusals, 0u);
  EXPECT_EQ(sim.monitor().counters().blackhole_absorptions, 0u);

  sim.node(Fig1::v1).send_data(Fig1::v4, 1);
  sim.run_until(sim.now() + 2.0);
  EXPECT_TRUE(sim.trace().journeys.at(1).delivered);
}

TEST(AdversaryEngine, LiarPoisonsConvergedTopologyBases) {
  // A lying v6 inflates the bandwidth of its real links (and fabricates
  // phantom ones) in its own TCs; honest TopologyBases accept them. The
  // end-of-run audit against the ground truth finds the forgeries and the
  // nodes holding them.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const AdversarySpec spec = pinned(AdversaryKind::kLiar, {Fig1::v6});
  Simulator sim(g, flooding, ans, next_hop_routes(), SimConfig{}, nullptr,
                &spec);
  sim.run_to_convergence();

  audit_topology(sim.monitor(), sim, g);
  const InvariantCounters& c = sim.monitor().counters();
  EXPECT_GT(c.phantom_links + c.inflated_qos, 0u);
  EXPECT_GT(c.poisoned_nodes, 0u);
}

TEST(AdversaryEngine, ReplayerStaleTcsAreRejectedAndFlagged) {
  // v6 captures one foreign TC and keeps re-broadcasting it with fresh
  // message sequence numbers but the original ANSN. Once the true
  // originator has advanced its ANSN, every receiver's TopologyBase
  // rejects the replay (the protocol's own §19 defense) and the monitor
  // flags the emission-side regression.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const AdversarySpec spec = pinned(AdversaryKind::kReplayer, {Fig1::v6});
  Simulator sim(g, flooding, ans, next_hop_routes(), SimConfig{}, nullptr,
                &spec);
  sim.run_to_convergence();

  const InvariantCounters& c = sim.monitor().counters();
  EXPECT_GT(c.stale_tc_rejections + c.ansn_regressions, 0u);
  // The replayer's lies are control-plane only: no data was absorbed.
  EXPECT_EQ(c.blackhole_absorptions, 0u);
}

TEST(AdversaryEngine, WireCorruptionIsSeededAndDeterministic) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  AdversarySpec spec;
  spec.corrupt_rate = 0.3;  // corruption-only: no roster, kinds empty
  ASSERT_TRUE(spec.active());
  ASSERT_FALSE(spec.roster_active());

  SimConfig config;
  config.seed = 99;
  Simulator a(g, flooding, ans, next_hop_routes(), config, nullptr, &spec);
  a.run_to_convergence();
  Simulator b(g, flooding, ans, next_hop_routes(), config, nullptr, &spec);
  b.run_to_convergence();

  EXPECT_GT(a.trace().frames_corrupted, 0u);
  // The hardened parser rejected at least some of the mangled frames; a
  // bit flip can also land in a payload field and survive the parse, so
  // malformed ≤ corrupted.
  EXPECT_GT(a.trace().frames_malformed, 0u);
  EXPECT_LE(a.trace().frames_malformed, a.trace().frames_corrupted);
  EXPECT_EQ(a.trace().frames_corrupted, b.trace().frames_corrupted);
  EXPECT_EQ(a.trace().frames_malformed, b.trace().frames_malformed);
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_TRUE(a.adversary_ids().empty());
}

TEST(AdversaryEngine, RosterDrawIsSeedDeterministicAndRoundRobin) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  AdversarySpec spec;
  spec.count = 2;
  spec.kinds = {AdversaryKind::kBlackhole, AdversaryKind::kSelfish};

  auto roster_of = [&](std::uint64_t seed) {
    SimConfig config;
    config.seed = seed;
    Simulator sim(g, flooding, ans, next_hop_routes(), config, nullptr,
                  &spec);
    return sim.adversary_ids();
  };

  const std::vector<NodeId> first = roster_of(7);
  EXPECT_EQ(first, roster_of(7));  // replayable draw
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));

  // Round-robin kinds: with two kinds and two victims, one of each.
  SimConfig config;
  config.seed = 7;
  Simulator sim(g, flooding, ans, next_hop_routes(), config, nullptr, &spec);
  std::size_t blackholes = 0, selfish = 0;
  for (NodeId id : sim.adversary_ids()) {
    blackholes += sim.node(id).role() == AdversaryKind::kBlackhole;
    selfish += sim.node(id).role() == AdversaryKind::kSelfish;
  }
  EXPECT_EQ(blackholes, 1u);
  EXPECT_EQ(selfish, 1u);
  // Everyone off the roster stayed honest.
  for (NodeId u = 0; u < g.node_count(); ++u)
    if (!sim.is_adversary(u))
      EXPECT_EQ(sim.node(u).role(), AdversaryKind::kHonest) << "node " << u;
}

TEST(AdversaryEngine, ResetClearsRolesAndMonitor) {
  // A reset with no spec must return every node to honest and disarm the
  // monitor — batch runs reuse the simulator across honest and subverted
  // sweep points.
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const OlsrNode::RouteFn routes = next_hop_routes();
  const AdversarySpec spec = pinned(AdversaryKind::kBlackhole, {Fig1::v5});

  Simulator sim(g, flooding, ans, routes, SimConfig{}, nullptr, &spec);
  sim.run_to_convergence();
  sim.node(Fig1::v1).send_data(Fig1::v4, 1);
  sim.run_until(sim.now() + 2.0);
  ASSERT_GT(sim.monitor().counters().blackhole_absorptions, 0u);

  Simulator plain(g, flooding, ans, routes);
  plain.run_to_convergence();

  sim.reset(g, flooding, ans, routes, /*seed=*/1);
  const ConvergenceReport after = sim.run_to_convergence();
  EXPECT_TRUE(after.converged);
  EXPECT_TRUE(sim.adversary_ids().empty());
  EXPECT_EQ(sim.node(Fig1::v5).role(), AdversaryKind::kHonest);
  EXPECT_EQ(sim.monitor().counters().total(), 0u);
  EXPECT_EQ(sim.state_digest(), plain.state_digest());
}

}  // namespace
}  // namespace qolsr
