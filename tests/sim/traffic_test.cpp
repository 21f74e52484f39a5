// The traffic-workload engine: seeded TrafficMatrix generation (arrival
// processes, endpoint patterns, determinism), the ContendedMedium capacity
// layer (FIFO queueing delay, tail drop with the kQueueDrop fate) — and
// the contract that an *inactive* spec is contractually invisible
// (byte-identical behavior, zero RNG draws), mirroring the FaultPlan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/fnbp.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;
using testing::next_hop_routes;

TrafficSpec poisson_spec() {
  TrafficSpec spec;
  spec.arrival = TrafficSpec::Arrival::kPoisson;
  return spec;
}

TEST(TrafficMatrix, InactiveSpecYieldsNothing) {
  const Graph g = Fig1::build();
  const TrafficSpec none;  // arrival = kNone
  EXPECT_FALSE(none.active());
  EXPECT_TRUE(TrafficMatrix::generate(none, g, 42).empty());

  // --load=0 must be indistinguishable from passing no traffic flags.
  TrafficSpec zero_load = poisson_spec();
  zero_load.load = 0.0;
  EXPECT_FALSE(zero_load.active());
  EXPECT_TRUE(TrafficMatrix::generate(zero_load, g, 42).empty());

  TrafficSpec zero_flows = poisson_spec();
  zero_flows.flows = 0;
  EXPECT_FALSE(zero_flows.active());
}

TEST(TrafficMatrix, GenerationIsSeedDeterministic) {
  const Graph g = Fig1::build();
  const TrafficSpec spec = poisson_spec();

  const TrafficMatrix a = TrafficMatrix::generate(spec, g, 42);
  const TrafficMatrix b = TrafficMatrix::generate(spec, g, 42);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.flows().size(), b.flows().size());
  for (std::size_t f = 0; f < a.flows().size(); ++f) {
    EXPECT_EQ(a.flows()[f].source, b.flows()[f].source);
    EXPECT_EQ(a.flows()[f].destination, b.flows()[f].destination);
  }
  ASSERT_EQ(a.packets().size(), b.packets().size());
  for (std::size_t i = 0; i < a.packets().size(); ++i) {
    EXPECT_EQ(a.packets()[i].offset, b.packets()[i].offset);
    EXPECT_EQ(a.packets()[i].payload_id, b.packets()[i].payload_id);
  }

  // A different seed reshuffles the schedule.
  const TrafficMatrix c = TrafficMatrix::generate(spec, g, 43);
  bool differs = c.packets().size() != a.packets().size();
  for (std::size_t i = 0; !differs && i < a.packets().size(); ++i)
    differs = a.packets()[i].offset != c.packets()[i].offset;
  EXPECT_TRUE(differs);
}

TEST(TrafficMatrix, PacketsAreSortedWithDisjointPayloadIds) {
  const Graph g = Fig1::build();
  const TrafficMatrix m = TrafficMatrix::generate(poisson_spec(), g, 7);
  ASSERT_FALSE(m.empty());
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < m.packets().size(); ++i) {
    const TrafficMatrix::Packet& p = m.packets()[i];
    EXPECT_GE(p.offset, 0.0);
    EXPECT_LT(p.offset, poisson_spec().duration);
    EXPECT_GE(p.payload_id, TrafficMatrix::kFirstPayloadId);
    EXPECT_LT(p.flow, m.flows().size());
    EXPECT_TRUE(ids.insert(p.payload_id).second) << "duplicate payload id";
    if (i > 0) EXPECT_GE(p.offset, m.packets()[i - 1].offset);
  }
}

TEST(TrafficMatrix, PacketCountTracksOfferedLoad) {
  const Graph g = Fig1::build();
  TrafficSpec spec = poisson_spec();
  spec.flows = 64;
  const double expected =
      static_cast<double>(spec.flows) * spec.packet_rate * spec.load *
      spec.duration;
  const auto count = [&](double load) {
    TrafficSpec s = spec;
    s.load = load;
    return static_cast<double>(TrafficMatrix::generate(s, g, 5)
                                   .packets()
                                   .size());
  };
  EXPECT_NEAR(count(1.0), expected, 0.15 * expected);
  EXPECT_NEAR(count(2.0), 2.0 * expected, 0.15 * 2.0 * expected);
}

TEST(TrafficMatrix, GatewayPatternSinksAtTheMaxDegreeNode) {
  // Fig. 1's busiest node is v5 (links to v1, v2, v3, v4, v6).
  const Graph g = Fig1::build();
  TrafficSpec spec = poisson_spec();
  spec.pattern = TrafficSpec::Pattern::kGateway;
  const TrafficMatrix m = TrafficMatrix::generate(spec, g, 11);
  ASSERT_FALSE(m.flows().empty());
  for (const TrafficMatrix::Flow& flow : m.flows()) {
    EXPECT_EQ(flow.destination, Fig1::v5);
    EXPECT_NE(flow.source, flow.destination);
  }
}

TEST(TrafficMatrix, HotspotPatternConvergesOnFewDestinations) {
  const Graph g = Fig1::build();
  TrafficSpec spec = poisson_spec();
  spec.pattern = TrafficSpec::Pattern::kHotspot;
  spec.hotspots = 2;
  spec.flows = 12;
  const TrafficMatrix m = TrafficMatrix::generate(spec, g, 3);
  ASSERT_EQ(m.flows().size(), 12u);
  std::set<NodeId> destinations;
  for (const TrafficMatrix::Flow& flow : m.flows()) {
    destinations.insert(flow.destination);
    EXPECT_NE(flow.source, flow.destination);
  }
  EXPECT_EQ(destinations.size(), 2u);
}

TEST(TrafficMatrix, ArrivalProcessMomentSanity) {
  // All three processes are calibrated to the same mean inter-arrival
  // 1/(rate*load); CBR is (near-)deterministic per flow while Pareto is
  // heavy-tailed — its per-flow packet counts spread far wider.
  const Graph g = Fig1::build();
  TrafficSpec spec = poisson_spec();
  spec.flows = 200;
  spec.duration = 5.0;  // expected 100 packets per flow

  const auto per_flow_counts = [&](TrafficSpec::Arrival arrival,
                                   double shape) {
    TrafficSpec s = spec;
    s.arrival = arrival;
    s.pareto_shape = shape;
    const TrafficMatrix m = TrafficMatrix::generate(s, g, 17);
    std::vector<double> counts(s.flows, 0.0);
    for (const TrafficMatrix::Packet& p : m.packets()) counts[p.flow] += 1.0;
    return counts;
  };
  const auto mean_of = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
  };
  const auto stddev_of = [&](const std::vector<double>& xs) {
    const double m = mean_of(xs);
    double sq = 0.0;
    for (double x : xs) sq += (x - m) * (x - m);
    return std::sqrt(sq / static_cast<double>(xs.size()));
  };

  const auto cbr = per_flow_counts(TrafficSpec::Arrival::kCbr, 1.5);
  const auto poisson = per_flow_counts(TrafficSpec::Arrival::kPoisson, 1.5);
  const auto pareto = per_flow_counts(TrafficSpec::Arrival::kPareto, 1.2);

  // Same calibrated mean for the light-tailed processes...
  EXPECT_NEAR(mean_of(cbr), 100.0, 2.0);
  EXPECT_NEAR(mean_of(poisson), 100.0, 10.0);
  // ...CBR is metronomic, Poisson spreads like sqrt(n), and the
  // heavy-tailed Pareto spreads wider than both.
  EXPECT_LT(stddev_of(cbr), 1.0);
  EXPECT_GT(stddev_of(poisson), 2.0);
  EXPECT_GT(stddev_of(pareto), 2.0 * stddev_of(poisson));
}

TEST(ContendedMedium, InactiveSpecIsIndistinguishableFromNoSpec) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;

  Simulator plain;
  plain.reset(g, flooding, ans, next_hop_routes(), 1);
  const ConvergenceReport plain_report = plain.run_to_convergence();

  TrafficSpec zero_load = poisson_spec();
  zero_load.load = 0.0;  // the CLI's --load=0
  Simulator gated;
  gated.reset(g, flooding, ans, next_hop_routes(), 1, nullptr, &zero_load);
  EXPECT_FALSE(gated.contention_active());
  const ConvergenceReport gated_report = gated.run_to_convergence();

  EXPECT_EQ(plain_report.converged_at, gated_report.converged_at);
  EXPECT_EQ(plain.state_digest(), gated.state_digest());
  EXPECT_EQ(plain.trace().control_bytes, gated.trace().control_bytes);
  EXPECT_EQ(gated.trace().frames_queue_dropped, 0u);
}

TEST(ContendedMedium, BackloggedLinkDelaysDeliveryInFifoOrder) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const TrafficSpec spec = poisson_spec();  // defaults: ample queue

  Simulator sim;
  sim.reset(g, flooding, ans, next_hop_routes(), 1, nullptr, &spec);
  EXPECT_TRUE(sim.contention_active());
  ASSERT_TRUE(sim.run_to_convergence().converged);

  // Two back-to-back packets on the direct v1–v6 link: the second queues
  // behind the first's serialization time, so it arrives strictly later
  // and both pay at least propagation + one frame time.
  sim.node(Fig1::v1).send_data(Fig1::v6, 1);
  sim.node(Fig1::v1).send_data(Fig1::v6, 2);
  sim.run_until(sim.now() + 2.0);

  const auto& first = sim.trace().journeys.at(1);
  const auto& second = sim.trace().journeys.at(2);
  ASSERT_TRUE(first.delivered);
  ASSERT_TRUE(second.delivered);
  const double lat1 = first.delivered_at - first.sent_at;
  const double lat2 = second.delivered_at - second.sent_at;
  EXPECT_GT(lat1, kPropagationDelay);
  EXPECT_GT(lat2, lat1);
}

TEST(ContendedMedium, QueueOverflowTailDropsWithTheQueueDropFate) {
  const Graph g = Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  TrafficSpec spec = poisson_spec();
  // Two data frames (21 wire + 512 payload bytes each) fill the queue; the
  // third must be tail-dropped whatever the link's capacity scale is.
  spec.queue_bytes = 1200;

  Simulator sim;
  sim.reset(g, flooding, ans, next_hop_routes(), 1, nullptr, &spec);
  ASSERT_TRUE(sim.run_to_convergence().converged);

  for (std::uint32_t pid = 1; pid <= 4; ++pid)
    sim.node(Fig1::v1).send_data(Fig1::v6, pid);
  sim.run_until(sim.now() + 2.0);

  EXPECT_GT(sim.trace().frames_queue_dropped, 0u);
  bool saw_queue_drop = false;
  for (std::uint32_t pid = 1; pid <= 4; ++pid) {
    const auto& journey = sim.trace().journeys.at(pid);
    if (journey.drop == TraceStats::Journey::Drop::kQueueDrop) {
      saw_queue_drop = true;
      EXPECT_FALSE(journey.delivered);
    }
  }
  EXPECT_TRUE(saw_queue_drop);
}

}  // namespace
}  // namespace qolsr
