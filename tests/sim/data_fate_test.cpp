// Data-packet fate attribution at the forwarding layer: a frame naming a
// destination outside the deployment can only be forged or wire-corrupted
// (parse-time sanitation rejects any such *received* frame), so it must be
// charged to the wire (kMalformed) — not to the knowledge graph as
// kNoRoute, which would misattribute corruption as a routing failure in
// the figure-B/R fate columns. A genuinely unreachable in-range
// destination keeps charging kNoRoute.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"
#include "support/engines.hpp"
#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

using testing::next_hop_routes;

TEST(DataFate, OutOfRangeDestinationIsChargedMalformedNotNoRoute) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  sim.node(testing::Fig1::v1).send_data(/*destination=*/99, /*payload=*/1);
  sim.run_until(sim.now() + 1.0);

  EXPECT_EQ(sim.trace().data_delivered, 0u);
  EXPECT_EQ(sim.trace().data_dropped, 1u);
  const auto it = sim.trace().journeys.find(1);
  ASSERT_NE(it, sim.trace().journeys.end());
  EXPECT_FALSE(it->second.delivered);
  EXPECT_EQ(it->second.drop, TraceStats::Journey::Drop::kMalformed);
}

TEST(DataFate, UnreachableInRangeDestinationStaysNoRoute) {
  Graph g = testing::Fig1::build();
  const NodeId island = g.add_node({1e6, 1e6});  // in range, no links
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, next_hop_routes());
  sim.run_to_convergence();

  sim.node(testing::Fig1::v1).send_data(island, /*payload=*/2);
  sim.run_until(sim.now() + 1.0);

  const auto it = sim.trace().journeys.find(2);
  ASSERT_NE(it, sim.trace().journeys.end());
  EXPECT_EQ(it->second.drop, TraceStats::Journey::Drop::kNoRoute);
}

}  // namespace
}  // namespace qolsr
