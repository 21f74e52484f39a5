// The selector registry: builtin names in legend order, per-metric
// instantiation, unknown-name diagnostics, and custom registration.
#include "olsr/selector_registry.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/fnbp.hpp"
#include "support/paper_graphs.hpp"

namespace qolsr {
namespace {

TEST(SelectorRegistry, BuiltinNamesInLegendOrder) {
  // The paper's five contenders, then FNBP's two ablations.
  const std::vector<std::string> expected = {
      "olsr_mpr", "qolsr_mpr1",      "qolsr_mpr2",      "topology_filtering",
      "fnbp",     "fnbp_no_loopfix", "fnbp_id_tiebreak"};
  EXPECT_EQ(SelectorRegistry::builtin().names(), expected);
  for (const std::string& name : expected)
    EXPECT_TRUE(SelectorRegistry::builtin().contains(name));
  EXPECT_FALSE(SelectorRegistry::builtin().contains("fnbp2"));
}

TEST(SelectorRegistry, CreatesMetricSpecificInstances) {
  const SelectorRegistry& r = SelectorRegistry::builtin();
  // Instance names carry the metric suffix the eval columns use.
  EXPECT_EQ(r.create("olsr_mpr", MetricId::kDelay)->name(), "olsr_mpr");
  EXPECT_EQ(r.create("qolsr_mpr1", MetricId::kDelay)->name(),
            "qolsr_mpr1_delay");
  EXPECT_EQ(r.create("qolsr_mpr2", MetricId::kBandwidth)->name(),
            "qolsr_mpr2_bandwidth");
  EXPECT_EQ(r.create("topology_filtering", MetricId::kEnergy)->name(),
            "topology_filtering_energy");
  EXPECT_EQ(r.create("fnbp", MetricId::kBuffers)->name(), "fnbp_buffers");
  EXPECT_EQ(r.create("fnbp_no_loopfix", MetricId::kDelay)->name(),
            "fnbp_no_loopfix_delay");
  EXPECT_EQ(r.create("fnbp_id_tiebreak", MetricId::kBandwidth)->name(),
            "fnbp_id_tiebreak_bandwidth");
}

TEST(SelectorRegistry, CreatedSelectorsSelectLikeTheDirectTypes) {
  // Fig. 1's topology: the registry's fnbp instance and its two ablations
  // must agree with a directly constructed FnbpSelector on every node.
  Graph g(6);
  auto bw = [](double bandwidth) {
    LinkQos qos;
    qos.bandwidth = bandwidth;
    return qos;
  };
  g.add_edge(0, 1, bw(7));
  g.add_edge(1, 2, bw(6));
  g.add_edge(1, 4, bw(8));
  g.add_edge(0, 4, bw(5));
  g.add_edge(2, 4, bw(5));
  g.add_edge(0, 5, bw(10));
  g.add_edge(5, 4, bw(10));
  g.add_edge(4, 3, bw(10));
  g.add_edge(3, 2, bw(10));

  const std::pair<const char*, FnbpOptions> cases[] = {
      {"fnbp", {}},
      {"fnbp_no_loopfix", {.loop_fix = false}},
      {"fnbp_id_tiebreak", {.qos_tiebreak = false}}};
  for (const auto& [name, options] : cases) {
    const auto from_registry =
        SelectorRegistry::builtin().create(name, MetricId::kBandwidth);
    const FnbpSelector<BandwidthMetric> direct(options);
    for (NodeId u = 0; u < g.node_count(); ++u) {
      const LocalView view(g, u);
      EXPECT_EQ(from_registry->select(view), direct.select(view))
          << name << " node " << u;
    }
  }

  // Fig. 4, where the loop fix decides: A selects D only with the fix, so
  // a registry that dropped the options would fail here.
  using testing::Fig4;
  const Graph fig4 = Fig4::build();
  const LocalView view_a(fig4, Fig4::a);
  EXPECT_EQ(SelectorRegistry::builtin()
                .create("fnbp", MetricId::kBandwidth)
                ->select(view_a),
            (std::vector<NodeId>{Fig4::b, Fig4::d}));
  EXPECT_EQ(SelectorRegistry::builtin()
                .create("fnbp_no_loopfix", MetricId::kBandwidth)
                ->select(view_a),
            (std::vector<NodeId>{Fig4::b}));
}

TEST(SelectorRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    SelectorRegistry::builtin().create("does_not_exist", MetricId::kDelay);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("does_not_exist"), std::string::npos);
    EXPECT_NE(message.find("fnbp"), std::string::npos);
  }
}

TEST(SelectorRegistry, FloodingRolesPairProtocolsWithTheirTcDissemination) {
  const SelectorRegistry& r = SelectorRegistry::builtin();
  // OLSR and QOLSR flood on the very set they advertise...
  EXPECT_EQ(r.create_flooding("olsr_mpr", MetricId::kBandwidth)->name(),
            "olsr_mpr");
  EXPECT_EQ(r.create_flooding("qolsr_mpr1", MetricId::kDelay)->name(),
            "qolsr_mpr1_delay");
  EXPECT_EQ(r.create_flooding("qolsr_mpr2", MetricId::kBandwidth)->name(),
            "qolsr_mpr2_bandwidth");
  // ...while the split QANS designs advertise a filtered set but keep RFC
  // 3626 MPR flooding (they only change *what is advertised*).
  EXPECT_EQ(r.create_flooding("topology_filtering", MetricId::kBandwidth)
                ->name(),
            "olsr_mpr");
  EXPECT_EQ(r.create_flooding("fnbp", MetricId::kBandwidth)->name(),
            "olsr_mpr");
  EXPECT_THROW(r.create_flooding("no_such", MetricId::kBandwidth),
               std::invalid_argument);
}

TEST(SelectorRegistry, CustomRegistrationAndDuplicateRejection) {
  SelectorRegistry r;
  r.add("mine", [](MetricId) { return std::make_unique<Rfc3626Selector>(); });
  EXPECT_TRUE(r.contains("mine"));
  EXPECT_EQ(r.create("mine", MetricId::kLoss)->name(), "olsr_mpr");
  EXPECT_THROW(r.add("mine", [](MetricId) {
                 return std::make_unique<Rfc3626Selector>();
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace qolsr
