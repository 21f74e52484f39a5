#include "eval/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/fnbp.hpp"
#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.densities = {8.0};
  s.runs = 6;
  s.seed = 7;
  s.field.width = 400.0;
  s.field.height = 400.0;
  return s;
}

TEST(SampleRun, ProducesConnectedPairAndOptimum) {
  Scenario s = small_scenario();
  util::Rng rng(1);
  const SampledRun run = sample_run<BandwidthMetric>(s, 8.0, rng);
  ASSERT_GE(run.graph.node_count(), 2u);
  EXPECT_NE(run.source, run.destination);
  EXPECT_TRUE(is_connected(run.graph, run.source, run.destination));
  EXPECT_GT(run.optimal_value, 0.0);
  // The optimum really is the full-graph Dijkstra value.
  DijkstraWorkspace ws;
  dijkstra<BandwidthMetric>(run.graph, run.source, kInvalidNode, ws);
  ASSERT_TRUE(ws.reached(run.destination));
  EXPECT_EQ(run.optimal_value, ws.value(run.destination));
}

TEST(QosOverhead, DefinitionsMatchPaper) {
  // Bandwidth overhead (b*−b)/b*; delay overhead (d−d*)/d* (§IV-A).
  EXPECT_DOUBLE_EQ(qos_overhead<BandwidthMetric>(8.0, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(qos_overhead<BandwidthMetric>(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(qos_overhead<DelayMetric>(12.0, 10.0), 0.2);
  EXPECT_DOUBLE_EQ(qos_overhead<DelayMetric>(10.0, 10.0), 0.0);
}

TEST(QosOverhead, ZeroOptimumIsNeverNan) {
  // 0/0 guards for both families: a route matching a zero optimum is
  // exactly optimal, anything else is unboundedly worse (never NaN).
  EXPECT_DOUBLE_EQ(qos_overhead<BandwidthMetric>(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(qos_overhead<LossMetric>(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(qos_overhead<LossMetric>(1.0, 0.0)));
}

TEST(RunSweep, CollectsStatsForEveryProtocolAndDensity) {
  Scenario s = small_scenario();
  s.densities = {6.0, 9.0};
  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  const FnbpSelector<BandwidthMetric> fnbp;
  const auto sweep =
      run_sweep<BandwidthMetric>(s, {&qolsr, &fnbp});
  ASSERT_EQ(sweep.size(), 2u);
  for (const DensityStats& d : sweep) {
    ASSERT_EQ(d.protocols.size(), 2u);
    EXPECT_EQ(d.protocols[0].name, "qolsr_mpr2_bandwidth");
    EXPECT_EQ(d.protocols[1].name, "fnbp_bandwidth");
    for (const ProtocolStats& p : d.protocols) {
      EXPECT_EQ(p.set_size.count(), s.runs);
      EXPECT_EQ(p.delivered + p.failed, s.runs);
      EXPECT_GT(p.set_size.mean(), 0.0);
    }
  }
}

TEST(RunSweep, OverheadIsNonNegativeAndBoundedByOne) {
  Scenario s = small_scenario();
  const FnbpSelector<BandwidthMetric> fnbp;
  const auto sweep = run_sweep<BandwidthMetric>(s, {&fnbp});
  const ProtocolStats& p = sweep[0].protocols[0];
  // b ≤ b* always, so overhead ∈ [0,1].
  EXPECT_GE(p.overhead.min(), 0.0);
  EXPECT_LE(p.overhead.max(), 1.0);
}

TEST(RunSweep, DeterministicForFixedSeed) {
  Scenario s = small_scenario();
  const FnbpSelector<BandwidthMetric> fnbp;
  const auto a = run_sweep<BandwidthMetric>(s, {&fnbp});
  const auto b = run_sweep<BandwidthMetric>(s, {&fnbp});
  EXPECT_EQ(a[0].protocols[0].set_size.mean(),
            b[0].protocols[0].set_size.mean());
  EXPECT_EQ(a[0].protocols[0].overhead.mean(),
            b[0].protocols[0].overhead.mean());
}

TEST(Figures, TablesHaveExpectedShape) {
  FigureConfig config;
  config.runs = 2;  // smoke test of the full harness path
  const ExperimentResult result = run_experiment(figure_by_name("6", config));
  ASSERT_EQ(result.sweep.size(), 6u);
  std::ostringstream os;
  PrettyTableSink{}.write(result, os);
  // Per "## " section: its table lines (header, rule, one row per point).
  std::vector<std::size_t> table_lines;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("## ", 0) == 0)
      table_lines.push_back(0);
    else if (!table_lines.empty() && line.find(" | ") != std::string::npos)
      ++table_lines.back();
  }
  // Set size, overhead, diagnostics.
  ASSERT_EQ(table_lines.size(), 3u) << os.str();
  for (const std::size_t count : table_lines)
    EXPECT_EQ(count, 2 + result.sweep.size()) << os.str();
}

}  // namespace
}  // namespace qolsr
