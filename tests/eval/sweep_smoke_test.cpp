// End-to-end smoke test of run_sweep: a tiny 2-density × 4-run sweep for
// both metric families, exercising the multithreaded partial-stats merge
// path against the single-threaded reference. Each worker runs a
// contiguous block of runs and the partials merge in worker order, so
// aggregates and counters must agree exactly.
#include "eval/runner.hpp"

#include <gtest/gtest.h>

#include "core/fnbp.hpp"

namespace qolsr {
namespace {

Scenario tiny_scenario() {
  Scenario s;
  s.densities = {6.0, 9.0};
  s.runs = 4;
  s.seed = 1234;
  s.field.width = 350.0;
  s.field.height = 350.0;
  return s;
}

template <Metric M>
void check_sweep_merge() {
  Scenario s = tiny_scenario();
  const QolsrSelector<M> qolsr(QolsrVariant::kMpr2);
  const FnbpSelector<M> fnbp;
  const std::vector<const AnsSelector*> selectors = {&qolsr, &fnbp};

  const auto serial = run_sweep<M>(s, selectors, 1);
  const auto threaded = run_sweep<M>(s, selectors, 4);

  ASSERT_EQ(serial.size(), s.densities.size());
  ASSERT_EQ(threaded.size(), s.densities.size());
  for (std::size_t di = 0; di < serial.size(); ++di) {
    const DensityStats& a = serial[di];
    const DensityStats& b = threaded[di];
    EXPECT_EQ(a.density, b.density);
    EXPECT_EQ(a.runs, s.runs);
    EXPECT_EQ(a.node_count.count(), b.node_count.count());
    ASSERT_EQ(a.protocols.size(), selectors.size());
    ASSERT_EQ(b.protocols.size(), selectors.size());
    for (std::size_t si = 0; si < selectors.size(); ++si) {
      const ProtocolStats& pa = a.protocols[si];
      const ProtocolStats& pb = b.protocols[si];
      EXPECT_EQ(pa.name, pb.name);
      EXPECT_EQ(pa.delivered, pb.delivered);
      EXPECT_EQ(pa.failed, pb.failed);
      EXPECT_EQ(pa.delivered + pa.failed, s.runs);
      EXPECT_EQ(pa.set_size.count(), pb.set_size.count());
      EXPECT_EQ(pa.set_size.count(), s.runs);
      EXPECT_EQ(pa.set_size.mean(), pb.set_size.mean());
      if (pa.delivered > 0) {
        EXPECT_EQ(pa.overhead.mean(), pb.overhead.mean());
        EXPECT_EQ(pa.path_hops.mean(), pb.path_hops.mean());
      }
      EXPECT_GT(pa.set_size.mean(), 0.0);
    }
  }
}

TEST(SweepSmoke, BandwidthMergeMatchesSerial) {
  check_sweep_merge<BandwidthMetric>();
}

TEST(SweepSmoke, DelayMergeMatchesSerial) { check_sweep_merge<DelayMetric>(); }

TEST(SweepSmoke, AnsChainRoutingModelRuns) {
  Scenario s = tiny_scenario();
  s.routing_model = Scenario::RoutingModel::kAnsChain;
  const FnbpSelector<BandwidthMetric> fnbp;
  const auto sweep = run_sweep<BandwidthMetric>(s, {&fnbp}, 2);
  ASSERT_EQ(sweep.size(), 2u);
  for (const DensityStats& d : sweep) {
    const ProtocolStats& p = d.protocols[0];
    EXPECT_EQ(p.delivered + p.failed, s.runs);
  }
}

}  // namespace
}  // namespace qolsr
