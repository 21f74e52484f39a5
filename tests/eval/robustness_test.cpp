// Robustness contracts of the fault-injection engine at the experiment
// level: a packet sweep with no fault flags (or --loss=0) is byte-for-byte
// the fault-free engine, fault schedules are deterministic and
// thread-count invariant, delivery degrades under loss with every failed
// probe charged to a fate, the loss-axis zero point reproduces the
// fault-free figures, and per-run records carry the honest converged flag.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

/// The flags of the pinned fault-free packet run. Small on purpose: the
/// pin is a byte-stability tripwire, not a statistics check.
std::vector<std::string> golden_flags() {
  return {"--backend=packet", "--densities=8", "--field=400x400",
          "--runs=2",         "--seed=7",      "--threads=1",
          "--format=csv"};
}

/// CSV of the fault-free packet engine. An inactive FaultPlan must keep
/// reproducing this byte-for-byte — same event order, same RNG draws, same
/// columns. Re-pinned when convergence detection became event-driven: the
/// figure columns (set sizes, delivery, overhead, hops, message counts,
/// control bytes) are unchanged from the pre-change capture, while the
/// convergence columns carry the exact last-mutation timestamp (no longer
/// rounded up to the HELLO sampling grid) and duplicate_drops is
/// snapshotted at that instant rather than at the next grid tick.
constexpr const char* kFaultFreePacketCsv =
    "metric,density,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,"
    "delivered,failed,overhead_mean,overhead_stddev,path_hops_mean,"
    "hello_msgs_mean,tc_msgs_mean,tc_forwards_mean,duplicate_drops_mean,"
    "control_bytes_mean,convergence_time_mean,convergence_time_stddev,"
    "unconverged_runs\n"
    "bandwidth,8,2,36.5,qolsr_mpr2_bandwidth,2.620300752,0.1329148085,2,0,"
    "0.3333333333,0.4714045208,2,146,49.5,619,2501,144266,7.460765835,"
    "0.01570220622,0\n"
    "bandwidth,8,2,36.5,topology_filtering_bandwidth,2.571804511,"
    "0.1217499646,2,0,0,0,2.5,146,51.5,505.5,1795.5,123078.5,7.460765835,"
    "0.01570220622,0\n"
    "bandwidth,8,2,36.5,fnbp_bandwidth,1.691729323,0.2339300629,2,0,0,0,"
    "2.5,146,51.5,505.5,1795.5,97400,7.460765835,0.01570220622,0\n";

std::string run_to_csv(const std::vector<std::string>& flags) {
  const ExperimentSpec spec = parse_experiment_spec(flags);
  const ExperimentResult result = run_experiment(spec);
  std::ostringstream os;
  CsvSink{}.write(result, os);
  return os.str();
}

/// Figure R at loss 0.2: lossy broadcast fan-outs, the crash incident and
/// its re-convergence, all on the uncontended batched delivery path.
/// Captured with the qolsr_eval of the commit before the simulator's frame
/// path decoded each fan-out once; that change must not move a byte.
constexpr const char* kLossyFigureRCsv =
    "metric,loss,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,"
    "delivered,failed,overhead_mean,overhead_stddev,path_hops_mean,"
    "hello_msgs_mean,tc_msgs_mean,tc_forwards_mean,duplicate_drops_mean,"
    "control_bytes_mean,convergence_time_mean,convergence_time_stddev,"
    "unconverged_runs,loss_rate,probes,delivery_ratio,no_route_drops,"
    "loop_drops,medium_drops,frames_lost_mean,frames_blocked_mean,"
    "reconvergence_time_mean,reconv_unconverged,probe_delivery_p50,"
    "probe_delivery_p95,probe_delivery_p99\n"
    "bandwidth,0.2,2,46.5,olsr_mpr,2.195138889,0.06972858537,3,13,0.25,"
    "0.4330127019,6,1022,379,3633,12306.5,922327,45.30921098,0.1107212983,"
    "2,0.2,8,0.1875,0,0,13,6983,0,45.41358695,2,0.1875,0.24375,0.24875\n"
    "bandwidth,0.2,2,46.5,qolsr_mpr1_bandwidth,2.195833333,0.1001734607,3,"
    "13,0.25,0.4330127019,6,1022,380,3586,12204,915370.5,45.37777181,"
    "0.333015398,2,0.2,8,0.1875,0,0,13,6959,0,45.41845546,2,0.1875,0.24375,"
    "0.24875\n"
    "bandwidth,0.2,2,46.5,qolsr_mpr2_bandwidth,3.168055556,0.1748125098,4,"
    "12,0.375,0.4330127019,6,1019,379.5,6334.5,26195.5,1667230,45.10731139,"
    "0.04805919436,2,0.2,8,0.25,0,0,12,11002.5,0,45.92481824,2,0.25,0.25,"
    "0.25\n"
    "bandwidth,0.2,2,46.5,topology_filtering_bandwidth,3.0625,"
    "0.08838834765,3,13,0,0,7.333333333,1022,394.5,3562.5,12304,1086513.5,"
    "45.30921098,0.1107212983,2,0.2,8,0.1875,0,0,13,6938,0,45.64701679,2,"
    "0.1875,0.24375,0.24875\n"
    "bandwidth,0.2,2,46.5,fnbp_bandwidth,1.688194444,0.0009820927516,2,14,"
    "0,0,8.5,1022,394.5,3562.5,12304,765651.5,45.30921098,0.1107212983,2,"
    "0.2,8,0.125,0,0,14,6938,0,45.67321593,2,0.125,0.125,0.125\n";

TEST(Robustness, FaultFreePacketRunMatchesGoldenPin) {
  EXPECT_EQ(run_to_csv(golden_flags()), kFaultFreePacketCsv);
}

TEST(Robustness, LossyFigureRPointMatchesGoldenPin) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--densities=0.2", "--field=400x400", "--runs=2", "--seed=7",
       "--threads=1", "--format=csv"},
      figure_by_name("R"));
  std::ostringstream os;
  CsvSink{}.write(run_experiment(spec), os);
  EXPECT_EQ(os.str(), kLossyFigureRCsv);
}

TEST(Robustness, LossZeroFlagIsByteIdenticalToNoFaultFlags) {
  auto flags = golden_flags();
  flags.push_back("--loss=0");
  EXPECT_EQ(run_to_csv(flags), kFaultFreePacketCsv);
}

TEST(Robustness, CorruptZeroFlagIsByteIdenticalToNoFaultFlags) {
  // --corrupt=0 leaves the adversary spec inactive: no corruption gate is
  // installed, no extra RNG draws happen, and the run must reproduce the
  // fault-free pin byte-for-byte (same contract as --loss=0).
  auto flags = golden_flags();
  flags.push_back("--corrupt=0");
  EXPECT_EQ(run_to_csv(flags), kFaultFreePacketCsv);
}

TEST(Robustness, WireCorruptionChargesMalformedNotNoRoute) {
  // A corrupted frame that still parses as a data frame with an
  // out-of-range destination must be charged to the wire (kMalformed), so
  // at the sweep level every probe fate lands in either a routed fate
  // (no-route/loop/medium) or the invariants block — never misattributed
  // such that the fates overshoot the failure count.
  const ExperimentSpec spec = parse_experiment_spec(
      {"--backend=packet", "--densities=8", "--field=400x400", "--runs=3",
       "--seed=7", "--threads=1", "--probes=8", "--pairs=any",
       "--corrupt=0.25"});
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 1u);
  bool corrupted_somewhere = false;
  for (const ProtocolStats& p : result.sweep[0].protocols) {
    SCOPED_TRACE(p.name);
    EXPECT_LE(p.no_route_losses + p.loop_losses + p.medium_losses, p.failed);
    corrupted_somewhere =
        corrupted_somewhere || p.invariants.frames_corrupted.mean() > 0.0;
    // At a 25% per-frame flip rate the sanitation layer must have rejected
    // frames as malformed; none of those may leak into no-route.
    EXPECT_GT(p.invariants.frames_malformed.mean(), 0.0);
  }
  EXPECT_TRUE(corrupted_somewhere);
}

TEST(Robustness, FaultScheduleIsThreadCountInvariant) {
  auto with_threads = [](const std::string& threads) {
    return run_to_csv({"--backend=packet", "--densities=8", "--field=400x400",
                       "--runs=4", "--seed=11", threads, "--format=csv",
                       "--loss=0.15", "--crash=1@5", "--flap=1@5",
                       "--probes=4"});
  };
  const std::string one = with_threads("--threads=1");
  EXPECT_EQ(one, with_threads("--threads=3"));
  // The fault columns are present and the schedule did something.
  EXPECT_NE(one.find("reconvergence_time_mean"), std::string::npos);
  EXPECT_NE(one.find("loss_rate"), std::string::npos);
}

TEST(Robustness, DeliveryDegradesUnderLossAndFatesSumToFailed) {
  ExperimentSpec spec = parse_experiment_spec(
      {"--backend=packet", "--axis=loss", "--densities=0,0.3", "--degree=8",
       "--field=400x400", "--runs=3", "--seed=5", "--threads=2",
       "--probes=6", "--pairs=any"});
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 2u);
  const DensityStats& clean = result.sweep[0];
  const DensityStats& lossy = result.sweep[1];

  std::size_t clean_delivered = 0, lossy_delivered = 0;
  for (const ProtocolStats& p : clean.protocols) {
    clean_delivered += p.delivered;
    EXPECT_EQ(p.no_route_losses + p.loop_losses + p.medium_losses, p.failed)
        << p.name;
  }
  for (const ProtocolStats& p : lossy.protocols) {
    lossy_delivered += p.delivered;
    EXPECT_EQ(p.no_route_losses + p.loop_losses + p.medium_losses, p.failed)
        << p.name;
  }
  EXPECT_LT(lossy_delivered, clean_delivered);
  // At 30% ambient frame loss the medium must have eaten something —
  // control frames at minimum.
  bool lost_frames = false;
  for (const ProtocolStats& p : lossy.protocols)
    lost_frames = lost_frames || p.control.frames_lost.mean() > 0.0;
  EXPECT_TRUE(lost_frames);
}

TEST(Robustness, LossAxisZeroPointEqualsFaultFreeRun) {
  // The loss = 0 sweep point of a loss-axis experiment — incidents and all
  // — must produce the same measurements as a plain fault-free packet run
  // of the same scenario, because probes are measured before incidents are
  // injected and a zero rate draws no random numbers.
  const std::vector<std::string> shared = {
      "--backend=packet", "--degree=8",  "--field=400x400", "--runs=2",
      "--seed=9",         "--threads=1", "--probes=3",      "--pairs=any"};

  auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> flags = shared;
    flags.insert(flags.end(), extra.begin(), extra.end());
    return run_experiment(parse_experiment_spec(flags)).sweep;
  };

  const auto loss_axis =
      with({"--axis=loss", "--densities=0", "--crash=1@5"});
  const auto fault_free = with({"--densities=8"});
  ASSERT_EQ(loss_axis.size(), 1u);
  ASSERT_EQ(fault_free.size(), 1u);
  ASSERT_EQ(loss_axis[0].protocols.size(), fault_free[0].protocols.size());
  for (std::size_t si = 0; si < loss_axis[0].protocols.size(); ++si) {
    const ProtocolStats& a = loss_axis[0].protocols[si];
    const ProtocolStats& b = fault_free[0].protocols[si];
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.set_size.mean(), b.set_size.mean());
    EXPECT_EQ(a.overhead.mean(), b.overhead.mean());
    EXPECT_EQ(a.control.control_bytes.mean(), b.control.control_bytes.mean());
    EXPECT_EQ(a.control.convergence_time.mean(),
              b.control.convergence_time.mean());
    EXPECT_EQ(a.control.frames_lost.mean(), 0.0);
    // Only the loss-axis run timed incident re-convergence.
    EXPECT_GT(a.control.reconvergence_time.count(), 0u);
    EXPECT_EQ(b.control.reconvergence_time.count(), 0u);
  }
}

TEST(Robustness, PerRunRecordsCarryConvergenceOutcome) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--backend=packet", "--densities=8", "--field=400x400", "--runs=2",
       "--seed=7", "--threads=1", "--per-run", "--loss=0.1", "--probes=4"});
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 1u);
  ASSERT_EQ(result.sweep[0].run_records.size(), 2u);
  for (const RunRecord& r : result.sweep[0].run_records) {
    for (const RunRecord::Protocol& rp : r.protocols) {
      EXPECT_GT(rp.convergence_time, 0.0);
      EXPECT_GT(rp.control_bytes, 0.0);
      EXPECT_EQ(rp.probes_delivered + rp.probes_failed, 4u);
      EXPECT_EQ(rp.delivered, rp.probes_failed == 0);
    }
  }
  // The CSV record block carries the packet-only columns.
  std::ostringstream os;
  CsvSink{}.write(result, os);
  EXPECT_NE(os.str().find(",convergence_time,converged,control_bytes"),
            std::string::npos);
}

TEST(Robustness, FigureRSpecIsACannedLossSweep) {
  const ExperimentSpec spec = figure_r_spec();
  EXPECT_EQ(spec.backend, BackendId::kPacket);
  EXPECT_EQ(spec.scenario.sweep_axis, Scenario::SweepAxis::kLoss);
  EXPECT_EQ(spec.scenario.densities.front(), 0.0);
  EXPECT_EQ(spec.scenario.probe_packets, 8u);
  ASSERT_EQ(spec.scenario.faults.incidents.size(), 1u);
  EXPECT_EQ(spec.scenario.faults.incidents[0].kind,
            FaultIncident::Kind::kNodeCrash);
  EXPECT_EQ(spec.selectors.size(), 5u);
}

TEST(Robustness, OracleBackendRejectsFaultFlags) {
  EXPECT_THROW(
      run_experiment(parse_experiment_spec(
          {"--densities=10", "--runs=1", "--loss=0.2"})),
      ExperimentError);
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--densities=10", "--runs=1", "--crash=1"})),
               ExperimentError);
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--axis=loss", "--densities=0.1", "--runs=1"})),
               ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--loss=nope"}), ExperimentError);
  EXPECT_THROW(
      run_experiment(parse_experiment_spec(
          {"--backend=packet", "--densities=10", "--runs=1", "--loss=1.5"})),
      ExperimentError);
}

}  // namespace
}  // namespace qolsr
