// Traffic-workload contracts at the experiment level: a packet sweep with
// no traffic flags (or --load=0) keeps its pre-traffic byte layout,
// schedules are deterministic and thread-count invariant, every offered
// packet is charged to delivery or a drop fate, QoS distributions degrade
// monotonically with offered load, the oracle rejects the knobs, and the
// packet backend rejects values its traffic generator cannot take.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

std::string run_to_csv(const std::vector<std::string>& flags) {
  const ExperimentSpec spec = parse_experiment_spec(flags);
  const ExperimentResult result = run_experiment(spec);
  std::ostringstream os;
  CsvSink{}.write(result, os);
  return os.str();
}

/// The small fault-free packet scenario the robustness golden pin runs —
/// the byte-stability baseline traffic must not disturb.
std::vector<std::string> base_flags() {
  return {"--backend=packet", "--densities=8", "--field=400x400",
          "--runs=2",         "--seed=7",      "--threads=1",
          "--format=csv"};
}

/// Figure L at load 4: the contended medium, where every broadcast leg is
/// admitted, queued and delivered as its own event. Captured with the
/// qolsr_eval of the commit before the simulator's frame path decoded each
/// fan-out once; that change must not move a byte.
constexpr const char* kContendedFigureLCsv =
    "metric,load,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,"
    "delivered,failed,overhead_mean,overhead_stddev,path_hops_mean,"
    "hello_msgs_mean,tc_msgs_mean,tc_forwards_mean,duplicate_drops_mean,"
    "control_bytes_mean,convergence_time_mean,convergence_time_stddev,"
    "unconverged_runs,load,offered,traffic_delivered,"
    "traffic_delivery_ratio,queue_drops,traffic_no_route_drops,"
    "traffic_loop_drops,traffic_medium_drops,latency_p50,latency_p95,"
    "latency_p99,flow_delivery_p50,flow_delivery_p95,flow_delivery_p99,"
    "throughput_p50,throughput_p95,throughput_p99\n"
    "bandwidth,4,2,46.5,olsr_mpr,2.194444444,0.03928371007,2,0,0.375,"
    "0.5303300859,6,186,69,673.5,3033.5,158168.5,7.497442109,"
    "0.004016090301,0,4,25432,17656,0.6942434728,7776,0,0,0,0.1852337341,"
    "1.041922643,1.362479027,0.7246842019,1,1,29465.6,42977.28,43878.4\n"
    "bandwidth,4,2,46.5,qolsr_mpr1_bandwidth,2.194444444,0.03928371007,2,0,"
    "0.375,0.5303300859,6,186,69,687.5,3125.5,160235,7.493197861,"
    "0.001747340954,0,4,25432,17227,0.6773749607,8205,0,0,0,0.2099143186,"
    "1.058382087,1.347906695,0.6896163822,1,1,27596.8,42977.28,43878.4\n"
    "bandwidth,4,2,46.5,qolsr_mpr2_bandwidth,3.157638889,0.1600811185,2,0,"
    "0.375,0.5303300859,6,186,69,1122,6279,282737.5,7.513202215,"
    "0.03227874088,0,4,25432,18228,0.7167348223,7204,0,0,0,0.1983658004,"
    "1.043040688,1.465994581,0.8007242694,1,1,31488,42977.28,43878.4\n"
    "bandwidth,4,2,46.5,topology_filtering_bandwidth,3.084722222,"
    "0.0569613796,2,0,0,0,8,186,72,671,3005.5,191487.5,7.530053019,"
    "0.04610790756,0,4,25432,17918,0.7045454545,7514,0,0,0,0.2052818941,"
    "0.7879301135,1.215303048,0.7510511105,1,1,30668.8,41461.76,43164.16\n"
    "bandwidth,4,2,46.5,fnbp_bandwidth,1.656944444,0.04517626658,2,0,0,0,"
    "8.5,234,81,769.5,3505.5,165118.5,9.891062059,3.401220425,0,4,25432,"
    "17895,0.7036410821,6767,770,0,0,0.1824180358,0.9357169199,1.382950508,"
    "0.7570991337,1,1,30873.6,41059.84,41510.912\n";


TEST(TrafficExperiment, ContendedFigureLPointMatchesGoldenPin) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--densities=4", "--field=400x400", "--runs=2", "--seed=7",
       "--threads=1", "--format=csv"},
      figure_by_name("L"));
  std::ostringstream os;
  CsvSink{}.write(run_experiment(spec), os);
  EXPECT_EQ(os.str(), kContendedFigureLCsv);
}

TEST(TrafficExperiment, LoadZeroIsByteIdenticalToNoTrafficFlags) {
  // An inactive spec is contractually invisible: same RNG draws, same
  // event order, same columns — the CLI's --load=0 must reproduce the
  // no-flags run byte-for-byte.
  const std::string plain = run_to_csv(base_flags());
  auto flags = base_flags();
  flags.push_back("--traffic=poisson");
  flags.push_back("--load=0");
  EXPECT_EQ(run_to_csv(flags), plain);
  // And the traffic columns only exist when a workload can have run.
  EXPECT_EQ(plain.find("queue_drops"), std::string::npos);
  EXPECT_EQ(plain.find("latency_p95"), std::string::npos);
}

TEST(TrafficExperiment, ScheduleIsThreadCountInvariant) {
  auto with_threads = [](const std::string& threads) {
    return run_to_csv({"--backend=packet", "--densities=8", "--field=400x400",
                       "--runs=4", "--seed=11", threads, "--format=csv",
                       "--traffic=poisson", "--flows=8", "--load=2",
                       "--traffic-duration=3", "--pairs=any"});
  };
  const std::string one = with_threads("--threads=1");
  EXPECT_EQ(one, with_threads("--threads=3"));
  // The traffic columns are present and the workload did something.
  EXPECT_NE(one.find("latency_p95"), std::string::npos);
  EXPECT_NE(one.find("flow_delivery_p50"), std::string::npos);
}

TEST(TrafficExperiment, EveryOfferedPacketIsChargedToAFate) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--backend=packet", "--densities=8", "--field=400x400", "--runs=2",
       "--seed=5", "--threads=2", "--traffic=poisson", "--flows=8",
       "--load=2", "--traffic-duration=3", "--queue-bytes=2000",
       "--pairs=any"});
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 1u);
  for (const ProtocolStats& p : result.sweep[0].protocols) {
    SCOPED_TRACE(p.name);
    ASSERT_TRUE(p.traffic.measured());
    EXPECT_EQ(p.traffic.delivered + p.traffic.queue_drops +
                  p.traffic.no_route_drops + p.traffic.loop_drops +
                  p.traffic.medium_drops,
              p.traffic.offered);
    // Distributions carry one sample per flow per run / per delivery.
    EXPECT_EQ(p.traffic.flow_delivery.count(), 8u * 2u);
    EXPECT_EQ(p.traffic.latency.count(), p.traffic.delivered);
  }
}

TEST(TrafficExperiment, LatencyGrowsAndDeliveryDecaysWithLoad) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--backend=packet", "--axis=load", "--densities=0.25,4", "--degree=8",
       "--field=400x400", "--runs=2", "--seed=7", "--threads=2",
       "--traffic=poisson", "--flows=16", "--traffic-duration=5",
       "--pairs=any"});
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 2u);
  const DensityStats& light = result.sweep[0];
  const DensityStats& heavy = result.sweep[1];

  double light_delivered = 0.0, heavy_delivered = 0.0;
  double light_p95 = 0.0, heavy_p95 = 0.0;
  std::size_t heavy_queue_drops = 0;
  for (std::size_t si = 0; si < light.protocols.size(); ++si) {
    light_delivered += light.protocols[si].traffic.delivery_ratio();
    heavy_delivered += heavy.protocols[si].traffic.delivery_ratio();
    light_p95 +=
        summarize_distribution(light.protocols[si].traffic.latency).p95;
    heavy_p95 +=
        summarize_distribution(heavy.protocols[si].traffic.latency).p95;
    heavy_queue_drops += heavy.protocols[si].traffic.queue_drops;
  }
  EXPECT_GT(heavy_p95, light_p95);
  EXPECT_LT(heavy_delivered, light_delivered);
  EXPECT_GT(heavy_queue_drops, 0u);
}

TEST(TrafficExperiment, PerRunRecordsCarryTheTrafficOutcome) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--backend=packet", "--densities=8", "--field=400x400", "--runs=2",
       "--seed=7", "--threads=1", "--per-run", "--traffic=cbr", "--flows=4",
       "--traffic-duration=2", "--pairs=any"});
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 1u);
  ASSERT_EQ(result.sweep[0].run_records.size(), 2u);
  for (const RunRecord& r : result.sweep[0].run_records) {
    for (const RunRecord::Protocol& rp : r.protocols) {
      EXPECT_GT(rp.traffic_offered, 0u);
      EXPECT_LE(rp.traffic_delivered, rp.traffic_offered);
    }
  }
  std::ostringstream os;
  CsvSink{}.write(result, os);
  EXPECT_NE(os.str().find(",traffic_offered,traffic_delivered,"
                          "traffic_latency_p95"),
            std::string::npos);
}

TEST(TrafficExperiment, FigureLSpecIsACannedLoadSweep) {
  const ExperimentSpec spec = figure_by_name("L");
  EXPECT_EQ(spec.backend, BackendId::kPacket);
  EXPECT_EQ(spec.scenario.sweep_axis, Scenario::SweepAxis::kLoad);
  EXPECT_EQ(spec.scenario.traffic.arrival, TrafficSpec::Arrival::kPoisson);
  EXPECT_TRUE(spec.scenario.traffic.active());
  EXPECT_EQ(spec.selectors.size(), 5u);
  EXPECT_EQ(spec.scenario.densities.size(), 5u);
}

TEST(TrafficExperiment, OracleBackendRejectsTrafficKnobs) {
  // Semantic validation happens when the experiment runs (parse only
  // checks flag vocabulary) — mirror the CLI's parse-then-run path.
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--densities=10", "--runs=1", "--traffic=poisson"})),
               ExperimentError);
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--axis=load", "--densities=1", "--runs=1"})),
               ExperimentError);
  // The load axis needs an arrival process even on the packet backend.
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--backend=packet", "--axis=load", "--densities=1",
                    "--runs=1"})),
               ExperimentError);
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--backend=packet", "--densities=8", "--runs=1",
                    "--traffic=pareto", "--pareto-shape=0.9"})),
               ExperimentError);
  // Unknown vocabulary is rejected at parse time.
  EXPECT_THROW(parse_experiment_spec({"--traffic=bogus"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--pattern=bogus"}), ExperimentError);
}

TEST(TrafficExperiment, RejectsKnobsTheGeneratorCannotTake) {
  // Before these checks an infinite load, rate or duration, or a finite
  // load whose packet count overflows the payload ids, materialized
  // packets until allocation failed; a NaN load or rate silently switched
  // the traffic off; a NaN capacity charged every packet as dropped; a
  // non-finite Pareto shape sent one packet per flow; 2^32 probes wrapped
  // the 32-bit probe id, so the send loop never ended; and 10^11 flows
  // passed as 2 expected packets, because the packet bound left out each
  // flow's first packet.
  const struct {
    std::vector<std::string> extra;
    const char* flag;
  } bad_inputs[] = {
      {{"--traffic=poisson", "--load=inf"}, "--load"},
      {{"--traffic=poisson", "--traffic-duration=inf"}, "--traffic-duration"},
      {{"--traffic=poisson", "--traffic-rate=inf"}, "--traffic-rate"},
      {{"--traffic=poisson", "--load=1e300"}, "--load"},
      {{"--traffic=poisson", "--load=nan"}, "--load"},
      {{"--traffic=poisson", "--traffic-rate=nan"}, "--traffic-rate"},
      {{"--traffic=poisson", "--capacity=nan"}, "--capacity"},
      {{"--traffic=pareto", "--pareto-shape=inf"}, "--pareto-shape"},
      {{"--traffic=pareto", "--pareto-shape=nan"}, "--pareto-shape"},
      {{"--probes=4294967296"}, "--probes"},
      {{"--traffic=poisson", "--flows=100000000000",
        "--traffic-duration=1e-12"},
       "--flows"}};
  for (const auto& bad : bad_inputs) {
    std::vector<std::string> flags = {"--backend=packet", "--densities=8",
                                      "--runs=1", "--field=300x300",
                                      "--threads=1"};
    flags.insert(flags.end(), bad.extra.begin(), bad.extra.end());
    try {
      run_experiment(parse_experiment_spec(flags));
      ADD_FAILURE() << bad.extra.back() << " accepted";
    } catch (const ExperimentError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("experiment 'sweep': ", 0), 0u) << what;
      EXPECT_NE(what.find(bad.flag), std::string::npos) << what;
    }
  }
}

TEST(TrafficExperiment, UnknownAxisErrorListsTheValidNames) {
  try {
    parse_experiment_spec({"--axis=bogus"});
    FAIL() << "expected ExperimentError";
  } catch (const ExperimentError& e) {
    EXPECT_NE(std::string(e.what()).find("density|speed|loss|load"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace qolsr
