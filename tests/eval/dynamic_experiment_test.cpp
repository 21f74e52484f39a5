// The mobility/churn epoch-loop evaluation mode end-to-end: count
// consistency, determinism of the emitted CSV at a fixed seed,
// thread-count invariance (the satellite mirroring the static sweep's
// test), the new CLI flags, the canned Fig. M spec, and the spec
// validation the dynamics block adds.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "eval/dynamic_runner.hpp"
#include "eval/experiment.hpp"
#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

ExperimentSpec small_dynamic_spec() {
  ExperimentSpec spec;
  spec.name = "dynamic_smoke";
  spec.scenario.densities = {7.0};
  spec.scenario.runs = 3;
  spec.scenario.seed = 17;
  spec.scenario.field.width = 350.0;
  spec.scenario.field.height = 350.0;
  spec.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
  spec.scenario.dynamics.model = DynamicsSpec::Model::kWaypoint;
  spec.scenario.dynamics.epochs = 12;
  spec.scenario.dynamics.speed_min = 4.0;
  spec.scenario.dynamics.speed_max = 16.0;
  spec.scenario.dynamics.refresh_interval = 3;
  spec.threads = 1;
  return spec;
}

TEST(DynamicExperiment, EpochLoopCountsAreConsistent) {
  for (const auto model :
       {DynamicsSpec::Model::kWaypoint, DynamicsSpec::Model::kChurn}) {
    ExperimentSpec spec = small_dynamic_spec();
    spec.scenario.dynamics.model = model;
    spec.selectors = {"olsr_mpr", "qolsr_mpr2", "fnbp"};
    const ExperimentResult result = run_experiment(spec);
    ASSERT_EQ(result.sweep.size(), 1u);
    const DensityStats& d = result.sweep.front();
    const DynamicsSpec& dyn = spec.scenario.dynamics;
    const std::size_t epochs_total = spec.scenario.runs * dyn.epochs;
    const std::size_t refreshes_total =
        spec.scenario.runs * (dyn.epochs / dyn.refresh_interval);
    ASSERT_EQ(d.protocols.size(), 3u);
    for (const ProtocolStats& p : d.protocols) {
      // One set-size sample per measured epoch; at most one packet each.
      EXPECT_EQ(p.set_size.count(), epochs_total) << p.name;
      EXPECT_LE(p.delivered + p.failed, epochs_total) << p.name;
      EXPECT_GT(p.delivered, 0u) << p.name;
      // Overhead and stretch sample exactly the delivered packets, and a
      // stretch is never below 1 (the optimum is an optimum).
      EXPECT_EQ(p.overhead.count(), p.delivered) << p.name;
      EXPECT_EQ(p.stretch.count(), p.delivered) << p.name;
      EXPECT_GE(p.stretch.min(), 1.0 - 1e-12) << p.name;
      EXPECT_GE(p.overhead.mean(), -1e-12) << p.name;
      // One re-advertisement count per refresh.
      EXPECT_EQ(p.readvertised.count(), refreshes_total) << p.name;
      EXPECT_TRUE(std::isfinite(p.overhead.mean())) << p.name;
      // Stale-link drops are a subset of all failures.
      EXPECT_LE(p.stale_losses, p.failed) << p.name;
    }
    // Per-run records are a static-sweep feature.
    EXPECT_TRUE(d.run_records.empty());
  }
}

TEST(DynamicExperiment, CsvIsDeterministicAtAFixedSeed) {
  auto render = [] {
    const ExperimentResult result = run_experiment(small_dynamic_spec());
    std::ostringstream os;
    CsvSink().write(result, os);
    return os.str();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  // The dynamics CSV leads with the axis name and carries the epoch-loop
  // columns.
  EXPECT_EQ(first.rfind("metric,density,runs,epochs,", 0), 0u);
  EXPECT_NE(first.find("delivery_ratio"), std::string::npos);
  EXPECT_NE(first.find("stale_losses"), std::string::npos);
  EXPECT_NE(first.find("readvertised_mean"), std::string::npos);
}

TEST(DynamicExperiment, ThreadCountInvariance) {
  // The satellite: same aggregates at threads=1 vs. threads=0 (hardware
  // concurrency) — counters exactly, means to merge-order rounding,
  // mirroring the static-sweep invariance test.
  ExperimentSpec spec = small_dynamic_spec();
  spec.scenario.runs = 6;
  spec.threads = 1;
  const auto serial = run_experiment(spec).sweep;
  spec.threads = 0;
  const auto threaded = run_experiment(spec).sweep;

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t di = 0; di < serial.size(); ++di) {
    const DensityStats& a = serial[di];
    const DensityStats& b = threaded[di];
    EXPECT_EQ(a.node_count.count(), b.node_count.count());
    EXPECT_NEAR(a.node_count.mean(), b.node_count.mean(), 1e-9);
    ASSERT_EQ(a.protocols.size(), b.protocols.size());
    for (std::size_t si = 0; si < a.protocols.size(); ++si) {
      const ProtocolStats& pa = a.protocols[si];
      const ProtocolStats& pb = b.protocols[si];
      EXPECT_EQ(pa.delivered, pb.delivered) << pa.name;
      EXPECT_EQ(pa.failed, pb.failed) << pa.name;
      EXPECT_EQ(pa.set_size.count(), pb.set_size.count()) << pa.name;
      EXPECT_EQ(pa.readvertised.count(), pb.readvertised.count()) << pa.name;
      EXPECT_NEAR(pa.set_size.mean(), pb.set_size.mean(), 1e-9) << pa.name;
      EXPECT_NEAR(pa.overhead.mean(), pb.overhead.mean(), 1e-9) << pa.name;
      EXPECT_NEAR(pa.stretch.mean(), pb.stretch.mean(), 1e-9) << pa.name;
      EXPECT_NEAR(pa.readvertised.mean(), pb.readvertised.mean(), 1e-9)
          << pa.name;
    }
  }
}

TEST(DynamicExperiment, RefreshLagCausesStaleLosses) {
  // The load-bearing qualitative claim: with per-epoch refreshes the
  // advertised state tracks the topology and (nearly) everything
  // delivers; with a long lag under fast motion, stale-route losses
  // appear. Compared at identical seeds so only the lag differs.
  ExperimentSpec fresh = small_dynamic_spec();
  fresh.scenario.runs = 4;
  fresh.scenario.dynamics.epochs = 15;
  fresh.scenario.dynamics.speed_min = 15.0;
  fresh.scenario.dynamics.speed_max = 15.0;
  fresh.scenario.dynamics.refresh_interval = 1;
  ExperimentSpec stale = fresh;
  stale.scenario.dynamics.refresh_interval = 15;

  const auto fresh_sweep = run_experiment(fresh).sweep;
  const auto stale_sweep = run_experiment(stale).sweep;
  std::size_t fresh_failed = 0, stale_failed = 0;
  std::size_t fresh_stale_drops = 0, stale_stale_drops = 0;
  for (const ProtocolStats& p : fresh_sweep.front().protocols) {
    fresh_failed += p.failed;
    fresh_stale_drops += p.stale_losses;
  }
  for (const ProtocolStats& p : stale_sweep.front().protocols) {
    stale_failed += p.failed;
    stale_stale_drops += p.stale_losses;
  }
  EXPECT_GT(stale_failed, fresh_failed);
  // The lagged run's extra losses are specifically vanished-link drops.
  EXPECT_GT(stale_stale_drops, fresh_stale_drops);
}

TEST(DynamicExperiment, SpeedAxisSweepsTheWaypointSpeed) {
  ExperimentSpec spec = small_dynamic_spec();
  spec.scenario.sweep_axis = Scenario::SweepAxis::kSpeed;
  spec.scenario.densities = {2.0, 20.0};  // m/s
  spec.scenario.field.degree = 7.0;
  spec.scenario.runs = 3;
  spec.scenario.dynamics.refresh_interval = 4;
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 2u);
  EXPECT_EQ(result.sweep[0].density, 2.0);
  EXPECT_EQ(result.sweep[1].density, 20.0);
  // Faster motion, more re-advertisements per refresh — a monotonicity
  // the waypoint model must produce at any sane seed.
  double slow = 0.0, fast = 0.0;
  for (const ProtocolStats& p : result.sweep[0].protocols)
    slow += p.readvertised.mean();
  for (const ProtocolStats& p : result.sweep[1].protocols)
    fast += p.readvertised.mean();
  EXPECT_GT(fast, slow);
}

TEST(DynamicExperiment, AllRoutingModelsRun) {
  for (const bool hop_by_hop : {false, true}) {
    ExperimentSpec spec = small_dynamic_spec();
    spec.scenario.hop_by_hop = hop_by_hop;
    spec.selectors = {"qolsr_mpr2", "fnbp"};
    const auto sweep = run_experiment(spec).sweep;
    for (const ProtocolStats& p : sweep.front().protocols)
      EXPECT_GT(p.delivered, 0u) << p.name << " hbh=" << hop_by_hop;
  }
  ExperimentSpec chain = small_dynamic_spec();
  chain.scenario.routing_model = Scenario::RoutingModel::kAnsChain;
  chain.selectors = {"fnbp"};
  const auto sweep = run_experiment(chain).sweep;
  const ProtocolStats& p = sweep.front().protocols.front();
  EXPECT_GT(p.delivered + p.failed, 0u);
}

TEST(FigureMSpec, CannedMobilityFigure) {
  const FigureConfig config{25, 9, 3};
  const ExperimentSpec spec = figure_by_name("M", config);
  EXPECT_EQ(spec.name, "figM_delivery_vs_speed");
  EXPECT_EQ(spec.metric, MetricId::kBandwidth);
  EXPECT_EQ(spec.selectors,
            (std::vector<std::string>{"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                                      "topology_filtering", "fnbp"}));
  EXPECT_EQ(spec.scenario.sweep_axis, Scenario::SweepAxis::kSpeed);
  EXPECT_EQ(spec.scenario.dynamics.model, DynamicsSpec::Model::kWaypoint);
  EXPECT_EQ(spec.scenario.dynamics.refresh_interval, 5u);
  EXPECT_EQ(spec.scenario.pair_mode, Scenario::PairMode::kAnyConnected);
  EXPECT_EQ(spec.scenario.runs, config.runs);
  EXPECT_EQ(spec.scenario.seed, config.seed);
  EXPECT_EQ(spec.threads, config.threads);
}

TEST(ParseExperimentSpec, MobilityFlagsMapOntoTheDynamicsBlock) {
  const ExperimentSpec spec = parse_experiment_spec({
      "--mobility=churn",
      "--epochs=33",
      "--epoch-duration=0.5",
      "--speed=2:9",
      "--pause=4",
      "--churn-down=0.1",
      "--churn-up=0.6",
      "--refresh=7",
      "--axis=speed",
      "--degree=12",
  });
  const DynamicsSpec& dyn = spec.scenario.dynamics;
  EXPECT_EQ(dyn.model, DynamicsSpec::Model::kChurn);
  EXPECT_EQ(dyn.epochs, 33u);
  EXPECT_EQ(dyn.epoch_duration, 0.5);
  EXPECT_EQ(dyn.speed_min, 2.0);
  EXPECT_EQ(dyn.speed_max, 9.0);
  EXPECT_EQ(dyn.pause_epochs, 4u);
  EXPECT_EQ(dyn.link_down_rate, 0.1);
  EXPECT_EQ(dyn.link_up_rate, 0.6);
  EXPECT_EQ(dyn.refresh_interval, 7u);
  EXPECT_EQ(spec.scenario.sweep_axis, Scenario::SweepAxis::kSpeed);
  EXPECT_EQ(spec.scenario.field.degree, 12.0);

  // Single-value --speed pins both ends.
  const ExperimentSpec fixed = parse_experiment_spec({"--speed=6"});
  EXPECT_EQ(fixed.scenario.dynamics.speed_min, 6.0);
  EXPECT_EQ(fixed.scenario.dynamics.speed_max, 6.0);

  EXPECT_THROW(parse_experiment_spec({"--mobility=teleport"}),
               ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--axis=metric"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--epochs=many"}), ExperimentError);
}

TEST(DynamicExperiment, DegenerateDeploymentSurfacesAClearError) {
  // Expected node count ~0.008: the epoch loop's deployment sampler would
  // resample forever without the cap. The spec's name holds neither word
  // the message is checked for, so the message itself must carry them, on
  // the serial and on the threaded path.
  ExperimentSpec spec = parse_experiment_spec(
      {"--mobility=churn", "--field=50x50", "--densities=0.1",
       "--max-resamples=40", "--runs=1", "--threads=1"});
  spec.name = "churn_tiny_field";
  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    spec.threads = threads;
    spec.scenario.runs = threads * 2;
    try {
      run_experiment(spec);
      FAIL() << "expected ExperimentError";
    } catch (const ExperimentError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("degenerate"), std::string::npos) << message;
      EXPECT_NE(message.find("40"), std::string::npos) << message;
    }
  }
}

TEST(DynamicExperiment, RejectsInvalidDynamicsSpecs) {
  // Speed axis without the waypoint model.
  ExperimentSpec no_model = small_dynamic_spec();
  no_model.scenario.sweep_axis = Scenario::SweepAxis::kSpeed;
  no_model.scenario.dynamics.model = DynamicsSpec::Model::kChurn;
  EXPECT_THROW(run_experiment(no_model), ExperimentError);

  ExperimentSpec no_epochs = small_dynamic_spec();
  no_epochs.scenario.dynamics.epochs = 0;
  EXPECT_THROW(run_experiment(no_epochs), ExperimentError);

  ExperimentSpec no_refresh = small_dynamic_spec();
  no_refresh.scenario.dynamics.refresh_interval = 0;
  EXPECT_THROW(run_experiment(no_refresh), ExperimentError);

  // Inverted or negative speed ranges and out-of-range churn
  // probabilities must fail loudly, not silently degenerate.
  ExperimentSpec inverted = small_dynamic_spec();
  inverted.scenario.dynamics.speed_min = 10.0;
  inverted.scenario.dynamics.speed_max = 2.0;
  EXPECT_THROW(run_experiment(inverted), ExperimentError);

  ExperimentSpec negative = small_dynamic_spec();
  negative.scenario.dynamics.speed_min = -5.0;
  negative.scenario.dynamics.speed_max = 5.0;
  EXPECT_THROW(run_experiment(negative), ExperimentError);

  ExperimentSpec bad_rate = small_dynamic_spec();
  bad_rate.scenario.dynamics.model = DynamicsSpec::Model::kChurn;
  bad_rate.scenario.dynamics.link_down_rate = 1.5;
  EXPECT_THROW(run_experiment(bad_rate), ExperimentError);

  ExperimentSpec bad_duration = small_dynamic_spec();
  bad_duration.scenario.dynamics.epoch_duration = 0.0;
  EXPECT_THROW(run_experiment(bad_duration), ExperimentError);

  // Per-run records are static-only; asking for them under a mobility
  // model must fail loudly rather than silently emit nothing.
  ExperimentSpec per_run = small_dynamic_spec();
  per_run.per_run = true;
  EXPECT_THROW(run_experiment(per_run), ExperimentError);

  // Speed-axis sweep values bypass the speed_min/max knobs, so they get
  // their own non-negativity check (a negative speed would walk nodes
  // out of the field).
  ExperimentSpec bad_axis = small_dynamic_spec();
  bad_axis.scenario.sweep_axis = Scenario::SweepAxis::kSpeed;
  bad_axis.scenario.densities = {-5.0};
  EXPECT_THROW(run_experiment(bad_axis), ExperimentError);
}

}  // namespace
}  // namespace qolsr
