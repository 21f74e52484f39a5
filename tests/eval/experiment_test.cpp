// The runtime experiment engine: metric dispatch end-to-end over all six
// metrics, equivalence with the directly templated run_sweep, canned
// figure specs, CLI-flag parsing, thread-count invariance, per-run
// records, and the degenerate-deployment error path.
#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fnbp.hpp"
#include "eval/figures.hpp"

namespace qolsr {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.scenario.densities = {8.0};
  spec.scenario.runs = 5;
  spec.scenario.seed = 3;
  spec.scenario.field.width = 400.0;
  spec.scenario.field.height = 400.0;
  return spec;
}

TEST(RunExperiment, AllSixMetricsEndToEnd) {
  // The paper evaluates bandwidth and delay; jitter, loss, energy and
  // buffers ride the same algebra. Every metric must run the full
  // pipeline: sample, select with every named heuristic, route, aggregate.
  for (MetricId metric : kAllMetricIds) {
    ExperimentSpec spec = small_spec();
    spec.name = std::string(metric_name(metric));
    spec.metric = metric;
    spec.selectors = {"olsr_mpr", "qolsr_mpr2", "topology_filtering", "fnbp"};
    // Real-valued weights keep the jitter (0..1) and loss (0..0.2)
    // intervals non-degenerate under rounding.
    spec.scenario.qos.integral = false;
    spec.threads = 2;

    const ExperimentResult result = run_experiment(spec);
    ASSERT_EQ(result.sweep.size(), 1u) << spec.name;
    const DensityStats& d = result.sweep.front();
    ASSERT_EQ(d.protocols.size(), spec.selectors.size()) << spec.name;
    for (const ProtocolStats& p : d.protocols) {
      EXPECT_EQ(p.set_size.count(), spec.scenario.runs) << spec.name;
      EXPECT_EQ(p.delivered + p.failed, spec.scenario.runs) << spec.name;
      EXPECT_GT(p.set_size.mean(), 0.0) << spec.name;
      EXPECT_EQ(p.overhead.count(), p.delivered) << spec.name;
      // The optimum is an optimum: no route beats it.
      EXPECT_GE(p.overhead.mean(), -1e-12) << spec.name;
      EXPECT_TRUE(std::isfinite(p.overhead.mean())) << spec.name;
    }
    // Metric-parameterized selectors carry the metric suffix.
    EXPECT_EQ(d.protocols[1].name,
              "qolsr_mpr2_" + std::string(metric_name(metric)));
  }
}

TEST(RunExperiment, MatchesDirectlyTemplatedRunSweepExactly) {
  // The engine is a dispatch shim, not a reimplementation: same spec, same
  // thread count => bitwise-identical aggregates vs. calling the template
  // with hand-constructed selectors (the pre-engine figureN_* code path).
  ExperimentSpec spec = figure_spec(6, FigureConfig{6, 11, 2});
  spec.scenario.densities = {10.0, 14.0};
  spec.scenario.field.width = 450.0;
  spec.scenario.field.height = 450.0;
  const auto engine = run_experiment(spec).sweep;

  const QolsrSelector<BandwidthMetric> qolsr(QolsrVariant::kMpr2);
  const TopologyFilteringSelector<BandwidthMetric> topo;
  const FnbpSelector<BandwidthMetric> fnbp;
  const auto direct =
      run_sweep<BandwidthMetric>(spec.scenario, {&qolsr, &topo, &fnbp}, 2);

  ASSERT_EQ(engine.size(), direct.size());
  for (std::size_t di = 0; di < engine.size(); ++di) {
    EXPECT_EQ(engine[di].density, direct[di].density);
    EXPECT_DOUBLE_EQ(engine[di].node_count.mean(),
                     direct[di].node_count.mean());
    ASSERT_EQ(engine[di].protocols.size(), direct[di].protocols.size());
    for (std::size_t si = 0; si < engine[di].protocols.size(); ++si) {
      const ProtocolStats& a = engine[di].protocols[si];
      const ProtocolStats& b = direct[di].protocols[si];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_EQ(a.failed, b.failed);
      EXPECT_DOUBLE_EQ(a.set_size.mean(), b.set_size.mean());
      EXPECT_DOUBLE_EQ(a.overhead.mean(), b.overhead.mean());
      EXPECT_DOUBLE_EQ(a.path_hops.mean(), b.path_hops.mean());
    }
  }
}

TEST(FigureSpec, CannedSpecsMatchThePaperSettings) {
  const FigureConfig config{25, 9, 3};
  const ExperimentSpec f6 = figure_spec(6, config);
  EXPECT_EQ(f6.metric, MetricId::kBandwidth);
  EXPECT_EQ(f6.scenario.densities, bandwidth_densities());
  const ExperimentSpec f7 = figure_spec(7, config);
  EXPECT_EQ(f7.metric, MetricId::kDelay);
  EXPECT_EQ(f7.scenario.densities, delay_densities());
  EXPECT_EQ(figure_spec(8, config).metric, MetricId::kBandwidth);
  EXPECT_EQ(figure_spec(9, config).metric, MetricId::kDelay);
  for (int figure : {6, 7, 8, 9}) {
    const ExperimentSpec spec = figure_spec(figure, config);
    const std::vector<std::string> legend = {"qolsr_mpr2", "topology_filtering",
                                             "fnbp"};
    EXPECT_EQ(spec.selectors, legend);
    EXPECT_EQ(spec.scenario.runs, config.runs);
    EXPECT_EQ(spec.scenario.seed, config.seed);
    EXPECT_EQ(spec.threads, config.threads);
  }
  EXPECT_THROW(figure_spec(5), ExperimentError);
  EXPECT_THROW(figure_spec(10), ExperimentError);
}

TEST(RunExperiment, ThreadCountInvariance) {
  // Aggregates agree to merge-order rounding; per-run records, which never
  // cross a merge, are bitwise identical and come back in run order.
  ExperimentSpec spec = small_spec();
  spec.scenario.runs = 6;
  spec.per_run = true;
  spec.threads = 1;
  const auto serial = run_experiment(spec).sweep;
  spec.threads = 3;
  const auto threaded = run_experiment(spec).sweep;

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t di = 0; di < serial.size(); ++di) {
    const DensityStats& a = serial[di];
    const DensityStats& b = threaded[di];
    ASSERT_EQ(a.protocols.size(), b.protocols.size());
    for (std::size_t si = 0; si < a.protocols.size(); ++si) {
      EXPECT_EQ(a.protocols[si].delivered, b.protocols[si].delivered);
      EXPECT_EQ(a.protocols[si].failed, b.protocols[si].failed);
      EXPECT_NEAR(a.protocols[si].set_size.mean(),
                  b.protocols[si].set_size.mean(), 1e-9);
      EXPECT_NEAR(a.protocols[si].overhead.mean(),
                  b.protocols[si].overhead.mean(), 1e-9);
    }
    ASSERT_EQ(a.run_records.size(), spec.scenario.runs);
    ASSERT_EQ(b.run_records.size(), spec.scenario.runs);
    for (std::size_t r = 0; r < a.run_records.size(); ++r) {
      const RunRecord& ra = a.run_records[r];
      const RunRecord& rb = b.run_records[r];
      EXPECT_EQ(ra.run_index, r);
      EXPECT_EQ(rb.run_index, r);
      EXPECT_EQ(ra.nodes, rb.nodes);
      ASSERT_EQ(ra.protocols.size(), rb.protocols.size());
      for (std::size_t si = 0; si < ra.protocols.size(); ++si) {
        EXPECT_EQ(ra.protocols[si].set_size, rb.protocols[si].set_size);
        EXPECT_EQ(ra.protocols[si].delivered, rb.protocols[si].delivered);
        EXPECT_EQ(ra.protocols[si].value, rb.protocols[si].value);
        EXPECT_EQ(ra.protocols[si].overhead, rb.protocols[si].overhead);
        EXPECT_EQ(ra.protocols[si].hops, rb.protocols[si].hops);
      }
    }
  }
}

TEST(RunExperiment, PerRunRecordsAreConsistentWithAggregates) {
  ExperimentSpec spec = small_spec();
  spec.per_run = true;
  spec.threads = 2;
  const auto sweep = run_experiment(spec).sweep;
  const DensityStats& d = sweep.front();
  ASSERT_EQ(d.run_records.size(), spec.scenario.runs);
  for (std::size_t si = 0; si < d.protocols.size(); ++si) {
    double set_size_sum = 0.0;
    std::size_t delivered = 0;
    for (const RunRecord& r : d.run_records) {
      set_size_sum += r.protocols[si].set_size;
      delivered += r.protocols[si].delivered ? 1 : 0;
    }
    EXPECT_NEAR(set_size_sum / static_cast<double>(d.run_records.size()),
                d.protocols[si].set_size.mean(), 1e-12);
    EXPECT_EQ(delivered, d.protocols[si].delivered);
  }
}

TEST(RunExperiment, RecordsStayOffByDefault) {
  const auto sweep = run_experiment(small_spec()).sweep;
  EXPECT_TRUE(sweep.front().run_records.empty());
}

TEST(RunExperiment, DegenerateDeploymentSurfacesAClearError) {
  // Expected node count ~0.008: sample_run would resample forever without
  // the cap. Both the serial and the threaded path must surface the error.
  ExperimentSpec spec = small_spec();
  spec.name = "tiny_field";  // the message, not the name, must say it
  spec.scenario.field.width = 50.0;
  spec.scenario.field.height = 50.0;
  spec.scenario.densities = {0.1};
  spec.scenario.max_topology_resamples = 40;
  spec.threads = 1;
  try {
    run_experiment(spec);
    FAIL() << "expected ExperimentError";
  } catch (const ExperimentError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("degenerate"), std::string::npos);
    EXPECT_NE(message.find("40"), std::string::npos);
  }
  spec.scenario.runs = 4;
  spec.threads = 2;
  EXPECT_THROW(run_experiment(spec), ExperimentError);
}

TEST(RunExperiment, RejectsBadSpecs) {
  ExperimentSpec unknown = small_spec();
  unknown.selectors = {"fnbp", "no_such_heuristic"};
  try {
    run_experiment(unknown);
    FAIL() << "expected ExperimentError";
  } catch (const ExperimentError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_heuristic"),
              std::string::npos);
  }

  ExperimentSpec no_densities = small_spec();
  no_densities.scenario.densities.clear();
  EXPECT_THROW(run_experiment(no_densities), ExperimentError);

  ExperimentSpec no_selectors = small_spec();
  no_selectors.selectors.clear();
  EXPECT_THROW(run_experiment(no_selectors), ExperimentError);

  ExperimentSpec no_runs = small_spec();
  no_runs.scenario.runs = 0;
  EXPECT_THROW(run_experiment(no_runs), ExperimentError);

  // Packet-backend constraints: mobility epochs are a ROADMAP open item
  // and the chain routing model is an oracle-only discipline.
  ExperimentSpec packet_mobility = small_spec();
  packet_mobility.backend = BackendId::kPacket;
  packet_mobility.scenario.dynamics.model = DynamicsSpec::Model::kChurn;
  EXPECT_THROW(run_experiment(packet_mobility), ExperimentError);

  ExperimentSpec packet_chain = small_spec();
  packet_chain.backend = BackendId::kPacket;
  packet_chain.scenario.routing_model = Scenario::RoutingModel::kAnsChain;
  EXPECT_THROW(run_experiment(packet_chain), ExperimentError);
}

TEST(ParseExperimentSpec, FlagsMapOntoTheSpec) {
  const ExperimentSpec spec = parse_experiment_spec({
      "--name=custom",
      "--metric=energy",
      "--selectors=olsr_mpr,fnbp",
      "--densities=5,7.5,10",
      "--runs=12",
      "--seed=99",
      "--threads=4",
      "--field=250x300",
      "--radius=60",
      "--qos-hi=8",
      "--continuous-qos",
      "--routing=chain",
      "--hop-by-hop",
      "--pairs=any",
      "--max-resamples=123",
      "--format=json",
      "--output=/tmp/out.json",
      "--per-run",
  });
  EXPECT_EQ(spec.name, "custom");
  EXPECT_EQ(spec.metric, MetricId::kEnergy);
  EXPECT_EQ(spec.selectors, (std::vector<std::string>{"olsr_mpr", "fnbp"}));
  EXPECT_EQ(spec.scenario.densities, (std::vector<double>{5.0, 7.5, 10.0}));
  EXPECT_EQ(spec.scenario.runs, 12u);
  EXPECT_EQ(spec.scenario.seed, 99u);
  EXPECT_EQ(spec.threads, 4u);
  EXPECT_EQ(spec.scenario.field.width, 250.0);
  EXPECT_EQ(spec.scenario.field.height, 300.0);
  EXPECT_EQ(spec.scenario.field.radius, 60.0);
  EXPECT_EQ(spec.scenario.qos.bandwidth_hi, 8.0);
  EXPECT_EQ(spec.scenario.qos.delay_hi, 8.0);
  EXPECT_FALSE(spec.scenario.qos.integral);
  EXPECT_EQ(spec.scenario.routing_model, Scenario::RoutingModel::kAnsChain);
  EXPECT_TRUE(spec.scenario.hop_by_hop);
  EXPECT_EQ(spec.scenario.pair_mode, Scenario::PairMode::kAnyConnected);
  EXPECT_EQ(spec.scenario.max_topology_resamples, 123u);
  EXPECT_EQ(spec.format, "json");
  EXPECT_EQ(spec.output_path, "/tmp/out.json");
  EXPECT_TRUE(spec.per_run);
}

TEST(ParseExperimentSpec, LaterFlagsOverrideTheCannedBase) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--runs=5", "--metric=delay", "--threads=1"}, figure_spec(6));
  EXPECT_EQ(spec.name, "fig6_ans_size_bandwidth");
  EXPECT_EQ(spec.metric, MetricId::kDelay);
  EXPECT_EQ(spec.scenario.densities, bandwidth_densities());
  EXPECT_EQ(spec.scenario.runs, 5u);
  EXPECT_EQ(spec.threads, 1u);
}

TEST(ParseExperimentSpec, BackendFlagSelectsTheEngine) {
  EXPECT_EQ(ExperimentSpec{}.backend, BackendId::kOracle);  // the default
  EXPECT_EQ(parse_experiment_spec({"--backend=packet"}).backend,
            BackendId::kPacket);
  EXPECT_EQ(parse_experiment_spec({"--backend=wire"}).backend,
            BackendId::kWire);
  // An explicit oracle round-trips back to the default engine.
  EXPECT_EQ(parse_experiment_spec({"--backend=packet", "--backend=oracle"})
                .backend,
            BackendId::kOracle);
  EXPECT_EQ(backend_name(BackendId::kOracle), "oracle");
  EXPECT_EQ(backend_name(BackendId::kPacket), "packet");
  EXPECT_EQ(backend_name(BackendId::kWire), "wire");
  // One table drives names, parsing and the error text alike.
  EXPECT_EQ(backend_names(), "oracle|packet|wire");
}

TEST(ParseExperimentSpec, UnknownBackendErrorNamesTheValidSet) {
  try {
    parse_experiment_spec({"--backend=ns3"});
    FAIL() << "unknown backend accepted";
  } catch (const ExperimentError& e) {
    // The valid set in the message comes from the kBackends table, so a
    // new backend extends this error without anyone remembering to.
    EXPECT_NE(std::string(e.what()).find("oracle|packet|wire"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseExperimentSpec, RejectsUnknownFlagsAndBadValues) {
  EXPECT_THROW(parse_experiment_spec({"--bogus=1"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--metric=latency"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--runs=many"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--densities=10,x"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--field=100"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--routing=flood"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--pairs=nearest"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--backend=ns3"}), ExperimentError);
  // Valueless switches must reject an attached value — silently dropping
  // it would turn "--per-run=false" into an enable.
  EXPECT_THROW(parse_experiment_spec({"--per-run=false"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--continuous-qos=1"}), ExperimentError);
  EXPECT_THROW(parse_experiment_spec({"--hop-by-hop=0"}), ExperimentError);
}

TEST(ParseExperimentSpec, CliCombinationBeyondTheOldHarness) {
  // The acceptance example: loss metric with all five selectors, pure
  // flags — inexpressible under the compiled figureN_* surface.
  const ExperimentSpec spec = parse_experiment_spec({
      "--metric=loss",
      "--selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,fnbp",
      "--densities=8",
      "--runs=3",
      "--seed=5",
      "--threads=2",
      "--field=400x400",
      "--continuous-qos",
  });
  const ExperimentResult result = run_experiment(spec);
  ASSERT_EQ(result.sweep.size(), 1u);
  ASSERT_EQ(result.sweep.front().protocols.size(), 5u);
  EXPECT_EQ(result.sweep.front().protocols.front().name, "olsr_mpr");
  EXPECT_EQ(result.sweep.front().protocols.back().name, "fnbp_loss");
}

}  // namespace
}  // namespace qolsr
