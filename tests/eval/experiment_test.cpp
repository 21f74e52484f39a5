// The runtime experiment engine: metric dispatch end-to-end over all six
// metrics, equivalence with the directly templated run_sweep, canned
// figure specs, CLI-flag parsing, thread-count invariance, per-run
// records, and the degenerate-deployment error path.
#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string_view>
#include <utility>

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
  ExperimentSpec spec = figure_by_name("6", FigureConfig{6, 11, 2});
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

/// Every field of a spec on one line, doubles at full precision, so two
/// descriptions are equal only if every field is.
std::string describe(const ExperimentSpec& spec) {
  std::ostringstream os;
  os.precision(17);
  const Scenario& s = spec.scenario;
  os << "name=" << spec.name << " backend=" << static_cast<int>(spec.backend)
     << " metric=" << metric_name(spec.metric) << " selectors=";
  for (const std::string& name : spec.selectors) os << name << ',';
  os << " threads=" << spec.threads << " wire_scale=" << spec.wire_scale
     << " format=" << spec.format << " output=" << spec.output_path
     << " per_run=" << spec.per_run << " field=" << s.field.width << 'x'
     << s.field.height << " radius=" << s.field.radius
     << " degree=" << s.field.degree << " densities=";
  for (const double d : s.densities) os << d << ',';
  const QosIntervals& q = s.qos;
  os << " runs=" << s.runs << " seed=" << s.seed << " qos=" << q.bandwidth_lo
     << ':' << q.bandwidth_hi << ',' << q.delay_lo << ':' << q.delay_hi << ','
     << q.jitter_lo << ':' << q.jitter_hi << ',' << q.loss_lo << ':'
     << q.loss_hi << ',' << q.energy_lo << ':' << q.energy_hi << ','
     << q.buffers_lo << ':' << q.buffers_hi << ',' << q.integral
     << " routing=" << static_cast<int>(s.routing_model)
     << " hop_by_hop=" << s.hop_by_hop
     << " local_views=" << s.use_local_views
     << " pairs=" << static_cast<int>(s.pair_mode)
     << " resamples=" << s.max_topology_resamples
     << " record_runs=" << s.record_runs;
  const DynamicsSpec& d = s.dynamics;
  os << " dynamics=" << static_cast<int>(d.model) << ',' << d.epochs << ','
     << d.epoch_duration << ',' << d.speed_min << ':' << d.speed_max << ','
     << d.pause_epochs << ',' << d.link_down_rate << ',' << d.link_up_rate
     << ',' << d.refresh_interval << " loss=" << s.faults.loss_rate
     << " link_loss=";
  for (const LinkLossSpec& l : s.faults.link_loss)
    os << l.u << '-' << l.v << '@' << l.rate << ',';
  os << " incidents=";
  for (const FaultIncident& i : s.faults.incidents)
    os << static_cast<int>(i.kind) << ':' << i.count << ':' << i.node << ':'
       << i.link_u << '-' << i.link_v << '@' << i.duration << ',';
  const TrafficSpec& t = s.traffic;
  os << " traffic=" << static_cast<int>(t.arrival) << ','
     << static_cast<int>(t.pattern) << ',' << t.flows << ',' << t.load << ','
     << t.packet_rate << ',' << t.duration << ',' << t.pareto_shape << ','
     << t.packet_bytes << ',' << t.link_capacity << ',' << t.queue_bytes
     << ',' << t.hotspots << " adversaries=";
  const AdversarySpec& a = s.adversaries;
  for (const AdversaryKind kind : a.kinds) os << static_cast<int>(kind) << ',';
  os << a.count << ',' << a.fraction << ',' << a.corrupt_rate << ",nodes=";
  for (const NodeId node : a.nodes) os << node << ',';
  os << " probes=" << s.probe_packets
     << " axis=" << static_cast<int>(s.sweep_axis);
  return os.str();
}

TEST(FigureByName, PinsEveryFieldOfEveryCannedSpec) {
  // Each canned figure as literals, field by field: what qolsr_eval
  // --figure=X runs must not move when the figures change representation.
  const std::vector<std::string> all_five = {
      "olsr_mpr", "qolsr_mpr1", "qolsr_mpr2", "topology_filtering", "fnbp"};
  for (const FigureConfig& config : {FigureConfig{}, FigureConfig{25, 9, 3}}) {
    ExperimentSpec base;
    base.backend = BackendId::kOracle;
    base.metric = MetricId::kBandwidth;
    base.selectors = {"qolsr_mpr2", "topology_filtering", "fnbp"};
    base.scenario.runs = config.runs;
    base.scenario.seed = config.seed;
    base.threads = config.threads;

    ExperimentSpec f6 = base;
    f6.name = "fig6_ans_size_bandwidth";
    f6.scenario.densities = {10.0, 15.0, 20.0, 25.0, 30.0, 35.0};
    ExperimentSpec f8 = f6;
    f8.name = "fig8_bandwidth_overhead";
    ExperimentSpec f7 = base;
    f7.name = "fig7_ans_size_delay";
    f7.metric = MetricId::kDelay;
    f7.scenario.densities = {5.0, 10.0, 15.0, 20.0, 25.0, 30.0};
    ExperimentSpec f9 = f7;
    f9.name = "fig9_delay_overhead";

    ExperimentSpec m = base;
    m.name = "figM_delivery_vs_speed";
    m.selectors = all_five;
    m.scenario.sweep_axis = Scenario::SweepAxis::kSpeed;
    m.scenario.densities = {1.0, 5.0, 10.0, 15.0, 20.0};
    m.scenario.field.degree = 20.0;
    m.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
    m.scenario.dynamics.model = DynamicsSpec::Model::kWaypoint;
    m.scenario.dynamics.epochs = 50;
    m.scenario.dynamics.epoch_duration = 1.0;
    m.scenario.dynamics.refresh_interval = 5;

    // R, L and B share the packet backend, all five selectors and any-pair
    // flows at a fixed density of 10.
    ExperimentSpec packet = base;
    packet.backend = BackendId::kPacket;
    packet.selectors = all_five;
    packet.scenario.field.degree = 10.0;
    packet.scenario.pair_mode = Scenario::PairMode::kAnyConnected;

    ExperimentSpec r = packet;
    r.name = "figR_delivery_vs_loss";
    r.scenario.sweep_axis = Scenario::SweepAxis::kLoss;
    r.scenario.densities = {0.0, 0.1, 0.2, 0.3, 0.4};
    r.scenario.probe_packets = 8;
    FaultIncident crash;
    crash.kind = FaultIncident::Kind::kNodeCrash;
    crash.count = 1;
    crash.duration = 10.0;
    r.scenario.faults.incidents = {crash};

    ExperimentSpec l = packet;
    l.name = "figL_qos_under_load";
    l.scenario.sweep_axis = Scenario::SweepAxis::kLoad;
    l.scenario.densities = {0.25, 0.5, 1.0, 2.0, 4.0};
    l.scenario.traffic.arrival = TrafficSpec::Arrival::kPoisson;
    l.scenario.traffic.pattern = TrafficSpec::Pattern::kUniform;
    l.scenario.traffic.flows = 16;
    l.scenario.traffic.packet_rate = 20.0;
    l.scenario.traffic.duration = 10.0;

    ExperimentSpec b = packet;
    b.name = "figB_delivery_vs_adversaries";
    b.scenario.sweep_axis = Scenario::SweepAxis::kAdversary;
    b.scenario.densities = {0.0, 0.05, 0.1, 0.2, 0.3};
    b.scenario.probe_packets = 8;
    b.scenario.adversaries.kinds = {AdversaryKind::kBlackhole,
                                    AdversaryKind::kLiar};

    const std::pair<std::string_view, const ExperimentSpec*> pins[] = {
        {"6", &f6}, {"7", &f7}, {"8", &f8}, {"9", &f9},
        {"M", &m},  {"R", &r},  {"L", &l},  {"B", &b}};
    for (const auto& [figure, want] : pins)
      EXPECT_EQ(describe(figure_by_name(figure, config)), describe(*want))
          << "figure " << figure << ", runs " << config.runs;
  }
  EXPECT_THROW(figure_by_name("5"), ExperimentError);
  EXPECT_THROW(figure_by_name("10"), ExperimentError);
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

TEST(RunExperiment, RejectsGeometryAndQosTheSamplerCannotTake) {
  // Before these checks a negative radius overflowed the deployment's
  // cell grid, a NaN Poisson mean never ended its draw, an infinite or
  // zero-radius field failed inside vector::reserve, and a bad --qos-hi
  // ran on constant, negative or undefined link weights. A deployment
  // expecting more nodes than half the NodeId space ran 10000 resamples
  // (casting an out-of-range double to an integer in the Poisson draw) or
  // failed to allocate.
  const std::vector<std::string> bad_inputs[] = {
      {"--radius=-5"},       {"--radius=0"},
      {"--radius=nan"},      {"--radius=inf"},
      {"--densities=nan"},   {"--densities=inf"},
      {"--densities=1e300"}, {"--densities=1e12"},
      {"--field=infx100"},   {"--field=100x-1"},
      {"--degree=nan"},      {"--degree=1e300"},
      {"--qos-hi=-1"},       {"--qos-hi=0"},
      {"--qos-hi=inf"},      {"--qos-hi=nan"},
      {"--qos-hi=-1", "--continuous-qos"},
      {"--qos-hi=0.5", "--continuous-qos"}};
  for (const std::vector<std::string>& bad : bad_inputs) {
    std::vector<std::string> flags = {"--densities=10"};
    flags.insert(flags.end(), bad.begin(), bad.end());
    try {
      run_experiment(
          parse_experiment_spec(flags, figure_by_name("6", {1, 42, 1})));
      ADD_FAILURE() << bad.front() << " accepted";
    } catch (const ExperimentError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("experiment 'fig6_ans_size_bandwidth': ", 0), 0u)
          << what;
      const std::string flag = bad.front().substr(0, bad.front().find('='));
      EXPECT_NE(what.find(flag), std::string::npos) << what;
    }
  }
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
      {"--runs=5", "--metric=delay", "--threads=1"}, figure_by_name("6"));
  EXPECT_EQ(spec.name, "fig6_ans_size_bandwidth");
  EXPECT_EQ(spec.metric, MetricId::kDelay);
  EXPECT_EQ(spec.scenario.densities,
            (std::vector<double>{10, 15, 20, 25, 30, 35}));
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
  EXPECT_EQ(util::name_of(kBackends, BackendId::kOracle), "oracle");
  EXPECT_EQ(util::name_of(kBackends, BackendId::kPacket), "packet");
  EXPECT_EQ(util::name_of(kBackends, BackendId::kWire), "wire");
  // One table drives names, parsing and the error text alike.
  EXPECT_EQ(util::names_of(kBackends), "oracle|packet|wire");
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
  // Every enum flag reads one name table, and its error lists the table.
  const std::pair<const char*, const char*> choices[] = {
      {"--backend=ns3", "flag --backend: expected oracle|packet|wire, got "
                        "'ns3'"},
      {"--routing=flood", "flag --routing: expected union|chain, got 'flood'"},
      {"--pairs=nearest", "flag --pairs: expected two_hop|any, got 'nearest'"},
      {"--mobility=teleport", "flag --mobility: expected none|waypoint|churn, "
                              "got 'teleport'"},
      {"--axis=time", "flag --axis: expected density|speed|loss|load|adversary"
                      ", got 'time'"},
      {"--adversaries=1@blackhole,gremlin",
       "flag --adversaries: expected blackhole|liar|replayer|selfish, got "
       "'gremlin'"},
      {"--traffic=bursty", "flag --traffic: expected none|poisson|cbr|pareto, "
                           "got 'bursty'"},
      {"--pattern=ring", "flag --pattern: expected uniform|hotspot|gateway, "
                         "got 'ring'"},
  };
  for (const auto& [flag, message] : choices) {
    try {
      parse_experiment_spec({flag});
      ADD_FAILURE() << flag << " accepted";
    } catch (const ExperimentError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
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
