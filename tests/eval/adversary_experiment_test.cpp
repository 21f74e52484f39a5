// Adversary contracts at the experiment level: packet sweeps with no
// adversary flags (or --adversaries=0 / --corrupt=0) are byte-for-byte the
// honest engine, rosters are deterministic and thread-count invariant,
// blackholes measurably degrade delivery with every absorption charged to
// the invariant monitor, the adversary-axis zero point reproduces the
// honest figures, and the canned figure B is a valid adversary sweep.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

/// The flags of the pinned fault-free packet run (the same scenario
/// robustness_test pins against its golden CSV).
std::vector<std::string> golden_flags() {
  return {"--backend=packet", "--densities=8", "--field=400x400",
          "--runs=2",         "--seed=7",      "--threads=1",
          "--format=csv"};
}

std::string run_to_csv(const std::vector<std::string>& flags) {
  const ExperimentSpec spec = parse_experiment_spec(flags);
  const ExperimentResult result = run_experiment(spec);
  std::ostringstream os;
  CsvSink{}.write(result, os);
  return os.str();
}

/// Figure B at a 10% roster with 5% wire corruption: blackholes and
/// liars, corrupted legs delivered one event each beside the clean legs'
/// batched fan-out, and the malformed-frame counts of the hardened parser.
/// Captured with the qolsr_eval of the commit before the simulator's frame
/// path decoded each fan-out once; that change must not move a byte.
constexpr const char* kCorruptedFigureBCsv =
    "metric,adversary,runs,avg_nodes,protocol,set_size_mean,"
    "set_size_stddev,delivered,failed,overhead_mean,overhead_stddev,"
    "path_hops_mean,hello_msgs_mean,tc_msgs_mean,tc_forwards_mean,"
    "duplicate_drops_mean,control_bytes_mean,convergence_time_mean,"
    "convergence_time_stddev,unconverged_runs,adversary_fraction,"
    "adversary_count,corrupt_rate,adversary_delivery_ratio,"
    "invariant_violations,forwarding_loops,blackhole_absorptions,"
    "mpr_refusals,ansn_regressions,stale_tc_rejections,phantom_links,"
    "inflated_qos,poisoned_nodes,poisoned_routes,frames_corrupted_mean,"
    "frames_malformed_mean,first_violation_mean\n"
    "bandwidth,0.1,2,46.5,olsr_mpr,2.194444444,0.03928371007,0,16,0,0,0,"
    "980.5,375.5,4521.5,19218.5,1034466.5,43.75008327,0.7929591204,2,0.1,0,"
    "0.05,0,2668,0,1364,0,0,273,404,627,88,15,2091.5,573.5,7.057279905\n"
    "bandwidth,0.1,2,46.5,qolsr_mpr1_bandwidth,2.194444444,0.03928371007,0,"
    "16,0,0,0,975.5,376,4676,19748.5,1057002.5,43.3424536,0.1830031697,2,"
    "0.1,0,0.05,0,2142,0,1064,0,0,203,368,507,88,16,2145,589,7.057279905\n"
    "bandwidth,0.1,2,46.5,qolsr_mpr2_bandwidth,3.213194444,0.08151369839,0,"
    "16,0,0,0,984,383,7825.5,42392,1924137,44.02753637,0.6813929305,2,0.1,"
    "0,0.05,0,3417,0,1694,0,0,588,398,737,88,16,3320.5,871.5,7.057279905\n"
    "bandwidth,0.1,2,46.5,topology_filtering_bandwidth,3.084722222,"
    "0.0569613796,0,16,0,0,0,994,399,4515,19218.5,1259612,44.19042439,"
    "1.09296287,2,0.1,0,0.05,0,2592,0,1328,0,0,254,335,675,88,14,2064,"
    "527.5,7.057279905\n"
    "bandwidth,0.1,2,46.5,fnbp_bandwidth,1.656944444,0.04517626658,0,16,0,"
    "0,0,984.5,400.5,4615,19661.5,884806,44.06104425,0.7287802245,2,0.1,0,"
    "0.05,0,2585,0,1375,0,0,408,331,471,88,16,2097,646.5,7.057279905\n";


TEST(AdversaryExperiment, CorruptedFigureBPointMatchesGoldenPin) {
  const ExperimentSpec spec = parse_experiment_spec(
      {"--densities=0.1", "--corrupt=0.05", "--field=400x400", "--runs=2",
       "--seed=7", "--threads=1", "--format=csv"},
      figure_by_name("B"));
  std::ostringstream os;
  CsvSink{}.write(run_experiment(spec), os);
  EXPECT_EQ(os.str(), kCorruptedFigureBCsv);
}

TEST(AdversaryExperiment, ZeroedAdversaryFlagsAreByteIdenticalToNoFlags) {
  const std::string honest = run_to_csv(golden_flags());

  auto with = [](const std::string& extra) {
    auto flags = golden_flags();
    flags.push_back(extra);
    return flags;
  };
  EXPECT_EQ(run_to_csv(with("--adversaries=0")), honest);
  EXPECT_EQ(run_to_csv(with("--corrupt=0")), honest);
  // And the honest run carries none of the adversary columns.
  EXPECT_EQ(honest.find("invariant_violations"), std::string::npos);
  EXPECT_EQ(honest.find("adversary_fraction"), std::string::npos);
}

TEST(AdversaryExperiment, SubvertedSweepIsThreadCountInvariant) {
  auto with_threads = [](const std::string& threads) {
    return run_to_csv({"--backend=packet", "--densities=8",
                       "--field=400x400", "--runs=4", "--seed=11", threads,
                       "--format=csv", "--adversaries=2@blackhole,liar",
                       "--corrupt=0.02", "--probes=4", "--pairs=any",
                       "--per-run"});
  };
  const std::string one = with_threads("--threads=1");
  EXPECT_EQ(one, with_threads("--threads=3"));
  // The adversary columns are present at both granularities.
  EXPECT_NE(one.find("invariant_violations"), std::string::npos);
  EXPECT_NE(one.find("poisoned_routes"), std::string::npos);
  EXPECT_NE(one.find("blackhole_absorptions"), std::string::npos);
  EXPECT_NE(one.find("frames_corrupted_mean"), std::string::npos);
}

TEST(AdversaryExperiment, BlackholesDegradeDeliveryAndAreCounted) {
  const std::vector<std::string> shared = {
      "--backend=packet", "--densities=10", "--field=400x400", "--runs=2",
      "--seed=7",         "--threads=1",    "--probes=8",      "--pairs=any",
      "--selectors=olsr_mpr,fnbp"};

  auto sweep = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> flags = shared;
    flags.insert(flags.end(), extra.begin(), extra.end());
    return run_experiment(parse_experiment_spec(flags)).sweep;
  };

  const auto honest = sweep({});
  const auto subverted = sweep({"--adversaries=2@blackhole"});
  ASSERT_EQ(honest.size(), 1u);
  ASSERT_EQ(subverted.size(), 1u);

  std::size_t honest_delivered = 0, subverted_delivered = 0;
  std::uint64_t absorptions = 0;
  for (const ProtocolStats& p : honest[0].protocols) {
    honest_delivered += p.delivered;
    EXPECT_FALSE(p.invariants.measured()) << p.name;
  }
  for (const ProtocolStats& p : subverted[0].protocols) {
    subverted_delivered += p.delivered;
    absorptions += p.invariants.counters.blackhole_absorptions;
    EXPECT_TRUE(p.invariants.measured()) << p.name;
  }
  EXPECT_LT(subverted_delivered, honest_delivered);
  EXPECT_GE(absorptions, 1u);  // the ISSUE's acceptance floor
  // Poisoned-route classification: at least one failed probe's recorded
  // path crosses a roster node.
  std::size_t poisoned = 0;
  for (const ProtocolStats& p : subverted[0].protocols)
    poisoned += p.invariants.poisoned_routes;
  EXPECT_GT(poisoned, 0u);
}

TEST(AdversaryExperiment, AdversaryAxisZeroPointEqualsHonestRun) {
  // The fraction = 0 sweep point of an adversary-axis experiment must
  // measure exactly what a plain honest packet run measures — an empty
  // roster deactivates the spec, draws no randoms and arms no monitor.
  const std::vector<std::string> shared = {
      "--backend=packet", "--degree=8",  "--field=400x400", "--runs=2",
      "--seed=9",         "--threads=1", "--probes=3",      "--pairs=any"};

  auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> flags = shared;
    flags.insert(flags.end(), extra.begin(), extra.end());
    return run_experiment(parse_experiment_spec(flags)).sweep;
  };

  const auto axis = with(
      {"--axis=adversary", "--densities=0", "--adversaries=0@blackhole"});
  const auto honest = with({"--densities=8"});
  ASSERT_EQ(axis.size(), 1u);
  ASSERT_EQ(honest.size(), 1u);
  ASSERT_EQ(axis[0].protocols.size(), honest[0].protocols.size());
  for (std::size_t si = 0; si < axis[0].protocols.size(); ++si) {
    const ProtocolStats& a = axis[0].protocols[si];
    const ProtocolStats& b = honest[0].protocols[si];
    SCOPED_TRACE(a.name);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.set_size.mean(), b.set_size.mean());
    EXPECT_EQ(a.overhead.mean(), b.overhead.mean());
    EXPECT_EQ(a.control.control_bytes.mean(), b.control.control_bytes.mean());
    EXPECT_EQ(a.control.convergence_time.mean(),
              b.control.convergence_time.mean());
    EXPECT_EQ(a.invariants.counters.total(), 0u);
    EXPECT_EQ(a.invariants.poisoned_routes, 0u);
  }
}

TEST(AdversaryExperiment, FigureBSpecIsACannedAdversarySweep) {
  const ExperimentSpec spec = figure_b_spec();
  EXPECT_EQ(spec.backend, BackendId::kPacket);
  EXPECT_EQ(spec.scenario.sweep_axis, Scenario::SweepAxis::kAdversary);
  EXPECT_EQ(spec.scenario.densities.front(), 0.0);  // the honest pin point
  EXPECT_EQ(spec.scenario.probe_packets, 8u);
  ASSERT_EQ(spec.scenario.adversaries.kinds.size(), 2u);
  EXPECT_EQ(spec.scenario.adversaries.kinds[0], AdversaryKind::kBlackhole);
  EXPECT_EQ(spec.scenario.adversaries.kinds[1], AdversaryKind::kLiar);
  EXPECT_EQ(spec.selectors.size(), 5u);
}

TEST(AdversaryExperiment, FigureLookupIsCaseInsensitiveAndNamesTheValidSet) {
  EXPECT_EQ(figure_by_name("B").name, figure_b_spec().name);
  EXPECT_EQ(figure_by_name("b").name, figure_b_spec().name);
  EXPECT_EQ(figure_by_name("6").name, figure_spec(6).name);
  EXPECT_EQ(figure_names(), "6|7|8|9|M|R|L|B");
  try {
    figure_by_name("Z");
    FAIL() << "unknown figure accepted";
  } catch (const ExperimentError& e) {
    // The error lists every valid name — the CLI relays it verbatim.
    EXPECT_NE(std::string(e.what()).find("6|7|8|9|M|R|L|B"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'Z'"), std::string::npos);
  }
}

TEST(AdversaryExperiment, MalformedAdversaryFlagsAreRejected) {
  // Unknown kind: rejected at parse, naming the valid kinds.
  try {
    parse_experiment_spec({"--adversaries=1@gremlin"});
    FAIL() << "unknown kind accepted";
  } catch (const ExperimentError& e) {
    EXPECT_NE(std::string(e.what()).find("blackhole|liar|replayer|selfish"),
              std::string::npos);
  }
  // A count without kinds is rejected at validation.
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--backend=packet", "--densities=8", "--runs=1",
                    "--adversaries=2"})),
               ExperimentError);
  // The adversary engine is packet-only.
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--densities=10", "--runs=1",
                    "--adversaries=1@blackhole"})),
               ExperimentError);
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--densities=10", "--runs=1", "--corrupt=0.1"})),
               ExperimentError);
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--axis=adversary", "--densities=0.1", "--runs=1"})),
               ExperimentError);
  // Rates are probabilities.
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--backend=packet", "--densities=8", "--runs=1",
                    "--corrupt=1.5"})),
               ExperimentError);
  // Axis sweep values are fractions of the deployment.
  EXPECT_THROW(run_experiment(parse_experiment_spec(
                   {"--backend=packet", "--axis=adversary",
                    "--densities=0,2", "--degree=8", "--runs=1",
                    "--adversaries=0@blackhole"})),
               ExperimentError);
}

}  // namespace
}  // namespace qolsr
