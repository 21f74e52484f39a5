// Golden end-to-end pins for every canned paper figure: a trimmed run of
// each of Figs. 6-9 through the experiment engine and the CSV sink must
// reproduce these byte-exact documents (fixed seed, threads=1). Any
// engine change that alters sampling, selection, routing, aggregation or
// formatting shows up as a diff here. The Fig. 8 golden predates the PR-3
// CSR/overlay refactor (it moved here from
// tests/routing/forwarding_equivalence_test.cpp); the others were pinned
// against it at the same settings.
//
// Figs. 6 and 8 run the *same* bandwidth sweep (6 reads the set-size
// columns, 8 the overhead columns), and Figs. 7 and 9 the same delay
// sweep — the long-format CSV carries both, so each pair shares one
// golden document and the test also pins that sharing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "eval/figures.hpp"
#include "eval/result_sink.hpp"

namespace qolsr {
namespace {

std::string run_figure_csv(int figure, std::vector<double> densities) {
  FigureConfig config;
  config.runs = 2;
  config.seed = 7;
  config.threads = 1;
  ExperimentSpec spec = figure_by_name(std::to_string(figure), config);
  spec.scenario.densities = std::move(densities);
  const ExperimentResult result = run_experiment(spec);
  std::ostringstream os;
  CsvSink().write(result, os);
  return os.str();
}

constexpr const char* kBandwidthGolden =
    R"(metric,density,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,delivered,failed,overhead_mean,overhead_stddev,path_hops_mean
bandwidth,10,2,307.5,qolsr_mpr2_bandwidth,5.379743823,0.1095916786,2,0,0.5,0,2
bandwidth,10,2,307.5,topology_filtering_bandwidth,4.237577213,0.02222049254,2,0,0,0,6.5
bandwidth,10,2,307.5,fnbp_bandwidth,1.970357717,0.04646782907,2,0,0,0,6.5
bandwidth,15,2,486,qolsr_mpr2_bandwidth,8.592636383,0.1865552961,2,0,0.5,0.1414213562,2
bandwidth,15,2,486,topology_filtering_bandwidth,5.735490802,0.1934144755,2,0,0,0,4.5
bandwidth,15,2,486,fnbp_bandwidth,2.001487471,0.02612421407,2,0,0,0,4.5
bandwidth,20,2,659.5,qolsr_mpr2_bandwidth,11.05632912,0.3791162089,2,0,0.4,0.2828427125,2
bandwidth,20,2,659.5,topology_filtering_bandwidth,7.023540425,0.2234559172,2,0,0,0,5
bandwidth,20,2,659.5,fnbp_bandwidth,1.838675066,0.06858440069,2,0,0,0,5
)";

constexpr const char* kDelayGolden =
    R"(metric,density,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,delivered,failed,overhead_mean,overhead_stddev,path_hops_mean
delay,5,2,151.5,qolsr_mpr2_delay,2.458925303,0.01537724587,2,0,0,0,2
delay,5,2,151.5,topology_filtering_delay,2.24699294,0.04557704739,2,0,0,0,2
delay,5,2,151.5,fnbp_delay,2.174583805,0.02859736307,2,0,0,0,2
delay,10,2,325,qolsr_mpr2_delay,5.863619988,0.1386514117,2,0,0.125,0.1767766953,2
delay,10,2,325,topology_filtering_delay,4.055692494,0.04713330153,2,0,0,0,2.5
delay,10,2,325,fnbp_delay,4.095059774,0.01244195813,2,0,0,0,2.5
delay,15,2,497.5,qolsr_mpr2_delay,8.528147181,0.3026117256,2,0,0.375,0.5303300859,2
delay,15,2,497.5,topology_filtering_delay,5.59199017,0.002035037059,2,0,0,0,2.5
delay,15,2,497.5,fnbp_delay,5.442612249,0.0942262173,2,0,0,0,2.5
)";

TEST(GoldenFigures, Figure6AnsSizeBandwidthCsv) {
  EXPECT_EQ(run_figure_csv(6, {10, 15, 20}), kBandwidthGolden);
}

TEST(GoldenFigures, Figure8BandwidthOverheadCsv) {
  // The pre-PR-3 pin: the figure most sensitive to forwarding changes.
  EXPECT_EQ(run_figure_csv(8, {10, 15, 20}), kBandwidthGolden);
}

TEST(GoldenFigures, Figure7AnsSizeDelayCsv) {
  EXPECT_EQ(run_figure_csv(7, {5, 10, 15}), kDelayGolden);
}

TEST(GoldenFigures, Figure9DelayOverheadCsv) {
  EXPECT_EQ(run_figure_csv(9, {5, 10, 15}), kDelayGolden);
}

}  // namespace
}  // namespace qolsr
