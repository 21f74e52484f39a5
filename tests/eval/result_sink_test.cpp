// Pins the machine-readable emitters: a hand-built, exactly-representable
// ExperimentResult must render to these byte-for-byte CSV and JSON
// documents. Downstream tooling (BENCH_sweep.json, plotting scripts)
// parses these formats — changing them is a breaking change and must show
// up here.
#include "eval/result_sink.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace qolsr {
namespace {

ExperimentResult golden_result() {
  ExperimentResult result;
  result.spec.name = "golden";
  result.spec.metric = MetricId::kBandwidth;
  result.spec.selectors = {"fnbp"};
  result.spec.scenario.runs = 2;
  result.spec.scenario.seed = 1;
  result.spec.threads = 1;
  result.spec.per_run = true;

  DensityStats d;
  d.density = 10.0;
  d.runs = 2;
  d.node_count.add(20.0);
  d.node_count.add(22.0);

  ProtocolStats p;
  p.name = "fnbp_bandwidth";
  // Equal samples keep every derived statistic exactly representable.
  p.set_size.add(2.5);
  p.set_size.add(2.5);
  p.overhead.add(0.125);
  p.path_hops.add(2.0);
  p.delivered = 1;
  p.failed = 1;
  d.protocols.push_back(p);

  RunRecord r0;
  r0.run_index = 0;
  r0.nodes = 20;
  r0.protocols.push_back({2.5, true, 7.0, 0.125, 2});
  RunRecord r1;
  r1.run_index = 1;
  r1.nodes = 22;
  r1.protocols.push_back({2.5, false, 0.0, 0.0, 0});
  d.run_records = {r0, r1};

  result.sweep.push_back(std::move(d));
  return result;
}

std::string render(const ResultSink& sink) {
  std::ostringstream os;
  sink.write(golden_result(), os);
  return os.str();
}

TEST(ResultSink, GoldenCsv) {
  const std::string expected =
      "metric,density,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,"
      "delivered,failed,overhead_mean,overhead_stddev,path_hops_mean\n"
      "bandwidth,10,2,21,fnbp_bandwidth,2.5,0,1,1,0.125,0,2\n"
      "\n"
      "density,run,nodes,protocol,set_size,delivered,value,overhead,"
      "path_hops\n"
      "10,0,20,fnbp_bandwidth,2.5,1,7,0.125,2\n"
      "10,1,22,fnbp_bandwidth,2.5,0,,,\n";
  EXPECT_EQ(render(CsvSink{}), expected);
}

TEST(ResultSink, CsvWithoutRecordsHasNoSecondBlock) {
  ExperimentResult result = golden_result();
  result.sweep.front().run_records.clear();
  std::ostringstream os;
  CsvSink{}.write(result, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.find("\n\n"), std::string::npos);
  EXPECT_EQ(csv.find("density,run,"), std::string::npos);
}

TEST(ResultSink, GoldenJson) {
  const std::string expected = R"({
  "name": "golden",
  "metric": "bandwidth",
  "metric_kind": "concave",
  "selectors": ["fnbp"],
  "runs": 2,
  "seed": 1,
  "threads": 1,
  "densities": [
    {
      "density": 10,
      "runs": 2,
      "avg_nodes": 21,
      "protocols": [
        {"name": "fnbp_bandwidth", "delivered": 1, "failed": 1,
         "set_size": {"mean": 2.5, "stddev": 0, "min": 2.5, "max": 2.5},
         "overhead": {"mean": 0.125, "stddev": 0, "min": 0.125, "max": 0.125},
         "path_hops": {"mean": 2, "stddev": 0, "min": 2, "max": 2}}
      ],
      "run_records": [
        {"run": 0, "nodes": 20, "protocols": [{"set_size": 2.5, "delivered": true, "value": 7, "overhead": 0.125, "hops": 2}]},
        {"run": 1, "nodes": 22, "protocols": [{"set_size": 2.5, "delivered": false}]}
      ]
    }
  ]
}
)";
  EXPECT_EQ(render(JsonSink{}), expected);
}

TEST(ResultSink, JsonKeepsNonFiniteValuesOutOfTheDocument) {
  // An infinite overhead (zero additive optimum beaten by a nonzero route,
  // see qos_overhead) must render as JSON null, never as a bare `inf`.
  ExperimentResult result = golden_result();
  result.sweep.front().protocols.front().overhead.add(
      std::numeric_limits<double>::infinity());
  std::ostringstream os;
  JsonSink{}.write(result, os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);
}

TEST(ResultSink, PrettyTableReportsRecordedRunCount) {
  const std::string text = render(PrettyTableSink{});
  EXPECT_NE(text.find("2 per-run records"), std::string::npos);
}

TEST(ResultSink, PrettyTableNamesEverySection) {
  const std::string text = render(PrettyTableSink{});
  EXPECT_NE(text.find("golden"), std::string::npos);
  EXPECT_NE(text.find("metric=bandwidth"), std::string::npos);
  EXPECT_NE(text.find("advertised set size"), std::string::npos);
  EXPECT_NE(text.find("QoS overhead"), std::string::npos);
  EXPECT_NE(text.find("diagnostics"), std::string::npos);
  EXPECT_NE(text.find("fnbp_bandwidth"), std::string::npos);
}

TEST(ResultSink, PrettyTableLabelsEveryAxisValue) {
  // A fractional sweep axis must print each point's own value in every
  // section, not a rounded integer that merges 0.1 and 0.2 into "0".
  ExperimentResult result;
  result.spec.name = "loss_axis";
  result.spec.backend = BackendId::kPacket;
  result.spec.selectors = {"fnbp"};
  result.spec.scenario.sweep_axis = Scenario::SweepAxis::kLoss;
  for (const double loss : {0.1, 0.2}) {
    DensityStats d;
    d.density = loss;
    d.runs = 1;
    d.node_count.add(10.0);
    ProtocolStats p;
    p.name = "fnbp";
    p.set_size.add(2.0);
    p.control.convergence_time.add(1.5);
    d.protocols.push_back(std::move(p));
    result.sweep.push_back(std::move(d));
  }
  std::ostringstream os;
  PrettyTableSink{}.write(result, os);

  // Per "## " section: rows starting " 0.1 |" and " 0.2 |".
  std::vector<std::pair<int, int>> rows;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("## ", 0) == 0) rows.emplace_back(0, 0);
    if (rows.empty()) continue;
    if (line.rfind(" 0.1 |", 0) == 0) ++rows.back().first;
    if (line.rfind(" 0.2 |", 0) == 0) ++rows.back().second;
  }
  // Set size, overhead, diagnostics, degradation, control plane.
  ASSERT_EQ(rows.size(), 5u) << os.str();
  for (std::size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(rows[s].first, 1) << "section " << s << "\n" << os.str();
    EXPECT_EQ(rows[s].second, 1) << "section " << s << "\n" << os.str();
  }
}

TEST(ResultSink, FactoryCoversTheThreeFormatsAndRejectsOthers) {
  EXPECT_EQ(make_result_sink("table")->format_name(), "table");
  EXPECT_EQ(make_result_sink("csv")->format_name(), "csv");
  EXPECT_EQ(make_result_sink("json")->format_name(), "json");
  EXPECT_THROW(make_result_sink("xml"), ExperimentError);
  EXPECT_THROW(make_result_sink(""), ExperimentError);
}

}  // namespace
}  // namespace qolsr
