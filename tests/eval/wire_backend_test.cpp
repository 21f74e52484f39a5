// The --backend=wire eval path: spec validation, real sweeps where every
// (run, protocol) stands up a fleet of qolsr_node processes over the
// software switch and is digest-verified against the in-process Simulator
// twin (a mismatch throws, so a passing sweep IS the equivalence check),
// a sweep whose fleets queue behind the process budget pinned to the CSV
// the one-fleet-at-a-time harness wrote, and sweeps whose daemons cannot
// start or die mid-run.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "eval/experiment.hpp"
#include "eval/result_sink.hpp"
#include "net/wire_harness.hpp"
#include "support/daemon_wrapper.hpp"

namespace qolsr {
namespace {

/// A wire-sized spec: ~12 expected nodes per deployment, two contenders,
/// two runs — four process fleets, each converging in well under a second
/// at the default timing compression.
ExperimentSpec wire_spec() {
  ExperimentSpec spec;
  spec.name = "wire_smoke";
  spec.backend = BackendId::kWire;
  spec.selectors = {"olsr_mpr", "qolsr_mpr2"};
  spec.scenario.field.width = 250.0;
  spec.scenario.field.height = 250.0;
  spec.scenario.densities = {6.0};
  spec.scenario.runs = 2;
  spec.scenario.seed = 7;
  return spec;
}

TEST(WireBackend, RejectsScenariosItCannotRun) {
  ExperimentSpec mobility = wire_spec();
  mobility.scenario.dynamics.model = DynamicsSpec::Model::kWaypoint;
  EXPECT_THROW(run_experiment(mobility), ExperimentError);

  ExperimentSpec per_run = wire_spec();
  per_run.per_run = true;
  EXPECT_THROW(run_experiment(per_run), ExperimentError);

  // Fault/traffic/adversary engines are packet-backend machinery; the
  // shared validation rejects them before the backend is even consulted.
  ExperimentSpec faults = wire_spec();
  faults.scenario.faults.loss_rate = 0.1;
  EXPECT_THROW(run_experiment(faults), ExperimentError);

  // Every node is a real process: a paper-sized field at this density
  // would spawn hundreds of them, so the backend refuses up front.
  ExperimentSpec huge = wire_spec();
  huge.scenario.field.width = 1000.0;
  huge.scenario.field.height = 1000.0;
  huge.scenario.densities = {10.0};
  EXPECT_THROW(run_experiment(huge), ExperimentError);
}

TEST(WireBackend, WireScaleIsValidatedAndBackendScoped) {
  ExperimentSpec bad_scale = wire_spec();
  bad_scale.wire_scale = 0.0;
  EXPECT_THROW(run_experiment(bad_scale), ExperimentError);
  bad_scale.wire_scale = 1.5;
  EXPECT_THROW(run_experiment(bad_scale), ExperimentError);

  // --wire-scale on another backend is a misconfiguration, not a no-op.
  ExperimentSpec oracle = wire_spec();
  oracle.backend = BackendId::kOracle;
  oracle.wire_scale = 0.05;
  EXPECT_THROW(run_experiment(oracle), ExperimentError);

  EXPECT_DOUBLE_EQ(parse_experiment_spec({"--wire-scale=0.05"}).wire_scale,
                   0.05);
}

TEST(WireBackend, SweepsRealProcessFleetsAndVerifiesDigests) {
  const ExperimentSpec spec = wire_spec();
  const ExperimentResult result = run_experiment(spec);

  ASSERT_EQ(result.sweep.size(), 1u);
  const DensityStats& stats = result.sweep[0];
  EXPECT_EQ(stats.density, 6.0);
  EXPECT_EQ(stats.node_count.count(), spec.scenario.runs);
  ASSERT_EQ(stats.protocols.size(), spec.selectors.size());
  for (const ProtocolStats& ps : stats.protocols) {
    // One set-size sample per run, measured from the daemons' status
    // frames (and digest-checked against the simulator, or we'd have
    // thrown). Wall-clock convergence is real elapsed seconds > 0.
    EXPECT_EQ(ps.set_size.count(), spec.scenario.runs);
    EXPECT_EQ(ps.control.convergence_time.count(), spec.scenario.runs);
    EXPECT_GT(ps.control.convergence_time.mean(), 0.0);
    EXPECT_EQ(ps.control.unconverged, 0u);
    // The message and byte counts are the twin's, one sample per run.
    for (const util::RunningStats* counts :
         {&ps.control.hello_msgs, &ps.control.tc_msgs,
          &ps.control.control_bytes}) {
      EXPECT_EQ(counts->count(), spec.scenario.runs);
      EXPECT_GT(counts->mean(), 0.0);
    }
  }
}

TEST(WireBackend, ConcurrentSweepMatchesGoldenPin) {
  // Five selectors on ~10-node deployments: one run's fleets alone need
  // ~56 processes, so fleets queue behind the budget and end out of (run,
  // protocol) order. The CSV must still be the one the sequential harness
  // wrote; it holds only the deterministic columns (set sizes from the
  // digest-checked daemons).
  ExperimentSpec spec = wire_spec();
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.runs = 4;
  std::ostringstream csv;
  CsvSink().write(run_experiment(spec), csv);
  EXPECT_EQ(csv.str(),
            R"(metric,density,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,delivered,failed,overhead_mean,overhead_stddev,path_hops_mean
bandwidth,6,4,10.25,olsr_mpr,1.152272727,0.261735572,0,0,0,0,0
bandwidth,6,4,10.25,qolsr_mpr1_bandwidth,1.152272727,0.261735572,0,0,0,0,0
bandwidth,6,4,10.25,qolsr_mpr2_bandwidth,1.444318182,0.3613636364,0,0,0,0,0
bandwidth,6,4,10.25,topology_filtering_bandwidth,2.315530303,0.8407278675,0,0,0,0,0
bandwidth,6,4,10.25,fnbp_bandwidth,1.283143939,0.205603674,0,0,0,0,0
)");
}

/// Points QOLSR_NODE_BIN at `path` for one scope, then restores it.
class ScopedNodeBinary {
 public:
  explicit ScopedNodeBinary(const std::string& path) {
    if (const char* old = std::getenv(kVar)) saved_ = old;
    ::setenv(kVar, path.c_str(), 1);
  }
  ~ScopedNodeBinary() {
    if (saved_.has_value())
      ::setenv(kVar, saved_->c_str(), 1);
    else
      ::unsetenv(kVar);
  }
  ScopedNodeBinary(const ScopedNodeBinary&) = delete;
  ScopedNodeBinary& operator=(const ScopedNodeBinary&) = delete;

 private:
  static constexpr const char* kVar = "QOLSR_NODE_BIN";
  std::optional<std::string> saved_;
};

/// The ExperimentError message of a sweep that must fail ("" if it ran).
std::string experiment_failure(const ExperimentSpec& spec) {
  try {
    run_experiment(spec);
  } catch (const ExperimentError& e) {
    return e.what();
  }
  return {};
}

/// Every fleet child was reaped: none is running, none is a zombie.
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(WireBackend, DeadDaemonFailsTheExperiment) {
  {
    // No daemon binary at all: the first fleet's handshake fails.
    const ScopedNodeBinary missing("/nonexistent/qolsr_node");
    const std::string what = experiment_failure(wire_spec());
    ASSERT_FALSE(what.empty()) << "the sweep did not throw";
    EXPECT_NE(what.find("experiment 'wire_smoke'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("wire harness: node "), std::string::npos) << what;
    EXPECT_NE(what.find("exited with status 127"), std::string::npos)
        << what;
    expect_no_children();
  }

  // Node 2 is SIGKILLed 0.3 s after spawn, past the handshake but before
  // the fleet can settle, and its wrapper exits 9.
  const std::string script = testing::write_daemon_kill_wrapper(
      net::find_sibling_binary("QOLSR_NODE_BIN", "qolsr_node"), 2);
  ASSERT_FALSE(script.empty());
  std::string what;
  {
    const ScopedNodeBinary wrapped(script);
    what = experiment_failure(wire_spec());
  }
  ::unlink(script.c_str());
  ASSERT_FALSE(what.empty()) << "the sweep did not throw";
  EXPECT_NE(what.find("experiment 'wire_smoke'"), std::string::npos) << what;
  EXPECT_NE(what.find("wire harness: node 2 "), std::string::npos) << what;
  EXPECT_NE(what.find("exited with status 9"), std::string::npos) << what;
  expect_no_children();
}

}  // namespace
}  // namespace qolsr
