#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "eval/runner.hpp"
#include "eval/scenario.hpp"
#include "metrics/metric_id.hpp"
#include "olsr/selector_registry.hpp"
#include "util/names.hpp"

namespace qolsr {

/// Which engine executes a sweep (run_experiment picks the runner):
///  * kOracle — the analytic path: per run, every node's ANS is selected
///    on its exact local view computed from the sampled graph, routing
///    runs on the oracle advertised topology. Fast, and the reference the
///    paper's Figs. 6–9 are reproduced with.
///  * kPacket — the distributed path: per run and protocol, a
///    discrete-event Simulator floods real HELLO/TC packets until the
///    control plane converges, then set sizes, delivery and QoS overhead
///    are measured from each node's *converged protocol state* (neighbor
///    tables, ANS, topology base) and a data packet routed hop-by-hop on
///    per-node knowledge — plus the control-plane cost block (message and
///    byte counts, duplicate suppression, measured convergence time) the
///    oracle cannot produce.
///  * kWire — the multi-process path: per run and protocol, the wire
///    harness (net/wire_harness.hpp) spawns one qolsr_node daemon per node
///    plus the software switch, converges the protocol over real Unix
///    sockets and wall-clock timers, and then *verifies* every daemon's
///    converged digest against an in-process Simulator twin of the same
///    topology, seed and timing — a per-run cross-backend equivalence
///    assertion (mismatch throws), with set sizes and measured wall-clock
///    convergence taken from the daemons' status reports.
enum class BackendId { kOracle, kPacket, kWire };

/// The backend names (--backend, the JSON "backend" field). Adding a
/// backend is one row here plus its case in run_experiment's dispatch
/// (eval/experiment.cpp).
inline constexpr util::Named<BackendId> kBackends[] = {
    {BackendId::kOracle, "oracle"},
    {BackendId::kPacket, "packet"},
    {BackendId::kWire, "wire"},
};

/// Any failure of the experiment engine — unknown metric or selector name,
/// malformed CLI flag, degenerate deployment — surfaces as this one type
/// with a human-readable message.
class ExperimentError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A declarative description of one evaluation sweep: everything the four
/// hard-coded figureN_* harnesses froze at compile time, as data. A spec
/// can be built in code or parsed from CLI flags (parse_experiment_spec,
/// which is also how figure_by_name builds the canned figures);
/// run_experiment executes it through the same templated, allocation-free
/// run_sweep<M> hot path.
struct ExperimentSpec {
  std::string name = "sweep";
  /// Execution engine (--backend=oracle|packet). The oracle default keeps
  /// every pre-existing spec byte-identical.
  BackendId backend = BackendId::kOracle;
  MetricId metric = MetricId::kBandwidth;
  /// SelectorRegistry names, in column order. Defaults to the paper's
  /// three contenders (Figs. 6–9 legend order).
  std::vector<std::string> selectors = {"qolsr_mpr2", "topology_filtering",
                                        "fnbp"};
  /// Deployment, densities, runs, seed, routing model, pair mode, … (the
  /// scenario's densities default to empty — set them or use a figure).
  Scenario scenario;
  /// Worker threads of the sweep harness; 0 = hardware_concurrency. Every
  /// thread count prints the same bytes (JSON also echoes this field).
  /// Benches and CI set 1 for steady timing. The wire backend ignores it:
  /// one thread drives all of its process fleets, which overlap under
  /// net::kWireProcessBudget instead.
  unsigned threads = 0;
  /// Wire backend only (--wire-scale): uniform compression factor applied
  /// to ProtocolTiming for the daemons' wall-clock timers AND the
  /// comparison Simulator (the same scaled struct feeds both sides, so the
  /// digest equivalence holds by construction). 0.02 turns RFC 3626's
  /// seconds into wall-clock milliseconds; raise it on loaded machines
  /// where scheduling jitter could outrun the scaled soft-state holds.
  double wire_scale = 0.02;
  // ----- output options (consumed by the sinks / CLI, not by the run) ----
  std::string format = "table";  ///< "table", "csv" or "json"
  std::string output_path;       ///< empty = stdout
  bool per_run = false;          ///< also record + emit per-run records
};

/// A finished experiment: the spec that produced it plus the per-density
/// aggregates (and per-run records when spec.per_run).
struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<DensityStats> sweep;
};

/// Type-erased execution: validates the spec, resolves the named
/// selectors (and, for the packet and wire backends, their flooding roles)
/// from `registry` exactly once, resolves the metric via dispatch_metric,
/// and runs the runner of the backend it names — run_sweep or
/// run_dynamic_sweep (oracle), run_packet_sweep or run_wire_sweep. Throws
/// ExperimentError on unknown names, an empty density list,
/// backend-incompatible scenarios, or a degenerate deployment (sample_run
/// resample cap).
ExperimentResult run_experiment(
    const ExperimentSpec& spec,
    const SelectorRegistry& registry = SelectorRegistry::builtin());

/// Parses `--flag=value` strings (CLI argv after the program name) into a
/// spec, starting from `base` so a canned figure can be customized; later
/// flags override earlier ones. Throws ExperimentError on unknown flags or
/// unparsable values. experiment_flags_help() lists every flag.
ExperimentSpec parse_experiment_spec(const std::vector<std::string>& args,
                                     ExperimentSpec base = {});

/// One-line-per-flag usage text for the CLI's --help.
std::string experiment_flags_help();

}  // namespace qolsr
