#pragma once

// In-memory span recorder for the traced benchmark run. Spans are recorded
// around the calls the benchmark makes into each module's public entry
// points (and, through TimedSelector, around every selection the simulator
// nodes make); they stay in memory until the run ends and are written out
// afterwards, so the only cost inside the measured interval is two clock
// reads and one vector append per span.

#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "olsr/selector_registry.hpp"

namespace perfbench {

/// Every span the traced run records. The prefix before the dot is the
/// repository module the call enters (eval, graph, olsr, routing, sim, net).
enum class SpanKind : std::uint8_t {
  kSpec,        ///< eval: one workload spec, run to emitted rows
  kRun,         ///< eval: one sampled run (all protocols)
  kEmit,        ///< eval: ResultSink::write
  kSample,      ///< graph: sample_run
  kViewBuild,   ///< graph: LocalViewBuilder::build
  kSelect,      ///< olsr: AnsSelector::select / select_into
  kAdvertised,  ///< routing: AdvertisedTopologyBuilder::build_advertised
  kForward,     ///< routing: source_route_packet
  kSimReset,    ///< sim: Simulator::reset
  kConverge,    ///< sim: run_to_convergence from a fresh reset
  kProbe,       ///< sim: probe sends + run_until
  kTrafficGen,  ///< sim: TrafficMatrix::generate
  kTraffic,     ///< sim: flow scheduling + run_until
  kInject,      ///< sim: inject
  kReconverge,  ///< sim: run_to_convergence after an incident
  kFleet,       ///< net: run_wire_network
  kTwin,        ///< net: the in-process simulator twin of a fleet
  kCount,
};

inline constexpr std::string_view kSpanNames[] = {
    "eval.spec",      "eval.run",      "eval.emit",
    "graph.sample",   "graph.view",    "olsr.select",
    "routing.advertised", "routing.forward", "sim.reset",
    "sim.converge",   "sim.probe",     "sim.traffic_gen",
    "sim.traffic",    "sim.inject",    "sim.reconverge",
    "net.fleet",      "net.twin",
};
static_assert(std::size(kSpanNames) ==
              static_cast<std::size_t>(SpanKind::kCount));

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index into the span list, or kNoParent
  std::uint32_t run = 0;     ///< the sampled run the span belongs to
  SpanKind kind = SpanKind::kSpec;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span stack: the traced run executes with one worker.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  std::uint32_t open(SpanKind kind) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, stack_.empty() ? kNoParent : stack_.back(),
                      run_, kind});
    stack_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  /// Tags the spans opened from now on with a sampled-run id.
  void set_run(std::uint32_t run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t run_ = 0;
};

/// The process-wide recorder the traced run and TimedSelector share.
inline Tracer& tracer() {
  static Tracer instance;
  return instance;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : id_(tracer().open(kind)) {}
  ~ScopedSpan() { tracer().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint32_t id_;
};

/// Timing decorator: forwards every call to the wrapped heuristic and
/// records an olsr.select span around each selection, so selections made
/// inside the simulator's nodes are timed too.
class TimedSelector final : public qolsr::AnsSelector {
 public:
  explicit TimedSelector(std::unique_ptr<qolsr::AnsSelector> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  std::vector<qolsr::NodeId> select(
      const qolsr::LocalView& view) const override {
    ScopedSpan span(SpanKind::kSelect);
    return inner_->select(view);
  }
  void select_into(const qolsr::LocalView& view,
                   qolsr::SelectionWorkspace& ws,
                   std::vector<qolsr::NodeId>& out) const override {
    ScopedSpan span(SpanKind::kSelect);
    inner_->select_into(view, ws, out);
  }
  bool qos_first_routing() const override {
    return inner_->qos_first_routing();
  }

 private:
  std::unique_ptr<qolsr::AnsSelector> inner_;
};

/// The builtin selectors, same names and order, each (and its flooding
/// role) wrapped in a TimedSelector.
inline qolsr::SelectorRegistry timed_registry() {
  const qolsr::SelectorRegistry& builtin = qolsr::SelectorRegistry::builtin();
  qolsr::SelectorRegistry registry;
  for (const std::string& name : builtin.names()) {
    registry.add(
        name,
        [&builtin, name](qolsr::MetricId metric) {
          return std::make_unique<TimedSelector>(builtin.create(name, metric));
        },
        [&builtin, name](qolsr::MetricId metric) {
          return std::make_unique<TimedSelector>(
              builtin.create_flooding(name, metric));
        });
  }
  return registry;
}

}  // namespace perfbench
