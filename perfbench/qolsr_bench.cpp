// qolsr_bench — the process perfbench/run.py launches for every benchmark
// rep. It does what `qolsr_eval --format=csv --output=FILE` does for one or
// more specs, and reports on stdout, as one JSON line, what run.py cannot
// see from outside: the instants main() began and set-up ended, the
// run-to-last-row wall time, failed evaluations, and (traced mode) the
// per-layer breakdown.
//
//   qolsr_bench setup  --out CSV -- SPEC [--next SPEC ...]
//   qolsr_bench rep    --out CSV -- SPEC [--next SPEC ...]
//   qolsr_bench traced --out CSV --spans TSV -- SPEC [--next SPEC ...]
//
// A SPEC is a qolsr_eval flag list (--figure=N plus overrides). `setup`
// stops once set-up is done; `rep` runs every spec through run_experiment
// and the CSV ResultSink; `traced` runs them through the span-recording
// bodies of traced.hpp and also writes every span to the TSV.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "eval/figures.hpp"
#include "eval/result_sink.hpp"
#include "net/wire_harness.hpp"
#include "traced.hpp"
#include "util/stats.hpp"

namespace {

using perfbench::now_ns;
using perfbench::SpanKind;

struct Args {
  std::string mode;
  std::string out;
  std::string spans;
  std::vector<std::vector<std::string>> specs;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing mode");
  args.mode = argv[1];
  int i = 2;
  for (; i < argc && std::string(argv[i]) != "--"; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    if (flag == "--out") {
      args.out = argv[++i];
    } else if (flag == "--spans") {
      args.spans = argv[++i];
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  args.specs.emplace_back();
  for (++i; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--next") {
      args.specs.emplace_back();
    } else {
      args.specs.back().push_back(arg);
    }
  }
  if (args.mode != "setup" && args.mode != "rep" && args.mode != "traced")
    throw std::invalid_argument("unknown mode " + args.mode);
  if (args.out.empty() || args.specs.front().empty())
    throw std::invalid_argument("need --out and at least one spec");
  return args;
}

/// qolsr_eval's flag handling: --figure=N picks the canned base spec, every
/// other flag overrides it.
qolsr::ExperimentSpec build_spec(const std::vector<std::string>& flags) {
  qolsr::ExperimentSpec base;
  std::vector<std::string> rest;
  for (const std::string& flag : flags) {
    if (flag.rfind("--figure=", 0) == 0) {
      base = qolsr::figure_by_name(flag.substr(9), qolsr::FigureConfig{});
    } else {
      rest.push_back(flag);
    }
  }
  qolsr::ExperimentSpec spec =
      qolsr::parse_experiment_spec(rest, std::move(base));
  if (spec.format != "csv")
    throw qolsr::ExperimentError("benchmark specs emit --format=csv");
  return spec;
}

std::size_t evaluations(const qolsr::ExperimentSpec& spec) {
  return spec.scenario.densities.size() * spec.scenario.runs *
         spec.selectors.size();
}

std::size_t cap_hits(const qolsr::ExperimentResult& result) {
  std::size_t hits = 0;
  for (const qolsr::DensityStats& d : result.sweep)
    for (const qolsr::ProtocolStats& p : d.protocols)
      hits += p.control.unconverged + p.control.reconv_unconverged;
  return hits;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Per-kind totals over the recorded spans. Self time is a span's duration
/// minus the part its direct children cover.
struct KindTotals {
  std::uint64_t calls = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t self_ns = 0;
};

/// `cap_hits`: the traced specs' unconverged + reconv_unconverged runs.
std::map<std::string, double> layer_metrics(std::int64_t wall_ns,
                                            std::size_t cap_hits) {
  using perfbench::Tracer;
  const std::vector<perfbench::Span>& spans = perfbench::tracer().spans();
  const perfbench::LayerCounts& c = perfbench::counts();
  constexpr auto kKinds = static_cast<std::size_t>(SpanKind::kCount);

  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const perfbench::Span& s : spans)
    if (s.parent != Tracer::kNoParent)
      child_ns[s.parent] += s.end_ns - s.start_ns;
  std::vector<KindTotals> kind(kKinds);
  std::int64_t select_in_sim_ns = 0;
  std::vector<double> run_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    const std::int64_t duration = s.end_ns - s.start_ns;
    KindTotals& k = kind[static_cast<std::size_t>(s.kind)];
    ++k.calls;
    k.inclusive_ns += duration;
    k.self_ns += duration - child_ns[i];
    if (s.kind == SpanKind::kRun) run_ms.push_back(duration / 1e6);
    // Oracle selections are called from the run body itself; every other
    // selection happens inside a simulator (the packet nodes or a wire
    // fleet's twin).
    if (s.kind == SpanKind::kSelect && s.parent != Tracer::kNoParent &&
        spans[s.parent].kind != SpanKind::kRun)
      select_in_sim_ns += duration - child_ns[i];
  }
  const auto at = [&](SpanKind k) -> const KindTotals& {
    return kind[static_cast<std::size_t>(k)];
  };
  const auto self_ms = [&](SpanKind k) { return at(k).self_ns / 1e6; };
  const auto mean_us = [&](SpanKind k) {
    return at(k).calls > 0 ? at(k).inclusive_ns / 1e3 / at(k).calls : 0.0;
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::int64_t module_self_ns = 0;
  for (std::size_t k = 0; k < kKinds; ++k)
    if (k != static_cast<std::size_t>(SpanKind::kSpec) &&
        k != static_cast<std::size_t>(SpanKind::kRun))
      module_self_ns += kind[k].self_ns;
  std::sort(run_ms.begin(), run_ms.end());
  const double reconverge_ns = static_cast<double>(
      at(SpanKind::kInject).inclusive_ns +
      at(SpanKind::kReconverge).inclusive_ns);
  const double events = static_cast<double>(
      c.converge_events + c.probe_events + c.traffic_events +
      c.reconverge_events);
  const double fleet_s = at(SpanKind::kFleet).inclusive_ns / 1e9;

  std::map<std::string, double> m;
  m["eval.run_ms.p50"] =
      run_ms.empty() ? 0.0 : qolsr::util::quantile_sorted(run_ms, 0.5);
  m["eval.run_ms.p90"] =
      run_ms.empty() ? 0.0 : qolsr::util::quantile_sorted(run_ms, 0.9);
  m["eval.emit_ms"] = self_ms(SpanKind::kEmit);
  m["eval.span_coverage_pct"] =
      100.0 * per(static_cast<double>(module_self_ns),
                  static_cast<double>(wall_ns));
  m["graph.sample_ms"] = self_ms(SpanKind::kSample);
  m["graph.nodes"] = static_cast<double>(c.nodes);
  m["graph.view_build_us"] = mean_us(SpanKind::kViewBuild);
  m["graph.view_builds"] = static_cast<double>(at(SpanKind::kViewBuild).calls);
  m["olsr.select_us"] = mean_us(SpanKind::kSelect);
  m["olsr.selections"] = static_cast<double>(at(SpanKind::kSelect).calls);
  m["olsr.select_ms_in_sim"] = select_in_sim_ns / 1e6;
  m["routing.advertised_build_us"] = mean_us(SpanKind::kAdvertised);
  m["routing.advertised_builds"] =
      static_cast<double>(at(SpanKind::kAdvertised).calls);
  m["routing.forward_us"] = mean_us(SpanKind::kForward);
  m["routing.forwards"] = static_cast<double>(at(SpanKind::kForward).calls);
  m["sim.reset_ms"] = self_ms(SpanKind::kSimReset);
  m["sim.converge_ms"] = self_ms(SpanKind::kConverge);
  m["sim.converge_events"] = static_cast<double>(c.converge_events);
  m["sim.converge_ns_per_event"] =
      per(static_cast<double>(at(SpanKind::kConverge).inclusive_ns),
          static_cast<double>(c.converge_events));
  m["sim.reconverge_ms"] =
      self_ms(SpanKind::kInject) + self_ms(SpanKind::kReconverge);
  m["sim.reconverge_events"] = static_cast<double>(c.reconverge_events);
  m["sim.reconverge_ns_per_event"] =
      per(reconverge_ns, static_cast<double>(c.reconverge_events));
  m["sim.probe_ms"] = self_ms(SpanKind::kProbe);
  m["sim.traffic_gen_ms"] = self_ms(SpanKind::kTrafficGen);
  m["sim.traffic_ms"] = self_ms(SpanKind::kTraffic);
  m["sim.traffic_events"] = static_cast<double>(c.traffic_events);
  m["sim.traffic_ns_per_event"] =
      per(static_cast<double>(at(SpanKind::kTraffic).inclusive_ns),
          static_cast<double>(c.traffic_events));
  m["sim.data_forwarded"] = static_cast<double>(c.data_forwarded);
  m["sim.frames_queue_dropped"] = static_cast<double>(c.frames_queue_dropped);
  m["sim.journeys"] = static_cast<double>(c.journeys);
  m["sim.events_per_sim_s"] = per(events, c.sim_seconds);
  m["sim.mutations"] = static_cast<double>(c.mutations);
  m["sim.mutations_per_kevent"] =
      per(static_cast<double>(c.mutations), events / 1000.0);
  m["sim.frames_lost"] = static_cast<double>(c.frames_lost);
  m["sim.frames_blocked"] = static_cast<double>(c.frames_blocked);
  m["sim.cap_hits"] = static_cast<double>(cap_hits);
  m["proto.hello_sent"] = static_cast<double>(c.hello_sent);
  m["proto.tc_originated"] = static_cast<double>(c.tc_originated);
  m["proto.tc_forwarded"] = static_cast<double>(c.tc_forwarded);
  m["proto.tc_dup_drops"] = static_cast<double>(c.tc_dup_drops);
  m["proto.control_bytes"] = static_cast<double>(c.control_bytes);
  m["proto.dup_ratio"] =
      per(static_cast<double>(c.tc_dup_drops),
          static_cast<double>(c.tc_forwarded + c.tc_dup_drops));
  m["net.fleet_s"] = fleet_s;
  m["net.fleet_converge_s"] = c.fleet_converge_s;
  m["net.fleet_overhead_s"] = fleet_s - c.fleet_converge_s;
  m["net.processes"] = static_cast<double>(c.processes);
  m["net.twin_ms"] = self_ms(SpanKind::kTwin);
  m["net.digest_mismatches"] = static_cast<double>(c.digest_mismatches);
  return m;
}

/// Peak resident set in MB of this process image and of the children it
/// reaped. VmHWM starts afresh at exec, unlike the parent-visible
/// ru_maxrss, which also counts the forked copy of the launcher.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  double hwm_kb = 0.0;
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) hwm_kb = std::stod(line.substr(6));
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(hwm_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

void write_spans(const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write spans to " + path);
  file << "name\trun\tparent\tstart_ns\tend_ns\n";
  for (const perfbench::Span& s : perfbench::tracer().spans()) {
    file << perfbench::kSpanNames[static_cast<std::size_t>(s.kind)] << '\t'
         << s.run << '\t';
    if (s.parent == perfbench::Tracer::kNoParent) {
      file << '-';
    } else {
      file << s.parent;
    }
    file << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

int run(const Args& args, std::int64_t main_ns) {
  using namespace qolsr;
  const bool traced = args.mode == "traced";

  // ---- set-up: everything qolsr_eval does before its first run --------
  std::vector<ExperimentSpec> specs;
  for (const std::vector<std::string>& flags : args.specs)
    specs.push_back(build_spec(flags));
  const std::unique_ptr<ResultSink> sink = make_result_sink("csv");
  const SelectorRegistry timed =
      traced ? perfbench::timed_registry() : SelectorRegistry{};
  const SelectorRegistry& registry =
      traced ? timed : SelectorRegistry::builtin();
  for (const ExperimentSpec& spec : specs) {
    for (const std::string& name : spec.selectors)
      if (!registry.contains(name))
        throw ExperimentError("unknown selector '" + name + "'");
    if (spec.backend != BackendId::kWire) continue;
    for (const auto& [env, binary] :
         {std::pair{"QOLSR_NODE_BIN", "qolsr_node"},
          std::pair{"QOLSR_SWITCH_BIN", "qolsr_switch"}})
      if (!std::filesystem::exists(net::find_sibling_binary(env, binary)))
        throw ExperimentError(std::string("wire binary ") + binary +
                              " not found");
  }
  std::ofstream out(args.out);
  if (!out) throw ExperimentError("cannot open output file " + args.out);
  const std::int64_t first_run_ns = now_ns();
  if (args.mode == "setup") {
    std::cout << "{\"t_main_ns\": " << main_ns
              << ", \"t_first_run_ns\": " << first_run_ns << "}" << std::endl;
    return 0;
  }

  // ---- measured: first run issued to last row written -----------------
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t hits = 0;
  std::vector<std::string> errors;
  for (const ExperimentSpec& spec : specs) {
    attempted += evaluations(spec);
    try {
      if (traced) {
        perfbench::ScopedSpan spec_span(SpanKind::kSpec);
        const ExperimentResult result =
            perfbench::traced_experiment(spec, registry);
        hits += cap_hits(result);
        perfbench::ScopedSpan emit_span(SpanKind::kEmit);
        sink->write(result, out);
        out.flush();
      } else {
        const ExperimentResult result = run_experiment(spec, registry);
        hits += cap_hits(result);
        sink->write(result, out);
        out.flush();
      }
    } catch (const std::exception& e) {
      failed += evaluations(spec);
      errors.push_back(spec.name + ": " + e.what());
    }
  }
  out.close();
  const std::int64_t wall_ns = now_ns() - first_run_ns;

  std::ostringstream line;
  line.precision(17);
  line << "{\"t_main_ns\": " << main_ns
       << ", \"t_first_run_ns\": " << first_run_ns
       << ", \"wall_s\": " << wall_ns / 1e9 << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"cap_hits\": " << hits
       << ", \"peak_rss_mb\": " << peak_rss_mb() << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i)
    line << (i > 0 ? ", " : "") << json_string(errors[i]);
  line << "]";
  if (traced) {
    line << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : layer_metrics(wall_ns, hits)) {
      line << (first ? "" : ", ") << json_string(name) << ": " << value;
      first = false;
    }
    line << "}";
    if (!args.spans.empty()) write_spans(args.spans);
  }
  std::cout << line.str() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = now_ns();
  try {
    return run(parse_args(argc, argv), main_ns);
  } catch (const std::exception& e) {
    std::cerr << "qolsr_bench: " << e.what() << "\n";
    return 2;
  }
}
