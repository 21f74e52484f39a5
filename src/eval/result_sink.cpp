#include "eval/result_sink.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "util/table.hpp"

namespace qolsr {

DistributionSummary summarize_distribution(const util::RunningStats& dist) {
  DistributionSummary summary;
  summary.count = dist.count();
  if (dist.empty()) return summary;
  // Everything derives from the one sorted copy, the mean included: it is
  // summed in ascending order, not folded like RunningStats::mean.
  const std::vector<double> sorted = dist.sorted();
  double sum = 0.0;
  for (const double x : sorted) sum += x;
  summary.mean = sum / static_cast<double>(sorted.size());
  summary.p50 = util::quantile_sorted(sorted, 0.50);
  summary.p95 = util::quantile_sorted(sorted, 0.95);
  summary.p99 = util::quantile_sorted(sorted, 0.99);
  summary.min = sorted.front();
  summary.max = sorted.back();
  summary.histogram = util::histogram_sorted(
      sorted, summary.min, summary.max, kDistributionHistogramBuckets);
  return summary;
}

namespace {

/// Shortest-ish decimal that round-trips our aggregate magnitudes; stable
/// across platforms for the golden-output tests ("2" not "2.000000").
std::string fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

/// JSON has no literal for non-finite numbers; an infinite overhead (zero
/// additive optimum beaten by a nonzero route) becomes null.
std::string json_num(double v) {
  return std::isfinite(v) ? fmt(v) : "null";
}

std::string json_stats(const util::RunningStats& s) {
  return "{\"mean\": " + json_num(s.mean()) +
         ", \"stddev\": " + json_num(s.stddev()) +
         ", \"min\": " + json_num(s.min()) + ", \"max\": " + json_num(s.max()) +
         "}";
}

/// Long-format CSV of a dynamics (epoch-loop) result: one row per
/// (sweep point, protocol), the sweep axis labeled by its meaning. Every
/// attempted epoch packet had a connected (source, destination) pair;
/// `failed` counts all undelivered packets and `stale_losses` the subset
/// dropped handing off over a vanished advertised link (kStaleLink) —
/// the losses chargeable specifically to advertisement age.
void write_dynamic_csv(const ExperimentResult& result, std::ostream& os) {
  os << "metric," << util::name_of(kSweepAxes, result.spec.scenario.sweep_axis)
     << ",runs,epochs,avg_nodes,protocol,set_size_mean,set_size_stddev,"
        "packets,delivered,failed,stale_losses,delivery_ratio,overhead_mean,"
        "stretch_mean,path_hops_mean,readvertised_mean\n";
  const std::string metric{metric_name(result.spec.metric)};
  for (const DensityStats& d : result.sweep) {
    for (const ProtocolStats& p : d.protocols) {
      os << metric << ',' << fmt(d.density) << ',' << d.runs << ','
         << result.spec.scenario.dynamics.epochs << ','
         << fmt(d.node_count.mean()) << ',' << p.name << ','
         << fmt(p.set_size.mean()) << ',' << fmt(p.set_size.stddev()) << ','
         << p.delivered + p.failed << ',' << p.delivered << ',' << p.failed
         << ',' << p.stale_losses << ',' << fmt(p.delivery_ratio()) << ','
         << fmt(p.overhead.mean()) << ',' << fmt(p.stretch.mean()) << ','
         << fmt(p.path_hops.mean()) << ',' << fmt(p.readvertised.mean())
         << '\n';
    }
  }
}

/// The fault-engine columns/fields exist only where they can be nonzero:
/// a packet-backend result whose scenario carries an active FaultPlan or
/// sweeps the loss axis. Everything else — including a packet sweep with
/// no fault flags — keeps its pre-fault-engine byte layout, which is what
/// the fault-free golden pins (and the figure-R loss = 0 column check)
/// hold the engine to.
bool fault_mode(const ExperimentSpec& spec) {
  return spec.backend == BackendId::kPacket &&
         (spec.scenario.faults.active() ||
          spec.scenario.sweep_axis == Scenario::SweepAxis::kLoss);
}

/// Same opt-in discipline for the traffic-workload columns/fields: they
/// exist only where a flow schedule can have run — a packet-backend result
/// whose scenario carries an active TrafficSpec or sweeps the load axis.
/// A packet sweep with no traffic flags keeps its pre-traffic byte layout.
bool traffic_mode(const ExperimentSpec& spec) {
  return spec.backend == BackendId::kPacket &&
         (spec.scenario.traffic.active() ||
          spec.scenario.sweep_axis == Scenario::SweepAxis::kLoad);
}

/// Same opt-in discipline for the adversary-engine columns/fields: they
/// exist only where a roster (or the wire-corruption gate) can have run —
/// a packet-backend result whose scenario carries an active AdversarySpec
/// or sweeps the adversary axis. A packet sweep with no adversary flags
/// keeps its pre-adversary byte layout.
bool adversary_mode(const ExperimentSpec& spec) {
  return spec.backend == BackendId::kPacket &&
         (spec.scenario.adversaries.active() ||
          spec.scenario.sweep_axis == Scenario::SweepAxis::kAdversary);
}

/// JSON object form of a DistributionSummary.
std::string json_distribution(const util::RunningStats& dist) {
  const DistributionSummary s = summarize_distribution(dist);
  std::string out = "{\"count\": " + std::to_string(s.count) +
                    ", \"mean\": " + json_num(s.mean) +
                    ", \"p50\": " + json_num(s.p50) +
                    ", \"p95\": " + json_num(s.p95) +
                    ", \"p99\": " + json_num(s.p99) +
                    ", \"min\": " + json_num(s.min) +
                    ", \"max\": " + json_num(s.max) + ", \"histogram\": [";
  for (std::size_t i = 0; i < s.histogram.size(); ++i)
    out += (i ? ", " : "") + std::to_string(s.histogram[i]);
  out += "]}";
  return out;
}

/// The 12 aggregate columns shared by both static CSV layouts (oracle and
/// packet) — one writer, so the "figure tooling reads either" contract
/// cannot drift between the two. The sweep-axis column is labeled by its
/// meaning; for the default density axis this is byte-identical to the
/// pre-loss-axis header.
std::string static_csv_header(const ExperimentSpec& spec) {
  return "metric," +
         std::string(util::name_of(kSweepAxes, spec.scenario.sweep_axis)) +
         ",runs,avg_nodes,protocol,set_size_mean,"
         "set_size_stddev,delivered,failed,overhead_mean,overhead_stddev,"
         "path_hops_mean";
}

void write_static_csv_row_prefix(const ExperimentResult& result,
                                 const DensityStats& d,
                                 const ProtocolStats& p, std::ostream& os) {
  os << metric_name(result.spec.metric) << ',' << fmt(d.density) << ','
     << d.runs << ',' << fmt(d.node_count.mean()) << ',' << p.name << ','
     << fmt(p.set_size.mean()) << ',' << fmt(p.set_size.stddev()) << ','
     << p.delivered << ',' << p.failed << ',' << fmt(p.overhead.mean()) << ','
     << fmt(p.overhead.stddev()) << ',' << fmt(p.path_hops.mean());
}

/// The optional per-run-records block shared by both static CSV layouts:
/// a second header+rows table after a blank line, present only when the
/// result recorded runs.
void write_run_records_csv(const ExperimentResult& result, std::ostream& os) {
  bool has_records = false;
  for (const DensityStats& d : result.sweep)
    has_records = has_records || !d.run_records.empty();
  if (!has_records) return;

  // Packet-backend records additionally carry the per-run control-plane
  // outcome — convergence time, the honest converged flag, control bytes,
  // and the probe split; the oracle layout is pinned and keeps its form.
  const bool packet = result.spec.backend == BackendId::kPacket;
  const bool traffic = traffic_mode(result.spec);
  const bool adversary = adversary_mode(result.spec);
  os << '\n' << util::name_of(kSweepAxes, result.spec.scenario.sweep_axis)
     << ",run,nodes,protocol,set_size,delivered,value,overhead,path_hops";
  if (packet)
    os << ",convergence_time,converged,control_bytes,probes_delivered,"
          "probes_failed";
  if (traffic) os << ",traffic_offered,traffic_delivered,traffic_latency_p95";
  if (adversary) os << ",invariant_violations,poisoned_routes";
  os << '\n';
  for (const DensityStats& d : result.sweep) {
    for (const RunRecord& r : d.run_records) {
      for (std::size_t si = 0; si < r.protocols.size(); ++si) {
        const RunRecord::Protocol& rp = r.protocols[si];
        os << fmt(d.density) << ',' << r.run_index << ',' << r.nodes << ','
           << d.protocols[si].name << ',' << fmt(rp.set_size) << ','
           << (rp.delivered ? 1 : 0) << ',';
        if (rp.delivered || (packet && rp.probes_delivered > 0)) {
          os << fmt(rp.value) << ',' << fmt(rp.overhead) << ',' << rp.hops;
        } else {
          os << ",,";
        }
        if (packet) {
          os << ',' << fmt(rp.convergence_time) << ',' << (rp.converged ? 1 : 0)
             << ',' << fmt(rp.control_bytes) << ',' << rp.probes_delivered
             << ',' << rp.probes_failed;
        }
        if (traffic) {
          os << ',' << rp.traffic_offered << ',' << rp.traffic_delivered
             << ',' << fmt(rp.traffic_latency_p95);
        }
        if (adversary) {
          os << ',' << rp.invariant_violations << ',' << rp.poisoned_routes;
        }
        os << '\n';
      }
    }
  }
}

/// Long-format CSV of a packet-backend result: the oracle columns (same
/// order, so figure tooling reads either) followed by the control-plane
/// block the oracle cannot measure — per-run mean message/byte counts,
/// duplicate-set hits, and the measured convergence time.
void write_packet_csv(const ExperimentResult& result, std::ostream& os) {
  const bool faults = fault_mode(result.spec);
  const bool traffic = traffic_mode(result.spec);
  const bool adversary = adversary_mode(result.spec);
  os << static_csv_header(result.spec)
     << ",hello_msgs_mean,tc_msgs_mean,tc_forwards_mean,"
        "duplicate_drops_mean,control_bytes_mean,convergence_time_mean,"
        "convergence_time_stddev,unconverged_runs";
  if (faults)
    os << ",loss_rate,probes,delivery_ratio,no_route_drops,loop_drops,"
          "medium_drops,frames_lost_mean,frames_blocked_mean,"
          "reconvergence_time_mean,reconv_unconverged,probe_delivery_p50,"
          "probe_delivery_p95,probe_delivery_p99";
  if (traffic)
    os << ",load,offered,traffic_delivered,traffic_delivery_ratio,"
          "queue_drops,traffic_no_route_drops,traffic_loop_drops,"
          "traffic_medium_drops,latency_p50,latency_p95,latency_p99,"
          "flow_delivery_p50,flow_delivery_p95,flow_delivery_p99,"
          "throughput_p50,throughput_p95,throughput_p99";
  if (adversary)
    os << ",adversary_fraction,adversary_count,corrupt_rate,"
          "adversary_delivery_ratio,invariant_violations,forwarding_loops,"
          "blackhole_absorptions,mpr_refusals,ansn_regressions,"
          "stale_tc_rejections,phantom_links,inflated_qos,poisoned_nodes,"
          "poisoned_routes,frames_corrupted_mean,frames_malformed_mean,"
          "first_violation_mean";
  os << '\n';
  for (const DensityStats& d : result.sweep) {
    const Scenario point = result.spec.scenario.at(d.density);
    for (const ProtocolStats& p : d.protocols) {
      write_static_csv_row_prefix(result, d, p, os);
      os << ',' << fmt(p.control.hello_msgs.mean()) << ','
         << fmt(p.control.tc_msgs.mean()) << ','
         << fmt(p.control.tc_forwards.mean()) << ','
         << fmt(p.control.duplicate_drops.mean()) << ','
         << fmt(p.control.control_bytes.mean()) << ','
         << fmt(p.control.convergence_time.mean()) << ','
         << fmt(p.control.convergence_time.stddev()) << ','
         << p.control.unconverged;
      if (faults) {
        const DistributionSummary probe_delivery =
            summarize_distribution(p.probe_delivery);
        os << ',' << fmt(point.faults.loss_rate) << ','
           << point.probe_packets << ','
           << fmt(p.delivery_ratio()) << ',' << p.no_route_losses << ','
           << p.loop_losses << ',' << p.medium_losses << ','
           << fmt(p.control.frames_lost.mean()) << ','
           << fmt(p.control.frames_blocked.mean()) << ','
           << fmt(p.control.reconvergence_time.mean()) << ','
           << p.control.reconv_unconverged << ','
           << fmt(probe_delivery.p50) << ',' << fmt(probe_delivery.p95)
           << ',' << fmt(probe_delivery.p99);
      }
      if (traffic) {
        const DistributionSummary latency =
            summarize_distribution(p.traffic.latency);
        const DistributionSummary flow_delivery =
            summarize_distribution(p.traffic.flow_delivery);
        const DistributionSummary throughput =
            summarize_distribution(p.traffic.flow_throughput);
        os << ',' << fmt(point.traffic.load) << ',' << p.traffic.offered
           << ',' << p.traffic.delivered << ','
           << fmt(p.traffic.delivery_ratio()) << ','
           << p.traffic.queue_drops << ',' << p.traffic.no_route_drops
           << ',' << p.traffic.loop_drops << ',' << p.traffic.medium_drops
           << ',' << fmt(latency.p50) << ',' << fmt(latency.p95) << ','
           << fmt(latency.p99) << ',' << fmt(flow_delivery.p50) << ','
           << fmt(flow_delivery.p95) << ',' << fmt(flow_delivery.p99)
           << ',' << fmt(throughput.p50) << ',' << fmt(throughput.p95)
           << ',' << fmt(throughput.p99);
      }
      if (adversary) {
        const AdversarySpec& adv = point.adversaries;
        const InvariantCounters& c = p.invariants.counters;
        os << ',' << fmt(adv.fraction >= 0.0 ? adv.fraction : 0.0) << ','
           << adv.count << ',' << fmt(adv.corrupt_rate) << ','
           << fmt(p.delivery_ratio()) << ','
           << c.total() << ',' << c.forwarding_loops << ','
           << c.blackhole_absorptions << ',' << c.mpr_refusals << ','
           << c.ansn_regressions << ',' << c.stale_tc_rejections << ','
           << c.phantom_links << ',' << c.inflated_qos << ','
           << c.poisoned_nodes << ',' << p.invariants.poisoned_routes << ','
           << fmt(p.invariants.frames_corrupted.mean()) << ','
           << fmt(p.invariants.frames_malformed.mean()) << ','
           << fmt(p.invariants.time_to_first_violation.mean());
      }
      os << '\n';
    }
  }
  write_run_records_csv(result, os);
}

/// Whether any protocol at any sweep point carries a measured control
/// plane (packet and wire backends).
bool control_measured(const ExperimentResult& result) {
  for (const DensityStats& d : result.sweep)
    for (const ProtocolStats& p : d.protocols)
      if (p.control.measured()) return true;
  return false;
}

/// One per-protocol column of a pretty-table section: the header is the
/// protocol name plus `suffix`.
struct TableColumn {
  const char* suffix;
  std::string (*cell)(const ProtocolStats&);
};

/// One pretty-table section. `shown` gates it (nullptr: always); the axis
/// column comes first, then avg_nodes when asked, then every protocol's
/// columns in legend order.
struct TableSection {
  const char* title;
  bool (*shown)(const ExperimentResult&);
  bool avg_nodes;
  std::vector<TableColumn> columns;
};

using util::format_double;

std::string delivery_cell(const ProtocolStats& p) {
  return format_double(p.delivery_ratio(), 3);
}

/// Every section PrettyTableSink prints, in print order.
const TableSection kTableSections[] = {
    {"advertised set size (mean |ANS| per node)",
     nullptr, false,
     {{"",
       [](const ProtocolStats& p) {
         return format_double(p.set_size.mean(), 3);
       }}}},
    {"delivery ratio / hop stretch / TC re-advertisements",
     [](const ExperimentResult& r) {
       return r.spec.scenario.dynamics.enabled();
     },
     false,
     {{"_delivery", delivery_cell},
      {"_stretch",
       [](const ProtocolStats& p) {
         return format_double(p.stretch.mean(), 3);
       }},
      {"_readv",
       [](const ProtocolStats& p) {
         return format_double(p.readvertised.mean(), 1);
       }}}},
    {"QoS overhead vs. centralized optimum",
     nullptr, false,
     {{"",
       [](const ProtocolStats& p) {
         return format_double(p.overhead.mean(), 4);
       }}}},
    {"diagnostics",
     nullptr, true,
     {{"_delivered",
       [](const ProtocolStats& p) {
         return std::to_string(p.delivered) + "/" +
                std::to_string(p.delivered + p.failed);
       }},
      {"_hops",
       [](const ProtocolStats& p) {
         return format_double(p.path_hops.mean(), 2);
       }}}},
    {"graceful degradation (delivery ratio, blackhole drops, mean "
     "re-convergence seconds after injected faults)",
     [](const ExperimentResult& r) { return fault_mode(r.spec); }, false,
     {{"_delivery", delivery_cell},
      {"_blackhole",
       [](const ProtocolStats& p) {
         return std::to_string(p.no_route_losses);
       }},
      {"_reconv_s",
       [](const ProtocolStats& p) {
         return format_double(p.control.reconvergence_time.mean(), 2);
       }}}},
    {"traffic under load (flow delivery ratio, queue-tail drops, p95 "
     "end-to-end latency in ms)",
     [](const ExperimentResult& r) { return traffic_mode(r.spec); }, false,
     {{"_delivery",
       [](const ProtocolStats& p) {
         return format_double(p.traffic.delivery_ratio(), 3);
       }},
      {"_qdrops",
       [](const ProtocolStats& p) {
         return std::to_string(p.traffic.queue_drops);
       }},
      {"_p95_ms",
       [](const ProtocolStats& p) {
         const DistributionSummary latency =
             summarize_distribution(p.traffic.latency);
         return format_double(latency.p95 * 1000.0, 2);
       }}}},
    {"adversary engine (delivery ratio, invariant violations caught by the "
     "runtime monitor, poisoned routes)",
     [](const ExperimentResult& r) { return adversary_mode(r.spec); },
     false,
     {{"_delivery", delivery_cell},
      {"_violations",
       [](const ProtocolStats& p) {
         return std::to_string(p.invariants.counters.total());
       }},
      {"_poisoned",
       [](const ProtocolStats& p) {
         return std::to_string(p.invariants.poisoned_routes);
       }}}},
    {"control plane (mean per run: TC messages incl. forwards, broadcast "
     "bytes, measured convergence seconds)",
     control_measured, false,
     {{"_tcs",
       [](const ProtocolStats& p) {
         return format_double(
             p.control.tc_msgs.mean() + p.control.tc_forwards.mean(), 1);
       }},
      {"_bytes",
       [](const ProtocolStats& p) {
         return format_double(p.control.control_bytes.mean(), 0);
       }},
      {"_conv_s",
       [](const ProtocolStats& p) {
         return format_double(p.control.convergence_time.mean(), 2);
       }}}},
};

std::string render_section(const TableSection& section,
                           const ExperimentResult& result) {
  std::vector<std::string> header{
      std::string(util::name_of(kSweepAxes, result.spec.scenario.sweep_axis))};
  if (section.avg_nodes) header.push_back("avg_nodes");
  if (!result.sweep.empty())
    for (const ProtocolStats& p : result.sweep.front().protocols)
      for (const TableColumn& column : section.columns)
        header.push_back(p.name + column.suffix);
  util::Table table(std::move(header));
  for (const DensityStats& d : result.sweep) {
    std::vector<std::string> cells{fmt(d.density)};
    if (section.avg_nodes)
      cells.push_back(format_double(d.node_count.mean(), 1));
    for (const ProtocolStats& p : d.protocols)
      for (const TableColumn& column : section.columns)
        cells.push_back(column.cell(p));
    table.add_row(std::move(cells));
  }
  return table.to_string();
}

}  // namespace

void PrettyTableSink::write(const ExperimentResult& result,
                            std::ostream& os) const {
  const ExperimentSpec& spec = result.spec;
  os << "# " << spec.name << " — metric=" << metric_name(spec.metric)
     << " runs/density=" << spec.scenario.runs << " seed=" << spec.scenario.seed
     << "\n";
  if (spec.backend == BackendId::kPacket)
    os << "# backend=packet — discrete-event HELLO/TC simulation, measured "
          "from converged protocol state\n";
  if (fault_mode(spec)) {
    os << "# faults: loss="
       << (spec.scenario.sweep_axis == Scenario::SweepAxis::kLoss
               ? "<sweep axis>"
               : fmt(spec.scenario.faults.loss_rate))
       << " incidents=" << spec.scenario.faults.incidents.size()
       << " probes/run=" << spec.scenario.probe_packets << "\n";
  }
  if (traffic_mode(spec)) {
    const TrafficSpec& t = spec.scenario.traffic;
    os << "# traffic: arrival=" << util::name_of(kTrafficArrivals, t.arrival)
       << " pattern=" << util::name_of(kTrafficPatterns, t.pattern)
       << " flows=" << t.flows << " load="
       << (spec.scenario.sweep_axis == Scenario::SweepAxis::kLoad
               ? "<sweep axis>"
               : fmt(t.load))
       << "\n";
  }
  if (adversary_mode(spec)) {
    const AdversarySpec& adv = spec.scenario.adversaries;
    std::string kinds;
    for (const AdversaryKind kind : adv.kinds) {
      if (!kinds.empty()) kinds += ",";
      kinds += util::name_of(kAdversaryKinds, kind);
    }
    os << "# adversaries: roster="
       << (spec.scenario.sweep_axis == Scenario::SweepAxis::kAdversary
               ? "<sweep axis>"
               : std::to_string(adv.count))
       << " kinds=" << (kinds.empty() ? "none" : kinds)
       << " corrupt=" << fmt(adv.corrupt_rate) << "\n";
  }
  if (spec.scenario.dynamics.enabled()) {
    const DynamicsSpec& dyn = spec.scenario.dynamics;
    os << "# mobility="
       << util::name_of(kMobilityModels, dyn.model)
       << " epochs/run=" << dyn.epochs << " refresh=" << dyn.refresh_interval
       << "\n";
  }
  for (const TableSection& section : kTableSections)
    if (section.shown == nullptr || section.shown(result))
      os << "\n## " << section.title << "\n"
         << render_section(section, result);
  if (control_measured(result)) {
    std::size_t unconverged = 0;
    std::size_t reconv_unconverged = 0;
    for (const DensityStats& d : result.sweep) {
      for (const ProtocolStats& p : d.protocols) {
        unconverged += p.control.unconverged;
        reconv_unconverged += p.control.reconv_unconverged;
      }
    }
    if (unconverged > 0)
      os << "\nWARNING: " << unconverged
         << " simulation run(s) hit the hard time cap before the control "
            "plane quiesced; their measurements are from unconverged state "
            "(see the unconverged_runs column in csv/json).\n";
    if (reconv_unconverged > 0)
      os << "\nWARNING: " << reconv_unconverged
         << " post-fault re-convergence window(s) hit the hard time cap "
            "still changing; their reconvergence_time samples are lower "
            "bounds (see reconv_unconverged in csv/json).\n";
  }
  std::size_t records = 0;
  for (const DensityStats& d : result.sweep) records += d.run_records.size();
  if (records > 0)
    os << "\n(" << records
       << " per-run records recorded; use --format=csv or json to export "
          "them)\n";
}

void CsvSink::write(const ExperimentResult& result, std::ostream& os) const {
  if (result.spec.scenario.dynamics.enabled())
    return write_dynamic_csv(result, os);
  // The packet backend carries the extra control-plane columns; the oracle
  // layout is pinned byte-exact by the golden-figure tests and must not
  // move.
  if (result.spec.backend == BackendId::kPacket)
    return write_packet_csv(result, os);
  os << static_csv_header(result.spec) << '\n';
  for (const DensityStats& d : result.sweep) {
    for (const ProtocolStats& p : d.protocols) {
      write_static_csv_row_prefix(result, d, p, os);
      os << '\n';
    }
  }
  write_run_records_csv(result, os);
}

void JsonSink::write(const ExperimentResult& result, std::ostream& os) const {
  const ExperimentSpec& spec = result.spec;
  os << "{\n";
  os << "  \"name\": \"" << json_escape(spec.name) << "\",\n";
  // Only the non-default backend is echoed: pre-existing oracle documents
  // stay byte-identical.
  if (spec.backend != BackendId::kOracle)
    os << "  \"backend\": \"" << util::name_of(kBackends, spec.backend)
       << "\",\n";
  os << "  \"metric\": \"" << metric_name(spec.metric) << "\",\n";
  os << "  \"metric_kind\": \""
     << (metric_kind(spec.metric) == MetricKind::kConcave ? "concave"
                                                          : "additive")
     << "\",\n";
  os << "  \"selectors\": [";
  for (std::size_t i = 0; i < spec.selectors.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(spec.selectors[i]) << '"';
  os << "],\n";
  os << "  \"runs\": " << spec.scenario.runs << ",\n";
  os << "  \"seed\": " << spec.scenario.seed << ",\n";
  os << "  \"threads\": " << spec.threads << ",\n";
  const bool dynamic = spec.scenario.dynamics.enabled();
  const bool faults = fault_mode(spec);
  const bool traffic = traffic_mode(spec);
  const bool adversary = adversary_mode(spec);
  const std::string_view axis =
      util::name_of(kSweepAxes, spec.scenario.sweep_axis);
  if (traffic) {
    const TrafficSpec& t = spec.scenario.traffic;
    if (!faults)
      os << "  \"axis\": \"" << axis << "\",\n";
    os << "  \"traffic\": {\"arrival\": \""
       << util::name_of(kTrafficArrivals, t.arrival) << "\", \"pattern\": \""
       << util::name_of(kTrafficPatterns, t.pattern)
       << "\", \"flows\": " << t.flows
       << ", \"load\": " << fmt(t.load)
       << ", \"packet_rate\": " << fmt(t.packet_rate)
       << ", \"duration\": " << fmt(t.duration)
       << ", \"packet_bytes\": " << t.packet_bytes
       << ", \"link_capacity\": " << fmt(t.link_capacity)
       << ", \"queue_bytes\": " << t.queue_bytes << "},\n";
  }
  if (faults) {
    const FaultPlan& plan = spec.scenario.faults;
    std::size_t crashes = 0, flaps = 0, partitions = 0;
    for (const FaultIncident& incident : plan.incidents) {
      switch (incident.kind) {
        case FaultIncident::Kind::kNodeCrash: ++crashes; break;
        case FaultIncident::Kind::kLinkFlap: ++flaps; break;
        case FaultIncident::Kind::kPartition: ++partitions; break;
      }
    }
    os << "  \"axis\": \"" << axis << "\",\n";
    os << "  \"faults\": {\"loss_rate\": " << fmt(plan.loss_rate)
       << ", \"link_loss_overrides\": " << plan.link_loss.size()
       << ", \"crash_incidents\": " << crashes
       << ", \"flap_incidents\": " << flaps
       << ", \"partition_incidents\": " << partitions
       << ", \"probe_packets\": " << spec.scenario.probe_packets << "},\n";
  }
  if (adversary) {
    const AdversarySpec& adv = spec.scenario.adversaries;
    if (!faults && !traffic)
      os << "  \"axis\": \"" << axis << "\",\n";
    os << "  \"adversaries\": {\"count\": " << adv.count
       << ", \"fraction\": " << fmt(adv.fraction) << ", \"kinds\": [";
    for (std::size_t i = 0; i < adv.kinds.size(); ++i)
      os << (i ? ", " : "") << '"'
         << util::name_of(kAdversaryKinds, adv.kinds[i]) << '"';
    os << "], \"corrupt_rate\": " << fmt(adv.corrupt_rate) << "},\n";
  }
  if (dynamic) {
    const DynamicsSpec& dyn = spec.scenario.dynamics;
    os << "  \"axis\": \"" << axis << "\",\n";
    os << "  \"dynamics\": {\"model\": \""
       << util::name_of(kMobilityModels, dyn.model)
       << "\", \"epochs\": " << dyn.epochs
       << ", \"epoch_duration\": " << fmt(dyn.epoch_duration)
       << ", \"refresh_interval\": " << dyn.refresh_interval
       << ", \"speed_min\": " << fmt(dyn.speed_min)
       << ", \"speed_max\": " << fmt(dyn.speed_max)
       << ", \"pause_epochs\": " << dyn.pause_epochs
       << ", \"link_down_rate\": " << fmt(dyn.link_down_rate)
       << ", \"link_up_rate\": " << fmt(dyn.link_up_rate) << "},\n";
  }
  os << "  \"densities\": [";
  for (std::size_t di = 0; di < result.sweep.size(); ++di) {
    const DensityStats& d = result.sweep[di];
    os << (di ? "," : "") << "\n    {\n";
    os << "      \"density\": " << fmt(d.density) << ",\n";
    os << "      \"runs\": " << d.runs << ",\n";
    os << "      \"avg_nodes\": " << fmt(d.node_count.mean()) << ",\n";
    os << "      \"protocols\": [";
    for (std::size_t pi = 0; pi < d.protocols.size(); ++pi) {
      const ProtocolStats& p = d.protocols[pi];
      os << (pi ? "," : "") << "\n        {\"name\": \"" << json_escape(p.name)
         << "\", \"delivered\": " << p.delivered
         << ", \"failed\": " << p.failed
         << ",\n         \"set_size\": " << json_stats(p.set_size)
         << ",\n         \"overhead\": " << json_stats(p.overhead)
         << ",\n         \"path_hops\": " << json_stats(p.path_hops);
      if (dynamic) {
        os << ",\n         \"delivery_ratio\": " << json_num(p.delivery_ratio())
           << ", \"stale_losses\": " << p.stale_losses
           << ",\n         \"stretch\": " << json_stats(p.stretch)
           << ",\n         \"readvertised\": " << json_stats(p.readvertised);
      }
      if (faults) {
        os << ",\n         \"delivery_ratio\": " << json_num(p.delivery_ratio())
           << ", \"no_route_drops\": " << p.no_route_losses
           << ", \"loop_drops\": " << p.loop_losses
           << ", \"medium_drops\": " << p.medium_losses
           << ",\n         \"probe_delivery\": "
           << json_distribution(p.probe_delivery);
      }
      if (traffic && p.traffic.measured()) {
        os << ",\n         \"traffic\": {"
           << "\n           \"offered\": " << p.traffic.offered
           << ", \"delivered\": " << p.traffic.delivered
           << ", \"delivery_ratio\": " << json_num(p.traffic.delivery_ratio())
           << ",\n           \"queue_drops\": " << p.traffic.queue_drops
           << ", \"no_route_drops\": " << p.traffic.no_route_drops
           << ", \"loop_drops\": " << p.traffic.loop_drops
           << ", \"medium_drops\": " << p.traffic.medium_drops
           << ",\n           \"latency\": "
           << json_distribution(p.traffic.latency)
           << ",\n           \"flow_delivery\": "
           << json_distribution(p.traffic.flow_delivery)
           << ",\n           \"flow_throughput\": "
           << json_distribution(p.traffic.flow_throughput) << "}";
      }
      if (adversary) {
        const InvariantCounters& c = p.invariants.counters;
        os << ",\n         \"invariants\": {"
           << "\n           \"total\": " << c.total()
           << ", \"forwarding_loops\": " << c.forwarding_loops
           << ", \"blackhole_absorptions\": " << c.blackhole_absorptions
           << ", \"mpr_refusals\": " << c.mpr_refusals
           << ",\n           \"ansn_regressions\": " << c.ansn_regressions
           << ", \"stale_tc_rejections\": " << c.stale_tc_rejections
           << ", \"phantom_links\": " << c.phantom_links
           << ", \"inflated_qos\": " << c.inflated_qos
           << ", \"poisoned_nodes\": " << c.poisoned_nodes
           << ",\n           \"poisoned_routes\": "
           << p.invariants.poisoned_routes
           << ",\n           \"frames_corrupted\": "
           << json_stats(p.invariants.frames_corrupted)
           << ",\n           \"frames_malformed\": "
           << json_stats(p.invariants.frames_malformed)
           << ",\n           \"time_to_first_violation\": "
           << json_stats(p.invariants.time_to_first_violation) << "}";
      }
      if (p.control.measured()) {
        os << ",\n         \"control_plane\": {"
           << "\n           \"hello_msgs\": " << json_stats(p.control.hello_msgs)
           << ",\n           \"tc_msgs\": " << json_stats(p.control.tc_msgs)
           << ",\n           \"tc_forwards\": "
           << json_stats(p.control.tc_forwards)
           << ",\n           \"duplicate_drops\": "
           << json_stats(p.control.duplicate_drops)
           << ",\n           \"control_bytes\": "
           << json_stats(p.control.control_bytes)
           << ",\n           \"convergence_time\": "
           << json_stats(p.control.convergence_time)
           << ",\n           \"unconverged_runs\": " << p.control.unconverged;
        if (faults) {
          os << ",\n           \"frames_lost\": "
             << json_stats(p.control.frames_lost)
             << ",\n           \"frames_blocked\": "
             << json_stats(p.control.frames_blocked)
             << ",\n           \"reconvergence_time\": "
             << json_stats(p.control.reconvergence_time)
             << ",\n           \"reconv_unconverged\": "
             << p.control.reconv_unconverged;
        }
        os << "}";
      }
      os << "}";
    }
    os << "\n      ]";
    if (!d.run_records.empty()) {
      os << ",\n      \"run_records\": [";
      for (std::size_t ri = 0; ri < d.run_records.size(); ++ri) {
        const RunRecord& r = d.run_records[ri];
        os << (ri ? "," : "") << "\n        {\"run\": " << r.run_index
           << ", \"nodes\": " << r.nodes << ", \"protocols\": [";
        for (std::size_t si = 0; si < r.protocols.size(); ++si) {
          const RunRecord::Protocol& rp = r.protocols[si];
          os << (si ? ", " : "") << "{\"set_size\": " << fmt(rp.set_size)
             << ", \"delivered\": " << (rp.delivered ? "true" : "false");
          if (rp.delivered || rp.probes_delivered > 0)
            os << ", \"value\": " << json_num(rp.value)
               << ", \"overhead\": " << json_num(rp.overhead)
               << ", \"hops\": " << rp.hops;
          if (spec.backend == BackendId::kPacket)
            os << ", \"convergence_time\": " << json_num(rp.convergence_time)
               << ", \"converged\": " << (rp.converged ? "true" : "false")
               << ", \"control_bytes\": " << fmt(rp.control_bytes)
               << ", \"probes_delivered\": " << rp.probes_delivered
               << ", \"probes_failed\": " << rp.probes_failed;
          if (traffic)
            os << ", \"traffic_offered\": " << rp.traffic_offered
               << ", \"traffic_delivered\": " << rp.traffic_delivered
               << ", \"traffic_latency_p95\": "
               << json_num(rp.traffic_latency_p95);
          if (adversary)
            os << ", \"invariant_violations\": " << rp.invariant_violations
               << ", \"poisoned_routes\": " << rp.poisoned_routes;
          os << "}";
        }
        os << "]}";
      }
      os << "\n      ]";
    }
    os << "\n    }";
  }
  os << "\n  ]\n}\n";
}

std::unique_ptr<ResultSink> make_result_sink(std::string_view format) {
  if (format == "table") return std::make_unique<PrettyTableSink>();
  if (format == "csv") return std::make_unique<CsvSink>();
  if (format == "json") return std::make_unique<JsonSink>();
  throw ExperimentError("unknown output format '" + std::string(format) +
                        "' (known: table csv json)");
}

}  // namespace qolsr
