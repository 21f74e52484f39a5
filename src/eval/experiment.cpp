#include "eval/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "eval/backend.hpp"
#include "eval/dynamic_runner.hpp"
#include "eval/packet_runner.hpp"
#include "eval/wire_runner.hpp"

namespace qolsr {

namespace {

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> parts;
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view part = text.substr(0, comma);
    if (!part.empty()) parts.emplace_back(part);
    if (comma == std::string_view::npos) break;
    text.remove_prefix(comma + 1);
  }
  return parts;
}

double parse_double(std::string_view flag, std::string_view text) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw ExperimentError("flag " + std::string(flag) + ": '" +
                          std::string(text) + "' is not a number");
  return value;
}

std::uint64_t parse_uint(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw ExperimentError("flag " + std::string(flag) + ": '" +
                          std::string(text) + "' is not a non-negative integer");
  return value;
}

/// An enum flag's value, looked up in its name table; the error lists the
/// table's names.
template <typename E, std::size_t N>
E parse_choice(std::string_view flag, std::string_view value,
               const util::Named<E> (&table)[N]) {
  if (const std::optional<E> parsed = util::value_of(table, value))
    return *parsed;
  throw ExperimentError("flag " + std::string(flag) + ": expected " +
                        util::names_of(table) + ", got '" +
                        std::string(value) + "'");
}

/// Half of a 32-bit id space: the most nodes a deployment may expect
/// (NodeId reserves its top values for kInvalidNode and kRouteNotCached)
/// and the most data packets a run may expect (payload ids count up from
/// TrafficMatrix::kFirstPayloadId and must not wrap).
constexpr double kHalfIdSpace = 2147483648.0;

/// Every failure of a spec names the experiment it came from.
[[noreturn]] void reject(const ExperimentSpec& spec, const std::string& why) {
  throw ExperimentError("experiment '" + spec.name + "': " + why);
}

}  // namespace

ResolvedProtocols resolve_protocols(const ExperimentSpec& spec,
                                    const SelectorRegistry& registry) {
  ResolvedProtocols protocols;
  protocols.owned.reserve(2 * spec.selectors.size());
  protocols.ans.reserve(spec.selectors.size());
  try {
    for (const std::string& name : spec.selectors) {
      protocols.owned.push_back(registry.create(name, spec.metric));
      protocols.ans.push_back(protocols.owned.back().get());
    }
    // Backends that flood real packets (in-process or across processes)
    // also need each protocol's TC-flooding role; the oracle does not.
    if (spec.backend != BackendId::kOracle) {
      protocols.flooding.reserve(spec.selectors.size());
      for (const std::string& name : spec.selectors) {
        protocols.owned.push_back(
            registry.create_flooding(name, spec.metric));
        protocols.flooding.push_back(protocols.owned.back().get());
      }
    }
  } catch (const std::invalid_argument& e) {
    reject(spec, e.what());
  }
  return protocols;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const SelectorRegistry& registry) {
  if (spec.selectors.empty()) reject(spec, "no selectors named");
  if (spec.scenario.densities.empty()) reject(spec, "no densities to sweep");
  if (spec.scenario.runs == 0) reject(spec, "runs must be > 0");
  // The deployment sampler trusts its geometry: a field or radius that is
  // not finite and positive overflows its cell grid or asks for an
  // unbounded node count, and a NaN intensity never ends a Poisson draw.
  const DeploymentConfig& geometry = spec.scenario.field;
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!positive(geometry.width) || !positive(geometry.height) ||
      !positive(geometry.radius))
    reject(spec, "--field and --radius must be finite and > 0");
  if (!std::isfinite(geometry.degree)) reject(spec, "--degree must be finite");
  // The deployment expecting the most nodes: --degree's, or on the density
  // axis the largest sweep value's.
  DeploymentConfig largest = geometry;
  for (const double value : spec.scenario.densities) {
    if (!std::isfinite(value)) reject(spec, "--densities must be finite");
    if (spec.scenario.sweep_axis == Scenario::SweepAxis::kDensity)
      largest.degree = std::max(largest.degree, value);
  }
  if (largest.expected_nodes() > kHalfIdSpace)
    reject(spec, std::string(largest.degree > geometry.degree ? "--densities"
                                                              : "--degree") +
                     " expects more than 2^31 nodes per deployment");
  // Link weights are drawn uniformly from each interval: a negative bound
  // yields negative QoS, lo > hi an empty range, a non-finite bound an
  // undefined integer cast.
  const QosIntervals& qos = spec.scenario.qos;
  for (const auto& [lo, hi] : {std::pair{qos.bandwidth_lo, qos.bandwidth_hi},
                               std::pair{qos.delay_lo, qos.delay_hi},
                               std::pair{qos.jitter_lo, qos.jitter_hi},
                               std::pair{qos.loss_lo, qos.loss_hi},
                               std::pair{qos.energy_lo, qos.energy_hi},
                               std::pair{qos.buffers_lo, qos.buffers_hi}})
    if (!std::isfinite(lo) || !std::isfinite(hi) || lo < 0.0 || hi < lo)
      reject(spec,
             "QoS intervals need finite bounds with 0 <= lo <= hi (--qos-hi)");
  const auto is_probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  const FaultPlan& faults = spec.scenario.faults;
  if (!is_probability(faults.loss_rate))
    reject(spec, "--loss is a frame-loss probability in [0, 1]");
  for (const LinkLossSpec& link : faults.link_loss)
    if (!is_probability(link.rate))
      reject(spec, "per-link loss rates live in [0, 1]");
  for (const FaultIncident& incident : faults.incidents)
    if (incident.count == 0) reject(spec, "fault incidents need count >= 1");
  // Probe ids count up from 1 and must stay below the traffic phase's.
  if (spec.scenario.probe_packets == 0 ||
      spec.scenario.probe_packets >= TrafficMatrix::kFirstPayloadId)
    reject(spec, "--probes must be >= 1 and < 2^24");
  if (spec.scenario.sweep_axis == Scenario::SweepAxis::kLoss) {
    if (spec.backend != BackendId::kPacket)
      reject(spec,
             "the loss axis needs --backend=packet (the oracle has no frames "
             "to lose)");
    for (const double rate : spec.scenario.densities)
      if (!is_probability(rate))
        reject(spec, "loss sweep values are probabilities in [0, 1]");
  } else if (faults.active() && spec.backend != BackendId::kPacket) {
    reject(spec,
           "fault injection (--loss/--crash/--flap/--partition) needs "
           "--backend=packet");
  }
  if (spec.scenario.probe_packets != 1 && spec.backend != BackendId::kPacket)
    reject(spec, "--probes is a packet-backend knob");
  if (spec.wire_scale != 0.02 && spec.backend != BackendId::kWire)
    reject(spec, "--wire-scale is a wire-backend knob");
  if (spec.backend == BackendId::kWire &&
      (spec.wire_scale <= 0.0 || spec.wire_scale > 1.0))
    reject(spec, "--wire-scale is a timing compression factor in (0, 1]");
  const TrafficSpec& traffic = spec.scenario.traffic;
  if (traffic.arrival != TrafficSpec::Arrival::kNone &&
      spec.backend != BackendId::kPacket)
    reject(spec,
           "traffic workloads (--traffic/--flows/--load/--pattern) need "
           "--backend=packet (the oracle has no medium to load)");
  if (traffic.arrival != TrafficSpec::Arrival::kNone) {
    if (!std::isfinite(traffic.load) || traffic.load < 0.0)
      reject(spec, "--load must be finite and >= 0 (0 = no traffic)");
    if (!positive(traffic.packet_rate))
      reject(spec, "--traffic-rate must be finite and > 0 packets/s");
    if (!positive(traffic.duration))
      reject(spec, "--traffic-duration must be finite and > 0 seconds");
    if (!positive(traffic.link_capacity))
      reject(spec, "--capacity must be finite and > 0 bytes/s");
    if (traffic.queue_bytes == 0) reject(spec, "--queue-bytes must be > 0");
    if (traffic.arrival == TrafficSpec::Arrival::kPareto &&
        !(std::isfinite(traffic.pareto_shape) && traffic.pareto_shape > 1.0))
      reject(spec,
             "--pareto-shape must be finite and > 1 (the mean inter-arrival "
             "must exist)");
    if (traffic.pattern == TrafficSpec::Pattern::kHotspot &&
        traffic.hotspots == 0)
      reject(spec, "--hotspots must be >= 1");
    // The generator materializes every packet of a run up front, and each
    // flow sends one packet more than its rate alone makes: a Poisson or
    // Pareto flow's first at offset 0, a CBR flow's at its phase.
    const double load =
        spec.scenario.sweep_axis == Scenario::SweepAxis::kLoad
            ? *std::max_element(spec.scenario.densities.begin(),
                                spec.scenario.densities.end())
            : traffic.load;
    if (static_cast<double>(traffic.flows) *
            (1.0 + traffic.packet_rate * load * traffic.duration) >
        kHalfIdSpace)
      reject(spec,
             "--flows x (1 + --traffic-rate x --load x --traffic-duration) "
             "expects more than 2^31 packets per run");
  }
  if (spec.scenario.sweep_axis == Scenario::SweepAxis::kLoad) {
    if (spec.backend != BackendId::kPacket)
      reject(spec, "the load axis needs --backend=packet");
    if (traffic.arrival == TrafficSpec::Arrival::kNone)
      reject(spec,
             "the load axis needs a traffic process "
             "(--traffic=poisson|cbr|pareto)");
    for (const double load : spec.scenario.densities)
      if (load < 0.0) reject(spec, "load sweep values must be >= 0");
  }
  const AdversarySpec& adversaries = spec.scenario.adversaries;
  if (!is_probability(adversaries.corrupt_rate))
    reject(spec, "--corrupt is a per-frame corruption probability in [0, 1]");
  if (adversaries.count > 0 && adversaries.kinds.empty())
    reject(spec,
           "--adversaries=K@kind[,kind...] needs at least one kind when K > 0 "
           "(known: " + util::names_of(kAdversaryKinds) + ")");
  if (spec.scenario.sweep_axis == Scenario::SweepAxis::kAdversary) {
    if (spec.backend != BackendId::kPacket)
      reject(spec,
             "the adversary axis needs --backend=packet (the oracle has no "
             "nodes to subvert)");
    if (adversaries.kinds.empty())
      reject(spec,
             "the adversary axis needs roster kinds "
             "(--adversaries=K@kind[,kind...])");
    for (const double fraction : spec.scenario.densities)
      if (!is_probability(fraction))
        reject(spec, "adversary sweep values are roster fractions in [0, 1]");
  } else if (adversaries.active() && spec.backend != BackendId::kPacket) {
    reject(spec,
           "the adversary engine (--adversaries/--corrupt) needs "
           "--backend=packet");
  }
  const DynamicsSpec& dynamics = spec.scenario.dynamics;
  if (spec.scenario.sweep_axis == Scenario::SweepAxis::kSpeed) {
    if (dynamics.model != DynamicsSpec::Model::kWaypoint)
      reject(spec, "the speed axis needs --mobility=waypoint");
    // Sweep values become the per-point waypoint speed, bypassing the
    // speed_min/speed_max checks below — a negative speed would walk
    // nodes out of the field to negative coordinates.
    for (const double speed : spec.scenario.densities)
      if (speed < 0.0) reject(spec, "speed sweep values must be >= 0 m/s");
  }
  if (dynamics.enabled()) {
    if (dynamics.epochs == 0)
      reject(spec, "epochs must be > 0 under a mobility model");
    if (dynamics.refresh_interval == 0)
      reject(spec, "refresh interval must be > 0 (1 = refresh every epoch)");
    if (dynamics.epoch_duration <= 0.0)
      reject(spec, "epoch duration must be > 0");
    if (dynamics.speed_min < 0.0 || dynamics.speed_max < dynamics.speed_min)
      reject(spec,
             "waypoint speeds must satisfy 0 <= min <= max (--speed=LO:HI)");
    if (!is_probability(dynamics.link_down_rate) ||
        !is_probability(dynamics.link_up_rate))
      reject(spec, "churn rates are per-epoch probabilities in [0, 1]");
    if (spec.per_run || spec.scenario.record_runs)
      reject(spec,
             "per-run records are a static-sweep feature (drop --per-run or "
             "--mobility)");
  }

  // Selectors are resolved from the registry exactly once and shared by
  // whichever backend executes the sweep (and by its worker threads).
  const ResolvedProtocols protocols = resolve_protocols(spec, registry);

  if (spec.backend == BackendId::kPacket) {
    if (dynamics.enabled())
      reject(spec,
             "the packet backend does not run mobility epochs yet (ROADMAP "
             "open item) - drop --mobility or use --backend=oracle");
    if (spec.scenario.routing_model == Scenario::RoutingModel::kAnsChain)
      reject(spec,
             "the packet backend's nodes route hop-by-hop on their own "
             "knowledge (the advertised-union model); --routing=chain is an "
             "oracle-only discipline");
  }
  if (spec.backend == BackendId::kWire) {
    if (dynamics.enabled())
      reject(spec,
             "the wire backend runs static deployments only - drop "
             "--mobility or use --backend=oracle");
    if (spec.scenario.sweep_axis != Scenario::SweepAxis::kDensity)
      reject(spec,
             "the wire backend sweeps density only (loss/load/adversary axes "
             "live on --backend=packet)");
    if (spec.per_run || spec.scenario.record_runs)
      reject(spec, "the wire backend reports aggregates only (drop --per-run)");
    // Every node of every run is a real OS process, and the fleets in
    // flight share net::kWireProcessBudget. Refuse deployments whose
    // expected size alone exceeds it: their fleets would each run alone
    // over budget (see net::admits_fleet) instead of overlapping.
    DeploymentConfig field = spec.scenario.field;
    for (const double density : spec.scenario.densities) {
      field.degree = density;
      if (field.expected_nodes() >
          static_cast<double>(net::kWireProcessBudget))
        reject(spec,
               "density " + std::to_string(density) + " expects ~" +
                   std::to_string(static_cast<long>(field.expected_nodes())) +
                   " nodes per deployment - every node is a real process; "
                   "shrink --field (e.g. 250x250) to keep each wire fleet "
                   "within the " +
                   std::to_string(net::kWireProcessBudget) +
                   "-process budget");
    }
  }

  ExperimentSpec executed = spec;
  executed.scenario.record_runs =
      executed.scenario.record_runs || executed.per_run;

  ExperimentResult result;
  result.spec = spec;
  try {
    result.sweep = dispatch_metric(spec.metric, [&](auto tag) {
      using M = typename decltype(tag)::type;
      const Scenario& scenario = executed.scenario;
      switch (spec.backend) {
        case BackendId::kPacket:
          return run_packet_sweep<M>(scenario, protocols, spec.threads);
        case BackendId::kWire:
          return run_wire_sweep<M>(executed, protocols);
        case BackendId::kOracle:
          break;
      }
      return dynamics.enabled()
                 ? run_dynamic_sweep<M>(scenario, protocols.ans, spec.threads)
                 : run_sweep<M>(scenario, protocols.ans, spec.threads);
    });
  } catch (const ExperimentError&) {
    throw;
  } catch (const std::exception& e) {
    reject(spec, e.what());
  }
  return result;
}

ExperimentSpec parse_experiment_spec(const std::vector<std::string>& args,
                                     ExperimentSpec base) {
  ExperimentSpec spec = std::move(base);
  for (const std::string& arg : args) {
    const std::string_view view = arg;
    const std::size_t eq = view.find('=');
    const std::string_view flag = view.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : view.substr(eq + 1);
    // Valueless switches reject an attached value: silently discarding it
    // would turn "--per-run=false" into an enable.
    const auto require_no_value = [&] {
      if (eq != std::string_view::npos)
        throw ExperimentError("flag " + std::string(flag) +
                              " takes no value (got '" + std::string(value) +
                              "')");
    };

    if (flag == "--name") {
      spec.name = value;
    } else if (flag == "--backend") {
      spec.backend = parse_choice(flag, value, kBackends);
    } else if (flag == "--metric") {
      const auto id = parse_metric_id(value);
      if (!id) {
        std::string known;
        for (MetricId m : kAllMetricIds)
          known += (known.empty() ? "" : " ") + std::string(metric_name(m));
        throw ExperimentError("flag --metric: unknown metric '" +
                              std::string(value) + "' (known: " + known + ")");
      }
      spec.metric = *id;
    } else if (flag == "--selectors") {
      spec.selectors = split_list(value);
    } else if (flag == "--densities") {
      spec.scenario.densities.clear();
      for (const std::string& d : split_list(value))
        spec.scenario.densities.push_back(parse_double(flag, d));
    } else if (flag == "--runs") {
      spec.scenario.runs = parse_uint(flag, value);
    } else if (flag == "--seed") {
      spec.scenario.seed = parse_uint(flag, value);
    } else if (flag == "--threads") {
      spec.threads = static_cast<unsigned>(parse_uint(flag, value));
    } else if (flag == "--wire-scale") {
      spec.wire_scale = parse_double(flag, value);
    } else if (flag == "--field") {
      const std::size_t x = value.find('x');
      if (x == std::string_view::npos)
        throw ExperimentError("flag --field: expected WIDTHxHEIGHT, got '" +
                              std::string(value) + "'");
      spec.scenario.field.width = parse_double(flag, value.substr(0, x));
      spec.scenario.field.height = parse_double(flag, value.substr(x + 1));
    } else if (flag == "--radius") {
      spec.scenario.field.radius = parse_double(flag, value);
    } else if (flag == "--degree") {
      // Only meaningful when the sweep axis is not density (speed sweeps
      // hold the density fixed at this value).
      spec.scenario.field.degree = parse_double(flag, value);
    } else if (flag == "--qos-hi") {
      // Magnitude-style intervals only; jitter (0..1) and loss (0..0.2)
      // are probability-shaped and keep their form.
      const double hi = parse_double(flag, value);
      spec.scenario.qos.bandwidth_hi = hi;
      spec.scenario.qos.delay_hi = hi;
      spec.scenario.qos.energy_hi = hi;
      spec.scenario.qos.buffers_hi = hi;
    } else if (flag == "--continuous-qos") {
      require_no_value();
      spec.scenario.qos.integral = false;
    } else if (flag == "--routing") {
      spec.scenario.routing_model = parse_choice(flag, value, kRoutingModels);
    } else if (flag == "--hop-by-hop") {
      require_no_value();
      spec.scenario.hop_by_hop = true;
    } else if (flag == "--pairs") {
      spec.scenario.pair_mode = parse_choice(flag, value, kPairModes);
    } else if (flag == "--max-resamples") {
      spec.scenario.max_topology_resamples = parse_uint(flag, value);
    } else if (flag == "--mobility") {
      spec.scenario.dynamics.model = parse_choice(flag, value, kMobilityModels);
    } else if (flag == "--epochs") {
      spec.scenario.dynamics.epochs = parse_uint(flag, value);
    } else if (flag == "--epoch-duration") {
      spec.scenario.dynamics.epoch_duration = parse_double(flag, value);
    } else if (flag == "--speed") {
      // One value (fixed speed) or LO:HI (per-leg uniform draw).
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos) {
        const double v = parse_double(flag, value);
        spec.scenario.dynamics.speed_min = v;
        spec.scenario.dynamics.speed_max = v;
      } else {
        spec.scenario.dynamics.speed_min =
            parse_double(flag, value.substr(0, colon));
        spec.scenario.dynamics.speed_max =
            parse_double(flag, value.substr(colon + 1));
      }
    } else if (flag == "--pause") {
      spec.scenario.dynamics.pause_epochs = parse_uint(flag, value);
    } else if (flag == "--churn-down") {
      spec.scenario.dynamics.link_down_rate = parse_double(flag, value);
    } else if (flag == "--churn-up") {
      spec.scenario.dynamics.link_up_rate = parse_double(flag, value);
    } else if (flag == "--refresh") {
      spec.scenario.dynamics.refresh_interval = parse_uint(flag, value);
    } else if (flag == "--axis") {
      spec.scenario.sweep_axis = parse_choice(flag, value, kSweepAxes);
    } else if (flag == "--loss") {
      spec.scenario.faults.loss_rate = parse_double(flag, value);
    } else if (flag == "--probes") {
      spec.scenario.probe_packets = parse_uint(flag, value);
    } else if (flag == "--crash" || flag == "--flap") {
      // K victims, optionally K@DURATION (seconds until restart / link-up;
      // 0 = permanent).
      FaultIncident incident;
      incident.kind = flag == "--crash" ? FaultIncident::Kind::kNodeCrash
                                        : FaultIncident::Kind::kLinkFlap;
      incident.duration = flag == "--crash" ? 10.0 : 5.0;
      const std::size_t at = value.find('@');
      incident.count = parse_uint(flag, value.substr(0, at));
      if (at != std::string_view::npos)
        incident.duration = parse_double(flag, value.substr(at + 1));
      spec.scenario.faults.incidents.push_back(incident);
    } else if (flag == "--partition") {
      FaultIncident incident;
      incident.kind = FaultIncident::Kind::kPartition;
      incident.duration = parse_double(flag, value);
      spec.scenario.faults.incidents.push_back(incident);
    } else if (flag == "--adversaries") {
      // K victims, optionally K@kind[,kind...] (round-robin roster roles).
      AdversarySpec& adv = spec.scenario.adversaries;
      const std::size_t at = value.find('@');
      adv.count = parse_uint(flag, value.substr(0, at));
      adv.kinds.clear();
      if (at != std::string_view::npos)
        for (const std::string& kind : split_list(value.substr(at + 1)))
          adv.kinds.push_back(parse_choice(flag, kind, kAdversaryKinds));
    } else if (flag == "--corrupt") {
      spec.scenario.adversaries.corrupt_rate = parse_double(flag, value);
    } else if (flag == "--traffic") {
      spec.scenario.traffic.arrival =
          parse_choice(flag, value, kTrafficArrivals);
    } else if (flag == "--pattern") {
      spec.scenario.traffic.pattern =
          parse_choice(flag, value, kTrafficPatterns);
    } else if (flag == "--flows") {
      spec.scenario.traffic.flows = parse_uint(flag, value);
    } else if (flag == "--load") {
      spec.scenario.traffic.load = parse_double(flag, value);
    } else if (flag == "--traffic-rate") {
      spec.scenario.traffic.packet_rate = parse_double(flag, value);
    } else if (flag == "--traffic-duration") {
      spec.scenario.traffic.duration = parse_double(flag, value);
    } else if (flag == "--pareto-shape") {
      spec.scenario.traffic.pareto_shape = parse_double(flag, value);
    } else if (flag == "--packet-bytes") {
      spec.scenario.traffic.packet_bytes = parse_uint(flag, value);
    } else if (flag == "--capacity") {
      spec.scenario.traffic.link_capacity = parse_double(flag, value);
    } else if (flag == "--queue-bytes") {
      spec.scenario.traffic.queue_bytes = parse_uint(flag, value);
    } else if (flag == "--hotspots") {
      spec.scenario.traffic.hotspots = parse_uint(flag, value);
    } else if (flag == "--format") {
      spec.format = value;
    } else if (flag == "--output") {
      spec.output_path = value;
    } else if (flag == "--per-run") {
      require_no_value();
      spec.per_run = true;
    } else {
      throw ExperimentError("unknown flag '" + std::string(flag) +
                            "' (see --help)");
    }
  }
  return spec;
}

std::string experiment_flags_help() {
  return
      "  --name=S              experiment name (labels the output)\n"
      "  --backend=B           oracle|packet|wire: analytic oracle sweeps\n"
      "                        (the default; Figs. 6-9 reference), per-run\n"
      "                        discrete-event HELLO/TC simulation measured\n"
      "                        from converged protocol state (with\n"
      "                        control-plane cost: messages, bytes,\n"
      "                        duplicate drops, convergence time), or real\n"
      "                        multi-process runs over the software switch,\n"
      "                        digest-verified against an in-process twin\n"
      "  --wire-scale=F        wire backend: timing compression factor in\n"
      "                        (0, 1] applied to both the daemons and the\n"
      "                        comparison simulator (default 0.02)\n"
      "  --metric=NAME         bandwidth|delay|jitter|loss|energy|buffers\n"
      "  --selectors=A,B,...   protocols, column order (see --list-selectors)\n"
      "  --densities=D1,D2,... mean-degree sweep points\n"
      "  --runs=N              runs per density (default 100)\n"
      "  --seed=S              base RNG seed (default 42)\n"
      "  --threads=T           worker threads; 0 = hardware concurrency\n"
      "  --field=WxH           deployment field size (default 1000x1000)\n"
      "  --radius=R            unit-disk link radius (default 100)\n"
      "  --degree=D            fixed mean degree for non-density sweep axes\n"
      "  --qos-hi=V            upper bound of the magnitude-style QoS\n"
      "                        intervals (bandwidth, delay, energy, buffers;\n"
      "                        jitter and loss keep their 0..1 / 0..0.2 form)\n"
      "  --continuous-qos      real-valued link weights (default: integers)\n"
      "  --routing=union|chain advertised-union vs. strict ANS-chain routing\n"
      "  --hop-by-hop          hop-by-hop forwarding (default: source routing)\n"
      "  --pairs=two_hop|any   destination draw: N2(u) vs. whole component\n"
      "  --max-resamples=N     degenerate-deployment resample cap\n"
      "  --mobility=MODEL      none|waypoint|churn: evolve each topology\n"
      "                        over discrete epochs instead of one static\n"
      "                        snapshot (delivery ratio, stretch, stale\n"
      "                        losses, re-advertisement overhead)\n"
      "  --epochs=N            measured epochs per run (default 50)\n"
      "  --epoch-duration=S    seconds of movement per epoch (default 1)\n"
      "  --speed=V|LO:HI       waypoint node speed, m/s (default 1:10)\n"
      "  --pause=N             waypoint pause epochs (default 0)\n"
      "  --churn-down=P        per-epoch P(live link fails) (default 0.05)\n"
      "  --churn-up=P          per-epoch P(failed link recovers) (0.25)\n"
      "  --refresh=N           epochs between TC refreshes; routing runs on\n"
      "                        the last refresh's advertised state (def. 1)\n"
      "  --axis=density|speed|loss|load|adversary\n"
      "                        meaning of the sweep values: mean degree,\n"
      "                        waypoint speed (fixes density at the --degree\n"
      "                        value; needs --mobility=waypoint), ambient\n"
      "                        frame-loss probability (fixes density; needs\n"
      "                        --backend=packet — the figure R sweep),\n"
      "                        offered-load multiplier (fixes density; needs\n"
      "                        --backend=packet and --traffic — figure L),\n"
      "                        or adversary roster fraction (fixes density;\n"
      "                        needs --backend=packet and --adversaries —\n"
      "                        figure B)\n"
      "  --loss=P              ambient Bernoulli frame-loss probability of\n"
      "                        the packet backend's medium (default 0)\n"
      "  --probes=N            data probes routed per run/protocol pair\n"
      "                        (default 1; more resolves per-run delivery\n"
      "                        ratio under loss)\n"
      "  --crash=K[@D]         schedule a crash of K random nodes, restart\n"
      "                        after D seconds (default 10; 0 = permanent);\n"
      "                        injected after measurement, re-convergence is\n"
      "                        timed (repeatable)\n"
      "  --flap=K[@D]          schedule K random links down for D seconds\n"
      "                        (default 5; 0 = permanent) (repeatable)\n"
      "  --partition=D         schedule an id-halves network partition that\n"
      "                        heals after D seconds (0 = permanent)\n"
      "  --adversaries=K@kind[,kind...]\n"
      "                        subvert K random nodes per run (packet\n"
      "                        backend): blackhole|liar|replayer|selfish,\n"
      "                        roles assigned round-robin; the runtime\n"
      "                        invariant monitor counts the protocol\n"
      "                        violations they cause (under --axis=adversary\n"
      "                        the sweep value is the roster *fraction*)\n"
      "  --corrupt=P           per-delivered-frame wire bit-flip probability\n"
      "                        (packet backend; flipped frames still arrive\n"
      "                        and the hardened parser rejects what no\n"
      "                        longer parses)\n"
      "  --traffic=PROC        none|poisson|cbr|pareto: schedule concurrent\n"
      "                        data flows after the probe phase, contending\n"
      "                        for per-link capacity; per-flow delivery,\n"
      "                        latency and throughput distributions are\n"
      "                        reported (packet backend)\n"
      "  --pattern=P           uniform|hotspot|gateway flow endpoints\n"
      "  --flows=N             concurrent flows (default 16)\n"
      "  --load=X              offered-load multiplier (default 1; 0 = no\n"
      "                        traffic; the load-axis sweep value)\n"
      "  --traffic-rate=R      packets/s per flow at load 1 (default 20)\n"
      "  --traffic-duration=S  seconds of traffic per run (default 10)\n"
      "  --pareto-shape=A      Pareto tail shape, > 1 (default 1.5)\n"
      "  --packet-bytes=N      modeled payload bytes per data packet (512)\n"
      "  --capacity=C          link capacity in bytes/s per unit bandwidth\n"
      "                        QoS (default 20000)\n"
      "  --queue-bytes=N       per-link FIFO queue bound, bytes (16384)\n"
      "  --hotspots=N          hot destinations for --pattern=hotspot (2)\n"
      "  --format=F            table|csv|json (default table)\n"
      "  --output=PATH         write results to PATH instead of stdout\n"
      "  --per-run             also record and emit per-run records\n";
}

}  // namespace qolsr
