#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/deployment.hpp"
#include "sim/adversary.hpp"
#include "sim/fault_plan.hpp"
#include "sim/traffic.hpp"
#include "util/names.hpp"

namespace qolsr {

/// The dynamic-topology axis of a scenario: a mobility/churn model evolves
/// each sampled deployment over discrete epochs, the per-epoch link delta
/// drives incremental selection maintenance (only dirty nodes re-select —
/// src/olsr/incremental.hpp), and routing runs on *advertised state that
/// refreshes only every `refresh_interval` epochs*, so the measured
/// delivery ratio / stretch / stale losses quantify what topology change
/// costs between TC refreshes. `model == kNone` (the default) keeps the
/// static one-shot evaluation byte-identical to before this block existed.
struct DynamicsSpec {
  enum class Model {
    kNone,      ///< static evaluation (the paper's Figs. 6-9 mode)
    kWaypoint,  ///< random waypoint motion + unit-disk relinking
    kChurn,     ///< link up/down churn without motion
  };
  Model model = Model::kNone;
  /// Measured epochs per run (epoch 0 — deployment + full initial
  /// selection + first advertisement — is setup, not measurement).
  std::size_t epochs = 50;
  /// Seconds of movement per epoch; one epoch models one HELLO period, so
  /// node-local selection reacts every epoch while the advertised state
  /// lags (below).
  double epoch_duration = 1.0;
  // -- waypoint knobs --
  double speed_min = 1.0;        ///< m/s, per-leg uniform draw
  double speed_max = 10.0;       ///< m/s (the speed axis overrides both)
  std::size_t pause_epochs = 0;  ///< epochs parked at each waypoint
  // -- churn knobs --
  double link_down_rate = 0.05;  ///< per-epoch P(live link fails)
  double link_up_rate = 0.25;    ///< per-epoch P(failed link recovers)
  /// Epochs between TC refreshes: selection tracks the topology every
  /// epoch, but routing uses the ANS tables advertised at the last
  /// refresh. 1 = fresh every epoch (no lag); 5 models OLSR's default
  /// TC_INTERVAL / HELLO_INTERVAL ratio.
  std::size_t refresh_interval = 1;

  bool enabled() const { return model != Model::kNone; }
};

/// One evaluation sweep, mirroring the paper's §IV-A settings: nodes in a
/// 1000×1000 field, R = 100, Poisson deployment of mean degree δ, link
/// weights uniform in a fixed interval, 100 runs per density with one
/// random (source, destination) pair per run shared by all protocols.
struct Scenario {
  DeploymentConfig field{};          ///< degree is overridden per sweep point
  std::vector<double> densities;     ///< δ values (x-axis of Figs. 6–9)
  std::size_t runs = 100;
  std::uint64_t seed = 42;
  /// Integer weights 1..5 by default: the paper's worked examples use
  /// small integers, and the resulting tie structure is what separates the
  /// heuristics' set sizes — under additive metrics especially, continuous
  /// weights never tie and the "advertise every tied first hop" cost of
  /// topology filtering disappears (see deployment.hpp and EXPERIMENTS.md).
  QosIntervals qos{.bandwidth_hi = 5.0, .delay_hi = 5.0, .integral = true};
  /// How routes are realized over the advertised state (see
  /// routing/forwarding.hpp and DESIGN.md §4.4):
  ///  * kAdvertisedUnion (default) — hop-by-hop over the undirected union
  ///    of all advertised links plus each hop's own links, RFC-style
  ///    routing tables; each protocol routes with its own discipline
  ///    (QOLSR hop-count-first, the QANS designs QoS-first);
  ///  * kAnsChain — strict directed relay chains through each node's own
  ///    ANS (the paper's §I wording taken literally; punishing for minimal
  ///    advertised sets — see EXPERIMENTS.md).
  enum class RoutingModel { kAnsChain, kAdvertisedUnion };
  RoutingModel routing_model = RoutingModel::kAdvertisedUnion;
  /// For kAdvertisedUnion: source routing (default) vs. hop-by-hop. The
  /// source decides the path on its knowledge — one consistent decision,
  /// no inter-hop inconsistency; for the 2-hop pairs of the paper's
  /// evaluation the two coincide in practice.
  bool hop_by_hop = false;
  /// For kAdvertisedUnion: merge the deciding node's full HELLO-derived
  /// 2-hop view into its routing knowledge (G_u ∪ A — what the node
  /// actually knows). Default on; hop-by-hop mode with heterogeneous views
  /// can loop (see routing/forwarding.hpp), source routing cannot.
  bool use_local_views = true;
  /// How the measured (source u, destination v) pair is drawn:
  ///  * kTwoHop (default) — v uniform in N²(u), the pairs the QANS designs
  ///    optimize for (the paper reuses the algorithm's u/v naming and its
  ///    overhead magnitudes only come out at this range — see
  ///    EXPERIMENTS.md);
  ///  * kAnyConnected — v uniform over u's connected component (long
  ///    multi-hop flows).
  enum class PairMode { kTwoHop, kAnyConnected };
  PairMode pair_mode = PairMode::kTwoHop;
  /// Hard cap on whole-topology resamples in one sample_topology call. A
  /// degenerate deployment (expected node count near zero, or a field too
  /// sparse to ever connect a pair) would otherwise spin forever; hitting
  /// the cap raises a descriptive error instead. Generous enough that any
  /// scenario with a realistic success rate never sees it.
  std::size_t max_topology_resamples = 10000;
  /// Keep one RunRecord per run in DensityStats::run_records (per-run set
  /// sizes, routed values, overheads) in addition to the aggregates. Off by
  /// default: the hot path stays allocation-free and the aggregates are all
  /// the figures need. (Static sweeps only — the epoch loop reports
  /// aggregates.)
  bool record_runs = false;
  /// The mobility/churn epoch loop; disabled (static evaluation) unless a
  /// model is set. See DynamicsSpec.
  DynamicsSpec dynamics;
  /// The fault-injection plan applied to every packet-backend run (ambient
  /// Bernoulli frame loss, per-link loss overrides, and a schedule of
  /// crash/flap/partition incidents injected after the measurement phase to
  /// time re-convergence). Inactive by default — an inactive plan leaves
  /// the packet backend byte-identical to the fault-free engine. Packet
  /// backend only; the oracle has no frames to lose.
  FaultPlan faults;
  /// The traffic workload scheduled on every packet-backend run after the
  /// probe phase: concurrent flows contending for per-link capacity in the
  /// ContendedMedium, with per-flow delivery/latency/throughput
  /// distributions reported. Inactive by default — an inactive spec leaves
  /// the packet backend byte-identical to a traffic-free run. Packet
  /// backend only; the oracle has no medium to load.
  TrafficSpec traffic;
  /// The adversary roster + wire-corruption engine applied to every
  /// packet-backend run: misbehaving nodes (blackhole, liar, replayer,
  /// selfish — sim/adversary.hpp) drawn from a dedicated seeded stream,
  /// plus seeded bit-flips on delivered frames, with the runtime invariant
  /// monitor armed to count the protocol violations they cause. Inactive
  /// by default — an inactive spec leaves the packet backend byte-identical
  /// to an honest run. Packet backend only; the oracle has no nodes to
  /// subvert.
  AdversarySpec adversaries;
  /// Data probes routed per (run, protocol) between the shared sampled
  /// pair. 1 (the default) reproduces the classic single-packet
  /// delivered/failed figure; lossy scenarios want more probes so the
  /// delivery *ratio* per run resolves finer than {0, 1}.
  std::size_t probe_packets = 1;
  /// What the values of `densities` mean. kDensity (default): mean node
  /// degree δ, the x-axis of Figs. 6-9. kSpeed (dynamics only): node speed
  /// in m/s — each sweep point fixes the waypoint model's speed_min =
  /// speed_max to the value while the deployment density stays
  /// `field.degree` (the x-axis of Fig. M, delivery ratio vs. speed).
  /// kLoss (packet backend only): ambient frame-loss probability — each
  /// sweep point sets `faults.loss_rate` to the value at fixed
  /// `field.degree` density (the x-axis of figure R, delivery vs. loss).
  /// kLoad (packet backend only, traffic spec required): offered-load
  /// multiplier — each sweep point sets `traffic.load` to the value at
  /// fixed `field.degree` density (the x-axis of figure L, QoS under
  /// load). kAdversary (packet backend only, adversary kinds required):
  /// adversary fraction — each sweep point sets `adversaries.fraction` to
  /// the value at fixed `field.degree` density (the x-axis of figure B,
  /// delivery and poisoned routes vs. adversary fraction).
  enum class SweepAxis { kDensity, kSpeed, kLoss, kLoad, kAdversary };
  SweepAxis sweep_axis = SweepAxis::kDensity;
};

/// The name tables of the scenario's enums: CLI parsing, validation error
/// text and emitted labels all read them, so adding a value is one row
/// here (plus its semantics at the point of use).
inline constexpr util::Named<Scenario::SweepAxis> kSweepAxes[] = {
    {Scenario::SweepAxis::kDensity, "density"},
    {Scenario::SweepAxis::kSpeed, "speed"},
    {Scenario::SweepAxis::kLoss, "loss"},
    {Scenario::SweepAxis::kLoad, "load"},
    {Scenario::SweepAxis::kAdversary, "adversary"},
};
inline constexpr util::Named<DynamicsSpec::Model> kMobilityModels[] = {
    {DynamicsSpec::Model::kNone, "none"},
    {DynamicsSpec::Model::kWaypoint, "waypoint"},
    {DynamicsSpec::Model::kChurn, "churn"},
};
inline constexpr util::Named<Scenario::RoutingModel> kRoutingModels[] = {
    {Scenario::RoutingModel::kAdvertisedUnion, "union"},
    {Scenario::RoutingModel::kAnsChain, "chain"},
};
inline constexpr util::Named<Scenario::PairMode> kPairModes[] = {
    {Scenario::PairMode::kTwoHop, "two_hop"},
    {Scenario::PairMode::kAnyConnected, "any"},
};

}  // namespace qolsr
