#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/deployment.hpp"
#include "graph/graph.hpp"
#include "graph/link_event.hpp"

namespace qolsr {

/// Evolves a deployed topology over discrete epochs — the dynamic-topology
/// axis of the evaluation (EXPERIMENTS.md, "Mobility & churn"). Each
/// `step` mutates `graph` in place (positions and/or links) and appends
/// one normalized `LinkEvent` per changed link, the delta consumed by the
/// incremental selection maintenance (src/olsr/incremental.hpp). Steps are
/// deterministic given the RNG stream; models hold per-node state, so one
/// instance drives exactly one graph.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Advances one epoch. Events are appended (callers clear between
  /// epochs); every event reflects an applied graph mutation, so replaying
  /// the events on the pre-step link set yields the post-step link set.
  virtual void step(Graph& graph, util::Rng& rng,
                    std::vector<LinkEvent>& events) = 0;
};

/// Knobs of the random-waypoint model. Field geometry mirrors
/// `DeploymentConfig`; `qos` covers links formed mid-trace (survivors keep
/// their records).
struct WaypointConfig {
  double width = 1000.0;
  double height = 1000.0;
  double radius = 100.0;
  double speed_min = 1.0;   ///< m/s, drawn per leg, uniform
  double speed_max = 10.0;  ///< m/s
  std::size_t pause_epochs = 0;  ///< epochs spent parked at each waypoint
  double epoch_duration = 1.0;   ///< seconds of movement per epoch
  QosIntervals qos;
};

/// Random waypoint (the classic MANET mobility model): every node moves in
/// a straight line toward a uniformly drawn waypoint at a per-leg uniform
/// speed, pauses `pause_epochs` epochs on arrival, then draws the next
/// leg. After moving, the unit-disk link set is re-derived from the new
/// positions (`update_unit_disk_links`), which emits the epoch's link
/// delta.
class RandomWaypointModel final : public MobilityModel {
 public:
  /// Draws the initial waypoint and speed of every node of `graph` from
  /// `rng` (one (x, y, speed) triple per node, ascending id).
  RandomWaypointModel(const WaypointConfig& config, const Graph& graph,
                      util::Rng& rng);

  void step(Graph& graph, util::Rng& rng,
            std::vector<LinkEvent>& events) override;

 private:
  struct Leg {
    Point target;
    double speed = 0.0;
    std::size_t pause_left = 0;
  };

  WaypointConfig config_;
  std::vector<Leg> legs_;
};

/// Knobs of the memoryless link-churn model.
struct ChurnConfig {
  double down_rate = 0.05;  ///< per-epoch P(live link fails)
  double up_rate = 0.25;    ///< per-epoch P(failed link recovers)
};

/// Link up/down churn without motion: each epoch, every failed link
/// recovers with `up_rate` (restoring its remembered QoS record — a radio
/// fade ends, the link is what it was), then every live link fails with
/// `down_rate`. Node positions never change, so the long-run topology
/// oscillates around the initial deployment instead of drifting.
class LinkChurnModel final : public MobilityModel {
 public:
  explicit LinkChurnModel(const ChurnConfig& config) : config_(config) {}

  void step(Graph& graph, util::Rng& rng,
            std::vector<LinkEvent>& events) override;

 private:
  struct DownLink {
    NodeId a, b;
    LinkQos qos;  ///< restored verbatim on recovery
  };

  ChurnConfig config_;
  std::vector<DownLink> down_;  ///< failed links, oldest first
};

}  // namespace qolsr
