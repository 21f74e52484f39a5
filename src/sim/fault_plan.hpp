#pragma once

#include <cstddef>
#include <vector>

#include "graph/node_id.hpp"

namespace qolsr {

/// One scheduled adversity the Simulator injects into a running network
/// (Simulator::inject). Victims are either named explicitly (tests, ad-hoc
/// experiments) or drawn per run from the simulator's fault RNG stream —
/// seeded from the run seed, so a schedule replays identically for every
/// protocol of a run and for every thread count.
struct FaultIncident {
  enum class Kind {
    kLinkFlap,   ///< take radio links down (they heal after `duration`)
    kNodeCrash,  ///< crash whole nodes, losing all soft state
    kPartition,  ///< block every frame crossing the id-halves boundary
  };
  Kind kind = Kind::kLinkFlap;
  /// Random victims (links or nodes) drawn when none is named explicitly.
  std::size_t count = 1;
  /// Explicit crash victim (kNodeCrash); kInvalidNode draws randomly.
  NodeId node = kInvalidNode;
  /// Explicit flap victim link (kLinkFlap); kInvalidNode draws randomly.
  NodeId link_u = kInvalidNode;
  NodeId link_v = kInvalidNode;
  /// Seconds until the fault auto-heals (crash → restart, link/partition
  /// back up); <= 0 makes it permanent for the rest of the run.
  double duration = 10.0;
};

/// Per-link Bernoulli loss override (undirected); takes precedence over
/// FaultPlan::loss_rate on that link. rate 1.0 silences the link entirely
/// without touching the ground-truth graph — the soft-state expiry tests
/// kill a node's HELLOs this way.
struct LinkLossSpec {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double rate = 0.0;
};

/// Declarative, seeded fault schedule for one packet-backend run: ambient
/// per-delivery Bernoulli frame loss (global rate + per-link overrides)
/// applied by the LossyMedium on every delivery, plus discrete incidents
/// the run driver injects after convergence (re-convergence is measured
/// per incident). An inactive plan (the default) is contractually
/// invisible: the medium takes the loss-free fast path, draws no random
/// numbers, and the run is byte-identical to a run with no plan at all.
struct FaultPlan {
  /// P(any individual frame delivery is lost), in [0, 1].
  double loss_rate = 0.0;
  std::vector<LinkLossSpec> link_loss;
  std::vector<FaultIncident> incidents;

  bool active() const {
    return loss_rate > 0.0 || !link_loss.empty() || !incidents.empty();
  }
};

}  // namespace qolsr
