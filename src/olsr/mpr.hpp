#pragma once

#include <vector>

#include "graph/local_view.hpp"
#include "graph/node_id.hpp"
#include "olsr/selection_workspace.hpp"

namespace qolsr {

/// RFC 3626 greedy Multi-Point Relay selection (the original OLSR
/// heuristic, QoS-blind). Computes the MPR set of the view's origin as
/// ascending global ids.
///
/// Two-phase greedy (paper §II):
///   1. add every 1-hop neighbor that is the *only* cover of some 2-hop
///      neighbor;
///   2. while 2-hop neighbors remain uncovered, add the neighbor covering
///      the most of them (ties: larger total 2-hop reachability, then
///      smaller id).
///
/// The produced set covers all of N²(u) and is within log n of optimal
/// (Qayyum et al.). In FNBP and topology filtering this set keeps its
/// original flooding role while a separate ANS is advertised for routing.
///
/// The set is written into `out` (cleared first); all scratch comes from
/// `ws`.
void select_mpr_rfc3626(const LocalView& view, SelectionWorkspace& ws,
                        std::vector<NodeId>& out);

/// True when every 2-hop neighbor of the view's origin is adjacent to at
/// least one member of `mpr_set` (global ids). Property checked by tests
/// for every selection heuristic.
bool covers_two_hop(const LocalView& view, const std::vector<NodeId>& mpr_set);

}  // namespace qolsr
