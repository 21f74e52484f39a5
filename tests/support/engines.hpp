#pragma once

// Test conveniences over the workspace engines: each helper owns the
// scratch that a production caller keeps per worker thread.

#include <memory>

#include "graph/local_view.hpp"
#include "graph/rng_reduction.hpp"
#include "metrics/metric.hpp"
#include "path/dijkstra.hpp"
#include "path/first_hops.hpp"
#include "routing/routing_table.hpp"
#include "sim/olsr_node.hpp"

namespace qolsr::testing {

/// A simulator RouteFn over compute_next_hop<M> that owns its Dijkstra and
/// BFS scratch. Copies share the scratch, which is safe because a
/// simulator computes one next hop at a time.
template <Metric M = BandwidthMetric>
OlsrNode::RouteFn next_hop_routes() {
  struct Scratch {
    DijkstraWorkspace dijkstra;
    NextHopScratch bfs;
  };
  return [scratch = std::make_shared<Scratch>()](const Graph& g, NodeId self,
                                                 NodeId dest) {
    return compute_next_hop<M>(g, self, dest, scratch->dijkstra,
                               scratch->bfs);
  };
}

/// compute_first_hops<M> on a fresh workspace, for tests that inspect one
/// view's fP table.
template <Metric M>
FirstHopTable first_hops(const LocalView& view) {
  DijkstraWorkspace ws;
  FirstHopTable table;
  compute_first_hops<M>(view, ws, table);
  return table;
}

/// rng_reduce<M> of `view` with a fresh witness scratch.
template <Metric M>
LocalView rng_reduced(const LocalView& view) {
  RngWitnessScratch scratch;
  LocalView reduced;
  rng_reduce<M>(view, reduced, scratch);
  return reduced;
}

}  // namespace qolsr::testing
