#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "metrics/metric.hpp"
#include "path/dijkstra.hpp"

namespace qolsr {

/// Reusable scratch of the concave tie-break BFS inside compute_next_hop:
/// an epoch-stamped parent row and the FIFO queue, so the per-hop
/// computation allocates nothing in steady state. One instance per thread
/// (ForwardingWorkspace carries one).
struct NextHopScratch {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> queue;
  std::uint32_t epoch = 0;

  /// Starts a BFS over n nodes; parent_of(v) is valid once set(v, p) ran
  /// this epoch.
  void begin(std::size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      parent.resize(n);
    }
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    queue.clear();
  }
  bool seen(std::uint32_t v) const { return stamp[v] == epoch; }
  void set(std::uint32_t v, std::uint32_t p) {
    stamp[v] = epoch;
    parent[v] = p;
  }
};

/// Exact lexicographic (metric value, hop count) next hop from `self`
/// toward `dest` on `knowledge`. Returns kInvalidNode when unreachable.
///
/// Additive metrics: the (value, hops) lex order is isotone under
/// extension, so the tie-breaking Dijkstra is already exact. Concave
/// metrics are not isotone (a wider prefix with more hops can produce the
/// same bottleneck value), so Dijkstra alone returns *a* value-optimal
/// path but not necessarily a hop-minimal one. Exactness matters: with a
/// hop-minimal-among-optimal plan at every hop, the (value, hops) pair
/// strictly improves along a forwarded packet (the plan's suffix is
/// visible to the next node), which rules out forwarding loops. For
/// concave metrics we therefore compute the optimal value V with Dijkstra
/// and then BFS on the subgraph of links no worse than V — every path
/// there has bottleneck exactly V, and BFS gives the fewest hops.
///
/// The labels live in `dws` and the BFS in `bfs`, so a warm call allocates
/// nothing — forwarding calls this once per traversed hop.
template <Metric M, typename G>
NodeId compute_next_hop(const G& knowledge, NodeId self, NodeId dest,
                        DijkstraWorkspace& dws, NextHopScratch& bfs) {
  if (self == dest) return kInvalidNode;
  dijkstra<M>(knowledge, self, kInvalidNode, dws);
  if (!dws.reached(dest)) return kInvalidNode;
  if constexpr (M::kind == MetricKind::kAdditive) {
    NodeId hop = dest;
    while (dws.parent(hop) != self) hop = dws.parent(hop);
    return hop;
  } else {
    // BFS over links whose value is not worse than the optimum V; FIFO
    // order with ascending adjacency makes the parent choice deterministic.
    const double optimum = dws.value(dest);
    bfs.begin(dijkstra_detail::graph_size(knowledge));
    bfs.set(self, self);
    bfs.queue.push_back(self);
    for (std::size_t head = 0; head < bfs.queue.size(); ++head) {
      const NodeId x = bfs.queue[head];
      if (x == dest) break;
      for (const auto& e : knowledge.neighbors(x)) {
        if (bfs.seen(e.to)) continue;
        if (M::better(optimum, dijkstra_detail::edge_weight<M>(e)))
          continue;  // too weak
        bfs.set(e.to, x);
        bfs.queue.push_back(e.to);
      }
    }
    if (!bfs.seen(dest)) return kInvalidNode;  // defensive
    NodeId hop = dest;
    while (bfs.parent[hop] != self) hop = bfs.parent[hop];
    return hop;
  }
}

/// Hop-count-primary next hop: fewest hops, QoS as tie-break — original
/// OLSR's routing discipline, used by the QOLSR baseline (see
/// dijkstra_min_hop). Exact, and trivially loop-free hop-by-hop (the hop
/// count to the destination strictly decreases).
template <Metric M, typename G>
NodeId compute_min_hop_next_hop(const G& knowledge, NodeId self, NodeId dest,
                                DijkstraWorkspace& dws) {
  if (self == dest) return kInvalidNode;
  dijkstra_min_hop<M>(knowledge, self, kInvalidNode, dws);
  if (!dws.reached(dest)) return kInvalidNode;
  NodeId hop = dest;
  while (dws.parent(hop) != self) hop = dws.parent(hop);
  return hop;
}

}  // namespace qolsr
