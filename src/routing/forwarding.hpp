#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/local_view.hpp"
#include "metrics/metric.hpp"
#include "path/path.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/knowledge_view.hpp"
#include "routing/routing_table.hpp"

namespace qolsr {

/// Why a forwarding attempt ended.
enum class ForwardingStatus {
  kDelivered,
  kNoRoute,    ///< some hop had no path to the destination
  kLoop,       ///< a node was visited twice
  kStaleLink,  ///< verify_links: the chosen next-hop link no longer exists
};

struct ForwardingResult {
  ForwardingStatus status = ForwardingStatus::kNoRoute;
  Path path;           ///< nodes traversed, starting at the source
  double value = 0.0;  ///< metric value of the traversed path (full graph)

  bool delivered() const { return status == ForwardingStatus::kDelivered; }
};

struct ForwardingOptions {
  /// When true, each hop merges its full HELLO-derived 2-hop view into its
  /// knowledge graph. That looks more informed but is *inconsistent*:
  /// different hops see different graphs, and a downstream node can prefer
  /// a "better" path leading straight back (pinned by
  /// Forwarding.LoopingWalkEndsAsLoop: on QOLSR MPR-2's advertised union of
  /// testing::random_geometric_graph(6, 7.0, 280.0), routed QoS-first, the
  /// packet from 0 to 7 walks 0, 16, 8, 16). The default routes every hop on
  /// `advertised ∪ own incident links`, which is loop-free: the suffix of
  /// any chosen plan is advertised-only, hence visible to the next hop, so
  /// the lexicographic (value, hops) potential strictly improves per hop.
  bool use_local_views = false;
  /// Route with original OLSR's hop-count-primary discipline (fewest hops,
  /// QoS as tie-break) instead of QoS-first. The QOLSR baseline forwards
  /// this way — it "maintains shortest paths in terms of number of hops"
  /// (paper §II) — which is precisely why it strays from the QoS optimum.
  bool min_hop_routing = false;
  /// Stale-advertisement (dynamics) mode: the advertised topology handed
  /// in may predate the current `full` graph (the last TC refresh's
  /// knowledge), so the plan can ride links that no longer exist. Before
  /// the packet is handed to a computed next hop, the link is verified
  /// against `full`; a vanished link aborts the attempt with kStaleLink —
  /// the transmission fails, which is the stale-route packet loss the
  /// epoch-loop evaluation measures. Source routing verifies every planned
  /// hop as the packet walks the plan. Off (no verification, advertised
  /// state assumed current) by default.
  bool verify_links = false;
  /// Dynamics mode, ANS-chain model only: plan the directed relay base on
  /// this graph — the topology as of the last TC refresh — instead of
  /// `full`, so relay links that died since the advertisement stay in
  /// every hop's plan: knowledge is exactly as stale as the TC flood that
  /// spread it. Each hop's *own* links still come fresh from `full`.
  const Graph* advertised_snapshot = nullptr;
};

/// Per-thread scratch of the forwarding hot path: the next-hop engines
/// (Dijkstra labels + concave tie-break BFS), the knowledge overlay, the
/// ANS-chain directed base and its builder, a view builder for the
/// use_local_views mode, and the epoch-stamped visited set. One instance
/// per worker thread; EvalWorkspace carries one.
struct ForwardingWorkspace {
  DijkstraWorkspace dijkstra;
  NextHopScratch next_hop;
  KnowledgeView knowledge;
  AdvertisedTopologyBuilder chain_builder;
  CsrTopology chain_base;
  LocalViewBuilder view_builder;
  LocalView view;

  void begin_visit(std::size_t n) {
    if (visited_stamp_.size() < n) visited_stamp_.resize(n, 0);
    if (++visit_epoch_ == 0) {
      std::fill(visited_stamp_.begin(), visited_stamp_.end(), 0);
      visit_epoch_ = 1;
    }
  }
  bool visited(NodeId v) const { return visited_stamp_[v] == visit_epoch_; }
  void mark_visited(NodeId v) { visited_stamp_[v] = visit_epoch_; }

 private:
  std::vector<std::uint32_t> visited_stamp_;
  std::uint32_t visit_epoch_ = 0;
};

namespace forwarding_detail {

/// Patches `ws.knowledge` with what `current` knows beyond the advertised
/// base: its full HELLO-derived 2-hop view (use_local_views) or its own
/// incident links. Both directions of every link are patched: the links
/// are undirected.
template <typename WS>
void patch_hop_knowledge(WS& ws, const Graph& full, NodeId current,
                         bool use_local_views) {
  ws.knowledge.begin_hop();
  if (use_local_views) {
    ws.view_builder.build(full, current, ws.view);
    for (std::uint32_t a = 0; a < ws.view.size(); ++a) {
      const NodeId ga = ws.view.global_id(a);
      for (const LocalView::LocalEdge& e : ws.view.neighbors(a)) {
        if (e.to <= a) continue;  // each undirected link once
        const NodeId gb = ws.view.global_id(e.to);
        ws.knowledge.add_link(ga, gb, e.qos);
        ws.knowledge.add_link(gb, ga, e.qos);
      }
    }
  } else {
    for (const Edge& e : full.neighbors(current)) {
      ws.knowledge.add_link(current, e.to, e.qos);
      ws.knowledge.add_link(e.to, current, e.qos);
    }
  }
  ws.knowledge.finalize_hop();
}

/// The hop-by-hop walk of both routing models. The caller has reset
/// `ws.knowledge` to its base; at every hop `patch(current)` adds what
/// that hop knows beyond the base, and the hop computes its next hop on
/// that knowledge under the options' discipline and hands the packet
/// over. A revisited node ends the walk as kLoop, so the walk holds at
/// most n distinct nodes and needs no hop cap.
template <Metric M, typename Patch>
ForwardingResult walk(const Graph& full, NodeId source, NodeId destination,
                      const ForwardingOptions& options,
                      ForwardingWorkspace& ws, const Patch& patch) {
  ForwardingResult result;
  result.path.push_back(source);
  if (source == destination) {
    result.status = ForwardingStatus::kDelivered;
    result.value = M::identity();
    return result;
  }

  ws.begin_visit(full.node_count());
  ws.mark_visited(source);
  NodeId current = source;
  for (;;) {
    patch(current);
    const NodeId next =
        options.min_hop_routing
            ? compute_min_hop_next_hop<M, KnowledgeView>(
                  ws.knowledge, current, destination, ws.dijkstra)
            : compute_next_hop<M, KnowledgeView>(ws.knowledge, current,
                                                 destination, ws.dijkstra,
                                                 ws.next_hop);
    if (next == kInvalidNode) {
      result.status = ForwardingStatus::kNoRoute;
      return result;
    }
    if (options.verify_links && full.edge_qos(current, next) == nullptr) {
      result.status = ForwardingStatus::kStaleLink;
      return result;
    }
    result.path.push_back(next);
    if (next == destination) {
      result.status = ForwardingStatus::kDelivered;
      result.value = evaluate_path<M>(full, result.path);
      return result;
    }
    if (ws.visited(next)) {
      result.status = ForwardingStatus::kLoop;
      return result;
    }
    ws.mark_visited(next);
    current = next;
  }
}

}  // namespace forwarding_detail

/// Hop-by-hop forwarding of one packet, the paper's routing model: every
/// traversed node independently computes its QoS next hop toward the
/// destination on *its* knowledge graph (TC-advertised topology + what it
/// learned from HELLOs) and hands the packet over. The traversed path and
/// its QoS value on the real graph are returned — `value` is the b (resp.
/// d) compared against the centralized optimum b* (resp. d*) in Figs. 8/9.
///
/// Each hop's knowledge graph is `advertised` (the CSR advertised
/// topology) patched in `ws.knowledge` with what that hop knows beyond it,
/// so no graph is copied at any hop.
template <Metric M>
ForwardingResult forward_packet(const Graph& full,
                                const CsrTopology& advertised, NodeId source,
                                NodeId destination,
                                const ForwardingOptions& options,
                                ForwardingWorkspace& ws) {
  ws.knowledge.reset(advertised);
  return forwarding_detail::walk<M>(
      full, source, destination, options, ws, [&](NodeId current) {
        forwarding_detail::patch_hop_knowledge(ws, full, current,
                                               options.use_local_views);
      });
}

/// Hop-by-hop forwarding in the **ANS-chain model** — the OLSR forwarding
/// rule as the paper states it (§I): "a node wanting to send a packet
/// sends it to one of its MPRs which will relay it to one of its MPRs and
/// so on". The usable relay edges are *directed*: x may hand the packet to
/// w only when w ∈ ANS(x). Two standard completions: any node holding a
/// packet for a direct neighbor delivers it (modelled as each hop's own
/// out-edges to its neighbors, usable as the immediate hop only), and any
/// *advertised* link into the destination serves as a final hop (the
/// planner knows that link from TCs; the node at its far end delivers
/// across it).
///
/// This is the model under which the selection heuristics actually differ
/// in route quality: QOLSR's per-target-optimal 2-hop relays compose badly
/// over long routes, while FNBP's chains were built to compose. It is also
/// where the Fig.-4 loop-fix is load-bearing — without it the directed
/// chains can dead-end behind a bottleneck link.
///
/// Loop-freedom: all hops plan on the same directed base D (their private
/// out-edges appear only as the first hop of their own plan, so the plan
/// suffix is always visible downstream), and the next hop is exact
/// lexicographic (value, hops); the potential argument of
/// `compute_next_hop` applies unchanged.
///
/// The directed relay base is built once per call into `ws.chain_base`.
template <Metric M>
ForwardingResult forward_via_ans(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node,
    NodeId source, NodeId destination, const ForwardingOptions& options,
    ForwardingWorkspace& ws) {
  const Graph& planning = options.advertised_snapshot != nullptr
                              ? *options.advertised_snapshot
                              : full;
  ws.chain_builder.build_ans_chain(planning, ans_per_node, destination,
                                   ws.chain_base);
  ws.knowledge.reset(ws.chain_base);
  return forwarding_detail::walk<M>(
      full, source, destination, options, ws, [&](NodeId current) {
        // This hop's own links, usable as its immediate next hop
        // (directed: the chain base stays the planning graph of every
        // other node).
        ws.knowledge.begin_hop();
        for (const Edge& e : full.neighbors(current))
          ws.knowledge.add_link(current, e.to, e.qos);
        ws.knowledge.finalize_hop();
      });
}

/// Source-route alternative: the whole path is fixed at the source from its
/// knowledge graph — the eval runners' default over the advertised union
/// (`Scenario::hop_by_hop` off).
template <Metric M>
ForwardingResult source_route_packet(const Graph& full,
                                     const CsrTopology& advertised,
                                     NodeId source, NodeId destination,
                                     const ForwardingOptions& options,
                                     ForwardingWorkspace& ws) {
  ws.knowledge.reset(advertised);
  forwarding_detail::patch_hop_knowledge(ws, full, source,
                                         options.use_local_views);
  if (options.min_hop_routing) {
    dijkstra_min_hop<M>(ws.knowledge, source, kInvalidNode, ws.dijkstra);
  } else {
    dijkstra<M>(ws.knowledge, source, kInvalidNode, ws.dijkstra);
  }

  ForwardingResult result;
  ws.dijkstra.path_to(destination, result.path);
  if (result.path.empty()) {
    result.status = ForwardingStatus::kNoRoute;
    result.path.push_back(source);
    return result;
  }
  if (options.verify_links) {
    // The packet walks the plan hop by hop; it is lost at the first
    // planned link that no longer exists, having reached path[0..i].
    for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
      if (full.edge_qos(result.path[i], result.path[i + 1]) == nullptr) {
        result.path.resize(i + 1);
        result.status = ForwardingStatus::kStaleLink;
        return result;
      }
    }
  }
  result.status = ForwardingStatus::kDelivered;
  result.value = evaluate_path<M>(full, result.path);
  return result;
}

}  // namespace qolsr
