#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/local_view.hpp"
#include "graph/node_id.hpp"

namespace qolsr {

/// Flat CSR adjacency with full QoS records — the allocation-free routable
/// form of an advertised topology. Rows are sorted by neighbor id and
/// deduplicated, so iteration order matches `Graph`'s sorted adjacency
/// lists exactly (routing on either scans the same records in the same
/// order) and membership probes stay binary searches.
///
/// One instance per worker thread, rebuilt in place per (run, selector) by
/// `AdvertisedTopologyBuilder`; rebuilding touches no heap once the arrays
/// have grown to the largest topology seen. Holds either an undirected
/// union (both directions of every advertised link) or a directed relay
/// base (the ANS-chain model) — direction is the builder's concern, the
/// storage is the same.
class CsrTopology {
 public:
  std::size_t node_count() const {
    return row_begin_.empty() ? 0 : row_begin_.size() - 1;
  }
  std::span<const Edge> neighbors(NodeId v) const {
    return {edges_.data() + row_begin_[v], row_begin_[v + 1] - row_begin_[v]};
  }
  /// Directed adjacency records held (an undirected union stores 2 per
  /// advertised link) — the advertised-state size the dynamics evaluation
  /// tracks across refreshes.
  std::size_t edge_count() const { return edges_.size(); }
  bool has_edge(NodeId from, NodeId to) const;
  /// QoS of the edge from→to, or nullptr when absent.
  const LinkQos* edge_qos(NodeId from, NodeId to) const;

 private:
  friend class AdvertisedTopologyBuilder;

  std::vector<std::uint32_t> row_begin_;
  std::vector<Edge> edges_;
};

/// Reusable constructor of `CsrTopology` views. Owns the pending-edge and
/// cursor scratch, so per-(run, selector) rebuilds are allocation-free in
/// steady state — `build_advertised_topology` builds a vector-of-vectors
/// `Graph` with an O(degree) `has_edge` scan per advertised pair instead.
class AdvertisedTopologyBuilder {
 public:
  /// The network-wide advertised topology (see build_advertised_topology):
  /// the undirected union of {u,w} for every w ∈ ans_per_node[u], each link
  /// carrying its QoS record from `full`. Throws std::logic_error when an
  /// ANS member is not a 1-hop neighbor of its advertiser — same contract
  /// as the Graph-returning form.
  void build_advertised(const Graph& full,
                        const std::vector<std::vector<NodeId>>& ans_per_node,
                        CsrTopology& out);

  /// The directed relay base of the ANS-chain forwarding model
  /// (forwarding.hpp): x→w for every w ∈ ANS(x) with a live link in
  /// `full`, plus, for every advertised link into `destination`, the
  /// reverse final-hop edge. Dead advertised links are skipped silently —
  /// the chain model treats ANS state as gossip, not ground truth.
  void build_ans_chain(const Graph& full,
                       const std::vector<std::vector<NodeId>>& ans_per_node,
                       NodeId destination, CsrTopology& out);

 private:
  /// Sorts the pending (from, to) keys, deduplicates (both ends may
  /// advertise one link; the QoS record is the same either way), and emits
  /// the CSR rows with each edge's record fetched from `full`.
  void finish(const Graph& full, std::size_t node_count, CsrTopology& out);

  /// Directed edges as packed (from << 32 | to) keys; the 56-byte QoS
  /// payload is attached only after dedup.
  std::vector<std::uint64_t> pending_;
  std::vector<std::uint32_t> cursor_;  ///< per-row counts, then end offsets
  std::vector<NodeId> scratch_to_;     ///< row-bucketed neighbor ids
};

/// Assembles the network-wide routable topology from every node's
/// advertised set: node u announces its ANS in TC messages, so the link
/// (u,w) becomes known to all nodes for every w ∈ ANS(u). Links are
/// bidirectional (paper §III-A), hence the union is kept undirected.
///
/// `ans_per_node[u]` is the advertised set of node u (global ids). The
/// result has the same node set as `full`; each advertised link carries its
/// QoS record from `full`. Throws std::logic_error when an ANS member is
/// not a 1-hop neighbor of its advertiser — an ANS is selected from the
/// 1-hop neighborhood, so a non-neighbor member means the selector and the
/// topology disagree, which must not pass silently (the assert-only guard
/// this replaces dropped the link without a trace in release builds).
Graph build_advertised_topology(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node);

/// Average advertised-set size — the y-axis of the paper's Figs. 6 and 7.
double average_set_size(const std::vector<std::vector<NodeId>>& ans_per_node);

}  // namespace qolsr
