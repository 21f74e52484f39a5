#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/node_id.hpp"

namespace qolsr {

class LocalViewBuilder;

/// The partial view `G_u = (V_u, E_u)` a node has of the network
/// (paper §III-A):
///
///   V_u = {u} ∪ N(u) ∪ N²(u)
///   E_u = {(v,w) : v ∈ N(u) ∧ w ∈ V_u}
///
/// i.e. u knows every link incident to one of its 1-hop neighbors whose
/// other endpoint it has heard of, but no link between two 2-hop neighbors
/// (the dashed links of the paper's Fig. 2). In a deployed OLSR this view is
/// assembled from HELLO messages piggybacking the neighbor table — the
/// `proto` module does exactly that; this class is the oracle form.
///
/// Nodes are re-indexed into a compact local id space so the path algorithms
/// can run on dense vectors. Local index 0 is always `u` itself.
///
/// Storage is a flat CSR layout (row offsets + one packed edge array, rows
/// sorted by neighbor): the eval pipeline builds millions of views per
/// sweep, and per-row heap nodes or a global→local hash map would dominate
/// the selection hot path (see DESIGN.md §5). Views are built by a
/// `LocalViewBuilder`; the constructors below are conveniences that route
/// through a thread-local builder.
class LocalView {
 public:
  /// An empty view (no origin, no nodes) — a reusable build target.
  LocalView() = default;

  /// Extracts G_u from the full graph.
  LocalView(const Graph& graph, NodeId u);

  /// Builds a view directly from neighbor-table data (used by the protocol
  /// stack): `one_hop[i]` are u's symmetric neighbors with their link QoS;
  /// `neighbor_links[i]` lists the links of one_hop[i] (as advertised in its
  /// HELLOs).
  struct NeighborLink {
    NodeId to = kInvalidNode;
    LinkQos qos;
  };
  LocalView(NodeId u, const std::vector<NeighborLink>& one_hop,
            const std::vector<std::vector<NeighborLink>>& neighbor_links);

  NodeId origin() const { return origin_; }
  std::size_t size() const { return global_ids_.size(); }

  /// Local index of the origin u (always 0).
  static constexpr std::uint32_t origin_index() { return 0; }

  NodeId global_id(std::uint32_t local) const { return global_ids_[local]; }
  /// Local index of a global node, or kInvalidNode when not in V_u.
  std::uint32_t local_id(NodeId global) const;
  bool contains(NodeId global) const {
    return local_id(global) != kInvalidNode;
  }

  /// Adjacency in local index space.
  struct LocalEdge {
    std::uint32_t to = 0;
    LinkQos qos;
  };
  std::span<const LocalEdge> neighbors(std::uint32_t local) const {
    return {edges_.data() + row_begin_[local], row_len_[local]};
  }

  bool has_local_edge(std::uint32_t a, std::uint32_t b) const;
  /// QoS of local link (a,b), or nullptr when absent.
  const LinkQos* local_edge_qos(std::uint32_t a, std::uint32_t b) const;

  /// 1-hop neighbors of u, as local indices, ascending global id.
  std::span<const std::uint32_t> one_hop() const { return one_hop_; }
  /// 2-hop neighbors of u (N², excludes u and N(u)), ascending global id.
  std::span<const std::uint32_t> two_hop() const { return two_hop_; }

  bool is_one_hop(std::uint32_t local) const {
    return local != origin_index() && local < first_two_hop_;
  }
  bool is_two_hop(std::uint32_t local) const {
    return local >= first_two_hop_;
  }

  /// Keeps, in each row `from`, exactly the edges `keep(from, edge)`
  /// accepts, in their order. Used by topology filtering, which prunes the
  /// view before selecting (the RNG reduction); `keep` must accept (a,b)
  /// iff it accepts (b,a), so the view stays undirected. The rows keep
  /// their CSR slots (a dropped edge shortens `row_len_`), so pruning never
  /// reallocates.
  template <typename Keep>
  void retain_edges(const Keep& keep) {
    for (std::uint32_t from = 0; from < row_len_.size(); ++from) {
      LocalEdge* const row = edges_.data() + row_begin_[from];
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < row_len_[from]; ++i)
        if (keep(from, row[i])) row[kept++] = row[i];
      row_len_[from] = kept;
    }
  }

 private:
  friend class LocalViewBuilder;

  NodeId origin_ = kInvalidNode;
  std::vector<NodeId> global_ids_;  ///< local -> global; [0]=u, then N(u)
                                    ///< ascending, then N²(u) ascending
  std::vector<std::uint32_t> row_begin_;  ///< CSR row offset per local node
  std::vector<std::uint32_t> row_len_;    ///< live entries in each row
  std::vector<LocalEdge> edges_;          ///< packed rows, sorted by `to`
  std::vector<std::uint32_t> one_hop_;
  std::vector<std::uint32_t> two_hop_;
  std::uint32_t first_two_hop_ = 1;
};

/// Reusable constructor of `LocalView`s. Owns epoch-stamped scratch sized to
/// the *full* graph (a dense global→local map and membership stamps), so
/// that after warm-up, building a view performs zero heap allocation and
/// every membership probe — including the 2-hop discovery that previously
/// binary-searched N(u) per candidate edge — is O(1).
///
/// One builder per worker thread; `build` may be called any number of times
/// with any mix of graphs (the scratch grows monotonically to the largest
/// graph seen). The same instance must not be used concurrently.
class LocalViewBuilder {
 public:
  /// Builds G_u from the full graph into `out`, reusing `out`'s storage.
  void build(const Graph& graph, NodeId u, LocalView& out);

  /// Builds a view from HELLO-table data into `out` (the protocol-stack
  /// form; see LocalView's second constructor).
  void build(NodeId u, const std::vector<LocalView::NeighborLink>& one_hop,
             const std::vector<std::vector<LocalView::NeighborLink>>&
                 neighbor_links,
             LocalView& out);

 private:
  /// Grows the dense scratch to cover global ids < `max_global` and starts
  /// a fresh epoch.
  void begin_epoch(std::size_t max_global);
  /// Assigns local ids (out.global_ids_ etc.) for u + the collected
  /// neighborhoods; stamps every member's global id with its local id.
  void index_nodes(NodeId u, LocalView& out);
  /// Shared CSR finalization: `for_each_edge(emit)` must enumerate every
  /// undirected edge once as emit(a, b, qos) — it is invoked twice (degree
  /// count, then scatter); rows end up sorted by neighbor.
  template <typename ForEachEdge>
  void fill_rows(std::uint32_t n, const ForEachEdge& for_each_edge,
                 LocalView& out);

  // Dense per-global-id scratch, valid while stamp_[id] == epoch_.
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> local_of_;
  std::uint32_t epoch_ = 0;

  // Per-build scratch.
  std::vector<NodeId> one_hop_globals_;
  std::vector<NodeId> two_hop_globals_;
  std::vector<std::uint32_t> cursor_;  ///< degree counts, then write cursors
  struct PendingEdge {
    std::uint32_t a, b;   ///< local endpoints
    std::uint32_t seq;    ///< insertion order (first report wins)
    LinkQos qos;
  };
  std::vector<PendingEdge> pending_;  ///< HELLO path: pre-dedup edge list
};

}  // namespace qolsr
