#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/node_id.hpp"
#include "routing/advertised_topology.hpp"

namespace qolsr {

/// A node's knowledge graph as an overlay instead of a copy: the CSR
/// advertised base plus a per-hop patch holding the few rows the current
/// hop sees differently (its own incident links, or its merged HELLO
/// view). `neighbors(v)` answers from the patch when v was touched this
/// hop and from the base otherwise, so hop-by-hop forwarding never copies
/// a graph.
///
/// Patched rows are the sorted-by-neighbor union of the base row and the
/// added links, with the base record winning on a duplicate id — the
/// `if (!has_edge) add_edge` semantics of merging the links into a copy of
/// the advertised `Graph`, so Dijkstra scans the records such a copy would
/// hold, in the same order.
///
/// Per-hop usage: begin_hop(), any number of add_link(), finalize_hop(),
/// then hand the view to compute_next_hop. All row storage is pooled and
/// reused across hops and packets.
class KnowledgeView {
 public:
  /// Binds the advertised base for the coming hops and invalidates any
  /// patch. `base` must outlive this view.
  void reset(const CsrTopology& base) {
    base_ = &base;
    const std::size_t n = base.node_count();
    if (patch_of_.size() < n) patch_of_.resize(n);
    if (stamp_.size() < n) stamp_.resize(n, 0);
    bump_epoch();
  }

  /// Discards the previous hop's patch (O(1); row storage is kept).
  void begin_hop() {
    bump_epoch();
    rows_used_ = 0;
  }

  /// Records the directed link u→to as part of u's knowledge this hop.
  /// Ignored at finalize when the base already advertises u→to.
  void add_link(NodeId u, NodeId to, const LinkQos& qos) {
    PatchRow& row = row_of(u);
    row.extras.push_back({to, qos});
  }

  /// Merges every patched row with its base row. Must be called after the
  /// add_link calls of a hop and before neighbors().
  void finalize_hop() {
    for (std::size_t i = 0; i < rows_used_; ++i) {
      PatchRow& row = rows_[i];
      std::sort(row.extras.begin(), row.extras.end(),
                [](const Edge& a, const Edge& b) { return a.to < b.to; });
      const std::span<const Edge> base_row = base_->neighbors(row.node);
      row.merged.clear();
      auto extra = row.extras.begin();
      for (const Edge& e : base_row) {
        while (extra != row.extras.end() && extra->to < e.to)
          row.merged.push_back(*extra++);
        if (extra != row.extras.end() && extra->to == e.to)
          ++extra;  // base record wins (same seed-merge semantics)
        row.merged.push_back(e);
      }
      row.merged.insert(row.merged.end(), extra, row.extras.end());
    }
  }

  std::size_t node_count() const { return base_->node_count(); }

  std::span<const Edge> neighbors(NodeId v) const {
    if (stamp_[v] == epoch_) return rows_[patch_of_[v]].merged;
    return base_->neighbors(v);
  }

 private:
  struct PatchRow {
    NodeId node = kInvalidNode;
    std::vector<Edge> extras;
    std::vector<Edge> merged;
  };

  void bump_epoch() {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  PatchRow& row_of(NodeId u) {
    if (stamp_[u] == epoch_) return rows_[patch_of_[u]];
    stamp_[u] = epoch_;
    patch_of_[u] = static_cast<std::uint32_t>(rows_used_);
    if (rows_used_ == rows_.size()) rows_.emplace_back();
    PatchRow& row = rows_[rows_used_++];
    row.node = u;
    row.extras.clear();
    return row;
  }

  const CsrTopology* base_ = nullptr;
  std::vector<PatchRow> rows_;  ///< pooled; rows_used_ live this hop
  std::size_t rows_used_ = 0;
  std::vector<std::uint32_t> patch_of_;  ///< node → live row index
  std::vector<std::uint32_t> stamp_;     ///< patch validity epoch
  std::uint32_t epoch_ = 0;
};

}  // namespace qolsr
