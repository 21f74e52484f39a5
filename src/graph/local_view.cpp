#include "graph/local_view.hpp"

#include <algorithm>
#include <cassert>

namespace qolsr {

namespace {

/// Position of `b` in the row span, or nullptr when absent (rows are sorted
/// by `to`).
const LocalView::LocalEdge* find_in_row(
    std::span<const LocalView::LocalEdge> row, std::uint32_t b) {
  auto it = std::lower_bound(row.begin(), row.end(), b,
                             [](const LocalView::LocalEdge& lhs,
                                std::uint32_t id) { return lhs.to < id; });
  if (it == row.end() || it->to != b) return nullptr;
  return &*it;
}

}  // namespace

LocalView::LocalView(const Graph& graph, NodeId u) {
  thread_local LocalViewBuilder builder;
  builder.build(graph, u, *this);
}

LocalView::LocalView(
    NodeId u, const std::vector<NeighborLink>& one_hop,
    const std::vector<std::vector<NeighborLink>>& neighbor_links) {
  thread_local LocalViewBuilder builder;
  builder.build(u, one_hop, neighbor_links, *this);
}

std::uint32_t LocalView::local_id(NodeId global) const {
  if (global_ids_.empty()) return kInvalidNode;
  if (global == origin_) return origin_index();
  // Both neighborhood segments of global_ids_ are sorted ascending.
  auto search = [&](std::uint32_t lo, std::uint32_t hi) -> std::uint32_t {
    const auto first = global_ids_.begin() + lo;
    const auto last = global_ids_.begin() + hi;
    const auto it = std::lower_bound(first, last, global);
    if (it == last || *it != global) return kInvalidNode;
    return static_cast<std::uint32_t>(it - global_ids_.begin());
  };
  const std::uint32_t in_one_hop = search(1, first_two_hop_);
  if (in_one_hop != kInvalidNode) return in_one_hop;
  return search(first_two_hop_,
                static_cast<std::uint32_t>(global_ids_.size()));
}

bool LocalView::has_local_edge(std::uint32_t a, std::uint32_t b) const {
  return local_edge_qos(a, b) != nullptr;
}

const LinkQos* LocalView::local_edge_qos(std::uint32_t a,
                                         std::uint32_t b) const {
  const LocalEdge* e = find_in_row(neighbors(a), b);
  return e != nullptr ? &e->qos : nullptr;
}

void LocalViewBuilder::begin_epoch(std::size_t max_global) {
  if (stamp_.size() < max_global) {
    stamp_.resize(max_global, 0);
    local_of_.resize(max_global, kInvalidNode);
  }
  if (++epoch_ == 0) {  // epoch wrap: invalidate all stamps explicitly
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
}

void LocalViewBuilder::index_nodes(NodeId u, LocalView& out) {
  const std::size_t n =
      1 + one_hop_globals_.size() + two_hop_globals_.size();
  out.origin_ = u;
  out.global_ids_.clear();
  out.global_ids_.reserve(n);
  out.global_ids_.push_back(u);
  for (NodeId v : one_hop_globals_) out.global_ids_.push_back(v);
  out.first_two_hop_ = static_cast<std::uint32_t>(out.global_ids_.size());
  for (NodeId v : two_hop_globals_) out.global_ids_.push_back(v);

  stamp_[u] = epoch_;
  local_of_[u] = LocalView::origin_index();
  for (std::uint32_t i = 1; i < out.global_ids_.size(); ++i) {
    stamp_[out.global_ids_[i]] = epoch_;
    local_of_[out.global_ids_[i]] = i;
  }

  out.one_hop_.resize(one_hop_globals_.size());
  for (std::uint32_t i = 0; i < out.one_hop_.size(); ++i)
    out.one_hop_[i] = 1 + i;
  out.two_hop_.resize(two_hop_globals_.size());
  for (std::uint32_t i = 0; i < out.two_hop_.size(); ++i)
    out.two_hop_[i] = out.first_two_hop_ + i;
}

template <typename ForEachEdge>
void LocalViewBuilder::fill_rows(std::uint32_t n,
                                 const ForEachEdge& for_each_edge,
                                 LocalView& out) {
  cursor_.assign(n, 0);
  for_each_edge([&](std::uint32_t a, std::uint32_t b, const LinkQos&) {
    assert(a != b);
    ++cursor_[a];
    ++cursor_[b];
  });

  out.row_begin_.resize(n);
  out.row_len_.resize(n);
  std::uint32_t total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.row_begin_[i] = total;
    out.row_len_[i] = cursor_[i];
    total += cursor_[i];
    cursor_[i] = out.row_begin_[i];  // becomes the write cursor
  }
  out.edges_.resize(total);
  for_each_edge([&](std::uint32_t a, std::uint32_t b, const LinkQos& qos) {
    out.edges_[cursor_[a]++] = {b, qos};
    out.edges_[cursor_[b]++] = {a, qos};
  });
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto row = out.edges_.begin() + out.row_begin_[i];
    std::sort(row, row + out.row_len_[i],
              [](const LocalView::LocalEdge& a,
                 const LocalView::LocalEdge& b) { return a.to < b.to; });
  }
}

void LocalViewBuilder::build(const Graph& graph, NodeId u, LocalView& out) {
  begin_epoch(graph.node_count());

  // N(u): direct neighbors, ascending id (graph adjacency is sorted).
  one_hop_globals_.clear();
  for (const Edge& e : graph.neighbors(u)) one_hop_globals_.push_back(e.to);

  // Stamp {u} ∪ N(u) so 2-hop discovery dedups with O(1) probes.
  stamp_[u] = epoch_;
  for (NodeId v : one_hop_globals_) stamp_[v] = epoch_;

  // N²(u): reachable through a neighbor, not u, not in N(u), deduplicated
  // by the same stamps.
  two_hop_globals_.clear();
  for (NodeId v : one_hop_globals_) {
    for (const Edge& e : graph.neighbors(v)) {
      if (stamp_[e.to] == epoch_) continue;
      stamp_[e.to] = epoch_;
      two_hop_globals_.push_back(e.to);
    }
  }
  std::sort(two_hop_globals_.begin(), two_hop_globals_.end());

  index_nodes(u, out);
  const auto n = static_cast<std::uint32_t>(out.size());

  // E_u: every link incident to a 1-hop neighbor whose other endpoint is in
  // V_u; links between two 2-hop neighbors are unknown to u by
  // construction. Each undirected edge is claimed exactly once: 1-hop/1-hop
  // links by their smaller-id endpoint, (u,v) links by v (u is never the
  // outer node).
  fill_rows(
      n,
      [&](auto&& emit) {
        for (NodeId v : one_hop_globals_) {
          const std::uint32_t lv = local_of_[v];
          for (const Edge& e : graph.neighbors(v)) {
            if (stamp_[e.to] != epoch_) continue;  // outside V_u
            const std::uint32_t lw = local_of_[e.to];
            if (out.is_one_hop(lw) && e.to < v) continue;  // claimed by e.to
            emit(lv, lw, e.qos);
          }
        }
      },
      out);
}

void LocalViewBuilder::build(
    NodeId u, const std::vector<LocalView::NeighborLink>& one_hop,
    const std::vector<std::vector<LocalView::NeighborLink>>& neighbor_links,
    LocalView& out) {
  assert(one_hop.size() == neighbor_links.size());
  NodeId max_id = u;
  for (const LocalView::NeighborLink& l : one_hop)
    max_id = std::max(max_id, l.to);
  for (const auto& links : neighbor_links)
    for (const LocalView::NeighborLink& l : links)
      max_id = std::max(max_id, l.to);
  begin_epoch(static_cast<std::size_t>(max_id) + 1);

  one_hop_globals_.clear();
  for (const LocalView::NeighborLink& l : one_hop)
    one_hop_globals_.push_back(l.to);
  std::sort(one_hop_globals_.begin(), one_hop_globals_.end());

  stamp_[u] = epoch_;
  for (NodeId v : one_hop_globals_) stamp_[v] = epoch_;

  two_hop_globals_.clear();
  for (const auto& links : neighbor_links) {
    for (const LocalView::NeighborLink& l : links) {
      if (stamp_[l.to] == epoch_) continue;
      stamp_[l.to] = epoch_;
      two_hop_globals_.push_back(l.to);
    }
  }
  std::sort(two_hop_globals_.begin(), two_hop_globals_.end());

  index_nodes(u, out);
  const auto n = static_cast<std::uint32_t>(out.size());

  // HELLO tables may report the same link from both endpoints (or repeat an
  // entry); the first report wins, matching incremental insertion. Collect
  // candidates with their insertion rank, canonicalize, and keep the first
  // per undirected pair.
  pending_.clear();
  std::uint32_t seq = 0;
  for (const LocalView::NeighborLink& l : one_hop)
    pending_.push_back(
        {LocalView::origin_index(), local_of_[l.to], seq++, l.qos});
  for (std::size_t i = 0; i < one_hop.size(); ++i) {
    const std::uint32_t lv = local_of_[one_hop[i].to];
    for (const LocalView::NeighborLink& l : neighbor_links[i]) {
      if (l.to == u) continue;  // the (u,v) link was added above
      const std::uint32_t lw = local_of_[l.to];
      // A link between two 1-hop neighbors appears in both HELLO tables;
      // keep the copy reported by the smaller-id endpoint.
      if (out.is_one_hop(lw) && l.to < one_hop[i].to) continue;
      pending_.push_back({lv, lw, seq++, l.qos});
    }
  }
  for (PendingEdge& p : pending_)
    if (p.a > p.b) std::swap(p.a, p.b);
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingEdge& x, const PendingEdge& y) {
              if (x.a != y.a) return x.a < y.a;
              if (x.b != y.b) return x.b < y.b;
              return x.seq < y.seq;
            });
  const auto last = std::unique(pending_.begin(), pending_.end(),
                                [](const PendingEdge& x, const PendingEdge& y) {
                                  return x.a == y.a && x.b == y.b;
                                });
  pending_.erase(last, pending_.end());

  fill_rows(
      n,
      [&](auto&& emit) {
        for (const PendingEdge& p : pending_) emit(p.a, p.b, p.qos);
      },
      out);
}

}  // namespace qolsr
