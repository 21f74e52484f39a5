#include "routing/advertised_topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace qolsr {

namespace {

[[noreturn]] void throw_non_neighbor(NodeId u, NodeId w) {
  throw std::logic_error(
      "build_advertised_topology: ANS member " + std::to_string(w) +
      " of node " + std::to_string(u) +
      " is not a 1-hop neighbor (selection and topology disagree)");
}

void check_sizes(const Graph& full,
                 const std::vector<std::vector<NodeId>>& ans_per_node) {
  if (ans_per_node.size() != full.node_count())
    throw std::logic_error(
        "build_advertised_topology: " + std::to_string(ans_per_node.size()) +
        " advertised sets for " + std::to_string(full.node_count()) +
        " nodes");
}

}  // namespace

bool CsrTopology::has_edge(NodeId from, NodeId to) const {
  return edge_qos(from, to) != nullptr;
}

const LinkQos* CsrTopology::edge_qos(NodeId from, NodeId to) const {
  const std::span<const Edge> row = neighbors(from);
  const auto it = std::lower_bound(
      row.begin(), row.end(), to,
      [](const Edge& lhs, NodeId id) { return lhs.to < id; });
  return it != row.end() && it->to == to ? &it->qos : nullptr;
}

namespace {

constexpr std::uint64_t pack(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

void AdvertisedTopologyBuilder::build_advertised(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node,
    CsrTopology& out) {
  check_sizes(full, ans_per_node);
  pending_.clear();
  for (NodeId u = 0; u < full.node_count(); ++u) {
    for (NodeId w : ans_per_node[u]) {
      if (!full.has_edge(u, w)) throw_non_neighbor(u, w);
      pending_.push_back(pack(u, w));
      pending_.push_back(pack(w, u));
    }
  }
  finish(full, full.node_count(), out);
}

void AdvertisedTopologyBuilder::build_ans_chain(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node,
    NodeId destination, CsrTopology& out) {
  check_sizes(full, ans_per_node);
  pending_.clear();
  for (NodeId x = 0; x < full.node_count(); ++x) {
    for (NodeId w : ans_per_node[x]) {
      if (!full.has_edge(x, w)) continue;
      pending_.push_back(pack(x, w));
      if (w == destination) continue;
      // The undirected advertised link {x,w} is known network-wide; if one
      // end is the destination, the other end can complete the delivery.
      if (x == destination) pending_.push_back(pack(w, x));
    }
  }
  finish(full, full.node_count(), out);
}

void AdvertisedTopologyBuilder::finish(const Graph& full,
                                       std::size_t node_count,
                                       CsrTopology& out) {
  // Counting sort by row, then an in-place sort of each (tiny) row: O(E)
  // scatter plus O(d log d) per node beats one global O(E log E) sort.
  const auto n = static_cast<std::uint32_t>(node_count);
  cursor_.assign(n + 1, 0);
  for (const std::uint64_t key : pending_) ++cursor_[(key >> 32) + 1];
  for (std::uint32_t v = 0; v < n; ++v) cursor_[v + 1] += cursor_[v];
  scratch_to_.resize(pending_.size());
  for (const std::uint64_t key : pending_)
    scratch_to_[cursor_[key >> 32]++] = static_cast<NodeId>(key);
  // cursor_[v] is now the *end* of row v (rows shifted one slot left).

  out.row_begin_.resize(n + 1);
  out.edges_.clear();
  std::uint32_t begin = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    out.row_begin_[v] = static_cast<std::uint32_t>(out.edges_.size());
    const std::uint32_t end = cursor_[v];
    std::sort(scratch_to_.begin() + begin, scratch_to_.begin() + end);
    NodeId previous = kInvalidNode;
    for (std::uint32_t i = begin; i < end; ++i) {
      const NodeId to = scratch_to_[i];
      if (to == previous) continue;  // advertised by both ends
      previous = to;
      out.edges_.push_back({to, *full.edge_qos(v, to)});
    }
    begin = end;
  }
  out.row_begin_[n] = static_cast<std::uint32_t>(out.edges_.size());
}

Graph build_advertised_topology(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node) {
  check_sizes(full, ans_per_node);
  Graph advertised(full.node_count());
  for (NodeId u = 0; u < full.node_count(); ++u) {
    advertised.set_position(u, full.position(u));
    for (NodeId w : ans_per_node[u]) {
      if (advertised.has_edge(u, w)) continue;  // already advertised by w
      const LinkQos* qos = full.edge_qos(u, w);
      if (qos == nullptr) throw_non_neighbor(u, w);
      advertised.add_edge(u, w, *qos);
    }
  }
  return advertised;
}

double average_set_size(
    const std::vector<std::vector<NodeId>>& ans_per_node) {
  if (ans_per_node.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& set : ans_per_node) total += set.size();
  return static_cast<double>(total) /
         static_cast<double>(ans_per_node.size());
}

}  // namespace qolsr
