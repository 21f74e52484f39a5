#include "proto/topology_base.hpp"

#include <algorithm>
#include <limits>

#include "util/digest.hpp"

namespace qolsr {

namespace {

/// Same advertised neighbor-id sequence? Order-sensitive on purpose — the
/// digest and to_graph both walk the sequence in held order.
bool same_links(const std::vector<LinkAdvert>& a,
                const std::vector<LinkAdvert>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].neighbor != b[i].neighbor) return false;
  return true;
}

/// Same (neighbor, qos) sequence — whether the entry's routing-view
/// contribution is unchanged.
bool same_view(const std::vector<LinkAdvert>& a,
               const std::vector<LinkAdvert>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].neighbor != b[i].neighbor || !(a[i].qos == b[i].qos))
      return false;
  return true;
}

}  // namespace

TopologyBase::TcOutcome TopologyBase::apply_tc(const TcMessage& tc,
                                               double now) {
  TcOutcome out;
  if (tc.originator >= entries_.size()) entries_.resize(tc.originator + 1);
  Entry& entry = entries_[tc.originator];
  if (entry.held && entry.expires >= now && !newer(tc.ansn, entry.ansn) &&
      tc.ansn != entry.ansn) {
    return out;  // stale — every flag false
  }
  out.fresh = true;
  if (!entry.held) {
    // New originator: digest folds the originator id, so even an empty
    // advertisement is a visible change.
    out.links_changed = true;
    out.view_changed = !tc.advertised.empty();
    entry.held = true;
    ++held_;
  } else {
    // The digest ignores expiry, so `links_changed` compares against the
    // held advertisement regardless of validity; the routing view is
    // validity-aware, so a held-but-expired entry contributed nothing and
    // any non-empty refresh revives it.
    out.links_changed = !same_links(entry.advertised, tc.advertised);
    out.view_changed = entry.expires < now
                           ? !tc.advertised.empty()
                           : !same_view(entry.advertised, tc.advertised);
  }
  entry.ansn = tc.ansn;
  entry.expires = now + hold_time_;
  entry.advertised = tc.advertised;
  return out;
}

bool TopologyBase::expire(double now) {
  bool removed = false;
  for (Entry& entry : entries_) {
    if (entry.held && entry.expires < now) {
      entry.held = false;  // the slot keeps its advert capacity
      --held_;
      removed = true;
    }
  }
  return removed;
}

double TopologyBase::next_expiry() const {
  double next = std::numeric_limits<double>::infinity();
  for (const Entry& entry : entries_)
    if (entry.held) next = std::min(next, entry.expires);
  return next;
}

Graph TopologyBase::to_graph(std::size_t node_count) const {
  return to_graph(node_count, -std::numeric_limits<double>::infinity());
}

Graph TopologyBase::to_graph(std::size_t node_count, double now) const {
  Graph graph(node_count);
  to_graph_into(graph, node_count, now);
  return graph;
}

double TopologyBase::to_graph_into(Graph& out, std::size_t node_count,
                                   double now) const {
  out.reset_nodes(node_count);
  double fresh_until = std::numeric_limits<double>::infinity();
  const std::size_t originators = std::min(entries_.size(), node_count);
  for (NodeId originator = 0; originator < originators; ++originator) {
    const Entry& entry = entries_[originator];
    if (!entry.held) continue;
    if (entry.expires < now) continue;  // held but already invalid
    fresh_until = std::min(fresh_until, entry.expires);
    for (const LinkAdvert& a : entry.advertised) {
      if (a.neighbor >= node_count) continue;
      if (!out.has_edge(originator, a.neighbor))
        out.add_edge(originator, a.neighbor, a.qos);
    }
  }
  return fresh_until;
}

std::uint64_t TopologyBase::digest(std::uint64_t h) const {
  for (NodeId originator = 0; originator < entries_.size(); ++originator) {
    const Entry& entry = entries_[originator];
    if (!entry.held) continue;
    h = util::digest_mix(h, originator);
    for (const LinkAdvert& a : entry.advertised)
      h = util::digest_mix(h, a.neighbor);
  }
  return h;
}

std::uint64_t TopologyBase::converged_digest(std::uint64_t h) const {
  for (NodeId originator = 0; originator < entries_.size(); ++originator) {
    const Entry& entry = entries_[originator];
    if (!entry.held) continue;
    h = util::digest_mix(h, originator);
    h = util::digest_mix(h, entry.advertised.size());
    for (const LinkAdvert& a : entry.advertised) {
      h = util::digest_mix(h, a.neighbor);
      h = util::digest_mix(h, static_cast<std::uint64_t>(a.status));
      h = digest_qos(h, a.qos);
    }
  }
  return h;
}

std::optional<std::uint16_t> TopologyBase::ansn_of(NodeId originator) const {
  const Entry* entry = find(originator);
  if (entry == nullptr) return std::nullopt;
  return entry->ansn;
}

std::vector<NodeId> TopologyBase::advertised_of(NodeId originator) const {
  std::vector<NodeId> result;
  const Entry* entry = find(originator);
  if (entry == nullptr) return result;
  for (const LinkAdvert& a : entry->advertised) result.push_back(a.neighbor);
  return result;
}

}  // namespace qolsr
