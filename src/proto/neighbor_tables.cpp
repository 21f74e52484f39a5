#include "proto/neighbor_tables.hpp"

#include <algorithm>

#include "util/digest.hpp"

namespace qolsr {

NeighborTables::Outcome NeighborTables::on_hello(const HelloMessage& hello,
                                                 const LinkQos& qos,
                                                 double now) {
  const auto [it, inserted] = links_.try_emplace(hello.originator);
  LinkEntry& entry = it->second;
  const bool was_sym = !inserted && entry.sym_until >= 0.0;
  const bool was_mpr = !inserted && entry.selected_us_mpr;
  const LinkQos old_qos = entry.qos;
  entry.qos = qos;
  entry.asym_until = now + hold_time_;
  // Two-way handshake: the link is symmetric iff the sender lists us.
  entry.selected_us_mpr = false;
  bool lists_us = false;
  for (const LinkAdvert& a : hello.links) {
    if (a.neighbor != self_) continue;
    lists_us = true;
    if (a.status == LinkStatus::kMpr) entry.selected_us_mpr = true;
  }
  if (lists_us) entry.sym_until = now + hold_time_;
  // The sender's full (symmetric) link table gives us the 2-hop view.
  entry.advertised.clear();
  for (const LinkAdvert& a : hello.links) {
    if (a.status == LinkStatus::kAsymmetric) continue;  // not yet usable
    entry.advertised.push_back(a);
  }
  const bool is_sym = entry.sym_until >= 0.0;
  Outcome out;
  out.digest_changed =
      inserted || was_sym != is_sym || was_mpr != entry.selected_us_mpr;
  out.view_changed = was_sym != is_sym || (is_sym && !(old_qos == entry.qos));
  return out;
}

NeighborTables::Outcome NeighborTables::expire(double now) {
  Outcome out;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.asym_until < now) {
      if (it->second.sym_until >= 0.0) out.view_changed = true;
      out.digest_changed = true;  // the digest folds every held entry
      it = links_.erase(it);
    } else {
      if (it->second.sym_until >= 0.0 && it->second.sym_until < now) {
        it->second.sym_until = -1.0;
        out.digest_changed = true;
        out.view_changed = true;
      }
      ++it;
    }
  }
  return out;
}

std::uint64_t NeighborTables::digest(std::uint64_t h) const {
  for (const auto& [id, entry] : links_) {  // ordered map: stable fold order
    h = util::digest_mix(h, id);
    h = util::digest_mix(h, (entry.sym_until >= 0.0 ? 2u : 0u) |
                                (entry.selected_us_mpr ? 1u : 0u));
  }
  return h;
}

std::uint64_t NeighborTables::converged_digest(std::uint64_t h) const {
  for (const auto& [id, entry] : links_) {  // ordered map: stable fold order
    h = util::digest_mix(h, id);
    h = util::digest_mix(h, (entry.sym_until >= 0.0 ? 2u : 0u) |
                                (entry.selected_us_mpr ? 1u : 0u));
    h = digest_qos(h, entry.qos);
    h = util::digest_mix(h, entry.advertised.size());
    for (const LinkAdvert& a : entry.advertised) {
      h = util::digest_mix(h, a.neighbor);
      h = util::digest_mix(h, static_cast<std::uint64_t>(a.status));
      h = digest_qos(h, a.qos);
    }
  }
  return h;
}

std::vector<NodeId> NeighborTables::symmetric_neighbors() const {
  std::vector<NodeId> result;
  for (const auto& [id, entry] : links_)
    if (entry.sym_until >= 0.0) result.push_back(id);
  return result;  // std::map iteration is already ascending
}

std::vector<NodeId> NeighborTables::heard_neighbors() const {
  std::vector<NodeId> result;
  result.reserve(links_.size());
  for (const auto& [id, entry] : links_) {
    (void)entry;
    result.push_back(id);
  }
  return result;
}

bool NeighborTables::selected_us_as_mpr(NodeId neighbor) const {
  auto it = links_.find(neighbor);
  return it != links_.end() && it->second.sym_until >= 0.0 &&
         it->second.selected_us_mpr;
}

bool NeighborTables::is_symmetric(NodeId neighbor) const {
  auto it = links_.find(neighbor);
  return it != links_.end() && it->second.sym_until >= 0.0;
}

const LinkQos* NeighborTables::link_qos(NodeId neighbor) const {
  auto it = links_.find(neighbor);
  if (it == links_.end()) return nullptr;
  return &it->second.qos;
}

std::vector<NodeId> NeighborTables::mpr_selectors() const {
  std::vector<NodeId> result;
  for (const auto& [id, entry] : links_)
    if (entry.sym_until >= 0.0 && entry.selected_us_mpr)
      result.push_back(id);
  return result;
}

void NeighborTables::build_local_view(LocalViewInput& input,
                                      LocalView& out) const {
  auto& rows = input.neighbor_links;
  input.one_hop.clear();
  std::size_t used = 0;
  for (const auto& [id, entry] : links_) {
    if (entry.sym_until < 0.0) continue;
    input.one_hop.push_back({id, entry.qos});
    if (used == rows.size()) {
      if (input.parked.empty()) {
        rows.emplace_back();
      } else {
        rows.push_back(std::move(input.parked.back()));
        input.parked.pop_back();
      }
    }
    std::vector<LocalView::NeighborLink>& advertised = rows[used++];
    advertised.clear();
    for (const LinkAdvert& a : entry.advertised)
      advertised.push_back({a.neighbor, a.qos});
  }
  while (rows.size() > used) {
    input.parked.push_back(std::move(rows.back()));
    rows.pop_back();
  }
  input.builder.build(self_, input.one_hop, rows, out);
}

LocalView NeighborTables::build_local_view() const {
  LocalViewInput input;
  LocalView view;
  build_local_view(input, view);
  return view;
}

}  // namespace qolsr
