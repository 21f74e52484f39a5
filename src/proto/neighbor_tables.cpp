#include "proto/neighbor_tables.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/digest.hpp"

namespace qolsr {

namespace {

/// std::lower_bound order of the id-sorted entry table.
constexpr auto id_less = [](const auto& entry, NodeId id) {
  return entry.id < id;
};

/// Bit-for-bit equality of two QoS tuples, the equality `digest_qos`
/// sees: unlike `==`, it tells 0.0 from -0.0.
bool same_bits(const LinkQos& a, const LinkQos& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.bandwidth) == bits(b.bandwidth) &&
         bits(a.delay) == bits(b.delay) && bits(a.jitter) == bits(b.jitter) &&
         bits(a.loss_cost) == bits(b.loss_cost) &&
         bits(a.energy) == bits(b.energy) &&
         bits(a.buffers) == bits(b.buffers);
}

}  // namespace

const NeighborTables::LinkEntry* NeighborTables::find(NodeId neighbor) const {
  const auto it =
      std::lower_bound(links_.begin(), links_.end(), neighbor, id_less);
  return it != links_.end() && it->id == neighbor ? &*it : nullptr;
}

NeighborTables::Outcome NeighborTables::on_hello(const HelloMessage& hello,
                                                 const LinkQos& qos,
                                                 double now) {
  auto it = std::lower_bound(links_.begin(), links_.end(), hello.originator,
                             id_less);
  const bool inserted = it == links_.end() || it->id != hello.originator;
  if (inserted) {
    it = links_.emplace(it);
    it->id = hello.originator;
  }
  LinkEntry& entry = *it;
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
  // The sender's full (symmetric) link table gives us the 2-hop view. It
  // is written over the held one in place, noting whether the (neighbor,
  // QoS) sequence the view reads moved.
  std::vector<LinkAdvert>& held = entry.advertised;
  bool adverts_moved = false;
  std::size_t kept = 0;
  for (const LinkAdvert& a : hello.links) {
    if (a.status == LinkStatus::kAsymmetric) continue;  // not yet usable
    if (kept == held.size()) {
      held.push_back(a);
      adverts_moved = true;
    } else {
      adverts_moved = adverts_moved || held[kept].neighbor != a.neighbor ||
                      !same_bits(held[kept].qos, a.qos);
      held[kept] = a;
    }
    ++kept;
  }
  if (kept != held.size()) {
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(kept), held.end());
    adverts_moved = true;
  }
  const bool is_sym = entry.sym_until >= 0.0;
  Outcome out;
  out.digest_changed =
      inserted || was_sym != is_sym || was_mpr != entry.selected_us_mpr;
  out.view_changed = was_sym != is_sym || (is_sym && !(old_qos == entry.qos));
  out.local_view_changed = out.view_changed || (is_sym && adverts_moved);
  return out;
}

NeighborTables::Outcome NeighborTables::expire(double now) {
  Outcome out;
  // Compacts the live entries in order, so the table stays sorted; a swap
  // carries each live entry's advert buffer along instead of copying it.
  std::size_t live = 0;
  for (LinkEntry& entry : links_) {
    if (entry.asym_until < now) {
      if (entry.sym_until >= 0.0) out.view_changed = true;
      out.digest_changed = true;  // the digest folds every held entry
      continue;
    }
    if (entry.sym_until >= 0.0 && entry.sym_until < now) {
      entry.sym_until = -1.0;
      out.digest_changed = true;
      out.view_changed = true;
    }
    if (&entry != &links_[live]) std::swap(entry, links_[live]);
    ++live;
  }
  links_.erase(links_.begin() + static_cast<std::ptrdiff_t>(live),
               links_.end());
  out.local_view_changed = out.view_changed;
  return out;
}

std::uint64_t NeighborTables::digest(std::uint64_t h) const {
  for (const LinkEntry& entry : links_) {  // sorted: stable fold order
    h = util::digest_mix(h, entry.id);
    h = util::digest_mix(h, (entry.sym_until >= 0.0 ? 2u : 0u) |
                                (entry.selected_us_mpr ? 1u : 0u));
  }
  return h;
}

std::uint64_t NeighborTables::converged_digest(std::uint64_t h) const {
  for (const LinkEntry& entry : links_) {  // sorted: stable fold order
    h = util::digest_mix(h, entry.id);
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
  for (const LinkEntry& entry : links_)
    if (entry.sym_until >= 0.0) result.push_back(entry.id);
  return result;
}

std::vector<NodeId> NeighborTables::heard_neighbors() const {
  std::vector<NodeId> result;
  result.reserve(links_.size());
  for (const LinkEntry& entry : links_) result.push_back(entry.id);
  return result;
}

bool NeighborTables::selected_us_as_mpr(NodeId neighbor) const {
  const LinkEntry* entry = find(neighbor);
  return entry != nullptr && entry->sym_until >= 0.0 &&
         entry->selected_us_mpr;
}

bool NeighborTables::is_symmetric(NodeId neighbor) const {
  const LinkEntry* entry = find(neighbor);
  return entry != nullptr && entry->sym_until >= 0.0;
}

const LinkQos* NeighborTables::link_qos(NodeId neighbor) const {
  const LinkEntry* entry = find(neighbor);
  return entry != nullptr ? &entry->qos : nullptr;
}

std::vector<NodeId> NeighborTables::mpr_selectors() const {
  std::vector<NodeId> result;
  for (const LinkEntry& entry : links_)
    if (entry.sym_until >= 0.0 && entry.selected_us_mpr)
      result.push_back(entry.id);
  return result;
}

void NeighborTables::build_local_view(LocalViewInput& input,
                                      LocalView& out) const {
  auto& rows = input.neighbor_links;
  input.one_hop.clear();
  std::size_t used = 0;
  for (const LinkEntry& entry : links_) {
    if (entry.sym_until < 0.0) continue;
    input.one_hop.push_back({entry.id, entry.qos});
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
