#include "olsr/mpr.hpp"

#include <algorithm>
#include <cstdint>

namespace qolsr {

void select_mpr_rfc3626(const LocalView& view, SelectionWorkspace& ws,
                        std::vector<NodeId>& out) {
  const auto n = static_cast<std::uint32_t>(view.size());
  ws.covered.assign(n, 0);
  ws.in_ans.assign(n, 0);
  auto& covered = ws.covered;
  auto& selected = ws.in_ans;
  std::size_t uncovered_count = view.two_hop().size();

  // Coverage lists per neighbor (the view edges from w into the 2-hop
  // zone), and per-2-hop cover counts for phase 1.
  ws.reset_covers(n);
  ws.cover_count.assign(n, 0);
  auto& covers = ws.covers;
  auto& cover_count = ws.cover_count;
  for (std::uint32_t w : view.one_hop()) {
    for (const LocalView::LocalEdge& e : view.neighbors(w))
      if (view.is_two_hop(e.to)) covers[w].push_back(e.to);
    for (std::uint32_t v : covers[w]) ++cover_count[v];
  }

  auto select = [&](std::uint32_t w) {
    selected[w] = 1;
    for (std::uint32_t v : covers[w]) {
      if (!covered[v]) {
        covered[v] = 1;
        --uncovered_count;
      }
    }
  };

  // Phase 1: sole covers are forced.
  for (std::uint32_t w : view.one_hop()) {
    const bool sole = std::any_of(
        covers[w].begin(), covers[w].end(),
        [&](std::uint32_t v) { return cover_count[v] == 1; });
    if (sole) select(w);
  }

  // Phase 2: greedy max-coverage.
  while (uncovered_count > 0) {
    std::uint32_t best = kInvalidNode;
    std::size_t best_gain = 0;
    for (std::uint32_t w : view.one_hop()) {
      if (selected[w]) continue;
      const std::size_t gain = static_cast<std::size_t>(
          std::count_if(covers[w].begin(), covers[w].end(),
                        [&](std::uint32_t v) { return !covered[v]; }));
      if (gain == 0) continue;
      if (best == kInvalidNode || gain > best_gain ||
          (gain == best_gain &&
           (covers[w].size() > covers[best].size() ||
            (covers[w].size() == covers[best].size() &&
             view.global_id(w) < view.global_id(best))))) {
        best = w;
        best_gain = gain;
      }
    }
    if (best == kInvalidNode) break;  // residual 2-hop nodes are uncoverable
    select(best);
  }

  out.clear();
  for (std::uint32_t w : view.one_hop())
    if (selected[w]) out.push_back(view.global_id(w));
  std::sort(out.begin(), out.end());
}

bool covers_two_hop(const LocalView& view,
                    const std::vector<NodeId>& mpr_set) {
  std::vector<bool> is_mpr(view.size(), false);
  for (NodeId id : mpr_set) {
    const std::uint32_t local = view.local_id(id);
    if (local != kInvalidNode) is_mpr[local] = true;
  }
  for (std::uint32_t v : view.two_hop()) {
    const bool covered = std::any_of(
        view.neighbors(v).begin(), view.neighbors(v).end(),
        [&](const LocalView::LocalEdge& e) {
          return view.is_one_hop(e.to) && is_mpr[e.to];
        });
    if (!covered) return false;
  }
  return true;
}

}  // namespace qolsr
