#include "olsr/mpr.hpp"

#include <algorithm>
#include <cstdint>

namespace qolsr {

void select_mpr_rfc3626(const LocalView& view, SelectionWorkspace& ws,
                        std::vector<NodeId>& out) {
  const auto& covers = ws.covers;
  select_mpr_greedy(view, ws, out, [&](std::uint32_t w, std::uint32_t best) {
    return covers[w].size() > covers[best].size() ||
           (covers[w].size() == covers[best].size() &&
            view.global_id(w) < view.global_id(best));
  });
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
