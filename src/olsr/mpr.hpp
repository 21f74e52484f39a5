#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "graph/node_id.hpp"
#include "olsr/selection_workspace.hpp"

namespace qolsr {

/// The two-phase greedy of RFC 3626 MPR selection (paper §II), the one
/// body behind both the RFC heuristic and QOLSR's MPR-1, which is this
/// greedy with link QoS breaking coverage ties:
///   1. add every 1-hop neighbor that is the *only* cover of some 2-hop
///      neighbor;
///   2. while 2-hop neighbors remain uncovered, add the neighbor covering
///      the most of them; between two neighbors of equal gain, w displaces
///      the best so far when `prefer(w, best)` (local ids) holds. Stops
///      early when the residual 2-hop nodes are uncoverable.
///
/// `ws.covers[w]` (w's view edges into the 2-hop zone) is filled before
/// `prefer` is first called, so a tie-break may read it. The set is
/// written into `out` (cleared first) as ascending global ids; all scratch
/// comes from `ws`.
template <typename Prefer>
void select_mpr_greedy(const LocalView& view, SelectionWorkspace& ws,
                       std::vector<NodeId>& out, const Prefer& prefer) {
  const auto n = static_cast<std::uint32_t>(view.size());
  ws.covered.assign(n, 0);
  ws.in_ans.assign(n, 0);
  auto& covered = ws.covered;
  auto& selected = ws.in_ans;
  std::size_t uncovered_count = view.two_hop().size();

  // Coverage lists per neighbor, and per-2-hop cover counts for phase 1.
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

  // Phase 2: greedy max-coverage, `prefer` between equal gains.
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
          (gain == best_gain && prefer(w, best))) {
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

/// RFC 3626 greedy Multi-Point Relay selection (the original OLSR
/// heuristic, QoS-blind): `select_mpr_greedy` with equal gains broken by
/// the larger total 2-hop reach, then the smaller id. QOLSR's MPR-1 is the
/// same greedy with link QoS in place of the reach (olsr/qolsr_mpr.hpp).
/// Computes the MPR set of the view's origin as ascending global ids.
///
/// The produced set covers all of N²(u) and is within log n of optimal
/// (Qayyum et al.). In FNBP and topology filtering this set keeps its
/// original flooding role while a separate ANS is advertised for routing.
///
/// The set is written into `out` (cleared first); all scratch comes from
/// `ws`.
void select_mpr_rfc3626(const LocalView& view, SelectionWorkspace& ws,
                        std::vector<NodeId>& out);

/// True when every 2-hop neighbor of the view's origin is adjacent to at
/// least one member of `mpr_set` (global ids). Property checked by tests
/// for every selection heuristic.
bool covers_two_hop(const LocalView& view, const std::vector<NodeId>& mpr_set);

}  // namespace qolsr
