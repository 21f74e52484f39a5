#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "metrics/metric.hpp"
#include "olsr/selection_workspace.hpp"

namespace qolsr {

/// The two QoS-aware MPR heuristics of QOLSR (Badis & Agha 2005), the
/// paper's first baseline (paper §II):
///
///  * MPR-1 keeps the RFC 3626 shape: phase 1 forces sole covers, phase 2
///    picks the neighbor covering the most uncovered 2-hop nodes, using
///    link QoS only to break coverage ties.
///  * MPR-2 "does not consider the number of covered 2-hop neighbors but
///    the bandwidth or delay when choosing": for every 2-hop neighbor v it
///    nominates the relay w maximizing the QoS of the 2-hop path u·w·v
///    (combine(q(u,w), q(w,v))), ties broken by the better (u,w) link and
///    then the smaller id. This per-target reading is what makes QOLSR's
///    advertised set grow with density (each new 2-hop neighbor can
///    nominate a new relay — the paper's Fig. 6/7 magnitudes) and gives
///    QOLSR its QoS-optimal *two-hop* paths — while still being unable to
///    use paths longer than 2 hops, the root cause of the Fig.-1 miss of
///    the widest path. A sole cover is trivially its targets' nominee, so
///    the RFC phase 1 is subsumed.
///
/// The paper evaluates against MPR-2.
enum class QolsrVariant { kMpr1, kMpr2 };

namespace qolsr_detail {

/// MPR-1: RFC-3626-shaped greedy with QoS tie-breaks. Workspace form; all
/// scratch comes from `ws`, the set lands in `out` (ascending global ids).
template <Metric M>
void select_mpr1(const LocalView& view, SelectionWorkspace& ws,
                 std::vector<NodeId>& out) {
  const auto n = static_cast<std::uint32_t>(view.size());
  ws.covered.assign(n, 0);
  ws.in_ans.assign(n, 0);
  auto& covered = ws.covered;
  auto& selected = ws.in_ans;
  std::size_t uncovered_count = view.two_hop().size();

  ws.reset_covers(n);
  ws.cover_count.assign(n, 0);
  ws.link_value.assign(n, M::unreachable());
  auto& covers = ws.covers;
  for (std::uint32_t w : view.one_hop()) {
    for (const LocalView::LocalEdge& e : view.neighbors(w))
      if (view.is_two_hop(e.to)) covers[w].push_back(e.to);
    for (std::uint32_t v : covers[w]) ++ws.cover_count[v];
    if (const LinkQos* qos =
            view.local_edge_qos(LocalView::origin_index(), w))
      ws.link_value[w] = M::link_value(*qos);
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
        [&](std::uint32_t v) { return ws.cover_count[v] == 1; });
    if (sole) select(w);
  }

  // Phase 2: max coverage, QoS tie-break, id as final tie-break.
  while (uncovered_count > 0) {
    std::uint32_t best = kInvalidNode;
    std::size_t best_gain = 0;
    for (std::uint32_t w : view.one_hop()) {
      if (selected[w]) continue;
      const std::size_t gain = static_cast<std::size_t>(
          std::count_if(covers[w].begin(), covers[w].end(),
                        [&](std::uint32_t v) { return !covered[v]; }));
      if (gain == 0) continue;
      if (best == kInvalidNode) {
        best = w;
        best_gain = gain;
        continue;
      }
      bool take = false;
      if (gain != best_gain) {
        take = gain > best_gain;
      } else if (M::better(ws.link_value[w], ws.link_value[best])) {
        take = true;
      } else if (!M::better(ws.link_value[best], ws.link_value[w])) {
        take = view.global_id(w) < view.global_id(best);
      }
      if (take) {
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

/// MPR-2: per-2-hop-target nomination of the best 2-hop relay.
template <Metric M>
void select_mpr2(const LocalView& view, SelectionWorkspace& ws,
                 std::vector<NodeId>& out) {
  ws.in_ans.assign(view.size(), 0);
  auto& selected = ws.in_ans;
  for (std::uint32_t v : view.two_hop()) {
    std::uint32_t best = kInvalidNode;
    double best_path = M::unreachable();
    double best_link = M::unreachable();
    for (const LocalView::LocalEdge& e : view.neighbors(v)) {
      const std::uint32_t w = e.to;
      if (!view.is_one_hop(w)) continue;
      const LinkQos* uw = view.local_edge_qos(LocalView::origin_index(), w);
      if (uw == nullptr) continue;
      const double link = M::link_value(*uw);
      const double path = M::combine(link, M::link_value(e.qos));
      bool take = false;
      if (best == kInvalidNode || M::better(path, best_path)) {
        take = true;
      } else if (!M::better(best_path, path)) {
        if (M::better(link, best_link)) {
          take = true;
        } else if (!M::better(best_link, link)) {
          take = view.global_id(w) < view.global_id(best);
        }
      }
      if (take) {
        best = w;
        best_path = path;
        best_link = link;
      }
    }
    if (best != kInvalidNode) selected[best] = 1;
  }

  out.clear();
  for (std::uint32_t w : view.one_hop())
    if (selected[w]) out.push_back(view.global_id(w));
  std::sort(out.begin(), out.end());
}

}  // namespace qolsr_detail

/// QOLSR MPR selection of the view's origin under `variant`: ascending
/// global ids written into `out` (cleared first), all scratch from `ws`.
template <Metric M>
void select_qolsr_mpr(const LocalView& view, QolsrVariant variant,
                      SelectionWorkspace& ws, std::vector<NodeId>& out) {
  if (variant == QolsrVariant::kMpr1) {
    qolsr_detail::select_mpr1<M>(view, ws, out);
  } else {
    qolsr_detail::select_mpr2<M>(view, ws, out);
  }
}

}  // namespace qolsr
