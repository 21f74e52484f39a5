#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "metrics/metric.hpp"
#include "olsr/mpr.hpp"
#include "olsr/selection_workspace.hpp"

namespace qolsr {

/// The two QoS-aware MPR heuristics of QOLSR (Badis & Agha 2005), the
/// paper's first baseline (paper §II):
///
///  * MPR-1 is the RFC 3626 greedy with a QoS tie-break: phase 1 forces
///    sole covers, phase 2 picks the neighbor covering the most uncovered
///    2-hop nodes, using link QoS only to break coverage ties. It runs the
///    same `select_mpr_greedy` body as `select_mpr_rfc3626`.
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

/// Fills `ws.link_value` with each local node's origin link under M, read
/// from the origin's row once per view; `M::unreachable()` marks a node
/// with no origin link. Real link values are finite (the codec rejects
/// anything else), so the mark never collides with a link.
template <Metric M>
void fill_origin_links(const LocalView& view, SelectionWorkspace& ws) {
  ws.link_value.assign(view.size(), M::unreachable());
  for (const LocalView::LocalEdge& e :
       view.neighbors(LocalView::origin_index()))
    ws.link_value[e.to] = M::link_value(e.qos);
}

/// MPR-1: the RFC 3626 greedy (`select_mpr_greedy`) with the better
/// origin link under `M::better` breaking coverage ties, then the smaller
/// id. Workspace form; all scratch comes from `ws`, the set lands in `out`
/// (ascending global ids).
template <Metric M>
void select_mpr1(const LocalView& view, SelectionWorkspace& ws,
                 std::vector<NodeId>& out) {
  fill_origin_links<M>(view, ws);
  const auto& link = ws.link_value;
  select_mpr_greedy(view, ws, out, [&](std::uint32_t w, std::uint32_t best) {
    if (M::better(link[w], link[best])) return true;
    if (M::better(link[best], link[w])) return false;
    return view.global_id(w) < view.global_id(best);
  });
}

/// MPR-2: per-2-hop-target nomination of the best 2-hop relay.
template <Metric M>
void select_mpr2(const LocalView& view, SelectionWorkspace& ws,
                 std::vector<NodeId>& out) {
  fill_origin_links<M>(view, ws);
  ws.in_ans.assign(view.size(), 0);
  auto& selected = ws.in_ans;
  for (std::uint32_t v : view.two_hop()) {
    std::uint32_t best = kInvalidNode;
    double best_path = M::unreachable();
    double best_link = M::unreachable();
    for (const LocalView::LocalEdge& e : view.neighbors(v)) {
      const std::uint32_t w = e.to;
      if (!view.is_one_hop(w)) continue;
      const double link = ws.link_value[w];
      if (link == M::unreachable()) continue;  // no origin link
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
