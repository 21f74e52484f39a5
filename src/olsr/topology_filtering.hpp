#pragma once

#include <algorithm>
#include <vector>

#include "graph/local_view.hpp"
#include "graph/rng_reduction.hpp"
#include "olsr/selection_workspace.hpp"
#include "path/first_hops.hpp"

namespace qolsr {

/// Topology-filtering QANS selection (Moraru & Simplot-Ryl, WONS 2006), the
/// paper's second baseline.
///
/// The node first prunes its view with the QoS Relative-Neighborhood-Graph
/// reduction, then advertises, for every 2-hop neighbor, *all* first nodes
/// of the best QoS paths in the reduced view — and likewise for a 1-hop
/// neighbor whose (possibly filtered) direct link is no longer a best path.
/// Selecting every tied first node is precisely the drawback the paper
/// calls out ("they will all be selected as advertised neighbors"), which
/// FNBP removes.
///
/// Returns ascending global ids in `out` (cleared first); the reduced view,
/// the fP table and the selection flags all come from `ws`.
template <Metric M>
void select_topology_filtering_ans(const LocalView& view,
                                   SelectionWorkspace& ws,
                                   std::vector<NodeId>& out) {
  rng_reduce<M>(view, ws.reduced_view, ws.rng_witness);
  const LocalView& reduced = ws.reduced_view;
  compute_first_hops<M>(reduced, ws.dijkstra, ws.first_hops);
  const FirstHopTable& table = ws.first_hops;

  ws.in_ans.assign(view.size(), 0);
  auto& in_ans = ws.in_ans;
  // 1-hop neighbors: select the best first hops whenever the direct link is
  // not itself on a best path in the reduced view.
  for (std::uint32_t v : reduced.one_hop()) {
    const auto& fp = table.fp[v];
    if (std::binary_search(fp.begin(), fp.end(), v)) continue;
    for (std::uint32_t w : fp) in_ans[w] = 1;
  }
  // 2-hop neighbors: every best first hop is advertised.
  for (std::uint32_t v : reduced.two_hop()) {
    for (std::uint32_t w : table.fp[v]) in_ans[w] = 1;
  }

  out.clear();
  for (std::uint32_t w = 0; w < view.size(); ++w)
    if (in_ans[w] != 0) out.push_back(view.global_id(w));
  std::sort(out.begin(), out.end());
}

}  // namespace qolsr
