#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/local_view.hpp"
#include "path/dijkstra.hpp"

namespace qolsr {

/// The per-destination "first node on best path" sets of the paper:
/// for every v in the local view,
///
///   best[v] = B̃(u,v)   (resp. D̃(u,v)) — the best simple-path value from u
///                        to v inside G_u;
///   fp[v]   = fP(u,v)  — every 1-hop neighbor w of u that starts some best
///                        path (paper §III-A; e.g. fPBW(u,v3) = {v1,v2} in
///                        its Fig. 2).
///
/// Indexed by *local* id; `fp` lists local ids, ascending (which is also
/// ascending global id, since one-hop locals are assigned in id order).
struct FirstHopTable {
  std::vector<double> best;
  std::vector<std::vector<std::uint32_t>> fp;

  bool reachable(std::uint32_t v) const { return !fp[v].empty(); }
};

namespace first_hops_detail {

/// Resizes `fp` to `n` empty lists without freeing any list's storage:
/// lists past `n` are parked on `spare`, and growing takes them back first.
/// Both ends work as stacks, so every list returns to the index it left
/// and keeps the capacity that index needed before.
inline void reset_lists(std::vector<std::vector<std::uint32_t>>& fp,
                        std::size_t n,
                        std::vector<std::vector<std::uint32_t>>& spare) {
  while (fp.size() > n) {
    spare.push_back(std::move(fp.back()));
    fp.pop_back();
  }
  while (fp.size() < n) {
    if (spare.empty()) {
      fp.emplace_back();
    } else {
      fp.push_back(std::move(spare.back()));
      spare.pop_back();
    }
  }
  for (auto& list : fp) list.clear();
}

}  // namespace first_hops_detail

/// Computes the table exactly, with simple-path semantics: a best path may
/// not revisit u. The two metric families take different engines.
///
/// Additive metrics (delay, jitter, loss, energy): one value-only Dijkstra
/// from u over the whole view, then one propagation of first-hop sets over
/// the tight edges. Call an edge (p,v) tight when dist(p) + w(p,v) ties
/// dist(v) (exactly, or within the metric_equal band). Because link values
/// are non-negative, a best walk never needs to re-enter u, every prefix
/// of a best path is itself a best path (so all its edges are tight), and
/// every tight walk from u that does not pass through u again shortens to
/// a best simple path with the same first hop. Hence fP(u,v) is exactly
/// the set of one-hop w whose direct link is tight and from which a tight
/// walk avoiding u reaches v. The propagation computes it as a bitset over
/// u's one-hop locals (the contiguous ids 1..|N(u)|): w sets its own bit
/// when its direct link is tight, and every node ORs in the bits of its
/// tight predecessors other than u. Nodes are pushed in Dijkstra's settle
/// order, so a node's row is complete before it is pushed, except across
/// zero-weight tight edges between nodes at equal distance (integral
/// jitter and loss draws produce them); those edges re-queue their target
/// until the rows reach a fixpoint. The best values are the Dijkstra
/// labels themselves.
///
/// Concave metrics (bandwidth, buffers): the same propagation would be
/// wrong, because under min-composition a prefix of a best path need not
/// be a best path. When the bottleneck lies past the prefix, a wider route
/// through another neighbor may reach the prefix's end; the prefix's edges
/// are then not tight, and the propagation would drop that path's first
/// hop from fP. The concave branch therefore evaluates each neighbor w
/// separately, on G_u \ {u}:
///
///   value_via_w(v) = combine(q(u,w), bottleneck_{G_u∖u}(w, v)),
///
/// reading every bottleneck off one maximum spanning forest of G_u \ {u}
/// (`BottleneckForest`). Neighbors are processed by descending direct link
/// (enabling the saturation cutoff below); since incremental better/tie
/// filtering uses the tolerant metric_equal, whose 1e-9 band is not
/// transitive, results are guaranteed identical to ascending-order
/// processing except when *distinct* candidate path values fall within
/// each other's tolerance bands — impossible for integral weights (ties
/// are exact) and probability-zero for continuous draws.
///
/// This overload reuses `ws` and `out`'s vectors (the fp lists keep their
/// capacity across views of any size), so a caller sweeping every node of
/// a run allocates nothing in steady state.
template <Metric M>
void compute_first_hops(const LocalView& view, DijkstraWorkspace& ws,
                        FirstHopTable& out) {
  const auto n = static_cast<std::uint32_t>(view.size());
  out.best.assign(n, M::unreachable());
  first_hops_detail::reset_lists(out.fp, n, ws.first_hop_spare_lists);
  if (n == 0) return;
  out.best[LocalView::origin_index()] = M::identity();

  if constexpr (M::kind == MetricKind::kAdditive) {
    constexpr std::uint32_t kOrigin = LocalView::origin_index();
    ws.local_csr.assign<M>(view);
    dijkstra_values<M>(ws.local_csr, kOrigin, ws);

    const auto words =
        static_cast<std::uint32_t>((view.one_hop().size() + 63) / 64);
    auto& bits = ws.first_hop_bits;
    bits.assign(std::size_t{n} * words, 0);
    auto row = [&bits, words](std::uint32_t v) {
      return bits.data() + std::size_t{v} * words;
    };
    auto tight = [&ws](double cand, std::uint32_t v) {
      return metric_equal(cand, ws.value(v));
    };

    // Direct links: a one-hop w owns bit w-1 when (u,w) is a best path.
    for (const WeightedLocalView::WeightedEdge& e :
         ws.local_csr.neighbors(kOrigin)) {
      if (tight(e.weight, e.to))
        row(e.to)[(e.to - 1) / 64] |= std::uint64_t{1} << ((e.to - 1) % 64);
    }

    // Push every reached node's row along its tight edges, in settle
    // order; a row that grows after its node was pushed re-queues it.
    const std::span<const std::uint32_t> settled = ws.settle_order();
    auto& queue = ws.first_hop_queue;
    auto& queued = ws.first_hop_queued;
    queue.assign(settled.begin() + 1, settled.end());  // [0] is u
    queued.assign(n, 0);
    for (std::uint32_t v : queue) queued[v] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t p = queue[head];
      queued[p] = 0;
      const double dist_p = ws.value(p);
      const std::uint64_t* from = row(p);
      for (const WeightedLocalView::WeightedEdge& e :
           ws.local_csr.neighbors(p)) {
        if (e.to == kOrigin || !tight(M::combine(dist_p, e.weight), e.to))
          continue;
        std::uint64_t* to = row(e.to);
        std::uint64_t grew = 0;
        for (std::uint32_t i = 0; i < words; ++i) {
          grew |= from[i] & ~to[i];
          to[i] |= from[i];
        }
        if (grew != 0 && queued[e.to] == 0) {
          queued[e.to] = 1;
          queue.push_back(e.to);
        }
      }
    }

    for (std::uint32_t v = 1; v < n; ++v) {
      if (!ws.reached(v)) continue;
      out.best[v] = ws.value(v);
      const std::uint64_t* r = row(v);
      for (std::uint32_t i = 0; i < words; ++i)
        for (std::uint64_t b = r[i]; b != 0; b &= b - 1)
          out.fp[v].push_back(1 + 64 * i +
                              static_cast<std::uint32_t>(std::countr_zero(b)));
    }
  } else {
    // One metric-specialized CSR extraction with u already removed, shared
    // by the forest build and every root's walk.
    ws.local_csr.assign<M>(view, LocalView::origin_index());
    ws.first_hop_forest.build<M>(ws.local_csr);

    // Folds one candidate value-via-w for destination v into the table.
    // Returns 1 when v's fp went from empty to non-empty.
    auto fold = [&out](std::uint32_t v, double cand, std::uint32_t w) {
      if (!out.fp[v].empty() && cand == out.best[v]) {
        out.fp[v].push_back(w);  // exact tie — the common case
        return 0u;
      }
      if (out.fp[v].empty() || M::better(cand, out.best[v])) {
        const std::uint32_t newly = out.fp[v].empty() ? 1u : 0u;
        out.best[v] = cand;
        out.fp[v].assign(1, w);
        return newly;
      }
      if (metric_equal(cand, out.best[v])) out.fp[v].push_back(w);
      return 0u;
    };

    // Saturation cutoff: via-w values never exceed q(u,w) under min-
    // composition, so once every destination is reached and q(u,w) is
    // strictly (beyond any tolerance) below the weakest current best, w
    // cannot enter any fp set. Processing neighbors by descending direct
    // link turns the cutoff into a loop exit; fp lists are re-sorted to
    // the canonical ascending order afterwards.
    auto& order = ws.first_hop_order;
    order.clear();
    for (std::uint32_t w : view.one_hop()) {
      const LinkQos* first_link =
          view.local_edge_qos(LocalView::origin_index(), w);
      if (first_link == nullptr) continue;  // filtered out by a reduction
      order.push_back({M::link_value(*first_link), w});
    }
    std::sort(order.begin(), order.end(),
              [](const std::pair<double, std::uint32_t>& a,
                 const std::pair<double, std::uint32_t>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    std::uint32_t unreached = n - 1;
    for (const auto& [first_value, w] : order) {
      if (unreached == 0) {
        // Weakest current best, and the largest magnitude bounding the
        // metric_equal tolerance band (same max(·,1) floor as values_equal;
        // a 10× margin keeps the cutoff strictly outside the band).
        double weakest = out.best[1];
        double largest = 1.0;
        for (std::uint32_t v = 1; v < n; ++v) {
          if (out.best[v] < weakest) weakest = out.best[v];
          const double mag = std::fabs(out.best[v]);
          if (mag > largest) largest = mag;
        }
        if (first_value < weakest - 10.0 * kMetricRelTolerance * largest)
          break;
      }
      // Forest-path bottlenecks seeded at q(u,w): min-composition makes
      // each visited value exactly combine(q(u,w), bottleneck).
      ws.first_hop_forest.for_each_from<M>(
          w, first_value, [&](std::uint32_t v, double cand) {
            unreached -= fold(v, cand, w);
          });
    }
    for (std::uint32_t v = 1; v < n; ++v)
      std::sort(out.fp[v].begin(), out.fp[v].end());
  }
}

}  // namespace qolsr
