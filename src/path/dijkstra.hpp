#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/local_view.hpp"
#include "metrics/metric.hpp"

namespace qolsr {

/// Metric-specialized CSR mirror of a LocalView: neighbor id + extracted
/// link value, 16 bytes per directed edge instead of the 56-byte
/// LocalEdge/LinkQos record. `compute_first_hops` extracts once per view
/// and scans it several times: the concave branch builds its bottleneck
/// forest from it, the additive branch runs its Dijkstra from u and then
/// its first-hop propagation over the same rows. The edge scan is the
/// hottest loop of the eval pipeline, and the full QoS record drags six
/// unused doubles through cache per scanned edge.
class WeightedLocalView {
 public:
  struct WeightedEdge {
    std::uint32_t to;
    double weight;  ///< M::link_value of the mirrored edge
  };

  /// Mirrors `view`, optionally dropping one vertex (all edges incident to
  /// `excluded`): callers running many Dijkstras on G_u \ {u} pay for the
  /// exclusion once here instead of per scanned edge per run.
  template <Metric M>
  void assign(const LocalView& view, std::uint32_t excluded = kInvalidNode) {
    const auto n = static_cast<std::uint32_t>(view.size());
    row_begin_.resize(n + 1);
    edges_.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      row_begin_[i] = static_cast<std::uint32_t>(edges_.size());
      if (i == excluded) continue;
      for (const LocalView::LocalEdge& e : view.neighbors(i))
        if (e.to != excluded) edges_.push_back({e.to, M::link_value(e.qos)});
    }
    row_begin_[n] = static_cast<std::uint32_t>(edges_.size());
  }

  std::size_t node_count() const {
    return row_begin_.empty() ? 0 : row_begin_.size() - 1;
  }
  std::span<const WeightedEdge> neighbors(std::uint32_t i) const {
    return {edges_.data() + row_begin_[i], row_begin_[i + 1] - row_begin_[i]};
  }

 private:
  std::vector<std::uint32_t> row_begin_;
  std::vector<WeightedEdge> edges_;
};

/// Maximum-bottleneck spanning forest of a `WeightedLocalView`, the
/// all-sources engine behind compute_first_hops' concave runs.
///
/// Widest-path (max-min) values have the classic spanning-forest property:
/// the optimal bottleneck between any two nodes equals the minimum edge
/// weight on their unique forest path, for *any* maximum spanning forest.
/// So instead of one Dijkstra per root, `build` runs Kruskal once (one
/// edge sort amortized over every root) and `for_each_from` walks the
/// forest in O(component) per root, folding values as it goes. Bottleneck
/// values are exact — independent of how weight ties were broken during
/// construction — hence identical to the (tolerantly compared) Dijkstra
/// labels whenever distinct path values sit outside each other's
/// metric_equal band: always for integral weights, probability-zero
/// otherwise (the compute_first_hops caveat).
///
/// All storage is reused across builds; one instance per thread.
class BottleneckForest {
 public:
  /// Rebuilds the forest of `g` under concave metric M (edge preference
  /// `dijkstra_detail::raw_better<M>`, i.e. wider is better).
  template <Metric M>
  void build(const WeightedLocalView& g);

  /// Visits every node of `root`'s component (root included) exactly once,
  /// calling `fn(v, value)` where value = M::combine(source_value,
  /// forest-path bottleneck root→v). Visit order is a DFS order; callers
  /// must not depend on it.
  template <Metric M, typename Fn>
  void for_each_from(std::uint32_t root, double source_value, Fn&& fn) {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    stamp_[root] = epoch_;
    value_[root] = source_value;
    stack_.clear();
    stack_.push_back(root);
    while (!stack_.empty()) {
      const std::uint32_t x = stack_.back();
      stack_.pop_back();
      const double vx = value_[x];
      fn(x, vx);
      for (std::uint32_t i = row_begin_[x]; i < row_begin_[x + 1]; ++i) {
        const TreeEdge& e = tree_[i];
        if (stamp_[e.to] == epoch_) continue;
        stamp_[e.to] = epoch_;
        value_[e.to] = M::combine(vx, e.weight);
        stack_.push_back(e.to);
      }
    }
  }

 private:
  struct EdgeRec {
    double weight;
    std::uint32_t a, b;
  };
  struct TreeEdge {
    std::uint32_t to;
    double weight;
  };

  std::uint32_t find(std::uint32_t x) {
    while (uf_[x] != x) {
      uf_[x] = uf_[uf_[x]];  // path halving
      x = uf_[x];
    }
    return x;
  }

  std::vector<EdgeRec> edges_;     ///< sort buffer (each undirected edge once)
  std::vector<std::uint32_t> uf_;  ///< union-find parents
  std::vector<std::uint32_t> row_begin_;  ///< forest adjacency CSR
  std::vector<TreeEdge> tree_;
  std::vector<std::uint32_t> stack_;  ///< DFS scratch
  std::vector<double> value_;         ///< folded value per visited node
  std::vector<std::uint32_t> stamp_;  ///< per-DFS visited epoch
  std::uint32_t epoch_ = 0;
};

/// Reusable scratch + label store for `dijkstra`/`dijkstra_min_hop`.
///
/// Labels are epoch-stamped: `begin(n)` bumps the epoch instead of clearing
/// the arrays, so consecutive runs touch only the nodes they actually reach
/// and perform zero heap allocation once the arrays are warm (the eval
/// pipeline runs a Dijkstra for every additive fP table and every routed
/// hop of every sampled topology — see DESIGN.md §5). After a run,
/// `reached(v)` tells whether v was labeled this epoch; `value/hops/
/// parent(v)` are final labels, valid only when reached.
///
/// The priority queue is an indexed 4-ary heap with decrease-key: each
/// touched, unsettled node holds exactly one entry (improvements sift the
/// existing entry up instead of pushing a duplicate), so the heap never
/// carries stale entries and every pop settles a node. 4-ary keeps the
/// sift paths short on the small frontiers of 2-hop views.
///
/// One workspace per thread; the begin/label/settle/heap members are the
/// algorithm's machinery and not meant for external callers.
class DijkstraWorkspace {
 public:
  bool reached(std::uint32_t v) const { return (state_[v] >> 1) == epoch_; }
  double value(std::uint32_t v) const { return labels_[v].value; }
  std::uint32_t hops(std::uint32_t v) const { return labels_[v].hops; }
  std::uint32_t parent(std::uint32_t v) const {
    return reached(v) ? labels_[v].parent : kInvalidNode;
  }
  /// Node count of the last run.
  std::size_t size() const { return size_; }
  /// The nodes the last run reached, in the order it settled them: the
  /// source first, then in the run's pop order (nondecreasing value, up to
  /// the metric_equal band, for `dijkstra_values`).
  std::span<const std::uint32_t> settle_order() const {
    return settle_order_;
  }

  /// Writes the last run's best path, from its source to `target`, into
  /// `path` (cleared first) by walking the parent labels back from
  /// `target`; leaves `path` empty when the run did not reach `target`.
  void path_to(std::uint32_t target, std::vector<std::uint32_t>& path) const {
    path.clear();
    if (target >= size_ || !reached(target)) return;
    for (std::uint32_t v = target; v != kInvalidNode; v = parent(v))
      path.push_back(v);
    std::reverse(path.begin(), path.end());
  }

  // -- algorithm machinery ------------------------------------------------

  struct Entry {
    double value;
    std::uint32_t hops;
    std::uint32_t node;
  };

  /// Starts a run over `n` nodes: O(1) amortized, allocation-free once the
  /// arrays have grown to the largest graph seen.
  void begin(std::size_t n) {
    size_ = n;
    if (state_.size() < n) {
      state_.resize(n, 0);
      labels_.resize(n);
      heap_pos_.resize(n);
    }
    // state_[v] packs (label epoch << 1) | settled; epoch 2^31 wraps.
    if (++epoch_ == (1u << 31)) {
      std::fill(state_.begin(), state_.end(), 0);
      epoch_ = 1;
    }
    heap_.clear();
    settle_order_.clear();
  }

  /// (Re)labels v; first touch this epoch also clears its settled bit.
  void label(std::uint32_t v, double value, std::uint32_t hops,
             std::uint32_t parent) {
    state_[v] = epoch_ << 1;
    labels_[v] = {value, hops, parent};
  }

  bool settled(std::uint32_t v) const {
    return state_[v] == ((epoch_ << 1) | 1u);
  }
  void settle(std::uint32_t v) {
    state_[v] |= 1u;
    settle_order_.push_back(v);
  }

  bool heap_empty() const { return heap_.empty(); }

  /// compute_first_hops' metric-specialized mirror of the view; lives here
  /// so one per-thread workspace carries all path-engine scratch.
  WeightedLocalView local_csr;
  /// compute_first_hops scratch: (direct-link value, one-hop local id).
  std::vector<std::pair<double, std::uint32_t>> first_hop_order;
  /// compute_first_hops' concave all-sources engine (see BottleneckForest).
  BottleneckForest first_hop_forest;
  /// compute_first_hops' additive propagation: one bit row per view node
  /// over u's one-hop locals, the worklist of nodes whose row still has to
  /// be pushed along their tight edges, and a queued flag per node.
  std::vector<std::uint64_t> first_hop_bits;
  std::vector<std::uint32_t> first_hop_queue;
  std::vector<std::uint8_t> first_hop_queued;
  /// compute_first_hops' parked fp lists: a view smaller than the last one
  /// moves its tail lists here instead of freeing them, and a larger one
  /// takes them back, so each list keeps its capacity across view sizes.
  std::vector<std::vector<std::uint32_t>> first_hop_spare_lists;

  template <typename BetterFn>
  void heap_push(double value, std::uint32_t hops, std::uint32_t node,
                 const BetterFn& better) {
    heap_.push_back({value, hops, node});
    heap_pos_[node] = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1, better);
  }

  /// Decrease-key: the entry of `node` (which must be queued) takes the
  /// strictly better (value, hops) and sifts up.
  template <typename BetterFn>
  void heap_improve(std::uint32_t node, double value, std::uint32_t hops,
                    const BetterFn& better) {
    const std::size_t i = heap_pos_[node];
    heap_[i].value = value;
    heap_[i].hops = hops;
    sift_up(i, better);
  }

  template <typename BetterFn>
  Entry heap_pop(const BetterFn& better) {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      heap_pos_[last.node] = 0;
      sift_down(0, better);
    }
    return top;
  }

 private:
  // Both sifts move the displaced entry through a hole and write it once at
  // its final slot, instead of swapping (and re-stamping heap_pos_) per
  // level.
  template <typename BetterFn>
  void sift_up(std::size_t i, const BetterFn& better) {
    const Entry moving = heap_[i];
    while (i > 0) {
      const std::size_t up = (i - 1) / 4;
      if (!better(moving, heap_[up])) break;
      heap_[i] = heap_[up];
      heap_pos_[heap_[i].node] = static_cast<std::uint32_t>(i);
      i = up;
    }
    heap_[i] = moving;
    heap_pos_[moving.node] = static_cast<std::uint32_t>(i);
  }

  template <typename BetterFn>
  void sift_down(std::size_t i, const BetterFn& better) {
    const std::size_t n = heap_.size();
    const Entry moving = heap_[i];
    for (;;) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < end; ++c)
        if (better(heap_[c], heap_[best])) best = c;
      if (!better(heap_[best], moving)) break;
      heap_[i] = heap_[best];
      heap_pos_[heap_[i].node] = static_cast<std::uint32_t>(i);
      i = best;
    }
    heap_[i] = moving;
    heap_pos_[moving.node] = static_cast<std::uint32_t>(i);
  }

  struct Label {
    double value;
    std::uint32_t hops;
    std::uint32_t parent;
  };

  std::vector<std::uint32_t> state_;  ///< (epoch << 1) | settled
  std::uint32_t epoch_ = 0;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> settle_order_;
  std::vector<Label> labels_;
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> heap_pos_;  ///< valid while queued
};

namespace dijkstra_detail {

inline std::size_t graph_size(const LocalView& g) { return g.size(); }
/// Any graph-like type exposing node_count() (Graph, CsrTopology,
/// KnowledgeView, WeightedLocalView, …).
template <typename G>
  requires requires(const G& g) {
    { g.node_count() } -> std::convertible_to<std::size_t>;
  }
std::size_t graph_size(const G& g) {
  return g.node_count();
}

/// Link value of an adjacency record: a full QoS record yields the
/// metric's component, a WeightedEdge carries it pre-extracted.
template <Metric M, typename E>
double edge_weight(const E& e) {
  if constexpr (requires { e.qos; }) {
    return M::link_value(e.qos);
  } else {
    return e.weight;
  }
}

/// The metric's tolerance-free numeric preference; falls back to the
/// tolerant `better` for metrics that don't expose `raw_better`.
template <Metric M>
bool raw_better(double a, double b) {
  if constexpr (requires { { M::raw_better(a, b) } -> std::convertible_to<bool>; }) {
    return M::raw_better(a, b);
  } else {
    return M::better(a, b);
  }
}

/// (value, hops) lexicographic "a strictly better than b" under metric M.
template <Metric M>
bool lex_better(double av, std::uint32_t ah, double bv, std::uint32_t bh) {
  // Exact ties dominate under concave metrics (every path through one
  // bottleneck link copies its value), and this is the hottest comparison
  // in the codebase — short-circuit before the tolerant compare.
  if (av == bv) return ah < bh;
  // One tolerance test settles the rest: inside the band the values tie
  // (fewer hops wins); outside it the plain numeric preference is exact.
  if (metric_equal(av, bv)) return ah < bh;
  return raw_better<M>(av, bv);
}

/// Value-only strict preference: a strictly (beyond the tolerance band)
/// better than b. The hop-free analogue of lex_better.
template <Metric M>
bool value_better(double av, double bv) {
  if (av == bv) return false;
  if (metric_equal(av, bv)) return false;
  return raw_better<M>(av, bv);
}

/// Shared label-setting loop; `entry_better` defines the pop order, and
/// `relax_better` decides whether a candidate label replaces the current
/// one. Both orders must agree for label-setting to be exact. With the
/// indexed heap, every pop settles its node and improvements are
/// decrease-keys on the live entry.
template <Metric M, typename G, typename EntryBetter, typename RelaxBetter>
void run_label_setting(const G& graph, std::uint32_t source,
                       std::uint32_t excluded, DijkstraWorkspace& ws,
                       const EntryBetter& entry_better,
                       const RelaxBetter& relax_better) {
  ws.begin(graph_size(graph));
  if (source == excluded || source >= ws.size()) return;
  ws.label(source, M::identity(), 0, kInvalidNode);
  ws.heap_push(M::identity(), 0, source, entry_better);

  while (!ws.heap_empty()) {
    const DijkstraWorkspace::Entry top = ws.heap_pop(entry_better);
    ws.settle(top.node);
    for (const auto& edge : graph.neighbors(top.node)) {
      const std::uint32_t next = edge.to;
      if (next == excluded) continue;
      const double cand = M::combine(top.value, edge_weight<M>(edge));
      const std::uint32_t cand_hops = top.hops + 1;
      if (!ws.reached(next)) {
        ws.label(next, cand, cand_hops, top.node);
        ws.heap_push(cand, cand_hops, next, entry_better);
      } else if (!ws.settled(next) &&
                 relax_better(cand, cand_hops, ws.value(next),
                              ws.hops(next))) {
        ws.label(next, cand, cand_hops, top.node);
        ws.heap_improve(next, cand, cand_hops, entry_better);
      }
    }
  }
}

}  // namespace dijkstra_detail

/// Generic label-setting Dijkstra over the full `Graph`, a `LocalView`, or
/// a `WeightedLocalView` mirror, parameterized by the metric algebra:
///
///  * additive metrics (delay…): classic min-sum shortest path;
///  * concave metrics (bandwidth…): widest path (max-min).
///
/// `excluded` (optional) removes one vertex from the graph — the `fP`
/// computation runs on `G_u \ {u}` to enforce simple-path semantics.
///
/// Optimality is lexicographic in (metric value, hop count): among paths of
/// equal QoS value the fewest-hop one wins. The hop tie-break matters twice:
/// it makes results deterministic under the floating-point ties that concave
/// metrics produce constantly (every path through one bottleneck link has
/// the same value), and it gives hop-by-hop forwarding the suffix property
/// that guarantees loop-freedom (see routing/forwarding.hpp).
///
/// Correctness requires combine() to be non-improving (see metric.hpp);
/// then the lexicographic (value, hops) order is label-setting: a popped
/// vertex is final.
///
/// The run reuses `ws` across calls (zero steady-state allocation); read
/// the labels through the workspace accessors.
template <Metric M, typename G>
void dijkstra(const G& graph, std::uint32_t source, std::uint32_t excluded,
              DijkstraWorkspace& ws) {
  auto entry_better = [](const DijkstraWorkspace::Entry& a,
                         const DijkstraWorkspace::Entry& b) {
    return dijkstra_detail::lex_better<M>(a.value, a.hops, b.value, b.hops);
  };
  dijkstra_detail::run_label_setting<M>(
      graph, source, excluded, ws, entry_better,
      [](double av, std::uint32_t ah, double bv, std::uint32_t bh) {
        return dijkstra_detail::lex_better<M>(av, ah, bv, bh);
      });
}

/// Value-only label setting: optimal metric value per node, with *no* hop
/// tie-break. Pops and relaxations compare values alone, so exact ties —
/// the overwhelmingly common case under concave metrics and integral
/// weights — are single-compare no-ops instead of decrease-keys, and sift
/// paths terminate immediately among tied entries.
///
/// compute_first_hops' additive branch runs it once from u, takes its
/// labels as the best values (each the float sum of its path accumulated
/// from u outwards) and walks its settle order
/// (`DijkstraWorkspace::settle_order`).
///
/// Final values are identical to `dijkstra`'s whenever distinct candidate
/// path values never fall inside each other's metric_equal tolerance band
/// (always true for integral weights, probability-zero for continuous
/// draws). Hop and parent labels are *not* lex-optimal here; use
/// `dijkstra` when they matter.
template <Metric M, typename G>
void dijkstra_values(const G& graph, std::uint32_t source,
                     DijkstraWorkspace& ws) {
  auto entry_better = [](const DijkstraWorkspace::Entry& a,
                         const DijkstraWorkspace::Entry& b) {
    return dijkstra_detail::value_better<M>(a.value, b.value);
  };
  dijkstra_detail::run_label_setting<M>(
      graph, source, kInvalidNode, ws, entry_better,
      [](double av, std::uint32_t, double bv, std::uint32_t) {
        return dijkstra_detail::value_better<M>(av, bv);
      });
}

/// Hop-count-primary variant: minimizes hops, breaking ties by the better
/// metric value — original OLSR's routing discipline with a QoS tie-break,
/// which is how the QOLSR baseline routes ("in order to maintain shortest
/// paths in terms of number of hops", paper §II). The lexicographic
/// (hops, value) order *is* isotone under edge extension (hops grow by
/// exactly one, combine() is monotone in its first argument), so plain
/// label-setting is exact here for both metric families.
template <Metric M, typename G>
void dijkstra_min_hop(const G& graph, std::uint32_t source,
                      std::uint32_t excluded, DijkstraWorkspace& ws) {
  auto hop_lex_better = [](double av, std::uint32_t ah, double bv,
                           std::uint32_t bh) {
    if (ah != bh) return ah < bh;
    return M::better(av, bv);
  };
  auto entry_better = [hop_lex_better](const DijkstraWorkspace::Entry& a,
                                       const DijkstraWorkspace::Entry& b) {
    return hop_lex_better(a.value, a.hops, b.value, b.hops);
  };
  dijkstra_detail::run_label_setting<M>(graph, source, excluded, ws,
                                        entry_better, hop_lex_better);
}

template <Metric M>
void BottleneckForest::build(const WeightedLocalView& g) {
  const auto n = static_cast<std::uint32_t>(g.node_count());
  edges_.clear();
  for (std::uint32_t a = 0; a < n; ++a)
    for (const WeightedLocalView::WeightedEdge& e : g.neighbors(a))
      if (e.to > a) edges_.push_back({e.weight, a, e.to});
  std::sort(edges_.begin(), edges_.end(),
            [](const EdgeRec& x, const EdgeRec& y) {
              return dijkstra_detail::raw_better<M>(x.weight, y.weight);
            });

  if (uf_.size() < n) uf_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) uf_[i] = i;
  // Kruskal; accepted edges are compacted to the front of the sort buffer.
  std::uint32_t accepted = 0;
  for (std::uint32_t i = 0; i < edges_.size(); ++i) {
    const std::uint32_t ra = find(edges_[i].a);
    const std::uint32_t rb = find(edges_[i].b);
    if (ra == rb) continue;
    uf_[ra] = rb;
    edges_[accepted++] = edges_[i];
  }

  // Forest adjacency CSR (both directions); uf_ doubles as the scatter
  // cursor now that the union-find phase is over.
  if (row_begin_.size() < std::size_t{n} + 1) row_begin_.resize(n + 1);
  std::fill(row_begin_.begin(), row_begin_.begin() + n + 1, 0u);
  for (std::uint32_t i = 0; i < accepted; ++i) {
    ++row_begin_[edges_[i].a + 1];
    ++row_begin_[edges_[i].b + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) row_begin_[v + 1] += row_begin_[v];
  tree_.resize(2 * std::size_t{accepted});
  for (std::uint32_t v = 0; v < n; ++v) uf_[v] = row_begin_[v];
  for (std::uint32_t i = 0; i < accepted; ++i) {
    const EdgeRec& e = edges_[i];
    tree_[uf_[e.a]++] = {e.b, e.weight};
    tree_[uf_[e.b]++] = {e.a, e.weight};
  }

  if (stamp_.size() < n) stamp_.resize(n, 0);
  if (value_.size() < n) value_.resize(n);
}

}  // namespace qolsr
