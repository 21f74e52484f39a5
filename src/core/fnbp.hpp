#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "graph/local_view.hpp"
#include "olsr/selection_workspace.hpp"
#include "olsr/selector.hpp"
#include "path/first_hops.hpp"

namespace qolsr {

/// Tuning knobs for FNBP. The defaults are the paper's Algorithms 1 & 2;
/// each flag turned off is one of the registered ablations
/// (`fnbp_no_loopfix`, `fnbp_id_tiebreak`), run like any other selector.
struct FnbpOptions {
  /// Lines 12–14 of Alg. 1/2: the "limiting last link" guard of Fig. 4.
  /// Disabling it reproduces the A/B loop where a 2-hop neighbor behind a
  /// bottleneck link becomes unreachable.
  bool loop_fix = true;
  /// Pick inside fP by best direct-link QoS with id tie-break (the paper's
  /// max≺/min≺). When false, picks the smallest id only — the ablation
  /// quantifies what the QoS-aware tie-break buys.
  bool qos_tiebreak = true;
};

/// FNBP — *First Node on Best Path* QANS selection, the paper's
/// contribution (§III-B, Algorithms 1 and 2, unified over the metric
/// algebra: instantiate with BandwidthMetric for Alg. 1, DelayMetric for
/// Alg. 2, or any other concave/additive metric).
///
/// For every 1-hop and 2-hop neighbor v of u, with fP(u,v) the first nodes
/// of the QoS-best simple paths u→v inside the local view G_u:
///
///  Step 1 (v ∈ N(u), ascending id):
///    * v ∈ fP(u,v): the direct link is itself a best path — select nothing;
///    * fP(u,v) ∩ ANS ≠ ∅: v is already covered through a selected node;
///    * otherwise select max≺(fP(u,v)) (best direct link, id tie-break).
///
///  Step 2 (v ∈ N²(u), ascending id):
///    * fP(u,v) ∩ ANS = ∅: select max≺(fP(u,v));
///    * else, loop fix: when u's id is smaller than every id in fP(u,v)
///      *and* some best first hop w is itself adjacent to v (the path uwv
///      exists), additionally select max≺ of those — this breaks the
///      mutual-coverage loop of Fig. 4, where the bottleneck last link
///      makes every neighbor "cover" E through everyone else and only the
///      smallest-id node takes responsibility.
///
/// Two transcription fixes versus the PDF listing, both dictated by the
/// paper's prose and worked examples (see DESIGN.md §4): step 1's guard is
/// `v ∉ fP(u,v)` (the listing's `max≺(fP)=v` contradicts the prose), and
/// the loop-fix intersection is with N(v) (`fP ⊆ N(u)` makes the printed
/// `∩ N(u)` vacuous; "a node w such that the path uwv exists" is N(v)).
///
/// `pick(view, candidates)` is the max≺ of the listing: it chooses one
/// local id from a set of first hops (kInvalidNode when none qualifies).
/// Returns ascending global ids in `out` (cleared first). All scratch —
/// the fP table, the path-engine scratch, the selection flags — comes from
/// `ws`, so sweeping every node of a run allocates nothing in steady state.
template <Metric M, typename Pick>
void select_fnbp_ans(const LocalView& view, SelectionWorkspace& ws,
                     std::vector<NodeId>& out, bool loop_fix, Pick pick) {
  compute_first_hops<M>(view, ws.dijkstra, ws.first_hops);
  const FirstHopTable& table = ws.first_hops;
  ws.in_ans.assign(view.size(), 0);
  auto& in_ans = ws.in_ans;

  auto covered = [&](const std::vector<std::uint32_t>& fp) {
    return std::any_of(fp.begin(), fp.end(),
                       [&](std::uint32_t w) { return in_ans[w] != 0; });
  };

  // Step 1: 1-hop neighbors (local one-hop ids ascend with global id, which
  // fixes the paper's unspecified iteration order deterministically).
  for (std::uint32_t v : view.one_hop()) {
    const auto& fp = table.fp[v];
    if (fp.empty()) continue;  // unreachable in a filtered view; defensive
    if (std::binary_search(fp.begin(), fp.end(), v)) continue;
    if (covered(fp)) continue;
    const std::uint32_t w = pick(view, fp);
    if (w != kInvalidNode) in_ans[w] = 1;
  }

  // Step 2: 2-hop neighbors.
  for (std::uint32_t v : view.two_hop()) {
    const auto& fp = table.fp[v];
    if (fp.empty()) continue;
    if (!covered(fp)) {
      const std::uint32_t w = pick(view, fp);
      if (w != kInvalidNode) in_ans[w] = 1;
      continue;
    }
    if (!loop_fix) continue;
    // minid(fP(u,v)) > u: u is smaller than every best first hop, so no one
    // else will break the potential loop.
    const NodeId origin_id = view.origin();
    const bool origin_smallest = std::all_of(
        fp.begin(), fp.end(),
        [&](std::uint32_t w) { return view.global_id(w) > origin_id; });
    if (!origin_smallest) continue;
    std::vector<std::uint32_t>& adjacent_to_v = ws.ids;
    adjacent_to_v.clear();
    for (std::uint32_t w : fp)
      if (view.has_local_edge(w, v)) adjacent_to_v.push_back(w);
    if (adjacent_to_v.empty()) continue;
    const std::uint32_t w = pick(view, adjacent_to_v);
    if (w != kInvalidNode) in_ans[w] = 1;
  }

  out.clear();
  for (std::uint32_t w = 0; w < view.size(); ++w)
    if (in_ans[w] != 0) out.push_back(view.global_id(w));
  std::sort(out.begin(), out.end());
}

/// FNBP as the paper states it, or one of the ablations `options` names.
template <Metric M>
void select_fnbp_ans(const LocalView& view, SelectionWorkspace& ws,
                     std::vector<NodeId>& out,
                     const FnbpOptions& options = {}) {
  const auto pick = [qos_tiebreak = options.qos_tiebreak](
                        const LocalView& v,
                        std::span<const std::uint32_t> candidates) {
    if (!qos_tiebreak) {
      // Ablation: smallest global id only. Local one-hop ids are ordered by
      // global id, so the first candidate is the smallest.
      return candidates.empty() ? kInvalidNode : candidates.front();
    }
    return pick_best_link<M>(v, candidates);
  };
  select_fnbp_ans<M>(view, ws, out, options.loop_fix, pick);
}

/// FNBP behind the common selector interface. The instance name is
/// `fnbp`, then `_no_loopfix` and `_id_tiebreak` for each ablated option,
/// then `_<metric>`; the paper's defaults give `fnbp_<metric>`.
template <Metric M>
class FnbpSelector final : public AnsSelector {
 public:
  explicit FnbpSelector(FnbpOptions options = {})
      : options_(options),
        name_(std::string("fnbp") + (options.loop_fix ? "" : "_no_loopfix") +
              (options.qos_tiebreak ? "" : "_id_tiebreak") + "_" +
              std::string(M::name())) {}

  std::string_view name() const override { return name_; }
  void select_into(const LocalView& view, SelectionWorkspace& ws,
                   std::vector<NodeId>& out) const override {
    select_fnbp_ans<M>(view, ws, out, options_);
  }

 private:
  FnbpOptions options_;
  std::string name_;
};

}  // namespace qolsr
