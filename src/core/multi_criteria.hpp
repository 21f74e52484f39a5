#pragma once

#include <string>

#include "core/fnbp.hpp"

namespace qolsr {

/// The paper's future-work direction (§V): "multi-criterion metrics, for
/// example minimizing energy-consumption while providing good bandwidth".
///
/// FNBP's structure admits a clean lexicographic composition: the primary
/// metric decides which paths are *best* (so fP sets, coverage and the
/// loop-fix are exactly Algorithm 1/2 on the primary), and the secondary
/// metric refines the choice *inside* fP(u,v) — where the paper's max≺
/// tie-breaks by the primary value of the direct link, the bi-criteria
/// variant tie-breaks by the secondary metric first (e.g. pick, among the
/// first hops of maximum-bandwidth paths, the one whose link costs the
/// least energy), falling back to smallest id.
///
/// This changes none of the selection's coverage/size properties (it still
/// picks exactly one node from the same candidate set) — property-tested in
/// tests/core/multi_criteria_test.cpp — but steers the advertised structure
/// toward cheaper links at equal primary QoS.
template <Metric Primary, Metric Secondary>
std::uint32_t pick_best_link_bicriteria(
    const LocalView& view, std::span<const std::uint32_t> candidates) {
  std::uint32_t best = kInvalidNode;
  double best_secondary = Secondary::unreachable();
  for (std::uint32_t w : candidates) {
    const LinkQos* qos = view.local_edge_qos(LocalView::origin_index(), w);
    if (qos == nullptr) continue;
    const double value = Secondary::link_value(*qos);
    if (best == kInvalidNode || Secondary::better(value, best_secondary) ||
        (!Secondary::better(best_secondary, value) &&
         view.global_id(w) < view.global_id(best))) {
      best = w;
      best_secondary = value;
    }
  }
  return best;
}

/// FNBP with a bi-criteria pick inside fP — Algorithms 1/2 on `Primary`,
/// `Secondary` as the tie-break dimension — behind the selector interface,
/// e.g. `BicriteriaFnbpSelector<BandwidthMetric, EnergyMetric>` for the
/// paper's "good bandwidth at low energy" future-work example.
template <Metric Primary, Metric Secondary>
class BicriteriaFnbpSelector final : public AnsSelector {
 public:
  BicriteriaFnbpSelector()
      : name_(std::string("fnbp_") + std::string(Primary::name()) + "_per_" +
              std::string(Secondary::name())) {}

  std::string_view name() const override { return name_; }
  void select_into(const LocalView& view, SelectionWorkspace& ws,
                   std::vector<NodeId>& out) const override {
    select_fnbp_ans<Primary>(view, ws, out, /*loop_fix=*/true,
                             pick_best_link_bicriteria<Primary, Secondary>);
  }

 private:
  std::string name_;
};

}  // namespace qolsr
