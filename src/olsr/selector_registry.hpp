#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/metric_id.hpp"
#include "olsr/selector.hpp"

namespace qolsr {

/// Name → factory map over the neighbor-selection heuristics, so contender
/// lists are data instead of code: an experiment names its protocols
/// ("olsr_mpr", "qolsr_mpr2", "fnbp", …) and the registry instantiates the
/// right AnsSelector template for the experiment's metric. Registration
/// order is preserved — it is the column order of every emitted result.
class SelectorRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<AnsSelector>(MetricId metric)>;

  /// Registers a factory under `name`. Throws std::invalid_argument on a
  /// duplicate name (silent replacement would reorder result columns).
  /// `flooding_factory` names the TC-flooding role the protocol pairs with
  /// its advertised-set heuristic in the packet-level backend: protocols
  /// that flood on their own selection (original OLSR, QOLSR) pass their
  /// own factory; the split QANS designs leave it empty and get RFC 3626
  /// MPR flooding (paper §II–III: topology filtering and FNBP only change
  /// *what is advertised*, not how TCs spread).
  void add(std::string name, Factory factory, Factory flooding_factory = {});

  bool contains(std::string_view name) const;

  /// Instantiates the named heuristic for `metric`. Throws
  /// std::invalid_argument listing the known names when `name` is unknown.
  std::unique_ptr<AnsSelector> create(std::string_view name,
                                      MetricId metric) const;

  /// Instantiates the TC-flooding-role selector paired with the named
  /// protocol (see `add`). Same error contract as `create`.
  std::unique_ptr<AnsSelector> create_flooding(std::string_view name,
                                               MetricId metric) const;

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  /// The five heuristics the paper compares, in its legend order
  /// (olsr_mpr, qolsr_mpr1, qolsr_mpr2, topology_filtering, fnbp), then
  /// FNBP's two ablations: fnbp_no_loopfix (no Fig. 4 loop fix) and
  /// fnbp_id_tiebreak (smallest id instead of the max≺ QoS pick).
  static const SelectorRegistry& builtin();

 private:
  struct Entry {
    std::string name;
    Factory factory;
    Factory flooding_factory;  ///< empty = RFC 3626 MPR flooding
  };
  const Entry* find(std::string_view name) const;
  [[noreturn]] void throw_unknown(std::string_view name) const;

  std::vector<Entry> entries_;
};

}  // namespace qolsr
