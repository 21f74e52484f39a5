#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/local_view.hpp"
#include "olsr/mpr.hpp"
#include "olsr/qolsr_mpr.hpp"
#include "olsr/selection_workspace.hpp"
#include "olsr/topology_filtering.hpp"

namespace qolsr {

/// Uniform interface over the neighbor-selection heuristics the paper
/// compares (original OLSR MPR, QOLSR MPR-1/MPR-2, topology filtering and
/// — in core/fnbp.hpp — FNBP). The evaluation harness and the protocol
/// stack are written against this interface so every heuristic runs in the
/// exact same pipeline.
class AnsSelector {
 public:
  virtual ~AnsSelector() = default;

  virtual std::string_view name() const = 0;

  /// Computes the advertised set of the view's origin into `out` (cleared
  /// first): ascending global node ids, all members of N(origin). All
  /// scratch comes from `ws`, so a warm call allocates nothing.
  virtual void select_into(const LocalView& view, SelectionWorkspace& ws,
                           std::vector<NodeId>& out) const = 0;

  /// One-shot form of select_into on a fresh workspace. Virtual only so
  /// that perfbench's TimedSelector can time it.
  virtual std::vector<NodeId> select(const LocalView& view) const {
    SelectionWorkspace ws;
    std::vector<NodeId> out;
    select_into(view, ws, out);
    return out;
  }

  /// Whether routes over this protocol's advertised state are computed
  /// QoS-first. Original OLSR and QOLSR keep hop-count-primary routing
  /// (QoS only as tie-break; paper §II), the QANS designs route QoS-first.
  virtual bool qos_first_routing() const { return true; }
};

/// Original OLSR (RFC 3626) MPR set used directly as the advertised set.
class Rfc3626Selector final : public AnsSelector {
 public:
  std::string_view name() const override { return "olsr_mpr"; }
  void select_into(const LocalView& view, SelectionWorkspace& ws,
                   std::vector<NodeId>& out) const override {
    select_mpr_rfc3626(view, ws, out);
  }
  bool qos_first_routing() const override { return false; }
};

/// QOLSR (Badis & Agha): the QoS MPR set doubles as the advertised set.
template <Metric M>
class QolsrSelector final : public AnsSelector {
 public:
  explicit QolsrSelector(QolsrVariant variant = QolsrVariant::kMpr2)
      : variant_(variant),
        name_(std::string("qolsr_mpr") +
              (variant == QolsrVariant::kMpr1 ? "1" : "2") + "_" +
              std::string(M::name())) {}

  std::string_view name() const override { return name_; }
  void select_into(const LocalView& view, SelectionWorkspace& ws,
                   std::vector<NodeId>& out) const override {
    select_qolsr_mpr<M>(view, variant_, ws, out);
  }
  bool qos_first_routing() const override { return false; }

 private:
  QolsrVariant variant_;
  std::string name_;
};

/// Topology-filtering QANS (Moraru & Simplot-Ryl).
template <Metric M>
class TopologyFilteringSelector final : public AnsSelector {
 public:
  TopologyFilteringSelector()
      : name_(std::string("topology_filtering_") + std::string(M::name())) {}

  std::string_view name() const override { return name_; }
  void select_into(const LocalView& view, SelectionWorkspace& ws,
                   std::vector<NodeId>& out) const override {
    select_topology_filtering_ans<M>(view, ws, out);
  }

 private:
  std::string name_;
};

}  // namespace qolsr
