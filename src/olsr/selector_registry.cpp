#include "olsr/selector_registry.hpp"

#include <stdexcept>

#include "core/fnbp.hpp"

namespace qolsr {

void SelectorRegistry::add(std::string name, Factory factory,
                           Factory flooding_factory) {
  if (contains(name))
    throw std::invalid_argument("SelectorRegistry: duplicate selector name '" +
                                name + "'");
  entries_.push_back(
      {std::move(name), std::move(factory), std::move(flooding_factory)});
}

bool SelectorRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

const SelectorRegistry::Entry* SelectorRegistry::find(
    std::string_view name) const {
  for (const Entry& entry : entries_)
    if (entry.name == name) return &entry;
  return nullptr;
}

void SelectorRegistry::throw_unknown(std::string_view name) const {
  std::string message = "unknown selector '" + std::string(name) + "' (known:";
  for (const Entry& entry : entries_) message += " " + entry.name;
  message += ")";
  throw std::invalid_argument(message);
}

std::unique_ptr<AnsSelector> SelectorRegistry::create(std::string_view name,
                                                      MetricId metric) const {
  const Entry* entry = find(name);
  if (entry == nullptr) throw_unknown(name);
  return entry->factory(metric);
}

std::unique_ptr<AnsSelector> SelectorRegistry::create_flooding(
    std::string_view name, MetricId metric) const {
  const Entry* entry = find(name);
  if (entry == nullptr) throw_unknown(name);
  if (entry->flooding_factory) return entry->flooding_factory(metric);
  // Split designs advertise a filtered set but flood with plain RFC MPRs.
  return std::make_unique<Rfc3626Selector>();
}

std::vector<std::string> SelectorRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) result.push_back(entry.name);
  return result;
}

const SelectorRegistry& SelectorRegistry::builtin() {
  static const SelectorRegistry registry = [] {
    SelectorRegistry r;
    const auto rfc3626 = [](MetricId) -> std::unique_ptr<AnsSelector> {
      // RFC 3626 MPR coverage is metric-blind; one type serves all metrics.
      return std::make_unique<Rfc3626Selector>();
    };
    const auto qolsr1 = [](MetricId metric) {
      return dispatch_metric(metric,
                             [](auto tag) -> std::unique_ptr<AnsSelector> {
        using M = typename decltype(tag)::type;
        return std::make_unique<QolsrSelector<M>>(QolsrVariant::kMpr1);
      });
    };
    const auto qolsr2 = [](MetricId metric) {
      return dispatch_metric(metric,
                             [](auto tag) -> std::unique_ptr<AnsSelector> {
        using M = typename decltype(tag)::type;
        return std::make_unique<QolsrSelector<M>>(QolsrVariant::kMpr2);
      });
    };
    // OLSR and QOLSR flood on the very set they advertise; the split QANS
    // designs (default flooding factory) keep RFC MPR flooding.
    r.add("olsr_mpr", rfc3626, rfc3626);
    r.add("qolsr_mpr1", qolsr1, qolsr1);
    r.add("qolsr_mpr2", qolsr2, qolsr2);
    r.add("topology_filtering", [](MetricId metric) {
      return dispatch_metric(metric,
                             [](auto tag) -> std::unique_ptr<AnsSelector> {
        using M = typename decltype(tag)::type;
        return std::make_unique<TopologyFilteringSelector<M>>();
      });
    });
    const auto fnbp = [](FnbpOptions options) -> Factory {
      return [options](MetricId metric) {
        return dispatch_metric(metric,
                               [&](auto tag) -> std::unique_ptr<AnsSelector> {
          using M = typename decltype(tag)::type;
          return std::make_unique<FnbpSelector<M>>(options);
        });
      };
    };
    r.add("fnbp", fnbp({}));
    // FNBP's two ablations, after the paper's five contenders.
    r.add("fnbp_no_loopfix", fnbp({.loop_fix = false}));
    r.add("fnbp_id_tiebreak", fnbp({.qos_tiebreak = false}));
    return r;
  }();
  return registry;
}

}  // namespace qolsr
