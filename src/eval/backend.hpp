#pragma once

#include <memory>
#include <vector>

#include "eval/experiment.hpp"

namespace qolsr {

/// The named selection heuristics of one experiment, resolved from the
/// SelectorRegistry exactly once by run_experiment and shared by every
/// backend (and every worker thread — selection is const and stateless).
/// `ans` is the column order of every emitted result; `flooding` pairs
/// each protocol with its TC-flooding role (SelectorRegistry::
/// create_flooding) and is resolved only for backends that flood real
/// packets — it stays empty under the oracle.
struct ResolvedProtocols {
  std::vector<std::unique_ptr<AnsSelector>> owned;
  std::vector<const AnsSelector*> ans;
  std::vector<const AnsSelector*> flooding;
};

/// Resolves the spec's selector names (and, for backends that need it,
/// their flooding roles) through `registry`. Throws ExperimentError on
/// unknown names.
ResolvedProtocols resolve_protocols(const ExperimentSpec& spec,
                                    const SelectorRegistry& registry);

}  // namespace qolsr
