// Experiment-engine walkthrough: describe a sweep as data and run it —
// here a combination the compiled figure harnesses never offered (the
// loss metric across the paper's five heuristics), emitted as a pretty
// table and as JSON. The same experiment is one qolsr_eval invocation:
//
//   $ qolsr_eval --metric=loss \
//       --selectors=olsr_mpr,qolsr_mpr1,qolsr_mpr2,topology_filtering,fnbp \
//       --densities=10,15,20 --runs=20 --seed=7 --format=json
//
//   $ ./build/examples/experiment_sweep
#include <iostream>

#include "eval/result_sink.hpp"

using namespace qolsr;

int main() {
  ExperimentSpec spec;
  spec.name = "loss_all_selectors";
  spec.metric = MetricId::kLoss;
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.densities = {10, 15, 20};
  spec.scenario.runs = 20;
  spec.scenario.seed = 7;
  // Continuous loss costs: the integral default rounds the 0..0.2 loss
  // interval down to all-zero link costs.
  spec.scenario.qos.integral = false;

  const ExperimentResult result = run_experiment(spec);

  PrettyTableSink{}.write(result, std::cout);
  std::cout << "\n## the same result as JSON\n";
  JsonSink{}.write(result, std::cout);
  return 0;
}
