// Experiment runner: trains a set of crowd-selection algorithms on a
// split and measures precision (ACCU), recall (TopK) and selection time —
// the quantities behind every table and runtime figure in paper §7.3.
#ifndef CROWDSELECT_EVAL_EXPERIMENT_H_
#define CROWDSELECT_EVAL_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crowddb/selector_interface.h"
#include "eval/metrics.h"
#include "eval/split.h"
#include "model/crowd_model.h"

namespace crowdselect {

/// Builds a fresh (untrained) selector; experiments own their selectors so
/// repeated runs with different K are independent.
using SelectorFactory = std::function<std::unique_ptr<CrowdSelector>()>;

/// Standard factory set (VSM, TSPM, DRM, TDPM in the paper's table order)
/// with `k` latent categories and a deterministic seed.
std::vector<SelectorFactory> StandardSelectorFactories(size_t k,
                                                       uint64_t seed);

/// Factories for crowd models by id ("tdpm" or "router"; see
/// CreateCrowdModel), all sharing `config`. Unknown ids fail here, not
/// mid-experiment.
Result<std::vector<SelectorFactory>> ModelSelectorFactories(
    const std::vector<std::string>& ids, const ModelConfig& config);

struct AlgorithmResult {
  std::string name;
  double mean_accu = 0.0;
  double top1 = 0.0;
  double top2 = 0.0;
  double train_seconds = 0.0;
  /// Mean per-question selection latency (project + rank), milliseconds.
  double select_millis = 0.0;
  size_t num_cases = 0;
};

/// Trains each selector on the split's training database and evaluates it
/// over the split's test cases.
Result<std::vector<AlgorithmResult>> RunExperiment(
    const EvalSplit& split, const std::vector<SelectorFactory>& factories);

}  // namespace crowdselect

#endif  // CROWDSELECT_EVAL_EXPERIMENT_H_
