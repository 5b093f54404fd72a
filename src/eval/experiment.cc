#include "eval/experiment.h"

#include <algorithm>

#include "baselines/drm.h"
#include "baselines/tspm.h"
#include "baselines/vsm.h"
#include "model/selection.h"
#include "util/logging.h"
#include "util/timer.h"

namespace crowdselect {

std::vector<SelectorFactory> StandardSelectorFactories(size_t k,
                                                       uint64_t seed) {
  std::vector<SelectorFactory> factories;
  factories.push_back([] { return std::make_unique<VsmSelector>(); });
  factories.push_back([k, seed] {
    TspmOptions options;
    options.lda.num_topics = k;
    options.lda.seed = seed;
    return std::make_unique<TspmSelector>(options);
  });
  factories.push_back([k, seed] {
    DrmOptions options;
    options.plsa.num_topics = k;
    options.plsa.seed = seed;
    return std::make_unique<DrmSelector>(options);
  });
  factories.push_back([k, seed] {
    TdpmOptions options;
    options.num_categories = k;
    options.seed = seed;
    options.max_em_iterations = 30;
    options.num_threads = 0;  // Use all cores for the E-step.
    // No fold-in cache: the runtime figures cycle a fixed task set, so
    // with the cache on every query after the first pass would be a hit
    // instead of the category estimation they time. Callers that query
    // each case once see no difference.
    serve::ServeOptions serve_options;
    serve_options.foldin_cache_capacity = 0;
    return std::make_unique<TdpmSelector>(options, serve_options);
  });
  return factories;
}

Result<std::vector<SelectorFactory>> ModelSelectorFactories(
    const std::vector<std::string>& ids, const ModelConfig& config) {
  // Validate every id up front so a typo fails before any training runs.
  for (const std::string& id : ids) {
    if (!IsCrowdModelId(id)) {
      CS_RETURN_NOT_OK(CreateCrowdModel(id, config).status());
    }
  }
  std::vector<SelectorFactory> factories;
  factories.reserve(ids.size());
  for (const std::string& id : ids) {
    factories.push_back([id, config]() -> std::unique_ptr<CrowdSelector> {
      auto model = CreateCrowdModel(id, config);
      CS_CHECK_OK(model.status());  // Ids were validated above.
      return std::move(*model);
    });
  }
  return factories;
}

Result<std::vector<AlgorithmResult>> RunExperiment(
    const EvalSplit& split, const std::vector<SelectorFactory>& factories) {
  std::vector<AlgorithmResult> results;
  results.reserve(factories.size());
  for (const auto& factory : factories) {
    std::unique_ptr<CrowdSelector> selector = factory();
    AlgorithmResult result;
    result.name = selector->Name();

    {
      ScopedTimer train_timer(&result.train_seconds);
      CS_RETURN_NOT_OK(selector->Train(split.train_db));
    }

    MetricAccumulator metrics;
    double select_seconds = 0.0;
    for (const EvalCase& test_case : split.cases) {
      CS_ASSIGN_OR_RETURN(const TaskRecord* task,
                          split.train_db.GetTask(test_case.task));
      std::vector<RankedWorker> ranking;
      {
        ScopedTimer select_timer(&select_seconds,
                                 ScopedTimer::Mode::kAccumulate);
        CS_ASSIGN_OR_RETURN(
            ranking,
            selector->SelectTopK(task->bag, test_case.candidates.size(),
                                 test_case.candidates));
      }
      const auto it = std::find_if(
          ranking.begin(), ranking.end(), [&](const RankedWorker& r) {
            return r.worker == test_case.right_worker;
          });
      // The right worker is always a candidate, so it must be ranked.
      const size_t rank0 = static_cast<size_t>(it - ranking.begin());
      metrics.Add(rank0, ranking.size());
    }
    result.num_cases = metrics.count();
    result.mean_accu = metrics.MeanAccu();
    result.top1 = metrics.TopK(1);
    result.top2 = metrics.TopK(2);
    result.select_millis =
        split.cases.empty()
            ? 0.0
            : select_seconds * 1e3 / static_cast<double>(split.cases.size());
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace crowdselect
