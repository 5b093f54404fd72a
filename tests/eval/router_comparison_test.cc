// The experiment behind EXPERIMENTS.md §"Task-type routing": on a
// heterogeneous workload (Zipf task-type mix, specialist-heavy worker
// pool with spammers and adversarial workers), per-type routing must
// beat the single global TDPM on precision@k. A single split is noisy,
// so the comparison aggregates over several deterministic dataset
// seeds — still a regression test, not a coin flip.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "datagen/heterogeneous.h"
#include "eval/experiment.h"
#include "eval/split.h"

namespace crowdselect {
namespace {

HeterogeneousConfig Workload(uint64_t seed) {
  HeterogeneousConfig config;
  config.num_types = 3;
  config.num_workers = 60;
  config.num_tasks = 300;
  config.seed = seed;
  return config;
}

ModelConfig Config() {
  ModelConfig config;
  config.tdpm.num_categories = 6;
  config.tdpm.max_em_iterations = 20;
  config.tdpm.seed = 42;
  config.tdpm.num_threads = 0;
  config.router_num_clusters = 3;
  return config;
}

TEST(RouterComparisonTest, RoutingBeatsGlobalTdpmOnHeterogeneousWorkload) {
  std::map<std::string, double> accu, top1;
  const uint64_t kSeeds[] = {21, 22, 23, 24, 25};
  for (uint64_t seed : kSeeds) {
    auto data = GenerateHeterogeneousDataset(Workload(seed));
    ASSERT_TRUE(data.ok());
    const WorkerGroup group = MakeGroup(data->dataset.db, 1, "Hetero");
    SplitOptions split_options;
    split_options.num_test_tasks = 100;
    auto split = MakeSplit(data->dataset, group, split_options);
    ASSERT_TRUE(split.ok());
    ASSERT_GE(split->cases.size(), 50u);

    auto factories =
        ModelSelectorFactories({"tdpm", "router"}, Config());
    ASSERT_TRUE(factories.ok());
    auto results = RunExperiment(*split, *factories);
    ASSERT_TRUE(results.ok());
    ASSERT_EQ(results->size(), 2u);
    for (const AlgorithmResult& r : *results) {
      accu[r.name] += r.mean_accu;
      top1[r.name] += r.top1;
    }
  }

  // Sanity: everything does far better than random on this workload.
  EXPECT_GT(accu["TDPM"] / 5.0, 0.7);

  // Per-type routing beats the single global model on precision@k,
  // averaged over the seeds.
  EXPECT_GT(accu["Router"], accu["TDPM"])
      << "router " << accu["Router"] << " vs tdpm " << accu["TDPM"];
  EXPECT_GT(top1["Router"], top1["TDPM"])
      << "router " << top1["Router"] << " vs tdpm " << top1["TDPM"];
}

}  // namespace
}  // namespace crowdselect
