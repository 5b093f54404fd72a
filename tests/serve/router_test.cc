#include "serve/router.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "datagen/heterogeneous.h"
#include "model/selection.h"
#include "util/logging.h"

namespace crowdselect::serve {
namespace {

HeterogeneousConfig SmallWorkload() {
  HeterogeneousConfig config;
  config.num_types = 3;
  config.num_workers = 30;
  config.num_tasks = 150;
  config.vocab_per_type = 25;
  config.shared_vocab = 8;
  config.answers_per_task = 4;
  config.seed = 11;
  return config;
}

TdpmOptions MemberOptions(uint64_t seed) {
  TdpmOptions options;
  options.num_categories = 2;
  options.max_em_iterations = 15;
  options.seed = seed;
  return options;
}

/// Router with one TDPM member per ground-truth type, trained on the
/// heterogeneous workload.
TaskTypeRouter TrainedRouter(const HeterogeneousDataset& data) {
  RouterOptions options;
  options.seed = 19;
  TaskTypeRouter router(options);
  for (size_t m = 0; m < data.config.num_types; ++m) {
    router.AddModel(std::make_unique<TdpmSelector>(MemberOptions(19 + m)));
  }
  CS_CHECK_OK(router.Train(data.dataset.db));
  return router;
}

TEST(TaskTypeRouterTest, UntrainedAndEmptyFailCleanly) {
  TaskTypeRouter empty;
  CrowdDatabase db;
  EXPECT_TRUE(empty.Train(db).IsFailedPrecondition());

  TaskTypeRouter router;
  router.AddModel(std::make_unique<TdpmSelector>(MemberOptions(1)));
  BagOfWords bag;
  bag.Add(0);
  EXPECT_TRUE(router.SelectTopK(bag, 1, {0}).status().IsFailedPrecondition());
}

// Golden dispatch: on a workload with disjoint per-type vocabularies,
// routing must be (a) deterministic, (b) pure — tasks of one ground-
// truth type land on one member — and (c) discriminating — different
// types land on different members.
TEST(TaskTypeRouterTest, GoldenDispatchOnHeterogeneousWorkload) {
  auto data = GenerateHeterogeneousDataset(SmallWorkload());
  ASSERT_TRUE(data.ok());
  TaskTypeRouter router = TrainedRouter(*data);

  const CrowdDatabase& db = data->dataset.db;
  // type -> member histogram over the training tasks.
  std::map<uint32_t, std::map<size_t, size_t>> histogram;
  for (size_t j = 0; j < db.tasks().size(); ++j) {
    const RouteDecision first = router.Route(db.tasks()[j].bag);
    const RouteDecision second = router.Route(db.tasks()[j].bag);
    EXPECT_EQ(first.member, second.member) << "dispatch must be deterministic";
    EXPECT_FALSE(first.fallback);
    EXPECT_GT(first.similarity, 0.0);
    ++histogram[data->task_type[j]][first.member];
  }

  std::set<size_t> majority_members;
  size_t pure = 0, total = 0;
  for (const auto& [type, members] : histogram) {
    size_t best_member = 0, best_count = 0, type_total = 0;
    for (const auto& [member, count] : members) {
      type_total += count;
      if (count > best_count) {
        best_count = count;
        best_member = member;
      }
    }
    pure += best_count;
    total += type_total;
    majority_members.insert(best_member);
  }
  EXPECT_GT(static_cast<double>(pure) / total, 0.9)
      << "dispatch should be pure per ground-truth type";
  EXPECT_EQ(majority_members.size(), histogram.size())
      << "each type should own a distinct member";
}

TEST(TaskTypeRouterTest, NoVocabularyOverlapFallsBack) {
  auto data = GenerateHeterogeneousDataset(SmallWorkload());
  ASSERT_TRUE(data.ok());
  TaskTypeRouter router = TrainedRouter(*data);
  router.set_fixed_member(1);

  BagOfWords unknown;  // Term ids far outside the trained vocabulary.
  unknown.Add(1000000, 3);
  const RouteDecision decision = router.Route(unknown);
  EXPECT_TRUE(decision.fallback);
  EXPECT_EQ(decision.member, 1u);
  EXPECT_EQ(decision.similarity, 0.0);
  EXPECT_EQ(decision.margin, 0.0);
}

TEST(TaskTypeRouterTest, ExplainCarriesRouteDecision) {
  auto data = GenerateHeterogeneousDataset(SmallWorkload());
  ASSERT_TRUE(data.ok());
  TaskTypeRouter router = TrainedRouter(*data);

  const CrowdDatabase& db = data->dataset.db;
  std::vector<WorkerId> candidates;
  for (WorkerId w = 0; w < db.NumWorkers(); ++w) candidates.push_back(w);

  QueryStats stats;
  auto top =
      router.SelectTopKExplained(db.tasks()[0].bag, 3, candidates, &stats);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(stats.route.routed);
  EXPECT_EQ(stats.route.mode, "similarity");
  EXPECT_FALSE(stats.route.chosen_model.empty());
  EXPECT_EQ(stats.serving_model, stats.route.chosen_model);
  EXPECT_GT(stats.route.similarity, 0.0);
  EXPECT_GE(stats.route.margin, 0.0);

  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"route\""), std::string::npos);
  EXPECT_NE(json.find("\"chosen_model\""), std::string::npos);
}

TEST(TaskTypeRouterTest, MemberLabelsDefaultToModelIdAndIndex) {
  TaskTypeRouter router;
  router.AddModel(std::make_unique<TdpmSelector>(MemberOptions(1)));
  router.AddModel(std::make_unique<TdpmSelector>(MemberOptions(2)), "custom");
  BagOfWords bag;
  bag.Add(0);
  // Labels surface through Route (single member short-circuits; use the
  // fixed-mode decision for each).
  router.set_fixed_member(0);
  EXPECT_EQ(router.Route(bag).model, "tdpm:0");
  router.set_fixed_member(1);
  EXPECT_EQ(router.Route(bag).model, "custom");
}

// Concurrent selects against live ObserveResolvedTask republishes; run
// under TSan this guards the copy-on-write snapshot contract end to end
// (router -> member -> engine).
TEST(TaskTypeRouterTest, ConcurrentSelectDuringObserveIsSafe) {
  auto data = GenerateHeterogeneousDataset(SmallWorkload());
  ASSERT_TRUE(data.ok());
  TaskTypeRouter router = TrainedRouter(*data);

  const CrowdDatabase& db = data->dataset.db;
  std::vector<WorkerId> candidates;
  for (WorkerId w = 0; w < db.NumWorkers(); ++w) candidates.push_back(w);

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 60;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const TaskRecord& task =
            db.tasks()[(r * kQueriesPerReader + q) % db.tasks().size()];
        QueryStats stats;
        auto top = router.SelectTopKExplained(task.bag, 3, candidates, &stats);
        CS_CHECK_OK(top.status());
        CS_CHECK(!top->empty());
      }
    });
  }
  // Writer: live updates forcing snapshot republishes while reads run.
  for (int i = 0; i < 40; ++i) {
    const TaskRecord& task = db.tasks()[i % db.tasks().size()];
    CS_CHECK_OK(router.ObserveResolvedTask(
        task.bag, {{static_cast<WorkerId>(i % db.NumWorkers()), 0.8}}));
  }
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace crowdselect::serve
