#include "serve/selection_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "crowddb/crowd_database.h"
#include "model/selection.h"
#include "obs/metrics.h"
#include "serve/skill_matrix.h"
#include "util/logging.h"
#include "util/rng.h"

namespace crowdselect::serve {
namespace {

std::shared_ptr<const SkillMatrixSnapshot> RandomSnapshot(size_t n, size_t k,
                                                          uint64_t seed) {
  Rng rng(seed);
  Matrix skills(n, k);
  for (size_t w = 0; w < n; ++w) {
    for (size_t d = 0; d < k; ++d) skills(w, d) = rng.Normal();
  }
  return SkillMatrixSnapshot::FromMatrix(std::move(skills));
}

TaskFolder SyntheticFolder(size_t k, size_t vocab) {
  TdpmOptions options;
  options.num_categories = k;
  auto folder = TaskFolder::Create(TdpmModelParams::Init(k, vocab), options);
  CS_CHECK(folder.ok());
  return std::move(*folder);
}

std::vector<WorkerId> AllWorkers(size_t n) {
  std::vector<WorkerId> ids(n);
  for (size_t w = 0; w < n; ++w) ids[w] = static_cast<WorkerId>(w);
  return ids;
}

TEST(SelectionEngineTest, RequiresSnapshotAndFolder) {
  SelectionEngine engine;
  BagOfWords bag;
  bag.Add(0);
  EXPECT_TRUE(engine.SelectTopK(bag, 1, {0}).status().IsFailedPrecondition());
  EXPECT_TRUE(engine.Project(bag).status().IsFailedPrecondition());
  engine.PublishSnapshot(RandomSnapshot(4, 2, 1));
  // Snapshot alone is not enough: SelectTopK needs the folder.
  EXPECT_TRUE(engine.SelectTopK(bag, 1, {0}).status().IsFailedPrecondition());
  Vector category(2, 1.0);
  // RankByCategory needs no folder.
  EXPECT_TRUE(engine.RankByCategory(category, 1, {0}).ok());
}

TEST(SelectionEngineTest, ParallelScanMatchesSequentialExactly) {
  constexpr size_t kWorkers = 1000;
  constexpr size_t kCategories = 6;
  auto snapshot = RandomSnapshot(kWorkers, kCategories, 7);
  Vector category(kCategories);
  Rng rng(8);
  for (size_t d = 0; d < kCategories; ++d) category[d] = rng.Normal();
  const auto candidates = AllWorkers(kWorkers);

  SelectionEngine sequential;  // Default threshold: inline scan.
  sequential.PublishSnapshot(snapshot);
  ServeOptions parallel_options;
  parallel_options.min_parallel_candidates = 1;
  parallel_options.scan_block = 64;
  parallel_options.num_threads = 4;
  SelectionEngine parallel(parallel_options);
  parallel.PublishSnapshot(snapshot);

  for (size_t k : {1u, 10u, 128u, 2000u}) {
    auto a = sequential.RankByCategory(category, k, candidates);
    auto b = parallel.RankByCategory(category, k, candidates);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << "k=" << k;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].worker, (*b)[i].worker) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score);
    }
  }
}

TEST(SelectionEngineTest, ParallelScanDeterministicUnderTies) {
  // Every worker shares one of four scores: shard merge order must not
  // leak into the ranking (ties break by lower id in every shard split).
  constexpr size_t kWorkers = 512;
  Matrix skills(kWorkers, 1);
  for (size_t w = 0; w < kWorkers; ++w) {
    skills(w, 0) = static_cast<double>(w % 4);
  }
  Vector category(1, 1.0);
  ServeOptions options;
  options.min_parallel_candidates = 1;
  options.scan_block = 10;  // Many unevenly-tied shards.
  options.num_threads = 4;
  SelectionEngine engine(options);
  engine.PublishSnapshot(SkillMatrixSnapshot::FromMatrix(std::move(skills)));
  auto top = engine.RankByCategory(category, 6, AllWorkers(kWorkers));
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 6u);
  // Score 3 workers are ids 3, 7, 11, ...: the six lowest win, in order.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ((*top)[i].worker, static_cast<WorkerId>(3 + 4 * i));
    EXPECT_DOUBLE_EQ((*top)[i].score, 3.0);
  }
}

TEST(SelectionEngineTest, RankWithScoreParallelMatchesAccumulator) {
  const auto candidates = AllWorkers(300);
  auto score = [](WorkerId w) {
    return static_cast<double>((w * 37) % 101);
  };
  TopKAccumulator expected(12);
  for (WorkerId w : candidates) expected.Offer(w, score(w));
  ServeOptions options;
  options.min_parallel_candidates = 1;
  options.scan_block = 16;
  options.num_threads = 3;
  SelectionEngine engine(options);
  const auto got = engine.RankWithScore(12, candidates, score);
  const auto want = expected.Take();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].worker, want[i].worker);
    EXPECT_DOUBLE_EQ(got[i].score, want[i].score);
  }
}

TEST(SelectionEngineTest, ProjectCachesThePosterior) {
  SelectionEngine engine;
  engine.SetFolder(SyntheticFolder(3, 50));
  BagOfWords bag;
  bag.Add(4, 2);
  bag.Add(11, 1);
  auto first = engine.Project(bag);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.cache()->misses(), 1u);
  EXPECT_EQ(engine.cache()->hits(), 0u);
  auto second = engine.Project(bag);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.cache()->hits(), 1u);
  // Cached result is bit-identical (mean category, no sampling).
  ASSERT_EQ(first->category.size(), second->category.size());
  for (size_t d = 0; d < first->category.size(); ++d) {
    EXPECT_DOUBLE_EQ(first->category[d], second->category[d]);
    EXPECT_DOUBLE_EQ(first->lambda[d], second->lambda[d]);
    EXPECT_DOUBLE_EQ(first->nu_sq[d], second->nu_sq[d]);
  }
}

TEST(SelectionEngineTest, ZeroCapacityCacheStillServes) {
  ServeOptions options;
  options.foldin_cache_capacity = 0;
  SelectionEngine engine(options);
  engine.SetFolder(SyntheticFolder(3, 50));
  engine.PublishSnapshot(RandomSnapshot(8, 3, 12));
  BagOfWords bag;
  bag.Add(1);
  auto top = engine.SelectTopK(bag, 3, AllWorkers(8));
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 3u);
  EXPECT_EQ(engine.cache()->hits(), 0u);
}

TEST(SelectionEngineTest, SetFolderInvalidatesCache) {
  SelectionEngine engine;
  engine.SetFolder(SyntheticFolder(3, 50));
  BagOfWords bag;
  bag.Add(4, 2);
  ASSERT_TRUE(engine.Project(bag).ok());
  EXPECT_EQ(engine.cache()->size(), 1u);
  // A retrained model must not serve the old model's posteriors.
  engine.SetFolder(SyntheticFolder(3, 50));
  EXPECT_EQ(engine.cache()->size(), 0u);
}

TEST(SelectionEngineTest, InvalidCandidateFailsBeforeMetering) {
  obs::MetricsRegistry::Global().SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  SelectionEngine engine;
  engine.SetFolder(SyntheticFolder(2, 20));
  engine.PublishSnapshot(RandomSnapshot(4, 2, 13));
  BagOfWords bag;
  bag.Add(1);
  auto bad = engine.SelectTopK(bag, 1, {0, 1, 99});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  const auto* queries = snap.FindCounter("serve.queries");
  if (queries != nullptr) {
    EXPECT_EQ(queries->value, 0u) << "failed query must not be metered";
  }
  // No fold-in ran either: the cache saw no traffic.
  EXPECT_EQ(engine.cache()->hits() + engine.cache()->misses(), 0u);

  auto good = engine.SelectTopK(bag, 1, {0, 1});
  ASSERT_TRUE(good.ok());
  const auto snap2 = obs::MetricsRegistry::Global().Snapshot();
  ASSERT_NE(snap2.FindCounter("serve.queries"), nullptr);
  EXPECT_EQ(snap2.FindCounter("serve.queries")->value, 1u);
}

// ---- TdpmSelector through the engine --------------------------------------

CrowdDatabase TwoTopicDb() {
  CrowdDatabase db;
  db.AddWorker("db_expert_0");
  db.AddWorker("db_expert_1");
  db.AddWorker("math_expert_0");
  db.AddWorker("math_expert_1");
  const std::vector<std::string> db_tasks = {
      "btree index storage page", "index scan btree page buffer",
      "storage engine page btree", "buffer index page scan"};
  const std::vector<std::string> math_tasks = {
      "matrix calculus gradient algebra", "gradient algebra matrix integral",
      "integral calculus matrix algebra", "algebra gradient integral matrix"};
  for (const std::string& text : db_tasks) {
    const TaskId t = db.AddTask(text);
    for (WorkerId w = 0; w < 4; ++w) {
      CS_CHECK_OK(db.Assign(w, t));
      CS_CHECK_OK(db.RecordFeedback(w, t, w < 2 ? 5.0 : 1.0));
    }
  }
  for (const std::string& text : math_tasks) {
    const TaskId t = db.AddTask(text);
    for (WorkerId w = 0; w < 4; ++w) {
      CS_CHECK_OK(db.Assign(w, t));
      CS_CHECK_OK(db.RecordFeedback(w, t, w >= 2 ? 5.0 : 1.0));
    }
  }
  return db;
}

TdpmOptions SmallOptions() {
  TdpmOptions options;
  options.num_categories = 2;
  options.max_em_iterations = 15;
  options.seed = 3;
  return options;
}

TEST(TdpmSelectorEngineTest, SelectTopKMatchesManualScan) {
  CrowdDatabase db = TwoTopicDb();
  TdpmSelector selector(SmallOptions());
  ASSERT_TRUE(selector.Train(db).ok());
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task = BagOfWords::FromTextFrozen(
      "btree index page", tokenizer, db.vocabulary());
  auto projected = selector.ProjectTask(task);
  ASSERT_TRUE(projected.ok());
  auto top = selector.SelectTopK(task, 4, {0, 1, 2, 3});
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 4u);
  for (const RankedWorker& rw : *top) {
    EXPECT_NEAR(rw.score,
                selector.WorkerSkills(rw.worker).Dot(projected->category),
                1e-9);
  }
}

TEST(TdpmSelectorEngineTest, RepeatedQueriesHitTheCache) {
  CrowdDatabase db = TwoTopicDb();
  TdpmSelector selector(SmallOptions());
  ASSERT_TRUE(selector.Train(db).ok());
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task = BagOfWords::FromTextFrozen(
      "matrix gradient", tokenizer, db.vocabulary());
  auto first = selector.SelectTopK(task, 2, {0, 1, 2, 3});
  auto second = selector.SelectTopK(task, 2, {0, 1, 2, 3});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_GE(selector.engine()->cache()->hits(), 1u);
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].worker, (*second)[i].worker);
    EXPECT_DOUBLE_EQ((*first)[i].score, (*second)[i].score);
  }
}

TEST(TdpmSelectorEngineTest, ObserveResolvedTaskPublishesNewSnapshot) {
  CrowdDatabase db = TwoTopicDb();
  TdpmSelector selector(SmallOptions());
  ASSERT_TRUE(selector.Train(db).ok());
  const uint64_t version_before = selector.engine()->snapshot()->version();
  const Vector skills_before = selector.WorkerSkills(2);

  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task = BagOfWords::FromTextFrozen(
      "btree index page storage", tokenizer, db.vocabulary());
  // Worker 2 (a math expert) suddenly aces a db task.
  ASSERT_TRUE(selector.ObserveResolvedTask(task, {{2, 8.0}}).ok());

  EXPECT_EQ(selector.engine()->snapshot()->version(), version_before + 1);
  const Vector& skills_after = selector.WorkerSkills(2);
  double moved = 0.0;
  for (size_t d = 0; d < skills_after.size(); ++d) {
    moved += std::abs(skills_after[d] - skills_before[d]);
  }
  EXPECT_GT(moved, 0.0) << "posterior must absorb the observation";
  // The published snapshot row agrees with the refreshed posterior.
  const double* row = selector.engine()->snapshot()->RowPtr(2);
  for (size_t d = 0; d < skills_after.size(); ++d) {
    EXPECT_DOUBLE_EQ(row[d], skills_after[d]);
  }
  // Untouched workers keep their batch posterior in the new snapshot.
  const double* row0 = selector.engine()->snapshot()->RowPtr(0);
  const Vector& worker0 = selector.WorkerSkills(0);
  for (size_t d = 0; d < worker0.size(); ++d) {
    EXPECT_DOUBLE_EQ(row0[d], worker0[d]);
  }
}

TEST(TdpmSelectorEngineTest, ObserveResolvedTaskValidatesWorkers) {
  CrowdDatabase db = TwoTopicDb();
  TdpmSelector selector(SmallOptions());
  ASSERT_TRUE(selector.Train(db).ok());
  BagOfWords bag;
  bag.Add(0);
  EXPECT_TRUE(
      selector.ObserveResolvedTask(bag, {{99, 1.0}}).IsInvalidArgument());
  TdpmSelector untrained(SmallOptions());
  EXPECT_TRUE(
      untrained.ObserveResolvedTask(bag, {{0, 1.0}}).IsFailedPrecondition());
}

// The engine validates for the selector: a query naming an unknown
// candidate is rejected before the selector's meter, the engine's meter
// and the fold-in cache see it.
TEST(TdpmSelectorEngineTest, UnknownCandidateIsNeitherMeteredNorFoldedIn) {
  CrowdDatabase db = TwoTopicDb();
  TdpmSelector selector(SmallOptions());
  ASSERT_TRUE(selector.Train(db).ok());
  obs::MetricsRegistry::Global().SetEnabled(true);
  obs::MetricsRegistry::Global().ResetAll();
  const FoldInCache& cache = *selector.engine()->cache();
  const uint64_t lookups = cache.hits() + cache.misses();
  BagOfWords bag;
  bag.Add(0);
  auto bad = selector.SelectTopK(bag, 1, {0, 1, 99});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  for (const char* name : {"select.queries", "serve.queries"}) {
    if (const auto* queries = snap.FindCounter(name)) {
      EXPECT_EQ(queries->value, 0u) << name << " counted a rejected query";
    }
  }
  EXPECT_EQ(cache.hits() + cache.misses(), lookups);

  ASSERT_TRUE(selector.SelectTopK(bag, 1, {0, 1, 2, 3}).ok());
  const auto snap2 = obs::MetricsRegistry::Global().Snapshot();
  for (const char* name : {"select.queries", "serve.queries"}) {
    ASSERT_NE(snap2.FindCounter(name), nullptr) << name;
    EXPECT_EQ(snap2.FindCounter(name)->value, 1u) << name;
  }
  EXPECT_EQ(cache.hits() + cache.misses(), lookups + 1);
}

TEST(TdpmSelectorEngineTest, PublishWorkerPosteriorsSwapsSkills) {
  CrowdDatabase db = TwoTopicDb();
  TdpmSelector selector(SmallOptions());
  ASSERT_TRUE(selector.Train(db).ok());
  std::vector<WorkerPosterior> replacement(4);
  for (size_t w = 0; w < 4; ++w) {
    replacement[w].lambda = Vector(2, static_cast<double>(w));
    replacement[w].nu_sq = Vector(2, 0.5);
  }
  const uint64_t version_before = selector.engine()->snapshot()->version();
  selector.PublishWorkerPosteriors(replacement);
  EXPECT_GT(selector.engine()->snapshot()->version(), version_before);
  EXPECT_DOUBLE_EQ(selector.WorkerSkills(3)[0], 3.0);
  EXPECT_DOUBLE_EQ(selector.engine()->snapshot()->RowPtr(3)[0], 3.0);
}

}  // namespace
}  // namespace crowdselect::serve
