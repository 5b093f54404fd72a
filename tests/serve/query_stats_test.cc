#include "serve/query_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "model/selection.h"
#include "obs/metrics.h"
#include "serve/selection_engine.h"
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

std::unique_ptr<SelectionEngine> MakeEngine(size_t workers,
                                            size_t categories,
                                            uint64_t seed) {
  auto engine = std::make_unique<SelectionEngine>();
  engine->SetFolder(SyntheticFolder(categories, 100));
  engine->PublishSnapshot(RandomSnapshot(workers, categories, seed));
  return engine;
}

BagOfWords SampleTask() {
  BagOfWords bag;
  bag.Add(7, 2);
  bag.Add(23, 1);
  bag.Add(55, 3);
  return bag;
}

// The EXPLAIN contract: attaching stats must not change the ranking in
// any way — same workers, same scores, element by element.
TEST(QueryStatsTest, RankingIdenticalWithAndWithoutStats) {
  auto plain_engine = MakeEngine(64, 4, 21);
  auto stats_engine = MakeEngine(64, 4, 21);
  const BagOfWords bag = SampleTask();
  const auto candidates = AllWorkers(64);
  for (size_t k : {1u, 5u, 32u, 64u, 100u}) {
    auto plain = plain_engine->SelectTopK(bag, k, candidates);
    QueryStats stats;
    auto explained =
        stats_engine->SelectTopK(bag, k, candidates, nullptr, &stats);
    ASSERT_TRUE(plain.ok() && explained.ok()) << "k=" << k;
    ASSERT_EQ(plain->size(), explained->size()) << "k=" << k;
    for (size_t i = 0; i < plain->size(); ++i) {
      EXPECT_EQ((*plain)[i].worker, (*explained)[i].worker)
          << "k=" << k << " rank=" << i;
      EXPECT_DOUBLE_EQ((*plain)[i].score, (*explained)[i].score);
    }
    // And the breakdown mirrors exactly what was returned.
    ASSERT_EQ(stats.breakdown.size(), explained->size());
    for (size_t i = 0; i < stats.breakdown.size(); ++i) {
      EXPECT_EQ(stats.breakdown[i].worker, (*explained)[i].worker);
      EXPECT_DOUBLE_EQ(stats.breakdown[i].score, (*explained)[i].score);
    }
  }
}

TEST(QueryStatsTest, PlanShapeAndLatenciesFilled) {
  auto engine = MakeEngine(32, 3, 5);
  QueryStats stats;
  auto top = engine->SelectTopK(SampleTask(), 4, AllWorkers(32), nullptr,
                               &stats);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(stats.snapshot_version, engine->snapshot()->version());
  EXPECT_EQ(stats.num_workers, 32u);
  EXPECT_EQ(stats.num_categories, 3u);
  EXPECT_EQ(stats.num_candidates, 32u);
  EXPECT_EQ(stats.k, 4u);
  EXPECT_FALSE(stats.parallel_scan);  // Default threshold is large.
  EXPECT_TRUE(stats.used_foldin);
  EXPECT_GT(stats.foldin_us, 0.0);
  EXPECT_GT(stats.scan_us, 0.0);
  EXPECT_GE(stats.total_us, stats.foldin_us);
  EXPECT_GE(stats.total_us, stats.scan_us);
}

TEST(QueryStatsTest, CacheMissThenHitPreservesCgCost) {
  auto engine = MakeEngine(16, 3, 9);
  const BagOfWords bag = SampleTask();
  QueryStats miss;
  ASSERT_TRUE(engine->SelectTopK(bag, 2, AllWorkers(16), nullptr, &miss).ok());
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.cg_iterations, 0);

  QueryStats hit;
  ASSERT_TRUE(engine->SelectTopK(bag, 2, AllWorkers(16), nullptr, &hit).ok());
  EXPECT_TRUE(hit.cache_hit);
  // A hit reports the cached entry's original solve cost.
  EXPECT_EQ(hit.cg_iterations, miss.cg_iterations);
  EXPECT_DOUBLE_EQ(hit.cg_residual, miss.cg_residual);
}

// An unconverged fold-in is served, but counted once in
// foldin.unconverged on the miss that solved it, and flagged in EXPLAIN
// on that miss and on the cache hit that replays its entry.
TEST(QueryStatsTest, UnconvergedFoldInIsCountedCachedAndFlagged) {
  // A NaN in beta makes the lambda_c objective of any task using the term
  // non-finite, so its solve cannot meet the tolerance.
  TdpmModelParams params = TdpmModelParams::Init(3, 100);
  params.beta(1, 23) = std::numeric_limits<double>::quiet_NaN();
  TdpmOptions options;
  options.num_categories = 3;
  auto folder = TaskFolder::Create(params, options);
  ASSERT_TRUE(folder.ok());
  SelectionEngine engine;
  engine.SetFolder(std::move(*folder));
  engine.PublishSnapshot(RandomSnapshot(16, 3, 47));
  obs::Counter* unconverged =
      obs::MetricsRegistry::Global().GetCounter("foldin.unconverged");
  const uint64_t before = unconverged->Value();

  QueryStats miss;
  ASSERT_TRUE(
      engine.SelectTopK(SampleTask(), 2, AllWorkers(16), nullptr, &miss).ok());
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_FALSE(miss.converged);
  EXPECT_EQ(unconverged->Value(), before + 1);

  QueryStats hit;
  ASSERT_TRUE(
      engine.SelectTopK(SampleTask(), 2, AllWorkers(16), nullptr, &hit).ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.converged);  // The cache entry carries the flag.
  EXPECT_EQ(unconverged->Value(), before + 1);  // Nothing was re-solved.
  EXPECT_NE(hit.ToJson().find("\"converged\": false"), std::string::npos);
  EXPECT_NE(hit.ToText().find("NOT CONVERGED"), std::string::npos);
}

TEST(QueryStatsTest, BreakdownTermsSumToScore) {
  auto engine = MakeEngine(24, 5, 33);
  QueryStats stats;
  auto top = engine->SelectTopK(SampleTask(), 6, AllWorkers(24), nullptr,
                               &stats);
  ASSERT_TRUE(top.ok());
  for (const CandidateBreakdown& c : stats.breakdown) {
    ASSERT_EQ(c.terms.size(), 5u);
    const double sum =
        std::accumulate(c.terms.begin(), c.terms.end(), 0.0);
    EXPECT_NEAR(sum, c.score, 1e-9);
  }
}

TEST(QueryStatsTest, MarginsAndCutoffAreConsistent) {
  auto engine = MakeEngine(40, 3, 17);
  QueryStats stats;
  auto top =
      engine->SelectTopK(SampleTask(), 5, AllWorkers(40), nullptr, &stats);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(stats.breakdown.size(), 5u);
  // More candidates than k: the engine scanned rank k+1 for the cutoff.
  ASSERT_TRUE(stats.has_cutoff);
  EXPECT_LE(stats.cutoff_score, stats.breakdown.back().score);
  for (size_t i = 0; i + 1 < stats.breakdown.size(); ++i) {
    EXPECT_NEAR(stats.breakdown[i].margin,
                stats.breakdown[i].score - stats.breakdown[i + 1].score,
                1e-12);
    EXPECT_GE(stats.breakdown[i].margin, 0.0);
  }
  EXPECT_NEAR(stats.breakdown.back().margin,
              stats.breakdown.back().score - stats.cutoff_score, 1e-12);
}

TEST(QueryStatsTest, NoCutoffWhenEveryCandidateIsReturned) {
  auto engine = MakeEngine(8, 3, 2);
  QueryStats stats;
  auto top = engine->SelectTopK(SampleTask(), 8, AllWorkers(8), nullptr,
                               &stats);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 8u);
  EXPECT_FALSE(stats.has_cutoff);
  // Last rank's margin defaults to 0 without a cutoff.
  EXPECT_DOUBLE_EQ(stats.breakdown.back().margin, 0.0);
}

TEST(QueryStatsTest, ParallelScanFlagReflectsEngineOptions) {
  ServeOptions options;
  options.min_parallel_candidates = 4;
  options.num_threads = 2;
  SelectionEngine engine(options);
  engine.SetFolder(SyntheticFolder(3, 100));
  engine.PublishSnapshot(RandomSnapshot(32, 3, 4));
  QueryStats stats;
  ASSERT_TRUE(engine
                  .SelectTopK(SampleTask(), 2, AllWorkers(32), nullptr,
                              &stats)
                  .ok());
  EXPECT_TRUE(stats.parallel_scan);
}

TEST(QueryStatsTest, SelectorExplainedMatchesPlainSelect) {
  // Same parity contract one level up, through TdpmSelector.
  auto make_engine = [] { return MakeEngine(20, 3, 77); };
  auto a = make_engine();
  auto b = make_engine();
  const BagOfWords bag = SampleTask();
  QueryStats stats;
  auto plain = a->SelectTopK(bag, 6, AllWorkers(20));
  auto explained = b->SelectTopK(bag, 6, AllWorkers(20), nullptr, &stats);
  ASSERT_TRUE(plain.ok() && explained.ok());
  ASSERT_EQ(plain->size(), explained->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].worker, (*explained)[i].worker);
    EXPECT_DOUBLE_EQ((*plain)[i].score, (*explained)[i].score);
  }
}

TEST(QueryStatsTest, ToJsonAndToTextCarryTheRequiredFields) {
  auto engine = MakeEngine(16, 3, 41);
  QueryStats stats;
  auto top = engine->SelectTopK(SampleTask(), 3, AllWorkers(16), nullptr,
                               &stats);
  ASSERT_TRUE(top.ok());

  const std::string json = stats.ToJson();
  for (const char* field :
       {"\"snapshot\"", "\"version\"", "\"cache_hit\"", "\"cg_iterations\"",
        "\"converged\": true", "\"latency_us\"", "\"foldin\"", "\"scan\"", "\"total\"",
        "\"ranking\"", "\"terms\"", "\"margin\"", "\"cutoff\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }

  const std::string text = stats.ToText();
  for (const char* needle :
       {"EXPLAIN crowd-selection query", "snapshot", "fold-in", "cache MISS",
        "Newton", "iterations", "converged", "scan", "total", "ranking",
        "cutoff"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The text plan lists exactly the returned ranks.
  EXPECT_NE(text.find("#1"), std::string::npos);
  EXPECT_NE(text.find("#3"), std::string::npos);
  EXPECT_EQ(text.find("#4"), std::string::npos);
}

TEST(QueryStatsTest, ExplainSurfacesKernel) {
  auto engine = MakeEngine(16, 3, 43);
  QueryStats stats;
  auto top = engine->SelectTopK(SampleTask(), 3, AllWorkers(16), nullptr,
                                &stats);
  ASSERT_TRUE(top.ok());
  // Dense full-pool query: the dispatched kernel surfaces.
  EXPECT_EQ(stats.kernel_id, engine->kernel().id());
  const std::string text = stats.ToText();
  EXPECT_NE(text.find("kernel=" + stats.kernel_id + "\n"), std::string::npos)
      << text;
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"kernel\": {\"id\": \"" + stats.kernel_id + "\"}"),
            std::string::npos)
      << json;
}

TEST(QueryStatsTest, TdpmSelectorExplainedRankingMatches) {
  // Through the public selector API used by the CLI's explain command.
  CrowdDatabase db;
  db.AddWorker("w0");
  db.AddWorker("w1");
  db.AddWorker("w2");
  const std::vector<std::string> texts = {
      "alpha beta gamma", "beta gamma delta", "gamma delta alpha",
      "delta alpha beta"};
  for (const std::string& text : texts) {
    const TaskId t = db.AddTask(text);
    for (WorkerId w = 0; w < 3; ++w) {
      CS_CHECK_OK(db.Assign(w, t));
      CS_CHECK_OK(db.RecordFeedback(w, t, 1.0 + w));
    }
  }
  TdpmOptions options;
  options.num_categories = 2;
  options.max_em_iterations = 8;
  TdpmSelector selector(options);
  ASSERT_TRUE(selector.Train(db).ok());
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task =
      BagOfWords::FromTextFrozen("alpha gamma", tokenizer, db.vocabulary());
  QueryStats stats;
  auto plain = selector.SelectTopK(task, 2, {0, 1, 2});
  auto explained = selector.SelectTopKExplained(task, 2, {0, 1, 2}, &stats);
  ASSERT_TRUE(plain.ok() && explained.ok());
  ASSERT_EQ(plain->size(), explained->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].worker, (*explained)[i].worker);
    EXPECT_DOUBLE_EQ((*plain)[i].score, (*explained)[i].score);
  }
  EXPECT_EQ(stats.snapshot_version, 1u);
  EXPECT_TRUE(stats.has_cutoff);
}

}  // namespace
}  // namespace crowdselect::serve
