#include "model/crowd_model.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "model/selection.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "util/logging.h"

namespace crowdselect {
namespace {

CrowdDatabase TwoTopicDb() {
  CrowdDatabase db;
  db.AddWorker("db_expert_0");
  db.AddWorker("db_expert_1");
  db.AddWorker("math_expert_0");
  db.AddWorker("math_expert_1");
  const std::vector<std::string> db_tasks = {
      "btree index storage page", "index scan btree page buffer",
      "storage engine page btree", "buffer index page scan",
      "btree storage buffer engine", "index btree page storage"};
  const std::vector<std::string> math_tasks = {
      "matrix calculus gradient algebra", "gradient algebra matrix integral",
      "integral calculus matrix algebra", "algebra gradient integral matrix",
      "calculus integral gradient algebra", "matrix algebra calculus integral"};
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

ModelConfig SmallConfig() {
  ModelConfig config;
  config.tdpm.num_categories = 2;
  config.tdpm.max_em_iterations = 25;
  config.tdpm.seed = 3;
  config.router_num_clusters = 2;
  return config;
}

TEST(CreateCrowdModelTest, KnownIdsAreTdpmAndRouter) {
  obs::MetricsRegistry::Global().SetEnabled(true);
  EXPECT_TRUE(IsCrowdModelId("tdpm"));
  EXPECT_TRUE(IsCrowdModelId("router"));
  for (const char* id : {"", "TDPM", "dawid_skene", "ensemble"}) {
    EXPECT_FALSE(IsCrowdModelId(id)) << id;
  }
  obs::Counter* created =
      obs::MetricsRegistry::Global().GetCounter("model.created");
  const uint64_t before = created->Value();
  for (const char* id : {"tdpm", "router"}) {
    auto model = CreateCrowdModel(id, SmallConfig());
    ASSERT_TRUE(model.ok()) << id;
    EXPECT_EQ((*model)->ModelId(), id);
    EXPECT_FALSE((*model)->trained()) << id;
  }
  EXPECT_EQ(created->Value() - before, 2u);
}

// Unknown ids — including the removed "dawid_skene" and "ensemble" —
// fail loudly, name the id, and list what is known.
TEST(CreateCrowdModelTest, UnknownIdIsNotFoundAndListsKnownIds) {
  obs::Counter* created =
      obs::MetricsRegistry::Global().GetCounter("model.created");
  const uint64_t before = created->Value();
  for (const char* id : {"no_such_model", "dawid_skene", "ensemble"}) {
    auto result = CreateCrowdModel(id, SmallConfig());
    ASSERT_FALSE(result.ok()) << id;
    EXPECT_TRUE(result.status().IsNotFound()) << id;
    const std::string& message = result.status().message();
    EXPECT_NE(message.find(std::string("\"") + id + "\""), std::string::npos)
        << "error should name the id: " << message;
    EXPECT_NE(message.find("router, tdpm"), std::string::npos)
        << "error should list the known ids: " << message;
  }
  EXPECT_EQ(created->Value(), before) << "a failed creation is not counted";
}

TEST(CreateCrowdModelTest, EveryBuiltinTrainsAndServes) {
  CrowdDatabase db = TwoTopicDb();
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task = BagOfWords::FromTextFrozen(
      "btree index page", tokenizer, db.vocabulary());
  for (const std::string& id : {std::string("tdpm"), std::string("router")}) {
    auto model = CreateCrowdModel(id, SmallConfig());
    ASSERT_TRUE(model.ok()) << id;
    ASSERT_TRUE((*model)->Train(db).ok()) << id;
    serve::QueryStats stats;
    auto top = (*model)->SelectTopKExplained(task, 2, {0, 1, 2, 3}, &stats);
    ASSERT_TRUE(top.ok()) << id;
    EXPECT_EQ(top->size(), 2u) << id;
    EXPECT_FALSE(stats.serving_model.empty()) << id;
    EXPECT_NE((*model)->CurrentSnapshot(), nullptr) << id;
  }
}

// The refactor guard from the PR acceptance criteria: with the router
// disabled and model=tdpm, rankings must be *byte-identical* to the
// direct (pre-refactor) TdpmSelector path. Bitwise score comparison, not
// approximate.
TEST(CreateCrowdModelTest, TdpmIsByteIdenticalToDirectSelector) {
  CrowdDatabase db = TwoTopicDb();
  const ModelConfig config = SmallConfig();

  TdpmSelector direct(config.tdpm, config.serve);
  ASSERT_TRUE(direct.Train(db).ok());
  auto via_factory = CreateCrowdModel("tdpm", config);
  ASSERT_TRUE(via_factory.ok());
  ASSERT_TRUE((*via_factory)->Train(db).ok());

  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const std::vector<std::string> queries = {
      "btree index page",
      "compute the gradient of a matrix integral",
      "storage buffer scan",
      "algebra calculus integral",
  };
  for (const std::string& text : queries) {
    const BagOfWords task =
        BagOfWords::FromTextFrozen(text, tokenizer, db.vocabulary());
    auto a = direct.SelectTopK(task, 4, {0, 1, 2, 3});
    auto b = (*via_factory)->SelectTopK(task, 4, {0, 1, 2, 3});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].worker, (*b)[i].worker) << text << " rank " << i;
      // Byte-identical, not nearly-equal.
      EXPECT_EQ(std::memcmp(&(*a)[i].score, &(*b)[i].score, sizeof(double)), 0)
          << text << " rank " << i << ": " << (*a)[i].score
          << " != " << (*b)[i].score;
    }
  }
}

// Same guard one level up: a single-member router degenerates to its
// member's exact ranking (routing adds no numeric perturbation).
TEST(CreateCrowdModelTest, SingleMemberRouterMatchesDirectSelector) {
  CrowdDatabase db = TwoTopicDb();
  const ModelConfig config = SmallConfig();

  TdpmSelector direct(config.tdpm, config.serve);
  ASSERT_TRUE(direct.Train(db).ok());

  serve::TaskTypeRouter router;
  router.AddModel(std::make_unique<TdpmSelector>(config.tdpm, config.serve));
  ASSERT_TRUE(router.Train(db).ok());

  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task = BagOfWords::FromTextFrozen(
      "btree index page", tokenizer, db.vocabulary());
  auto a = direct.SelectTopK(task, 4, {0, 1, 2, 3});
  auto b = router.SelectTopK(task, 4, {0, 1, 2, 3});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].worker, (*b)[i].worker);
    EXPECT_EQ(std::memcmp(&(*a)[i].score, &(*b)[i].score, sizeof(double)), 0);
  }
}

TEST(CrowdModelTest, ScoreCandidatesRanksEveryCandidate) {
  CrowdDatabase db = TwoTopicDb();
  const ModelConfig config = SmallConfig();
  auto model = CreateCrowdModel("tdpm", config);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Train(db).ok());
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords task = BagOfWords::FromTextFrozen(
      "btree index page", tokenizer, db.vocabulary());
  auto ranked = (*model)->ScoreCandidates(task, {0, 1, 2, 3});
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), 4u);
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i - 1].score, (*ranked)[i].score);
  }
}

}  // namespace
}  // namespace crowdselect
