// Contract tests every CrowdSelector implementation must satisfy,
// parameterized over all five algorithms (VSM, DRM, TSPM, TSPM-Gibbs,
// TDPM) so interface regressions surface for each of them.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "crowdselect/crowdselect.h"

namespace crowdselect {
namespace {

struct SelectorCase {
  std::string label;
  std::function<std::unique_ptr<CrowdSelector>()> make;
};

// gtest's default printer dumps the object's bytes, heap pointers included,
// and --gtest_list_tests (hence every ctest name) embeds that dump; printing
// the label keeps the test names the same from one process to the next.
void PrintTo(const SelectorCase& selector_case, std::ostream* os) {
  *os << selector_case.label;
}

CrowdDatabase SharedDb() {
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
  for (const auto& text : db_tasks) {
    const TaskId t = db.AddTask(text);
    for (WorkerId w = 0; w < 4; ++w) {
      CS_CHECK_OK(db.Assign(w, t));
      CS_CHECK_OK(db.RecordFeedback(w, t, w < 2 ? 5.0 : 1.0));
    }
  }
  for (const auto& text : math_tasks) {
    const TaskId t = db.AddTask(text);
    for (WorkerId w = 0; w < 4; ++w) {
      CS_CHECK_OK(db.Assign(w, t));
      CS_CHECK_OK(db.RecordFeedback(w, t, w >= 2 ? 5.0 : 1.0));
    }
  }
  return db;
}

class SelectorContract : public ::testing::TestWithParam<SelectorCase> {};

TEST_P(SelectorContract, NameIsStableAndNonEmpty) {
  auto selector = GetParam().make();
  EXPECT_FALSE(selector->Name().empty());
  EXPECT_EQ(selector->Name(), GetParam().make()->Name());
}

TEST_P(SelectorContract, UntrainedSelectionFailsCleanly) {
  auto selector = GetParam().make();
  BagOfWords bag;
  bag.Add(0);
  EXPECT_TRUE(
      selector->SelectTopK(bag, 1, {0}).status().IsFailedPrecondition());
}

TEST_P(SelectorContract, TrainOnEmptyHistoryFails) {
  CrowdDatabase empty;
  empty.AddWorker("lonely");
  empty.AddTask("unanswered question");
  auto selector = GetParam().make();
  // VSM tolerates an empty history (profiles are just empty); the latent
  // models must refuse.
  const Status st = selector->Train(empty);
  if (selector->Name() != "VSM") {
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  }
}

TEST_P(SelectorContract, RankingIsSortedAndBounded) {
  CrowdDatabase db = SharedDb();
  auto selector = GetParam().make();
  ASSERT_TRUE(selector->Train(db).ok());
  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  const BagOfWords probe = BagOfWords::FromTextFrozen(
      "btree page index tuning", tokenizer, db.vocabulary());
  for (size_t k : {0u, 1u, 2u, 4u, 10u}) {
    auto top = selector->SelectTopK(probe, k, {0, 1, 2, 3});
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    EXPECT_LE(top->size(), std::min<size_t>(k, 4));
    for (size_t i = 1; i < top->size(); ++i) {
      EXPECT_GE((*top)[i - 1].score, (*top)[i].score);
    }
  }
}

TEST_P(SelectorContract, OnlyCandidatesAreReturned) {
  CrowdDatabase db = SharedDb();
  auto selector = GetParam().make();
  ASSERT_TRUE(selector->Train(db).ok());
  BagOfWords probe = db.GetTask(0).value()->bag;
  auto top = selector->SelectTopK(probe, 4, {1, 3});
  ASSERT_TRUE(top.ok());
  for (const auto& rw : *top) {
    EXPECT_TRUE(rw.worker == 1 || rw.worker == 3);
  }
}

TEST_P(SelectorContract, UnknownCandidateRejected) {
  CrowdDatabase db = SharedDb();
  auto selector = GetParam().make();
  ASSERT_TRUE(selector->Train(db).ok());
  BagOfWords probe = db.GetTask(0).value()->bag;
  EXPECT_TRUE(
      selector->SelectTopK(probe, 1, {42}).status().IsInvalidArgument());
}

TEST_P(SelectorContract, EmptyTaskStillRanksSomething) {
  CrowdDatabase db = SharedDb();
  auto selector = GetParam().make();
  ASSERT_TRUE(selector->Train(db).ok());
  BagOfWords empty;
  auto top = selector->SelectTopK(empty, 2, {0, 1, 2, 3});
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top->size(), 2u);
}

TEST_P(SelectorContract, RetrainingIsIdempotentOnSameData) {
  CrowdDatabase db = SharedDb();
  auto selector = GetParam().make();
  ASSERT_TRUE(selector->Train(db).ok());
  BagOfWords probe = db.GetTask(2).value()->bag;
  auto first = selector->SelectTopK(probe, 4, {0, 1, 2, 3});
  ASSERT_TRUE(selector->Train(db).ok());
  auto second = selector->SelectTopK(probe, 4, {0, 1, 2, 3});
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].worker, (*second)[i].worker);
  }
}

std::vector<SelectorCase> AllSelectors() {
  std::vector<SelectorCase> cases;
  cases.push_back({"VSM", [] { return std::make_unique<VsmSelector>(); }});
  cases.push_back({"DRM", [] {
                     DrmOptions options;
                     options.plsa.num_topics = 2;
                     return std::make_unique<DrmSelector>(options);
                   }});
  cases.push_back({"TSPM", [] {
                     TspmOptions options;
                     options.lda.num_topics = 2;
                     return std::make_unique<TspmSelector>(options);
                   }});
  cases.push_back({"TSPMGibbs", [] {
                     TspmOptions options;
                     options.lda.num_topics = 2;
                     options.backend = LdaBackend::kGibbs;
                     options.gibbs.burn_in_sweeps = 60;
                     options.gibbs.sample_sweeps = 20;
                     return std::make_unique<TspmSelector>(options);
                   }});
  cases.push_back({"TDPM", [] {
                     TdpmOptions options;
                     options.num_categories = 2;
                     options.max_em_iterations = 10;
                     return std::make_unique<TdpmSelector>(options);
                   }});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SelectorContract,
                         ::testing::ValuesIn(AllSelectors()),
                         [](const ::testing::TestParamInfo<SelectorCase>&
                                param_info) { return param_info.param.label; });

}  // namespace
}  // namespace crowdselect
