// Parameterized property sweeps over the full training pipeline: for every
// (K, feedback model) combination, training must uphold the model's
// structural invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "crowdselect/crowdselect.h"

namespace crowdselect {
namespace {

struct PropertyCase {
  size_t k;
  FeedbackModel feedback;
};

std::string Label(const PropertyCase& property_case) {
  return "K" + std::to_string(property_case.k) +
         (property_case.feedback == FeedbackModel::kBestAnswer ? "_BestAnswer"
                                                                : "_ThumbsUp");
}

// gtest's default printer dumps the object's bytes, padding included, and
// --gtest_list_tests (hence every ctest name) embeds that dump; printing
// the label keeps the test names the same from one build to the next.
void PrintTo(const PropertyCase& property_case, std::ostream* os) {
  *os << Label(property_case);
}

class TrainingInvariantSweep : public ::testing::TestWithParam<PropertyCase> {
};

TEST_P(TrainingInvariantSweep, InvariantsHold) {
  const PropertyCase param = GetParam();

  PlatformConfig config = DefaultPlatformConfig(Platform::kQuora);
  config.world.num_workers = 20;
  config.world.num_tasks = 90;
  config.world.vocab_size = 100;
  config.world.num_categories = 3;
  config.world.mean_answers_per_task = 3.0;
  config.feedback = param.feedback;
  auto dataset =
      GeneratePlatformDataset(Platform::kQuora, config, 1000 + param.k);
  ASSERT_TRUE(dataset.ok());

  TdpmOptions options;
  options.num_categories = param.k;
  options.max_em_iterations = 8;
  options.seed = param.k;
  TdpmTrainData data = TdpmTrainData::FromDatabase(dataset->db);
  TdpmTrainer trainer(options);
  auto fit = trainer.Fit(data);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  // (1) tau positive and finite.
  EXPECT_GT(fit->params.tau, 0.0);
  EXPECT_TRUE(std::isfinite(fit->params.tau));

  // (2) beta rows are distributions.
  for (size_t d = 0; d < param.k; ++d) {
    double row = 0.0;
    for (size_t v = 0; v < data.vocab_size; ++v) {
      ASSERT_GE(fit->params.beta(d, v), 0.0);
      row += fit->params.beta(d, v);
    }
    EXPECT_NEAR(row, 1.0, 1e-8);
  }

  // (3) priors are symmetric with floored positive diagonals.
  EXPECT_LT(fit->params.sigma_w.SymmetryError(), 1e-9);
  EXPECT_LT(fit->params.sigma_c.SymmetryError(), 1e-9);
  for (size_t d = 0; d < param.k; ++d) {
    EXPECT_GE(fit->params.sigma_w(d, d), options.prior_variance_floor - 1e-12);
    EXPECT_GE(fit->params.sigma_c(d, d), options.prior_variance_floor - 1e-12);
  }

  // (4) every posterior is finite with positive variances; phi rows are
  // distributions.
  for (const auto& w : fit->state.workers) {
    for (size_t d = 0; d < param.k; ++d) {
      EXPECT_TRUE(std::isfinite(w.lambda[d]));
      EXPECT_GT(w.nu_sq[d], 0.0);
    }
  }
  for (size_t j = 0; j < fit->state.tasks.size(); ++j) {
    const auto& t = fit->state.tasks[j];
    for (size_t d = 0; d < param.k; ++d) {
      EXPECT_TRUE(std::isfinite(t.lambda[d]));
      EXPECT_GT(t.nu_sq[d], 0.0);
    }
    EXPECT_GT(t.eps, 0.0);
    for (size_t p = 0; p < t.phi.rows(); ++p) {
      double row = 0.0;
      for (size_t d = 0; d < param.k; ++d) row += t.phi(p, d);
      EXPECT_NEAR(row, 1.0, 1e-9);
    }
  }

  // (5) ELBO history finite.
  for (double e : fit->elbo_history) EXPECT_TRUE(std::isfinite(e));

  // (6) fold-in of every training task is finite and deterministic.
  auto folder = TaskFolder::Create(fit->params, options);
  ASSERT_TRUE(folder.ok());
  const BagOfWords& probe = dataset->db.GetTask(0).value()->bag;
  const FoldInResult f1 = folder->FoldIn(probe);
  const FoldInResult f2 = folder->FoldIn(probe);
  for (size_t d = 0; d < param.k; ++d) {
    EXPECT_TRUE(std::isfinite(f1.lambda[d]));
    EXPECT_DOUBLE_EQ(f1.lambda[d], f2.lambda[d]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAndFeedback, TrainingInvariantSweep,
    ::testing::Values(PropertyCase{1, FeedbackModel::kThumbsUp},
                      PropertyCase{2, FeedbackModel::kThumbsUp},
                      PropertyCase{3, FeedbackModel::kThumbsUp},
                      PropertyCase{5, FeedbackModel::kThumbsUp},
                      PropertyCase{8, FeedbackModel::kThumbsUp},
                      PropertyCase{2, FeedbackModel::kBestAnswer},
                      PropertyCase{5, FeedbackModel::kBestAnswer},
                      PropertyCase{8, FeedbackModel::kBestAnswer}),
    [](const ::testing::TestParamInfo<PropertyCase>& param_info) {
      return Label(param_info.param);
    });

// Selection consistency: SelectTopK(k) must be a prefix of
// SelectTopK(k+1) for deterministic scoring.
class TopKPrefixSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKPrefixSweep, SmallerKIsPrefixOfLargerK) {
  PlatformConfig config = DefaultPlatformConfig(Platform::kQuora);
  config.world.num_workers = 15;
  config.world.num_tasks = 60;
  config.world.vocab_size = 80;
  config.world.num_categories = 2;
  auto dataset = GeneratePlatformDataset(Platform::kQuora, config, 55);
  ASSERT_TRUE(dataset.ok());
  TdpmOptions options;
  options.num_categories = 2;
  options.max_em_iterations = 6;
  TdpmSelector selector(options);
  ASSERT_TRUE(selector.Train(dataset->db).ok());

  const size_t k = GetParam();
  const BagOfWords& probe = dataset->db.GetTask(3).value()->bag;
  std::vector<WorkerId> candidates;
  for (WorkerId w = 0; w < 15; ++w) candidates.push_back(w);
  auto small = selector.SelectTopK(probe, k, candidates);
  auto large = selector.SelectTopK(probe, k + 3, candidates);
  ASSERT_TRUE(small.ok() && large.ok());
  ASSERT_LE(small->size(), large->size());
  for (size_t i = 0; i < small->size(); ++i) {
    EXPECT_EQ((*small)[i].worker, (*large)[i].worker) << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKPrefixSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace crowdselect
