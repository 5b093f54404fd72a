#include "model/fold_in.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/metrics.h"

namespace crowdselect {
namespace {

// Model with two sharply separated categories over a 20-term vocabulary.
TdpmModelParams TwoTopicParams() {
  TdpmModelParams params = TdpmModelParams::Init(2, 20);
  params.mu_c = Vector(2, 0.0);
  params.sigma_c = Matrix::Identity(2);
  params.sigma_c *= 2.0;
  for (size_t v = 0; v < 20; ++v) {
    params.beta(0, v) = v < 10 ? 0.098 : 0.002;
    params.beta(1, v) = v < 10 ? 0.002 : 0.098;
  }
  return params;
}

TdpmOptions Options() {
  TdpmOptions options;
  options.num_categories = 2;
  return options;
}

TEST(FoldInTest, CreateValidatesK) {
  TdpmOptions options = Options();
  options.num_categories = 3;  // Mismatch.
  EXPECT_TRUE(
      TaskFolder::Create(TwoTopicParams(), options).status().IsInvalidArgument());
}

TEST(FoldInTest, ProjectsOntoDominantCategory) {
  auto folder = TaskFolder::Create(TwoTopicParams(), Options());
  ASSERT_TRUE(folder.ok());

  BagOfWords topic0;
  for (TermId v = 0; v < 8; ++v) topic0.Add(v, 2);
  FoldInResult r0 = folder->FoldIn(topic0);
  EXPECT_GT(r0.lambda[0], r0.lambda[1]);
  EXPECT_TRUE(r0.converged);
  EXPECT_LT(r0.cg_residual, 1e-4);
  EXPECT_GT(r0.cg_iterations, 0);

  BagOfWords topic1;
  for (TermId v = 12; v < 20; ++v) topic1.Add(v, 2);
  FoldInResult r1 = folder->FoldIn(topic1);
  EXPECT_GT(r1.lambda[1], r1.lambda[0]);
}

TEST(FoldInTest, NonFiniteSolveIsFlaggedAndCounted) {
  // A NaN in beta makes the responsibilities of any task that uses the
  // term, and with them the lambda_c objective, non-finite.
  TdpmModelParams params = TwoTopicParams();
  params.beta(0, 3) = std::numeric_limits<double>::quiet_NaN();
  auto folder = TaskFolder::Create(params, Options());
  ASSERT_TRUE(folder.ok());
  obs::Counter* unconverged =
      obs::MetricsRegistry::Global().GetCounter("foldin.unconverged");
  const uint64_t before = unconverged->Value();

  BagOfWords bag;
  bag.Add(3, 2);
  bag.Add(12, 1);
  const FoldInResult r = folder->Posterior(bag);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(unconverged->Value(), before + 1);
  // The solve accepted no step, so the posterior mean stays the finite
  // prior mean it started from.
  EXPECT_DOUBLE_EQ(r.lambda[0], 0.0);
  EXPECT_DOUBLE_EQ(r.lambda[1], 0.0);

  // A task without the poisoned term still converges, uncounted.
  BagOfWords clean;
  clean.Add(12, 2);
  EXPECT_TRUE(folder->Posterior(clean).converged);
  EXPECT_EQ(unconverged->Value(), before + 1);
}

TEST(FoldInTest, EmptyTaskFallsBackToPrior) {
  TdpmModelParams params = TwoTopicParams();
  params.mu_c = Vector{0.7, -0.3};
  auto folder = TaskFolder::Create(params, Options());
  ASSERT_TRUE(folder.ok());
  BagOfWords empty;
  FoldInResult r = folder->FoldIn(empty);
  EXPECT_DOUBLE_EQ(r.lambda[0], 0.7);
  EXPECT_DOUBLE_EQ(r.lambda[1], -0.3);
  EXPECT_DOUBLE_EQ(r.nu_sq[0], params.sigma_c(0, 0));
}

TEST(FoldInTest, UnknownTermsAreIgnored) {
  auto folder = TaskFolder::Create(TwoTopicParams(), Options());
  ASSERT_TRUE(folder.ok());
  BagOfWords mixed;
  mixed.Add(3, 2);            // Known, topic 0.
  mixed.Add(500, 10);         // Out of vocabulary.
  FoldInResult r = folder->FoldIn(mixed);
  EXPECT_GT(r.lambda[0], r.lambda[1]);

  BagOfWords only_unknown;
  only_unknown.Add(500, 3);
  FoldInResult prior = folder->FoldIn(only_unknown);
  EXPECT_DOUBLE_EQ(prior.lambda[0], 0.0);  // Prior mean.
}

TEST(FoldInTest, VariancesPositiveAndShrinkWithEvidence) {
  auto folder = TaskFolder::Create(TwoTopicParams(), Options());
  ASSERT_TRUE(folder.ok());
  BagOfWords small, large;
  small.Add(0, 1);
  for (TermId v = 0; v < 10; ++v) large.Add(v, 10);
  FoldInResult rs = folder->FoldIn(small);
  FoldInResult rl = folder->FoldIn(large);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_GT(rs.nu_sq[d], 0.0);
    EXPECT_GT(rl.nu_sq[d], 0.0);
  }
  // More tokens -> tighter posterior (on the dominant coordinate).
  EXPECT_LT(rl.nu_sq[0], rs.nu_sq[0]);
}

TEST(FoldInTest, DeterministicWithoutSampling) {
  auto folder = TaskFolder::Create(TwoTopicParams(), Options());
  ASSERT_TRUE(folder.ok());
  BagOfWords bag;
  bag.Add(2, 3);
  FoldInResult a = folder->FoldIn(bag);
  FoldInResult b = folder->FoldIn(bag);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_DOUBLE_EQ(a.lambda[d], b.lambda[d]);
    EXPECT_DOUBLE_EQ(a.category[d], b.category[d]);
  }
  // Deterministic mode: category == posterior mean.
  EXPECT_DOUBLE_EQ(a.category[0], a.lambda[0]);
}

TEST(FoldInTest, SamplingModeUsesRngAndVaries) {
  TdpmOptions options = Options();
  options.sample_category_at_selection = true;
  auto folder = TaskFolder::Create(TwoTopicParams(), options);
  ASSERT_TRUE(folder.ok());
  BagOfWords bag;
  bag.Add(2, 3);
  Rng rng(7);
  FoldInResult a = folder->FoldIn(bag, &rng);
  FoldInResult b = folder->FoldIn(bag, &rng);
  // Same posterior, different samples.
  EXPECT_DOUBLE_EQ(a.lambda[0], b.lambda[0]);
  EXPECT_NE(a.category[0], b.category[0]);
}

}  // namespace
}  // namespace crowdselect
