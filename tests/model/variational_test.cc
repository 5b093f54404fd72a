#include "model/variational.h"

#include <gtest/gtest.h>

#include "util/logging.h"

#include <algorithm>
#include <cmath>

#include "model/elbo.h"

namespace crowdselect {
namespace {

// A small planted world: 2 true categories with disjoint vocabularies,
// workers that are strong in exactly one of them.
struct PlantedWorld {
  TdpmTrainData data;
  std::vector<int> worker_specialty;  // 0 or 1.
  std::vector<int> task_topic;        // 0 or 1.
};

PlantedWorld MakePlantedWorld(size_t num_workers, size_t num_tasks,
                              uint64_t seed) {
  PlantedWorld world;
  Rng rng(seed);
  const size_t vocab = 40;  // [0,20) topic 0, [20,40) topic 1.
  world.data.num_workers = num_workers;
  world.data.vocab_size = vocab;
  world.data.obs_of_worker.resize(num_workers);

  world.worker_specialty.resize(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    world.worker_specialty[i] = static_cast<int>(i % 2);
  }

  for (size_t j = 0; j < num_tasks; ++j) {
    const int topic = static_cast<int>(j % 2);
    world.task_topic.push_back(topic);
    TdpmTrainData::TaskDoc doc;
    // 12 tokens from the topic's vocabulary slice.
    std::map<TermId, uint32_t> counts;
    for (int p = 0; p < 12; ++p) {
      const TermId t =
          static_cast<TermId>(topic * 20 + rng.UniformInt(20));
      ++counts[t];
    }
    for (const auto& [t, c] : counts) doc.terms.emplace_back(t, c);
    doc.total_tokens = 12.0;
    world.data.tasks.push_back(std::move(doc));
    world.data.obs_of_task.emplace_back();

    // Three workers answer; specialists score high (ó5), others low (~1).
    for (int a = 0; a < 3; ++a) {
      const uint32_t w = static_cast<uint32_t>(rng.UniformInt(num_workers));
      const double base = world.worker_specialty[w] == topic ? 5.0 : 1.0;
      const double score = std::max(0.0, rng.Normal(base, 0.3));
      const uint32_t obs = static_cast<uint32_t>(world.data.observations.size());
      world.data.observations.push_back({w, static_cast<uint32_t>(j), score});
      world.data.obs_of_worker[w].push_back(obs);
      world.data.obs_of_task[j].push_back(obs);
    }
  }
  return world;
}

TdpmOptions FastOptions(size_t k, int iterations = 15) {
  TdpmOptions options;
  options.num_categories = k;
  options.max_em_iterations = iterations;
  options.seed = 5;
  return options;
}

TEST(TrainDataTest, FromDatabaseExtractsScoredOnly) {
  CrowdDatabase db;
  db.AddWorker("a");
  db.AddWorker("b");
  db.AddTask("b+ tree index");
  db.AddTask("matrix calculus");
  db.AddTask("never answered");
  CS_CHECK_OK(db.Assign(0, 0));
  CS_CHECK_OK(db.Assign(1, 0));
  CS_CHECK_OK(db.Assign(1, 1));
  CS_CHECK_OK(db.Assign(0, 2));  // Assigned but never scored.
  CS_CHECK_OK(db.RecordFeedback(0, 0, 4.0));
  CS_CHECK_OK(db.RecordFeedback(1, 0, 2.0));
  CS_CHECK_OK(db.RecordFeedback(1, 1, 1.0));

  std::vector<TaskId> ids;
  TdpmTrainData data = TdpmTrainData::FromDatabase(db, &ids);
  ASSERT_TRUE(data.Validate().ok());
  EXPECT_EQ(data.num_workers, 2u);
  EXPECT_EQ(data.tasks.size(), 2u);  // Task 2 has no scores.
  EXPECT_EQ(data.observations.size(), 3u);
  EXPECT_EQ(ids, (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(data.obs_of_worker[1].size(), 2u);
  EXPECT_EQ(data.obs_of_task[0].size(), 2u);
  EXPECT_DOUBLE_EQ(data.observations[0].score, 4.0);
}

TEST(TrainDataTest, EmptyBagTasksAreSkippedNotFatal) {
  CrowdDatabase db;
  db.AddWorker("a");
  db.AddTask("btree index page");        // Normal task.
  db.AddTask("of the and");              // All stopwords: empty bag.
  CS_CHECK_OK(db.Assign(0, 0));
  CS_CHECK_OK(db.RecordFeedback(0, 0, 3.0));
  CS_CHECK_OK(db.Assign(0, 1));
  CS_CHECK_OK(db.RecordFeedback(0, 1, 2.0));
  ASSERT_TRUE(db.GetTask(1).value()->bag.empty());

  TdpmTrainData data = TdpmTrainData::FromDatabase(db);
  ASSERT_TRUE(data.Validate().ok());
  EXPECT_EQ(data.tasks.size(), 1u);         // Empty-bag task dropped.
  EXPECT_EQ(data.observations.size(), 1u);  // Its observation too.
}

TEST(TrainDataTest, ValidateCatchesCorruption) {
  TdpmTrainData data;
  data.num_workers = 1;
  data.vocab_size = 5;
  data.obs_of_worker.resize(1);
  TdpmTrainData::TaskDoc doc;
  doc.terms = {{9, 1}};  // Out of vocab range.
  doc.total_tokens = 1;
  data.tasks.push_back(doc);
  data.obs_of_task.resize(1);
  EXPECT_TRUE(data.Validate().IsCorruption());
}

TEST(VariationalTest, RejectsEmptyTraining) {
  TdpmTrainData data;
  data.num_workers = 3;
  data.vocab_size = 10;
  data.obs_of_worker.resize(3);
  TdpmTrainer trainer(FastOptions(2));
  EXPECT_TRUE(trainer.Fit(data).status().IsFailedPrecondition());
}

TEST(VariationalTest, ValidatesOptions) {
  TdpmOptions bad = FastOptions(0);
  TdpmTrainer trainer(bad);
  PlantedWorld world = MakePlantedWorld(6, 10, 1);
  EXPECT_TRUE(trainer.Fit(world.data).status().IsInvalidArgument());
}

TEST(VariationalTest, ElboIsFiniteAndEventuallyIncreases) {
  PlantedWorld world = MakePlantedWorld(10, 40, 2);
  TdpmTrainer trainer(FastOptions(2, 12));
  auto fit = trainer.Fit(world.data);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_GE(fit->elbo_history.size(), 3u);
  for (double e : fit->elbo_history) EXPECT_TRUE(std::isfinite(e));
  // Coordinate ascent with inexact inner solves: require overall progress
  // rather than strict per-step monotonicity.
  EXPECT_GT(fit->elbo_history.back(),
            fit->elbo_history.front() - 1e-6 * std::fabs(fit->elbo_history.front()));
}

TEST(VariationalTest, SpecialistsGetHigherSkillOnTheirCategory) {
  PlantedWorld world = MakePlantedWorld(10, 120, 3);
  TdpmTrainer trainer(FastOptions(2, 20));
  auto fit = trainer.Fit(world.data);
  ASSERT_TRUE(fit.ok());

  // Identify which latent dimension aligns with planted topic 0 by
  // looking at the mean lambda_c of topic-0 tasks.
  Vector topic0_mean(2), topic1_mean(2);
  int n0 = 0, n1 = 0;
  for (size_t j = 0; j < world.data.tasks.size(); ++j) {
    if (world.task_topic[j] == 0) {
      topic0_mean += fit->state.tasks[j].lambda;
      ++n0;
    } else {
      topic1_mean += fit->state.tasks[j].lambda;
      ++n1;
    }
  }
  topic0_mean *= 1.0 / n0;
  topic1_mean *= 1.0 / n1;
  // The latent space must separate the two planted topics.
  const Vector diff = topic0_mean - topic1_mean;
  EXPECT_GT(diff.MaxAbs(), 0.1);

  // Specialist workers should score higher on their own topic's centroid
  // than non-specialists do, on average.
  double spec0_on_0 = 0.0, spec1_on_0 = 0.0;
  int c0 = 0, c1 = 0;
  for (size_t i = 0; i < world.data.num_workers; ++i) {
    const double score = fit->state.workers[i].lambda.Dot(topic0_mean);
    if (world.worker_specialty[i] == 0) {
      spec0_on_0 += score;
      ++c0;
    } else {
      spec1_on_0 += score;
      ++c1;
    }
  }
  EXPECT_GT(spec0_on_0 / c0, spec1_on_0 / c1);
}

TEST(VariationalTest, WorkerWithNoEvidenceFallsBackToPrior) {
  PlantedWorld world = MakePlantedWorld(6, 30, 4);
  // Add a worker with no observations.
  world.data.num_workers += 1;
  world.data.obs_of_worker.emplace_back();
  TdpmTrainer trainer(FastOptions(2, 8));
  auto fit = trainer.Fit(world.data);
  ASSERT_TRUE(fit.ok());
  // The idle worker's posterior tracks the prior: its mean was set to the
  // previous iteration's mu_w (which drifts slightly each M-step), so it
  // must be far closer to mu_w than the evidence-driven workers are, and
  // its variance must stay at the prior scale (larger than everyone
  // else's).
  const auto& idle = fit->state.workers.back();
  const Vector idle_diff = idle.lambda - fit->params.mu_w;
  double min_active_diff = 1e300;
  double max_active_nu = 0.0;
  for (size_t i = 0; i + 1 < fit->state.workers.size(); ++i) {
    const Vector d = fit->state.workers[i].lambda - fit->params.mu_w;
    min_active_diff = std::min(min_active_diff, d.Norm());
    max_active_nu = std::max(max_active_nu, fit->state.workers[i].nu_sq[0]);
  }
  EXPECT_LT(idle_diff.Norm(), min_active_diff);
  EXPECT_GT(idle.nu_sq[0], max_active_nu);
}

TEST(VariationalTest, TauShrinksWhenScoresAreConsistent) {
  PlantedWorld world = MakePlantedWorld(10, 80, 5);
  TdpmTrainer trainer(FastOptions(2, 20));
  auto fit = trainer.Fit(world.data);
  ASSERT_TRUE(fit.ok());
  // Initial tau is 1.0; with near-deterministic planted scores the
  // residual noise estimate should drop well below the raw score spread.
  EXPECT_LT(fit->params.tau, 2.0);
  EXPECT_GT(fit->params.tau, 0.0);
}

TEST(VariationalTest, DiagonalCovarianceOptionZeroesOffDiagonals) {
  PlantedWorld world = MakePlantedWorld(8, 40, 6);
  TdpmOptions options = FastOptions(3, 6);
  options.diagonal_covariance = true;
  TdpmTrainer trainer(options);
  auto fit = trainer.Fit(world.data);
  ASSERT_TRUE(fit.ok());
  for (size_t a = 0; a < 3; ++a) {
    for (size_t b = 0; b < 3; ++b) {
      if (a != b) {
        EXPECT_DOUBLE_EQ(fit->params.sigma_w(a, b), 0.0);
        EXPECT_DOUBLE_EQ(fit->params.sigma_c(a, b), 0.0);
      }
    }
  }
}

TEST(VariationalTest, BetaRowsAreDistributions) {
  PlantedWorld world = MakePlantedWorld(8, 40, 7);
  TdpmTrainer trainer(FastOptions(2, 8));
  auto fit = trainer.Fit(world.data);
  ASSERT_TRUE(fit.ok());
  for (size_t d = 0; d < 2; ++d) {
    double row = 0.0;
    for (size_t v = 0; v < world.data.vocab_size; ++v) {
      EXPECT_GT(fit->params.beta(d, v), 0.0);
      row += fit->params.beta(d, v);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

TEST(VariationalTest, DeterministicAcrossRuns) {
  PlantedWorld world = MakePlantedWorld(8, 30, 8);
  TdpmTrainer trainer(FastOptions(2, 5));
  auto fit1 = trainer.Fit(world.data);
  auto fit2 = trainer.Fit(world.data);
  ASSERT_TRUE(fit1.ok() && fit2.ok());
  ASSERT_EQ(fit1->elbo_history.size(), fit2->elbo_history.size());
  for (size_t i = 0; i < fit1->elbo_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(fit1->elbo_history[i], fit2->elbo_history[i]);
  }
}

TEST(VariationalTest, MultithreadedMatchesSingleThreaded) {
  PlantedWorld world = MakePlantedWorld(8, 30, 9);
  TdpmOptions single = FastOptions(2, 5);
  single.num_threads = 1;
  TdpmOptions multi = FastOptions(2, 5);
  multi.num_threads = 4;
  auto fit1 = TdpmTrainer(single).Fit(world.data);
  auto fit2 = TdpmTrainer(multi).Fit(world.data);
  ASSERT_TRUE(fit1.ok() && fit2.ok());
  ASSERT_EQ(fit1->elbo_history.size(), fit2->elbo_history.size());
  for (size_t i = 0; i < fit1->elbo_history.size(); ++i) {
    EXPECT_NEAR(fit1->elbo_history[i], fit2->elbo_history[i],
                1e-6 * std::fabs(fit1->elbo_history[i]));
  }
}

TEST(VariationalTest, FromWorldMatchesManualExtraction) {
  GeneratedWorld world;
  world.worker_skills = {Vector{1.0}, Vector{2.0}};
  GeneratedTask t;
  t.bag.Add(0, 2);
  t.bag.Add(3, 1);
  world.tasks.push_back(t);
  world.scores.push_back({1, 0, 4.5});
  TdpmTrainData data = TdpmTrainData::FromWorld(world, 2, 5);
  ASSERT_TRUE(data.Validate().ok());
  EXPECT_EQ(data.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(data.tasks[0].total_tokens, 3.0);
  EXPECT_EQ(data.observations.size(), 1u);
  EXPECT_EQ(data.obs_of_worker[1].size(), 1u);
  EXPECT_TRUE(data.obs_of_worker[0].empty());
}

}  // namespace
}  // namespace crowdselect
