// Ablation A5: exploration policies for online routing (extension beyond
// the paper). A cold-start pool — half the workers have NO resolved
// history — is routed greedily (the paper's Eq. 1), with a UCB bonus, and
// with Thompson sampling. Skills of routed workers are refreshed online
// with the incremental updater (paper §4.2 requirement (2)); cumulative
// regret vs the true best worker is reported. It exits 1 unless Thompson
// sampling picks cold workers and has lower cumulative regret than greedy.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/bench_util.h"
#include "model/exploration.h"
#include "model/incremental_update.h"

using namespace crowdselect;
using namespace crowdselect::bench;

namespace {

struct PolicyOutcome {
  double cumulative_regret = 0.0;
  double early_regret_per_task = 0.0;  ///< First half of the horizon.
  double late_regret_per_task = 0.0;   ///< Second half (after learning).
  double cold_worker_selection_rate = 0.0;
};

PolicyOutcome RunPolicy(ExplorationPolicy policy, double beta) {
  // World with pronounced specialists.
  PlatformConfig config = DefaultPlatformConfig(Platform::kQuora);
  config.world.num_workers = 60;
  config.world.num_tasks = 600;
  config.world.vocab_size = 400;
  config.world.num_categories = 5;
  config.world.skill_stddev = 2.0;
  config.world.category_concentration = 3.0;
  auto dataset = GeneratePlatformDataset(Platform::kQuora, config, 404);
  CS_CHECK(dataset.ok());

  // Cold start: strip all history of the even-numbered workers. Activity
  // correlates with skill in the generated world (worker 0 is typically
  // the strongest), so the cold half contains the stars and exploration
  // has something real to discover.
  CrowdDatabase db;
  *db.mutable_vocabulary() = dataset->db.vocabulary();
  for (const auto& w : dataset->db.workers()) db.AddWorker(w.handle, w.online);
  for (const auto& t : dataset->db.tasks()) db.AddTaskWithBag(t.text, t.bag);
  for (const auto& a : dataset->db.assignments()) {
    if (a.worker % 2 == 0) continue;
    CS_CHECK_OK(db.Assign(a.worker, a.task));
    if (a.has_score) CS_CHECK_OK(db.RecordFeedback(a.worker, a.task, a.score));
  }

  TdpmOptions options;
  options.num_categories = 5;
  options.max_em_iterations = 20;
  options.num_threads = 0;
  TdpmSelector selector(options);
  CS_CHECK_OK(selector.Train(db));

  // Live posteriors, refreshed online via the incremental updater.
  auto updater = IncrementalSkillUpdater::Create(selector.fit().params);
  CS_CHECK(updater.ok());
  std::vector<WorkerPosterior> posteriors = selector.fit().state.workers;
  std::vector<IncrementalSkillUpdater::WorkerState> states;
  for (size_t i = 0; i < posteriors.size(); ++i) {
    states.push_back(updater->NewWorkerState());
    // Seed cold workers from the prior; warm workers keep their batch
    // posterior (their state only absorbs *new* feedback below, applied
    // on top of the batch posterior by re-centering the prior).
    if (i % 2 == 0) {
      auto prior = updater->Posterior(states.back());
      CS_CHECK(prior.ok());
      posteriors[i] = std::move(prior).value();
    }
  }

  ExplorationRanker ranker({.policy = policy, .ucb_beta = beta, .seed = 2030});
  TdpmGenerator generator(dataset->world.params);
  Rng rng(515);
  const int horizon = 800;
  PolicyOutcome outcome;
  size_t cold_picks = 0;
  for (int t = 0; t < horizon; ++t) {
    auto task = generator.SampleTask(12, &rng);
    CS_CHECK(task.ok());
    auto projected = selector.ProjectTask(task->bag);
    CS_CHECK(projected.ok());

    std::vector<WorkerId> candidates(posteriors.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      candidates[i] = static_cast<WorkerId>(i);
    }
    const auto picked =
        ranker.SelectTopK(posteriors, projected->category, 1, candidates);
    const WorkerId choice = picked[0].worker;
    if (choice % 2 == 0) ++cold_picks;

    // True outcome + regret.
    const Vector proportions = task->categories.Softmax();
    double best = -1e300;
    for (const auto& skills : dataset->world.draw.worker_skills) {
      best = std::max(best, skills.Dot(proportions));
    }
    const double realized =
        dataset->world.draw.worker_skills[choice].Dot(proportions);
    const double regret = best - realized;
    outcome.cumulative_regret += regret;
    if (t < horizon / 2) {
      outcome.early_regret_per_task += regret / (horizon / 2);
    } else {
      outcome.late_regret_per_task += regret / (horizon / 2);
    }

    // Online skill update from the realized (noisy, truncated) feedback.
    const double feedback =
        std::max(0.0, std::round(realized + rng.Normal(0.0, 0.5)));
    SkillObservation obs;
    obs.category_mean = projected->lambda;
    obs.category_var = projected->nu_sq;
    obs.score = feedback;
    updater->Observe(obs, &states[choice]);
    if (choice % 2 == 0) {
      // Cold workers: posterior entirely from online evidence.
      auto refreshed = updater->Posterior(states[choice]);
      CS_CHECK(refreshed.ok());
      posteriors[choice] = std::move(refreshed).value();
    }
  }
  outcome.cold_worker_selection_rate =
      static_cast<double>(cold_picks) / horizon;
  return outcome;
}

}  // namespace

int main() {
  ClaimCheck check;
  TableReporter table(
      "Ablation A5: exploration policies on a cold-start worker pool "
      "(800-task horizon; the strongest half of the pool has no history)");
  table.SetHeader({"Policy", "Cumulative regret", "Regret/task (early)",
                   "Regret/task (late)", "Cold-worker pick rate"});
  const PolicyOutcome greedy = RunPolicy(ExplorationPolicy::kGreedy, 0.0);
  const PolicyOutcome ucb = RunPolicy(ExplorationPolicy::kUcb, 4.0);
  const PolicyOutcome thompson = RunPolicy(ExplorationPolicy::kThompson, 0.0);
  auto add = [&](const char* name, const PolicyOutcome& o) {
    table.AddRow({name, TableReporter::Cell(o.cumulative_regret, 1),
                  TableReporter::Cell(o.early_regret_per_task, 2),
                  TableReporter::Cell(o.late_regret_per_task, 2),
                  TableReporter::Cell(o.cold_worker_selection_rate)});
  };
  add("Greedy (paper Eq. 1)", greedy);
  add("UCB (beta=4)", ucb);
  add("Thompson", thompson);
  table.Print(std::cout);
  check.Expect(thompson.cold_worker_selection_rate > 0.0,
               "Thompson picks cold workers (rate " +
                   TableReporter::Cell(thompson.cold_worker_selection_rate) +
                   ")");
  check.Expect(thompson.cumulative_regret < greedy.cumulative_regret,
               "Thompson regret " +
                   TableReporter::Cell(thompson.cumulative_regret, 1) +
                   " < greedy regret " +
                   TableReporter::Cell(greedy.cumulative_regret, 1));
  return check.ExitCode();
}
