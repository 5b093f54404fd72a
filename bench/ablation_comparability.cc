// Ablation A4 (DESIGN.md): the comparability claim from paper section 1.
// Plants a world where one worker is absolutely stronger on category A but
// spends most of their activity on category B (the "w_j is better on CS
// while solving more Math tasks" scenario). Multinomial skill models
// (DRM/TSPM) normalize activity shares and pick the wrong worker; TDPM's
// unnormalized skills should pick the right one. It exits 1 unless TDPM is
// right in >= 70% of trials and DRM and TSPM in <= 10%.
#include <cstdio>
#include <iostream>

#include "common/bench_util.h"

using namespace crowdselect;
using namespace crowdselect::bench;

namespace {

// Builds the planted scenario. Vocabulary: terms [0,20) = "cs" slice,
// [20,40) = "math" slice.
//  - strong_cs ("w_j"): answers 4 CS tasks earning 8 each, and 12 math
//    tasks earning 2 each. Absolutely best at CS, but 75% of activity
//    (and feedback mass) is math.
//  - weak_cs ("w_i"): answers 12 CS tasks earning 5 each, 2 math tasks
//    earning 1. Mostly CS by share, but weaker at CS in absolute terms.
//  - filler workers give the topic models enough signal.
CrowdDatabase PlantScenario(Rng* rng) {
  CrowdDatabase db;
  Vocabulary* vocab = db.mutable_vocabulary();
  for (int v = 0; v < 40; ++v) {
    vocab->Intern((v < 20 ? "cs" : "math") + std::to_string(v));
  }
  const WorkerId weak_cs = db.AddWorker("w_i_weak_cs_mostly_cs");
  const WorkerId strong_cs = db.AddWorker("w_j_strong_cs_mostly_math");
  const WorkerId filler1 = db.AddWorker("filler_cs");
  const WorkerId filler2 = db.AddWorker("filler_math");

  auto add_task = [&](bool cs) {
    BagOfWords bag;
    for (int p = 0; p < 10; ++p) {
      bag.Add(static_cast<TermId>((cs ? 0 : 20) + rng->UniformInt(20)));
    }
    std::string text = cs ? "cs task" : "math task";
    return db.AddTaskWithBag(std::move(text), std::move(bag));
  };
  auto answer = [&](WorkerId w, TaskId t, double score) {
    CS_CHECK_OK(db.Assign(w, t));
    CS_CHECK_OK(db.RecordFeedback(w, t, score));
  };

  // strong_cs: few CS tasks, high scores; many math tasks, low scores.
  for (int i = 0; i < 4; ++i) {
    const TaskId t = add_task(true);
    answer(strong_cs, t, 8.0 + rng->Normal(0.0, 0.2));
    answer(filler1, t, 3.0 + rng->Normal(0.0, 0.2));
  }
  for (int i = 0; i < 12; ++i) {
    const TaskId t = add_task(false);
    answer(strong_cs, t, 2.0 + rng->Normal(0.0, 0.2));
    answer(filler2, t, 4.0 + rng->Normal(0.0, 0.2));
  }
  // weak_cs: many CS tasks, medium scores; few math tasks.
  for (int i = 0; i < 12; ++i) {
    const TaskId t = add_task(true);
    answer(weak_cs, t, 5.0 + rng->Normal(0.0, 0.2));
    answer(filler1, t, 3.0 + rng->Normal(0.0, 0.2));
  }
  for (int i = 0; i < 2; ++i) {
    const TaskId t = add_task(false);
    answer(weak_cs, t, 1.0 + rng->Normal(0.0, 0.2));
    answer(filler2, t, 4.0 + rng->Normal(0.0, 0.2));
  }
  return db;
}

}  // namespace

int main() {
  ClaimCheck check;
  const int trials = 20;
  int tdpm_right = 0, drm_right = 0, tspm_right = 0;
  Rng rng(2024);
  for (int trial = 0; trial < trials; ++trial) {
    CrowdDatabase db = PlantScenario(&rng);

    // The probe: a pure-CS task. The right pick is worker 1 (strong CS).
    BagOfWords cs_probe;
    for (int p = 0; p < 10; ++p) cs_probe.Add(static_cast<TermId>(p));
    const std::vector<WorkerId> candidates = {0, 1};

    TdpmOptions tdpm_options;
    tdpm_options.num_categories = 2;
    tdpm_options.seed = 7 + trial;
    tdpm_options.max_em_iterations = 25;
    TdpmSelector tdpm(tdpm_options);
    CS_CHECK_OK(tdpm.Train(db));
    auto tdpm_top = tdpm.SelectTopK(cs_probe, 1, candidates);
    CS_CHECK(tdpm_top.ok());
    tdpm_right += (*tdpm_top)[0].worker == 1 ? 1 : 0;

    DrmOptions drm_options;
    drm_options.plsa.num_topics = 2;
    drm_options.plsa.seed = 7 + trial;
    DrmSelector drm(drm_options);
    CS_CHECK_OK(drm.Train(db));
    auto drm_top = drm.SelectTopK(cs_probe, 1, candidates);
    CS_CHECK(drm_top.ok());
    drm_right += (*drm_top)[0].worker == 1 ? 1 : 0;

    TspmOptions tspm_options;
    tspm_options.lda.num_topics = 2;
    tspm_options.lda.seed = 7 + trial;
    TspmSelector tspm(tspm_options);
    CS_CHECK_OK(tspm.Train(db));
    auto tspm_top = tspm.SelectTopK(cs_probe, 1, candidates);
    CS_CHECK(tspm_top.ok());
    tspm_right += (*tspm_top)[0].worker == 1 ? 1 : 0;
  }

  TableReporter table(
      "Ablation A4: section-1 comparability scenario - fraction of trials "
      "selecting the absolutely-stronger CS worker for a CS task");
  table.SetHeader({"Model", "Skill normalization", "Correct selections"});
  table.AddRow({"TDPM", "unnormalized (Gaussian)",
                TableReporter::Cell(static_cast<double>(tdpm_right) / trials, 2)});
  table.AddRow({"DRM", "multinomial (sums to 1)",
                TableReporter::Cell(static_cast<double>(drm_right) / trials, 2)});
  table.AddRow({"TSPM", "multinomial (sums to 1)",
                TableReporter::Cell(static_cast<double>(tspm_right) / trials, 2)});
  table.Print(std::cout);
  check.Expect(tdpm_right >= 0.7 * trials,
               "TDPM picks the stronger worker in " +
                   std::to_string(tdpm_right) + "/" + std::to_string(trials) +
                   " trials, >= 70%");
  check.Expect(drm_right <= 0.1 * trials,
               "DRM picks the stronger worker in " +
                   std::to_string(drm_right) + "/" + std::to_string(trials) +
                   " trials, <= 10%");
  check.Expect(tspm_right <= 0.1 * trials,
               "TSPM picks the stronger worker in " +
                   std::to_string(tspm_right) + "/" + std::to_string(trials) +
                   " trials, <= 10%");
  return check.ExitCode();
}
