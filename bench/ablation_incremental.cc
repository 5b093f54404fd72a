// Ablation A3 (DESIGN.md): the incremental crowd-selection claim
// (paper section 1 and Algorithm 3). For a stream of newly arriving tasks,
// compares (a) fold-in projection against (b) full batch re-inference that
// includes the new tasks: selection agreement, category agreement and the
// wall-clock speedup that motivates the incremental algorithm. It exits 1
// unless top-1 agreement >= 0.9, score correlation >= 0.95 and a fold-in
// is at least 1000x cheaper than a retrain.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/bench_util.h"
#include "util/timer.h"

using namespace crowdselect;
using namespace crowdselect::bench;

namespace {

double Correlation(const std::vector<double>& a, const std::vector<double>& b) {
  double ma = 0, mb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(a.size());
  mb /= static_cast<double>(b.size());
  double sa = 0, sb = 0, sab = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    sa += (a[i] - ma) * (a[i] - ma);
    sb += (b[i] - mb) * (b[i] - mb);
    sab += (a[i] - ma) * (b[i] - mb);
  }
  return sab / std::sqrt(sa * sb + 1e-300);
}

}  // namespace

int main() {
  ClaimCheck check;
  const Platform platform = Platform::kQuora;
  const SyntheticDataset& dataset = GetDataset(platform);
  PrintScaleNote(dataset);

  // Hide the last `arrivals` resolved tasks: they are the "newly coming"
  // stream.
  const size_t arrivals = 50;
  const WorkerGroup group = MakeGroup(dataset.db, 1, GroupPrefix(platform));
  SplitOptions split_options;
  split_options.num_test_tasks = arrivals;
  split_options.min_candidates = 3;
  auto split = MakeSplit(dataset, group, split_options);
  CS_CHECK(split.ok()) << split.status().ToString();

  TdpmOptions options;
  options.num_categories = kDefaultCategories;
  options.seed = 97;
  options.max_em_iterations = 30;
  options.num_threads = 0;

  // Base model trained without the arrivals.
  TdpmSelector base(options);
  Timer train_timer;
  CS_CHECK_OK(base.Train(split->train_db));
  const double base_train_s = train_timer.ElapsedSeconds();

  // (a) Incremental: fold each arrival in.
  std::vector<FoldInResult> folded;
  Timer fold_timer;
  for (const auto& c : split->cases) {
    auto f = base.ProjectTask(split->train_db.GetTask(c.task).value()->bag);
    CS_CHECK(f.ok());
    folded.push_back(std::move(f).value());
  }
  const double fold_total_s = fold_timer.ElapsedSeconds();

  // (b) Batch: re-train with the arrivals' feedback restored.
  CrowdDatabase full_db;
  *full_db.mutable_vocabulary() = dataset.db.vocabulary();
  for (const auto& w : dataset.db.workers()) full_db.AddWorker(w.handle, w.online);
  for (const auto& t : dataset.db.tasks()) full_db.AddTaskWithBag(t.text, t.bag);
  for (const auto& a : dataset.db.assignments()) {
    CS_CHECK_OK(full_db.Assign(a.worker, a.task));
    if (a.has_score) CS_CHECK_OK(full_db.RecordFeedback(a.worker, a.task, a.score));
  }
  TdpmSelector batch(options);
  Timer batch_timer;
  CS_CHECK_OK(batch.Train(full_db));
  const double batch_train_s = batch_timer.ElapsedSeconds();

  // Compare: top-1 selection agreement and score correlation over the
  // arrivals, candidates = each task's answerers.
  size_t top1_agreements = 0;
  std::vector<double> inc_scores, batch_scores;
  for (size_t i = 0; i < split->cases.size(); ++i) {
    const auto& c = split->cases[i];
    auto batch_fold =
        batch.ProjectTask(full_db.GetTask(c.task).value()->bag);
    CS_CHECK(batch_fold.ok());
    WorkerId inc_best = kInvalidWorkerId, batch_best = kInvalidWorkerId;
    double inc_best_score = -1e300, batch_best_score = -1e300;
    for (WorkerId w : c.candidates) {
      const double si = base.WorkerSkills(w).Dot(folded[i].category);
      const double sb = batch.WorkerSkills(w).Dot(batch_fold->category);
      inc_scores.push_back(si);
      batch_scores.push_back(sb);
      if (si > inc_best_score) {
        inc_best_score = si;
        inc_best = w;
      }
      if (sb > batch_best_score) {
        batch_best_score = sb;
        batch_best = w;
      }
    }
    if (inc_best == batch_best) ++top1_agreements;
  }

  TableReporter table("Ablation A3: incremental fold-in vs batch re-inference "
                      "(Quora, " + std::to_string(arrivals) + " arriving tasks)");
  table.SetHeader({"Metric", "Value"});
  table.AddRow({"Base training time (s)", TableReporter::Cell(base_train_s, 2)});
  table.AddRow({"Batch re-train time (s)", TableReporter::Cell(batch_train_s, 2)});
  table.AddRow({"Fold-in time, all arrivals (s)",
                TableReporter::Cell(fold_total_s, 4)});
  table.AddRow({"Fold-in time per task (ms)",
                TableReporter::Cell(1e3 * fold_total_s / arrivals, 3)});
  const double speedup = batch_train_s / (fold_total_s / arrivals);
  const double agreement = static_cast<double>(top1_agreements) / arrivals;
  const double correlation = Correlation(inc_scores, batch_scores);
  table.AddRow({"Speedup (batch retrain / per-task fold-in)",
                TableReporter::Cell(speedup, 0)});
  table.AddRow({"Top-1 selection agreement", TableReporter::Cell(agreement)});
  table.AddRow({"Selection-score correlation",
                TableReporter::Cell(correlation)});
  table.Print(std::cout);
  check.Expect(agreement >= 0.9, "top-1 agreement " +
                                     TableReporter::Cell(agreement) +
                                     " >= 0.9");
  check.Expect(correlation >= 0.95, "score correlation " +
                                        TableReporter::Cell(correlation) +
                                        " >= 0.95");
  check.Expect(speedup >= 1000.0, "fold-in is " +
                                      TableReporter::Cell(speedup, 0) +
                                      "x cheaper than a retrain, >= 1000x");
  return check.ExitCode();
}
