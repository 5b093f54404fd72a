// Ablation A1 (DESIGN.md): how much of TDPM's quality comes from the
// feedback scores? Trains TDPM twice per platform — once with real
// feedback, once with every score replaced by a constant (content-only
// inference, the alternative the paper argues against in section 1) — and
// compares precision/recall on the same split. It exits 1 unless dropping
// feedback costs at least 0.2 ACCU on every dataset.
#include <cstdio>
#include <iostream>

#include "common/bench_util.h"

using namespace crowdselect;
using namespace crowdselect::bench;

namespace {

AlgorithmResult EvaluateTdpm(const EvalSplit& split, bool use_feedback) {
  TdpmOptions options;
  options.num_categories = kDefaultCategories;
  options.seed = 97;
  options.max_em_iterations = 30;
  options.num_threads = 0;
  options.use_feedback = use_feedback;
  std::vector<SelectorFactory> factory = {
      [&options] { return std::make_unique<TdpmSelector>(options); }};
  auto results = RunExperiment(split, factory);
  CS_CHECK(results.ok()) << results.status().ToString();
  return (*results)[0];
}

}  // namespace

int main() {
  ClaimCheck check;
  TableReporter table(
      "Ablation A1: feedback-score inference vs content-only inference "
      "(TDPM, K=" + std::to_string(kDefaultCategories) + ")");
  table.SetHeader({"Dataset", "ACCU (feedback)", "ACCU (content-only)",
                   "Top1 (feedback)", "Top1 (content-only)",
                   "Top2 (feedback)", "Top2 (content-only)"});
  for (Platform platform : {Platform::kQuora, Platform::kYahooAnswer,
                            Platform::kStackOverflow}) {
    const SyntheticDataset& dataset = GetDataset(platform);
    PrintScaleNote(dataset);
    const WorkerGroup group = MakeGroup(dataset.db, 1, GroupPrefix(platform));
    SplitOptions split_options;
    split_options.num_test_tasks = NumTestQuestions(platform);
    split_options.min_candidates = 3;
    auto split = MakeSplit(dataset, group, split_options);
    CS_CHECK(split.ok()) << split.status().ToString();
    const AlgorithmResult with = EvaluateTdpm(*split, true);
    const AlgorithmResult without = EvaluateTdpm(*split, false);
    table.AddRow({PlatformName(platform), TableReporter::Cell(with.mean_accu),
                  TableReporter::Cell(without.mean_accu),
                  TableReporter::Cell(with.top1),
                  TableReporter::Cell(without.top1),
                  TableReporter::Cell(with.top2),
                  TableReporter::Cell(without.top2)});
    check.Expect(with.mean_accu - without.mean_accu >= 0.2,
                 std::string(PlatformName(platform)) +
                     ": dropping feedback costs " +
                     TableReporter::Cell(with.mean_accu - without.mean_accu) +
                     " >= 0.2 ACCU");
  }
  table.Print(std::cout);
  return check.ExitCode();
}
