// Statistical significance of the headline comparison: bootstrap
// confidence intervals for each algorithm's ACCU and the paired-bootstrap
// probability that TDPM beats each baseline on the same test questions.
// (The paper reports point estimates only; this bench quantifies how much
// of the margin survives test-question sampling noise.) It exits 1 unless
// the headline claims hold: TDPM beats every baseline with paired-bootstrap
// probability >= 0.95 on every dataset, and VSM is the strongest baseline
// on Stack Overflow.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/bench_util.h"

using namespace crowdselect;
using namespace crowdselect::bench;

namespace {

// Evaluates one selector on the split, returning per-case rank samples.
Result<std::vector<RankSample>> Evaluate(const EvalSplit& split,
                                         CrowdSelector* selector) {
  CS_RETURN_NOT_OK(selector->Train(split.train_db));
  std::vector<RankSample> samples;
  samples.reserve(split.cases.size());
  for (const EvalCase& c : split.cases) {
    CS_ASSIGN_OR_RETURN(const TaskRecord* task,
                        split.train_db.GetTask(c.task));
    CS_ASSIGN_OR_RETURN(
        std::vector<RankedWorker> ranking,
        selector->SelectTopK(task->bag, c.candidates.size(), c.candidates));
    const auto it = std::find_if(
        ranking.begin(), ranking.end(),
        [&](const RankedWorker& r) { return r.worker == c.right_worker; });
    samples.push_back({static_cast<size_t>(it - ranking.begin()),
                       ranking.size()});
  }
  return samples;
}

}  // namespace

int main() {
  ClaimCheck check;
  TableReporter table(
      "Significance: 95% bootstrap CIs for ACCU and P(TDPM > baseline), "
      "paired on identical test questions (K=" +
      std::to_string(kDefaultCategories) + ", group threshold 1)");
  table.SetHeader({"Dataset", "Algorithm", "ACCU [95% CI]",
                   "P(TDPM beats it)"});
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

    // Evaluate all four algorithms on the same cases.
    std::vector<std::vector<RankSample>> samples;
    std::vector<std::string> names;
    for (auto& factory :
         StandardSelectorFactories(kDefaultCategories, /*seed=*/97)) {
      auto selector = factory();
      names.push_back(selector->Name());
      auto s = Evaluate(*split, selector.get());
      CS_CHECK(s.ok()) << s.status().ToString();
      samples.push_back(std::move(s).value());
    }
    const std::vector<RankSample>& tdpm = samples.back();

    std::string best_baseline;
    double best_baseline_accu = -1.0;
    for (size_t a = 0; a < samples.size(); ++a) {
      auto ci = BootstrapAccu(samples[a]);
      CS_CHECK(ci.ok());
      std::string superiority = "-";
      if (names[a] != "TDPM") {
        auto p = PairedBootstrapAccuSuperiority(tdpm, samples[a]);
        CS_CHECK(p.ok());
        superiority = TableReporter::Cell(*p);
        check.Expect(*p >= 0.95, std::string(PlatformName(platform)) +
                                     ": P(TDPM beats " + names[a] +
                                     ") = " + superiority + " >= 0.95");
        if (ci->mean > best_baseline_accu) {
          best_baseline_accu = ci->mean;
          best_baseline = names[a];
        }
      }
      table.AddRow({PlatformName(platform), names[a],
                    TableReporter::Cell(ci->mean) + " [" +
                        TableReporter::Cell(ci->lo) + ", " +
                        TableReporter::Cell(ci->hi) + "]",
                    superiority});
    }
    if (platform == Platform::kStackOverflow) {
      check.Expect(best_baseline == "VSM",
                   "StackOverflow: the best baseline is VSM (got " +
                       best_baseline + ")");
    }
  }
  table.Print(std::cout);
  return check.ExitCode();
}
