#include "common/table_runner.h"

#include <cstdio>
#include <iostream>
#include <map>

namespace crowdselect::bench {

namespace {

const std::vector<std::string> kAlgorithmOrder = {"VSM", "TSPM", "DRM",
                                                  "TDPM"};

std::map<std::string, AlgorithmResult> ByName(const CellResult& cell) {
  std::map<std::string, AlgorithmResult> out;
  for (const auto& a : cell.algorithms) out[a.name] = a;
  return out;
}

// The tables' claim for one column: TDPM's `metric` is strictly above
// every other algorithm's.
void ExpectTdpmLeads(const std::string& column, const std::string& metric,
                     double AlgorithmResult::*field,
                     const std::map<std::string, AlgorithmResult>& by_name,
                     ClaimCheck* check) {
  const double tdpm = by_name.at("TDPM").*field;
  for (const auto& algo : kAlgorithmOrder) {
    if (algo == "TDPM") continue;
    const double other = by_name.at(algo).*field;
    check->Expect(tdpm > other, column + ": TDPM " + metric + " " +
                                    TableReporter::Cell(tdpm) + " > " + algo +
                                    " " + TableReporter::Cell(other));
  }
}

}  // namespace

int RunPrecisionTable(Platform platform, const std::string& table_name) {
  const SyntheticDataset& dataset = GetDataset(platform);
  PrintScaleNote(dataset);
  const auto thresholds = PrecisionThresholds(platform);
  const size_t num_test = NumTestQuestions(platform);

  // header: Algorithm | <group1> K=10..50 | <group2> ... like the paper.
  TableReporter table(table_name + ": Precision (ACCU) of Crowd-Selection "
                      "Algorithms in " + PlatformName(platform));
  std::vector<std::string> header = {"Algorithm/Category"};
  for (size_t t : thresholds) {
    for (size_t k : kCategorySweep) {
      header.push_back(GroupPrefix(platform) + std::to_string(t) + " K=" +
                       std::to_string(k));
    }
  }
  table.SetHeader(header);

  // cell results keyed by (threshold, K).
  std::map<std::pair<size_t, size_t>, std::map<std::string, AlgorithmResult>>
      cells;
  for (size_t t : thresholds) {
    for (size_t k : kCategorySweep) {
      auto cell = RunCell(dataset, t, k, num_test);
      if (!cell.ok()) {
        std::fprintf(stderr, "cell (t=%zu, K=%zu) failed: %s\n", t, k,
                     cell.status().ToString().c_str());
        return 1;
      }
      cells[{t, k}] = ByName(*cell);
      std::fprintf(stderr, "  [done] %s%zu K=%zu\n",
                   GroupPrefix(platform).c_str(), t, k);
    }
  }
  for (const auto& algo : kAlgorithmOrder) {
    std::vector<std::string> row = {algo};
    for (size_t t : thresholds) {
      for (size_t k : kCategorySweep) {
        row.push_back(TableReporter::Cell(cells[{t, k}][algo].mean_accu));
      }
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  DumpStatsSnapshot(table_name);

  ClaimCheck check;
  for (const auto& [cell, by_name] : cells) {
    ExpectTdpmLeads(GroupPrefix(platform) + std::to_string(cell.first) +
                        " K=" + std::to_string(cell.second),
                    "ACCU", &AlgorithmResult::mean_accu, by_name, &check);
  }
  return check.ExitCode();
}

int RunRecallTable(Platform platform, const std::string& table_name) {
  const SyntheticDataset& dataset = GetDataset(platform);
  PrintScaleNote(dataset);
  const auto thresholds = RecallThresholds(platform);
  const size_t num_test = NumTestQuestions(platform);

  TableReporter table(table_name + ": Recall (TopK) of Crowd-Selection "
                      "Algorithms in " + PlatformName(platform) +
                      " (K=" + std::to_string(kDefaultCategories) + ")");
  std::vector<std::string> header = {"Algorithm/TopK"};
  for (size_t t : thresholds) {
    header.push_back(GroupPrefix(platform) + std::to_string(t) + " Top1");
    header.push_back(GroupPrefix(platform) + std::to_string(t) + " Top2");
  }
  table.SetHeader(header);

  std::map<size_t, std::map<std::string, AlgorithmResult>> cells;
  for (size_t t : thresholds) {
    auto cell = RunCell(dataset, t, kDefaultCategories, num_test);
    if (!cell.ok()) {
      std::fprintf(stderr, "cell (t=%zu) failed: %s\n", t,
                   cell.status().ToString().c_str());
      return 1;
    }
    cells[t] = ByName(*cell);
    std::fprintf(stderr, "  [done] %s%zu\n", GroupPrefix(platform).c_str(), t);
  }
  for (const auto& algo : kAlgorithmOrder) {
    std::vector<std::string> row = {algo};
    for (size_t t : thresholds) {
      row.push_back(TableReporter::Cell(cells[t][algo].top1));
      row.push_back(TableReporter::Cell(cells[t][algo].top2));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  DumpStatsSnapshot(table_name);

  ClaimCheck check;
  for (const auto& [t, by_name] : cells) {
    const std::string column = GroupPrefix(platform) + std::to_string(t);
    ExpectTdpmLeads(column, "Top1", &AlgorithmResult::top1, by_name, &check);
    ExpectTdpmLeads(column, "Top2", &AlgorithmResult::top2, by_name, &check);
  }
  return check.ExitCode();
}

int RunCrowdStatsFigure(Platform platform, const std::string& figure_name) {
  const SyntheticDataset& dataset = GetDataset(platform);
  PrintScaleNote(dataset);
  TableReporter table(figure_name + ": Statistics of the Crowd in " +
                      std::string(PlatformName(platform)) +
                      " (task coverage + group size vs participation)");
  table.SetHeader({"Group", "Threshold", "NumWorkers", "TaskCoverage"});
  for (size_t t : PaperThresholds(platform)) {
    const WorkerGroup group =
        MakeGroup(dataset.db, t, GroupPrefix(platform));
    const double coverage = GroupTaskCoverage(dataset.db, group);
    table.AddRow({group.name, std::to_string(t),
                  std::to_string(group.members.size()),
                  TableReporter::Cell(coverage)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace crowdselect::bench
