#include "common/bench_util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>

namespace crowdselect::bench {

const SyntheticDataset& GetDataset(Platform platform) {
  static std::mutex mu;
  static std::map<Platform, SyntheticDataset> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(platform);
  if (it == cache.end()) {
    const uint64_t seed = 0xEDB7 + static_cast<uint64_t>(platform);
    auto dataset = GeneratePlatformDataset(platform, seed);
    CS_CHECK(dataset.ok()) << dataset.status().ToString();
    it = cache.emplace(platform, std::move(dataset).value()).first;
  }
  return it->second;
}

std::vector<size_t> PaperThresholds(Platform platform) {
  switch (platform) {
    case Platform::kQuora:
      return {1, 2, 3, 4, 5, 6, 7, 8, 9};
    case Platform::kYahooAnswer:
      return {1, 5, 10, 15, 20, 25, 30};
    case Platform::kStackOverflow:
      return {1, 3, 6, 9, 12, 15};
  }
  return {};
}

std::vector<size_t> PrecisionThresholds(Platform platform) {
  switch (platform) {
    case Platform::kQuora:
      return {1, 5, 9};
    case Platform::kYahooAnswer:
      return {10, 15, 20};
    case Platform::kStackOverflow:
      return {1, 6, 12};
  }
  return {};
}

std::vector<size_t> RecallThresholds(Platform platform) {
  switch (platform) {
    case Platform::kQuora:
      return {1, 2, 3, 4, 5};
    case Platform::kYahooAnswer:
      return {10, 15, 20, 25, 30};
    case Platform::kStackOverflow:
      return {1, 3, 6, 9, 12};
  }
  return {};
}

std::string GroupPrefix(Platform platform) {
  switch (platform) {
    case Platform::kQuora:
      return "Quora";
    case Platform::kYahooAnswer:
      return "Yahoo";
    case Platform::kStackOverflow:
      return "Stack";
  }
  return "?";
}

size_t NumTestQuestions(Platform platform) {
  // Paper: 10k test questions for Quora/Yahoo, 1k for Stack Overflow,
  // scaled by the same factor as the datasets themselves.
  switch (platform) {
    case Platform::kQuora:
      return 150;
    case Platform::kYahooAnswer:
      return 150;
    case Platform::kStackOverflow:
      return 100;
  }
  return 100;
}

Result<CellResult> RunCell(const SyntheticDataset& dataset, size_t threshold,
                           size_t k, size_t num_test) {
  const WorkerGroup group =
      MakeGroup(dataset.db, threshold, GroupPrefix(dataset.platform));
  SplitOptions split_options;
  split_options.num_test_tasks = num_test;
  split_options.min_candidates = 3;
  split_options.seed = 0xBEEF + threshold * 131 + k;
  CS_ASSIGN_OR_RETURN(EvalSplit split, MakeSplit(dataset, group, split_options));
  CS_ASSIGN_OR_RETURN(
      std::vector<AlgorithmResult> algorithms,
      RunExperiment(split, StandardSelectorFactories(k, /*seed=*/97)));
  CellResult cell;
  cell.group = group.name;
  cell.k = k;
  cell.algorithms = std::move(algorithms);
  return cell;
}

void DumpStatsSnapshot(const std::string& bench_name) {
  std::string slug;
  for (char c : bench_name) {
    slug += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                : '_';
  }
  const char* dir = std::getenv("CROWDSELECT_STATS_DIR");
  const std::string path =
      std::string(dir != nullptr && *dir != '\0' ? dir : ".") + "/" + slug +
      ".stats.json";
  const Status st = obs::StatsReporter().WriteJsonFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "stats snapshot not written: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "  [stats] %s\n", path.c_str());
}

void ClaimCheck::Expect(bool holds, const std::string& claim) {
  if (holds) return;
  std::fprintf(stderr, "claim FAILED: %s\n", claim.c_str());
  failed_ = true;
}

void PrintScaleNote(const SyntheticDataset& dataset) {
  std::printf(
      "# %s synthetic dataset: %zu workers, %zu tasks, %zu answers "
      "(~1/%.0f of the paper's crawl; see DESIGN.md section 3)\n",
      PlatformName(dataset.platform), dataset.db.NumWorkers(),
      dataset.db.NumTasks(), dataset.db.NumAssignments(),
      dataset.config.scale_factor);
}

}  // namespace crowdselect::bench
