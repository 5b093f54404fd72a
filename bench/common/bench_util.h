// Shared plumbing for the benchmark harness: per-platform dataset caching,
// the paper's group threshold ladders, and the precision/recall cell
// runner used by every table reproduction.
#ifndef CROWDSELECT_BENCH_COMMON_BENCH_UTIL_H_
#define CROWDSELECT_BENCH_COMMON_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "crowdselect/crowdselect.h"

namespace crowdselect::bench {

/// Process-wide dataset cache so each bench binary generates each platform
/// exactly once (deterministic seed per platform).
const SyntheticDataset& GetDataset(Platform platform);

/// The participation thresholds evaluated in the paper's tables/figures.
/// Quora: 1..9; Yahoo: 1,5,10,15,20,25,30; Stack: 1,3,6,9,12,15.
std::vector<size_t> PaperThresholds(Platform platform);

/// Thresholds used by the precision tables (three groups per dataset):
/// Quora 1/5/9, Yahoo 10/15/20, Stack 1/6/12.
std::vector<size_t> PrecisionThresholds(Platform platform);

/// Thresholds used by the recall tables (five groups per dataset):
/// Quora 1..5, Yahoo 10..30 step 5, Stack 1,3,6,9,12.
std::vector<size_t> RecallThresholds(Platform platform);

/// Group-name prefix ("Quora", "Yahoo", "Stack").
std::string GroupPrefix(Platform platform);

/// Latent-category sweep of the precision tables.
inline const std::vector<size_t> kCategorySweep = {10, 20, 30, 40, 50};
/// Fixed category count used by the recall tables and runtime figures.
inline constexpr size_t kDefaultCategories = 30;

/// Test questions per cell. The paper uses 10k (Quora/Yahoo) and 1k
/// (Stack); we scale to the synthetic dataset size.
size_t NumTestQuestions(Platform platform);

/// One (group, K) evaluation of all four algorithms.
struct CellResult {
  std::string group;
  size_t k = 0;
  std::vector<AlgorithmResult> algorithms;  // VSM, TSPM, DRM, TDPM.
};

/// Builds the split for a group and runs the standard selector set.
Result<CellResult> RunCell(const SyntheticDataset& dataset, size_t threshold,
                           size_t k, size_t num_test);

/// Prints the note line every bench emits about scale substitution.
void PrintScaleNote(const SyntheticDataset& dataset);

/// The paper-claim gate a bench runs on every invocation (`ctest -L paper`
/// runs the fast benches that use it). Claims are orderings and
/// thresholds, not exact numbers, so a refactor that keeps the paper's
/// conclusions passes and one that loses them fails. A held claim prints
/// nothing, so the bench's output is unchanged while the claims hold.
class ClaimCheck {
 public:
  /// Checks one claim; a lost one prints "claim FAILED: <claim>" to
  /// stderr.
  void Expect(bool holds, const std::string& claim);

  /// The process exit code: 1 when any claim failed, else 0.
  int ExitCode() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// Writes the global observability snapshot (obs::StatsReporter JSON) to
/// `<bench_name>.stats.json` under $CROWDSELECT_STATS_DIR (default ".").
/// Every bench driver calls this after printing its table so runs into
/// bench_results/ carry per-phase EM/selection timing breakdowns.
void DumpStatsSnapshot(const std::string& bench_name);

}  // namespace crowdselect::bench

#endif  // CROWDSELECT_BENCH_COMMON_BENCH_UTIL_H_
