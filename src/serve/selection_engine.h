// The serving engine behind crowd-selection queries (paper §6,
// Algorithm 3, run online): fold the task into the latent space (through
// a bounded LRU cache), then rank candidates against an immutable
// skill-matrix snapshot with a blocked, thread-pool-parallel scan merged
// through per-shard top-k accumulators.
//
// The scan itself is a SIMD-dispatched ScoreKernel (serve/kernels/):
// dense candidate ranges stream the snapshot's column panels through
// the scalar or AVX2 kernel picked at engine construction. Kernel
// choice never changes a ranking — every kernel computes the
// bitwise-identical lane chain (see serve/kernels/score_kernel.h for
// the determinism contract).
//
// Threading model: any number of query threads may call SelectTopK /
// RankByCategory / RankWithScore concurrently; one updater thread may
// concurrently PublishSnapshot(). Queries pin the snapshot they acquired,
// so a publish never invalidates an in-flight scan. SetFolder() is
// initialization, not serving — call it before queries start.
#ifndef CROWDSELECT_SERVE_SELECTION_ENGINE_H_
#define CROWDSELECT_SERVE_SELECTION_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "crowddb/selector_interface.h"
#include "model/fold_in.h"
#include "serve/foldin_cache.h"
#include "serve/query_stats.h"
#include "serve/skill_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace crowdselect::serve {

/// Serving knobs, orthogonal to the model's TdpmOptions.
struct ServeOptions {
  /// Scan worker threads (0 = hardware concurrency). The pool is created
  /// lazily on the first scan that is large enough to parallelize, so
  /// engines serving small pools never spawn threads.
  size_t num_threads = 0;
  /// Fold-in cache entries; 0 disables the cache.
  size_t foldin_cache_capacity = 256;
  /// Candidate sets smaller than this are scanned inline on the query
  /// thread — below it, handing work to the pool costs more than the
  /// scan itself.
  size_t min_parallel_candidates = 4096;
  /// Candidates per parallel chunk (the grain of the blocked scan).
  size_t scan_block = 2048;
  /// Watchdog deadline for one SelectTopK call, in milliseconds; a
  /// query open longer than this is reported as a stall. Armed only
  /// while obs::Watchdog::Global() is running; <= 0 disables arming.
  double select_deadline_ms = 1000.0;
  /// Pins the scalar reference kernel regardless of CPU features. The
  /// CROWDSELECT_FORCE_SCALAR environment variable (read at engine
  /// construction) does the same without a rebuild.
  bool force_scalar_kernel = false;
};

/// Lock-free-read serving engine over one published skill snapshot.
class SelectionEngine {
 public:
  explicit SelectionEngine(ServeOptions options = {});

  SelectionEngine(const SelectionEngine&) = delete;
  SelectionEngine& operator=(const SelectionEngine&) = delete;

  // --- Model lifecycle -----------------------------------------------------

  /// Swaps in a new skill snapshot; concurrent readers finish on the old
  /// version. Publishing nullptr takes the engine out of service.
  void PublishSnapshot(std::shared_ptr<const SkillMatrixSnapshot> snapshot);

  /// Current snapshot (nullptr before the first publish).
  std::shared_ptr<const SkillMatrixSnapshot> snapshot() const {
    return handle_.Acquire();
  }

  /// Attaches the TDPM fold-in solver; required for SelectTopK/Project.
  /// Replacing the folder (e.g. after a batch retrain) moves the cache
  /// to a fresh namespace AND clears it, so cached posteriors of the
  /// previous model can never be served.
  void SetFolder(TaskFolder folder);

  // --- Queries -------------------------------------------------------------

  /// Full crowd-selection query: validates candidates against the
  /// snapshot up front (an unknown candidate fails before any fold-in
  /// work and before the query is metered), projects the task through
  /// the fold-in cache, and ranks by w_i . c_j.
  ///
  /// When `stats` is non-null the query additionally records its EXPLAIN
  /// payload (snapshot version, cache hit, CG cost, stage latencies,
  /// score decomposition) into it. The returned ranking is byte-identical
  /// with and without stats; collecting the cutoff score scans one extra
  /// rank internally.
  Result<std::vector<RankedWorker>> SelectTopK(
      const BagOfWords& task, size_t k, const std::vector<WorkerId>& candidates,
      Rng* rng = nullptr, QueryStats* stats = nullptr) const;

  /// Ranks candidates against an explicit category vector (fold-in
  /// already done by the caller).
  Result<std::vector<RankedWorker>> RankByCategory(
      const Vector& category, size_t k,
      const std::vector<WorkerId>& candidates) const;

  /// Blocked parallel top-k over an arbitrary score function — the scan
  /// shared with the baseline selectors (VSM cosine etc.). Candidates
  /// must already be validated by the caller. Deterministic: the merged
  /// result is identical to a sequential scan for any shard split.
  std::vector<RankedWorker> RankWithScore(
      size_t k, const std::vector<WorkerId>& candidates,
      const std::function<double(WorkerId)>& score) const;

  /// Projects a task through the fold-in cache (posterior cached;
  /// sampling, when configured, applied per call). Exposed for benches
  /// and for TdpmSelector::ProjectTask. With `stats`, records the cache
  /// outcome and CG cost of the served posterior.
  Result<FoldInResult> Project(const BagOfWords& task, Rng* rng = nullptr,
                               QueryStats* stats = nullptr) const;

  FoldInCache* cache() const { return cache_.get(); }
  const ServeOptions& options() const { return options_; }
  /// The ScoreKernel runtime dispatch chose at construction ("scalar" or
  /// "avx2"); surfaced in EXPLAIN and the serve.kernel gauge.
  const kernels::ScoreKernel& kernel() const { return *kernel_; }

 private:
  ThreadPool* pool() const;
  /// The blocked scan, templated on the score callable so the snapshot
  /// path inlines the lane chain instead of paying a std::function call
  /// per candidate. Instantiated only in the .cc.
  template <typename ScoreFn>
  std::vector<RankedWorker> RankImpl(size_t k,
                                     const std::vector<WorkerId>& candidates,
                                     const ScoreFn& score) const;
  /// Dense-range panel scan: candidates form the contiguous id range
  /// [first, first + count) and are scored panel-by-panel through the
  /// dispatched kernel.
  std::vector<RankedWorker> ScanPanels(const SkillMatrixSnapshot& snap,
                                       const double* query, size_t k,
                                       WorkerId first, size_t count) const;
  std::vector<RankedWorker> ScanSnapshot(
      const SkillMatrixSnapshot& snap, const Vector& category, size_t k,
      const std::vector<WorkerId>& candidates,
      QueryStats* stats = nullptr) const;

  ServeOptions options_;
  /// Dispatched once at construction; stateless and shared.
  const kernels::ScoreKernel* kernel_;
  SnapshotHandle handle_;
  std::optional<TaskFolder> folder_;
  /// Hash of (folder generation, panel layout generation): entries
  /// written under an earlier folder — or under a different panel
  /// layout — live in a different namespace even before the
  /// accompanying Clear() lands.
  uint64_t cache_namespace_ = 0;
  uint64_t folder_generation_ = 0;
  std::unique_ptr<FoldInCache> cache_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

/// Returns InvalidArgument naming the first candidate id >= num_workers.
Status ValidateCandidates(const std::vector<WorkerId>& candidates,
                          size_t num_workers);

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_SELECTION_ENGINE_H_
