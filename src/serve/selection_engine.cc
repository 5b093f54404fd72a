#include "serve/selection_engine.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "obs/window.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crowdselect::serve {

SelectionEngine::SelectionEngine(ServeOptions options)
    : options_(options),
      kernel_(&kernels::DispatchScoreKernel(options.force_scalar_kernel)),
      cache_(std::make_unique<FoldInCache>(options.foldin_cache_capacity)) {
  static obs::Gauge* selected =
      obs::MetricsRegistry::Global().GetGauge("serve.kernel.selected");
  selected->Set(static_cast<double>(kernels::ScoreKernelOrdinal(*kernel_)));
}

void SelectionEngine::PublishSnapshot(
    std::shared_ptr<const SkillMatrixSnapshot> snapshot) {
  static const uint16_t flight_name =
      obs::FlightRecorder::Global().InternName("serve.snapshot.publish");
  const uint64_t version = snapshot != nullptr ? snapshot->version() : 0;
  handle_.Publish(std::move(snapshot));
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kSnapshotSwap,
                                       flight_name, version, 0);
}

void SelectionEngine::SetFolder(TaskFolder folder) {
  folder_ = std::move(folder);
  // New folder, new namespace: even if a stale entry survived the
  // Clear() below (it cannot today — initialization is single-threaded —
  // but the namespace makes that invariant structural), its key can no
  // longer match.
  ++folder_generation_;
  // The panel layout generation rides in the namespace too: an entry
  // written under a different panel encoding can never be looked up,
  // even if a serialized cache from an older build were ever replayed.
  const uint64_t layout_salt = (uint64_t{kernels::kLayoutVersion} << 40) ^
                               (uint64_t{kernels::kPanelWidth} << 32);
  cache_namespace_ = (folder_generation_ * 0x9E3779B97F4A7C15ULL) ^
                     (layout_salt * 0xC2B2AE3D27D4EB4FULL);
  // Cached posteriors belong to the previous model; a retrained or
  // replaced folder must never serve them.
  cache_->Clear();
}

ThreadPool* SelectionEngine::pool() const {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  });
  return pool_.get();
}

Status ValidateCandidates(const std::vector<WorkerId>& candidates,
                          size_t num_workers) {
  for (WorkerId w : candidates) {
    if (w >= num_workers) {
      return Status::InvalidArgument(StringPrintf(
          "candidate worker %u unknown to the model (%zu workers)", w,
          num_workers));
    }
  }
  return Status::OK();
}

namespace {

// The one pass a query makes over its candidates before the scan: fails
// as ValidateCandidates does on an id the snapshot does not know, and
// otherwise returns whether the list is the ascending id range
// [front, front + size) — the full-pool (or shard) shape the blocked
// panel scan serves.
Result<bool> AdmitCandidates(const std::vector<WorkerId>& candidates,
                             size_t num_workers) {
  const WorkerId* ids = candidates.data();
  const size_t n = candidates.size();
  const WorkerId first = n > 0 ? ids[0] : 0;
  // A branch-free body over 32-bit lanes, written so the compiler
  // vectorizes it. `first + i` may wrap; the last-id test below
  // rejects a list that wrapped.
  WorkerId max_id = 0;
  WorkerId gaps = 0;  // nonzero once some id is not first + its index
  for (size_t i = 0; i < n; ++i) {
    max_id = ids[i] > max_id ? ids[i] : max_id;
    gaps |= ids[i] ^ (first + static_cast<WorkerId>(i));
  }
  if (n == 0) return false;
  if (max_id >= num_workers) return ValidateCandidates(candidates, num_workers);
  return gaps == 0 && uint64_t{ids[n - 1]} == uint64_t{first} + (n - 1);
}

}  // namespace

Result<FoldInResult> SelectionEngine::Project(const BagOfWords& task,
                                              Rng* rng,
                                              QueryStats* stats) const {
  if (!folder_.has_value()) {
    return Status::FailedPrecondition("engine has no fold-in folder");
  }
  FoldInResult projected;
  const uint64_t key = HashBag(task);
  const bool hit = cache_->Lookup(cache_namespace_, key, &projected);
  if (!hit) {
    projected = folder_->Posterior(task);
    cache_->Insert(cache_namespace_, key, projected);
  }
  folder_->FinalizeCategory(&projected, rng);
  if (stats != nullptr) {
    stats->used_foldin = true;
    stats->cache_hit = hit;
    stats->cg_iterations = projected.cg_iterations;
    stats->cg_residual = projected.cg_residual;
    stats->converged = projected.converged;
    stats->sampled_category = folder_->samples_category() && rng != nullptr;
  }
  return projected;
}

namespace {

// Per-category contributions w_i[d] * c_j[d] and margins for the ranking
// the query returned; ranks after the last are the next kept score or the
// cutoff (rank k+1), when known.
void FillBreakdown(const SkillMatrixSnapshot& snap, const Vector& category,
                   const std::vector<RankedWorker>& ranked,
                   QueryStats* stats) {
  const size_t dims = snap.num_categories();
  stats->breakdown.clear();
  stats->breakdown.reserve(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    CandidateBreakdown c;
    c.worker = ranked[i].worker;
    c.score = ranked[i].score;
    const double* row = snap.RowPtr(c.worker);
    c.terms.resize(dims);
    for (size_t d = 0; d < dims; ++d) c.terms[d] = row[d] * category[d];
    if (i + 1 < ranked.size()) {
      c.margin = c.score - ranked[i + 1].score;
    } else if (stats->has_cutoff) {
      c.margin = c.score - stats->cutoff_score;
    }
    stats->breakdown.push_back(std::move(c));
  }
}

}  // namespace

Result<std::vector<RankedWorker>> SelectionEngine::SelectTopK(
    const BagOfWords& task, size_t k, const std::vector<WorkerId>& candidates,
    Rng* rng, QueryStats* stats,
    const std::function<void()>& on_admit) const {
  static obs::SpanMeter meter("serve.select",
                              obs::ServeLatencyBucketBounds());
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("serve.queries");

  std::shared_ptr<const SkillMatrixSnapshot> snap = handle_.Acquire();
  if (snap == nullptr) {
    return Status::FailedPrecondition("no skill snapshot published");
  }
  if (!folder_.has_value()) {
    return Status::FailedPrecondition("engine has no fold-in folder");
  }
  // Validation precedes the fold-in and the query meter, so malformed
  // queries are rejected cheaply and never show up as half-served.
  CS_ASSIGN_OR_RETURN(const bool dense,
                      AdmitCandidates(candidates, snap->num_workers()));
  if (on_admit) on_admit();

  obs::ScopedSpan span(meter);
  obs::ScopedDeadline deadline("serve.select", options_.select_deadline_ms);
  {
    static const uint16_t flight_name =
        obs::FlightRecorder::Global().InternName("serve.query");
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kQuery,
                                         flight_name, k, candidates.size());
  }
  Timer total_timer;
  queries->Increment();
  if (stats != nullptr) {
    stats->serving_model = "tdpm";
    stats->snapshot_version = snap->version();
    stats->num_workers = snap->num_workers();
    stats->num_categories = snap->num_categories();
    stats->num_candidates = candidates.size();
    stats->k = k;
  }
  Timer stage_timer;
  CS_ASSIGN_OR_RETURN(FoldInResult projected, Project(task, rng, stats));
  if (stats != nullptr) stats->foldin_us = stage_timer.ElapsedMicros();
  stage_timer.Reset();
  std::vector<RankedWorker> ranked =
      ScanSnapshot(*snap, projected.category, k, candidates, dense, stats);
  const double scan_us = stage_timer.ElapsedMicros();
  const double total_us = total_timer.ElapsedMicros();
  static obs::WindowedHistogram* const slo =
      obs::SloTracker::Global().GetWindow("serve.select");
  slo->Record(total_us);
  if (stats != nullptr) {
    stats->scan_us = scan_us;
    stats->total_us = total_us;
    FillBreakdown(*snap, projected.category, ranked, stats);
  }
  return ranked;
}

Result<std::vector<RankedWorker>> SelectionEngine::RankByCategory(
    const Vector& category, size_t k,
    const std::vector<WorkerId>& candidates) const {
  std::shared_ptr<const SkillMatrixSnapshot> snap = handle_.Acquire();
  if (snap == nullptr) {
    return Status::FailedPrecondition("no skill snapshot published");
  }
  if (category.size() != snap->num_categories()) {
    return Status::InvalidArgument("category dimension mismatch");
  }
  CS_ASSIGN_OR_RETURN(const bool dense,
                      AdmitCandidates(candidates, snap->num_workers()));
  return ScanSnapshot(*snap, category, k, candidates, dense);
}

std::vector<RankedWorker> SelectionEngine::ScanSnapshot(
    const SkillMatrixSnapshot& snap, const Vector& category, size_t k,
    const std::vector<WorkerId>& candidates, bool dense,
    QueryStats* stats) const {
  // Eq. 1 over the pool: the dominant serving cost at scale. Dense
  // candidate ranges stream the snapshot's column panels through the
  // dispatched ScoreKernel; sparse subsets gather per-candidate lanes
  // with the identical arithmetic chain, so both paths — and every
  // kernel — produce bitwise-identical scores.
  const double* cat = category.raw();
  // With stats attached, scan one extra rank to learn the cutoff score
  // (the best candidate NOT selected). The deterministic merge makes the
  // first k entries byte-identical to a plain k-scan.
  const size_t scan_k =
      (stats != nullptr && k < candidates.size()) ? k + 1 : k;
  std::vector<RankedWorker> ranked;
  if (dense) {
    static obs::Counter* scans =
        obs::MetricsRegistry::Global().GetCounter("serve.kernel.scans");
    static const uint16_t kernel_flight_name =
        obs::FlightRecorder::Global().InternName("serve.scan.kernel");
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kKernelScan, kernel_flight_name,
        kernels::ScoreKernelOrdinal(*kernel_), candidates.size());
    scans->Increment();
    ranked = ScanPanels(snap, cat, scan_k, candidates.front(),
                        candidates.size());
  } else {
    const kernels::BlockedPanels& panels = snap.panels();
    ranked = RankImpl(scan_k, candidates, [&panels, cat](WorkerId w) {
      return panels.LaneScore(w, cat);
    });
  }
  if (stats != nullptr) {
    stats->parallel_scan =
        candidates.size() >= options_.min_parallel_candidates;
    stats->kernel_id = kernel_->id();
    if (ranked.size() > k) {
      stats->has_cutoff = true;
      stats->cutoff_score = ranked[k].score;
      ranked.resize(k);
    }
  }
  return ranked;
}

std::vector<RankedWorker> SelectionEngine::ScanPanels(
    const SkillMatrixSnapshot& snap, const double* query, size_t k,
    WorkerId first, size_t count) const {
  if (count == 0) return {};
  const kernels::BlockedPanels& panels = snap.panels();
  const size_t dims = panels.dims();
  const size_t limit = first + count;  // one past the last candidate id
  const size_t p0 = first / kernels::kPanelWidth;
  const size_t p1 = (limit - 1) / kernels::kPanelWidth;
  const kernels::ScoreKernel& kernel = *kernel_;
  // Scores one whole panel through the kernel, then offers only the
  // lanes inside [first, limit): head/tail panels may straddle the
  // range, and the last pool panel carries zero-padded lanes whose ids
  // exceed the pool.
  const auto scan_panel = [&](size_t p, TopKAccumulator* acc) {
    double out[kernels::kPanelWidth];
    kernel.ScoreBlock(panels.PanelFp(p), query, dims, out);
    const size_t base = p * kernels::kPanelWidth;
    for (size_t l = 0; l < kernels::kPanelWidth; ++l) {
      const size_t w = base + l;
      if (w >= first && w < limit) {
        acc->Offer(static_cast<WorkerId>(w), out[l]);
      }
    }
  };
  if (count < options_.min_parallel_candidates) {
    TopKAccumulator acc(k);
    for (size_t p = p0; p <= p1; ++p) scan_panel(p, &acc);
    return acc.Take();
  }
  static obs::SpanMeter scan_meter("serve.scan.parallel",
                                   obs::ServeLatencyBucketBounds());
  obs::ScopedSpan span(scan_meter);
  // The parallel grain is scan_block candidates rounded up to whole
  // panels, so a panel is never split across chunks (each lane is
  // offered exactly once).
  const size_t grain =
      (options_.scan_block + kernels::kPanelWidth - 1) / kernels::kPanelWidth;
  TopKAccumulator merged(k);
  std::mutex merge_mu;
  // Recorded inside the chunk body so the event lands on the pool
  // thread that ran the chunk — crash dumps then show which panel
  // ranges were in flight on which threads.
  static const uint16_t chunk_flight_name =
      obs::FlightRecorder::Global().InternName("serve.scan.chunk");
  pool()->ParallelForChunks(
      p1 - p0 + 1, std::max<size_t>(grain, 1),
      [&](size_t begin, size_t end) {
        obs::FlightRecorder::Global().Record(obs::FlightEventType::kScanChunk,
                                             chunk_flight_name, p0 + begin,
                                             p0 + end);
        TopKAccumulator local(k);
        for (size_t p = p0 + begin; p < p0 + end; ++p) scan_panel(p, &local);
        std::vector<RankedWorker> top = local.Take();
        // cs:lock(serve.merge)
        std::lock_guard<std::mutex> lock(merge_mu);
        for (const RankedWorker& rw : top) merged.Offer(rw.worker, rw.score);
      });
  return merged.Take();
}

std::vector<RankedWorker> SelectionEngine::RankWithScore(
    size_t k, const std::vector<WorkerId>& candidates,
    const std::function<double(WorkerId)>& score) const {
  return RankImpl(k, candidates, score);
}

template <typename ScoreFn>
std::vector<RankedWorker> SelectionEngine::RankImpl(
    size_t k, const std::vector<WorkerId>& candidates,
    const ScoreFn& score) const {
  const size_t n = candidates.size();
  if (n < options_.min_parallel_candidates) {
    TopKAccumulator acc(k);
    for (WorkerId w : candidates) acc.Offer(w, score(w));
    return acc.Take();
  }
  static obs::SpanMeter scan_meter("serve.scan.parallel",
                                   obs::ServeLatencyBucketBounds());
  obs::ScopedSpan span(scan_meter);
  TopKAccumulator merged(k);
  std::mutex merge_mu;
  // Recorded inside the chunk body so the event lands on the pool
  // thread that ran the chunk — crash dumps then show which scan
  // ranges were in flight on which threads.
  static const uint16_t chunk_flight_name =
      obs::FlightRecorder::Global().InternName("serve.scan.chunk");
  pool()->ParallelForChunks(
      n, options_.scan_block, [&](size_t begin, size_t end) {
        obs::FlightRecorder::Global().Record(obs::FlightEventType::kScanChunk,
                                             chunk_flight_name, begin, end);
        TopKAccumulator local(k);
        for (size_t i = begin; i < end; ++i) {
          local.Offer(candidates[i], score(candidates[i]));
        }
        std::vector<RankedWorker> top = local.Take();
        // cs:lock(serve.merge)
        std::lock_guard<std::mutex> lock(merge_mu);
        for (const RankedWorker& rw : top) merged.Offer(rw.worker, rw.score);
      });
  return merged.Take();
}

}  // namespace crowdselect::serve
