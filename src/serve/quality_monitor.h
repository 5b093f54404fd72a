// Online shadow evaluation of the crowd model: every task resolved on
// the blue path is scored — prediction vs realized feedback — BEFORE
// the feedback folds back into the model, so the monitor measures true
// held-out quality continuously, not training fit. The monitor attaches
// to CrowdManager via the crowddb ResolvedTaskObserver tap (crowddb
// never links serve; the interface keeps the layering acyclic).
//
// Per task, predicted selection scores and realized feedback live on
// different scales (dot products vs thumbs counts), so both are min-max
// normalized within the task before comparison. Three quality signals
// per resolved task, each recorded into a rotating WindowedHistogram
// whose gauges land in the registry as quality.<model>.<signal>.*:
//
//   rmse             RMSE between normalized prediction and feedback
//                    (0 = perfect ranking signal, 1 = inverted).
//   top1_agreement   1 when the predicted-best worker also earned the
//                    best feedback, else 0.
//   calibration      Pearson correlation between normalized scores
//                    (needs >= 3 matched workers and nonzero variance).
//
// Drift detection rides the same stream:
//   * Per-worker posterior drift: an EWMA of each worker's signed
//     normalized residual (feedback - prediction), compared against the
//     worker's own *baseline* — the mean residual over its first
//     min_observations tasks. A worker the model persistently mis-prices
//     has a large residual but near-zero deviation from baseline; a
//     worker whose behaviour CHANGES (spammer onset) has a large
//     deviation. Deviations are z-scored across the population of
//     eligible workers; |z| past the threshold flags the worker.
//   * Population skill drift: an EWMA of the per-task mean raw feedback
//     z-scored against the long-run (Welford) mean — the whole crowd
//     getting better or worse than the model's training regime.
//
// Everything surfaces as registry gauges (so the time-series store and
// alert rules see it) plus a flat-JSON report for --quality-out.
#ifndef CROWDSELECT_SERVE_QUALITY_MONITOR_H_
#define CROWDSELECT_SERVE_QUALITY_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crowddb/selector_interface.h"
#include "obs/metrics.h"
#include "obs/window.h"

namespace crowdselect::serve {

struct QualityMonitorConfig {
  std::string model_id = "model";  ///< Gauge namespace: quality.<id>.*.
  size_t window_size = 64;    ///< Tasks per rotation window.
  size_t num_windows = 6;     ///< Retained closed windows per signal.
  double ewma_alpha = 0.2;    ///< Residual EWMA smoothing (0..1].
  double drift_z_threshold = 3.0;  ///< |z| above which a worker is flagged.
  /// Flagging also requires |ewma - baseline| above this floor: in a
  /// small population the largest |z| is ~2 on pure noise (order
  /// statistics), so a relative score alone would always page on the
  /// noisiest worker. 0.25 on the normalized residual scale — half the
  /// typical spammer-onset signal, well above EWMA noise.
  double min_drift_deviation = 0.25;
  size_t min_observations = 5;  ///< Worker obs before drift eligibility.
};

/// Per-worker drift state, as returned by WorkerDrift().
struct WorkerDriftStatus {
  WorkerId worker = kInvalidWorkerId;
  double residual_ewma = 0.0;  ///< EWMA of (feedback - prediction), normalized.
  double baseline = 0.0;  ///< Mean residual over the first min_observations.
  double z_score = 0.0;   ///< Of (ewma - baseline) across eligible workers.
  uint64_t observations = 0;
  bool flagged = false;
};

/// Point-in-time summary for reports (flat-JSON friendly).
struct QualitySummary {
  std::string model_id;
  uint64_t tasks_observed = 0;
  uint64_t tasks_skipped = 0;  ///< < 2 matched workers, nothing to score.
  double rmse_mean = 0.0;      ///< Over retained windows.
  double top1_agreement_mean = 0.0;
  double calibration_mean = 0.0;
  double rmse_first_window = 0.0;  ///< Oldest retained per-window mean.
  double rmse_last_window = 0.0;   ///< Newest closed per-window mean.
  bool rmse_degraded = false;      ///< last > first by a meaningful margin.
  size_t drift_flagged = 0;
  double drift_max_abs_z = 0.0;
  double population_drift_z = 0.0;
  std::vector<WorkerId> flagged_workers;  ///< Ascending id.
};

/// Thread-safe. One instance per monitored model; attach with
/// CrowdManager::set_resolved_observer(&monitor).
class QualityMonitor : public ResolvedTaskObserver {
 public:
  explicit QualityMonitor(
      QualityMonitorConfig config = {},
      obs::MetricsRegistry* registry = &obs::MetricsRegistry::Global());

  /// Scores one resolved task. Tasks with fewer than two workers present
  /// in BOTH the prediction and the feedback are counted as skipped.
  void OnResolvedTask(
      const BagOfWords& task, const std::vector<RankedWorker>& predicted,
      const std::vector<std::pair<WorkerId, double>>& realized) override;

  /// Forces a window rotation (normally automatic every
  /// config.window_size observed tasks) — call at end of run so the
  /// final partial window reaches the gauges.
  void RotateWindows();

  QualitySummary Summary() const;

  /// Drift status of every tracked worker, ascending id. Workers below
  /// min_observations carry z_score 0 and can never be flagged.
  std::vector<WorkerDriftStatus> WorkerDrift() const;

  /// Summary() as one flat JSON object (jsonl::ParseObject-compatible:
  /// no nesting; the flagged-worker list is a comma-joined string).
  std::string SummaryJson() const;

  const QualityMonitorConfig& config() const { return config_; }
  uint64_t tasks_observed() const;

 private:
  struct WorkerState {
    double residual_ewma = 0.0;
    // Reference period: the mean residual over the worker's first
    // min_observations tasks becomes its frozen baseline, so drift is
    // "deviation from own history", not "deviation from the model".
    double baseline = 0.0;
    double baseline_sum = 0.0;
    bool baseline_set = false;
    uint64_t observations = 0;
  };

  /// Recomputes drift z-scores + gauges; called under mu_.
  void RefreshDriftLocked();
  /// Closes every signal window and, when the closed rmse window holds a
  /// sample, appends its mean to window_rmse_means_; called under mu_.
  void RotateWindowsLocked();

  const QualityMonitorConfig config_;
  obs::MetricsRegistry* const registry_;

  // Rotating quality windows; gauge prefix "" puts them directly at
  // quality.<model>.<signal>.{p50,p95,p99,mean,window_count,samples}.
  std::unique_ptr<obs::WindowedHistogram> rmse_window_;
  std::unique_ptr<obs::WindowedHistogram> top1_window_;
  std::unique_ptr<obs::WindowedHistogram> calibration_window_;

  obs::Counter* tasks_observed_counter_;
  obs::Counter* tasks_skipped_counter_;
  obs::Gauge* drift_flagged_gauge_;
  obs::Gauge* drift_max_z_gauge_;
  obs::Gauge* drift_workers_gauge_;
  obs::Gauge* population_z_gauge_;

  mutable std::mutex mu_;
  // OnResolvedTask scratch (guarded by mu_): reused across tasks so the
  // blue-path tap allocates nothing in steady state.
  std::vector<WorkerId> scratch_ids_;
  std::vector<double> scratch_pred_;
  std::vector<double> scratch_real_;
  uint64_t tasks_observed_ = 0;
  uint64_t tasks_skipped_ = 0;
  size_t tasks_in_window_ = 0;
  std::map<WorkerId, WorkerState> workers_;
  std::vector<WorkerId> flagged_;   ///< Ascending, refreshed per task.
  double drift_max_abs_z_ = 0.0;
  // Per-window mean RMSE history (newest last, bounded) — feeds the
  // degradation verdict in Summary().
  std::deque<double> window_rmse_means_;
  // Population skill drift: EWMA of per-task mean raw feedback vs the
  // long-run Welford mean/variance of the same statistic.
  double population_ewma_ = 0.0;
  bool population_ewma_init_ = false;
  uint64_t population_n_ = 0;
  double population_mean_ = 0.0;
  double population_m2_ = 0.0;
  double population_z_ = 0.0;
};

}  // namespace crowdselect::serve

#endif  // CROWDSELECT_SERVE_QUALITY_MONITOR_H_
