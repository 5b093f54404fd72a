#include "serve/quality_monitor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/json_escape.h"

namespace crowdselect::serve {

namespace {

// 0..1 in 0.025 steps — quality signals are normalized, so a linear
// ladder resolves them better than the latency ladders.
std::vector<double> UnitBucketBounds() {
  std::vector<double> bounds;
  for (int i = 1; i <= 40; ++i) bounds.push_back(0.025 * i);
  return bounds;
}

// -1..1 in 0.05 steps for the correlation signal.
std::vector<double> CorrelationBucketBounds() {
  std::vector<double> bounds;
  for (int i = -19; i <= 20; ++i) bounds.push_back(0.05 * i);
  return bounds;
}

// Min-max normalizes `values` in place; a constant vector maps to 0.5
// (no ranking information either way).
void NormalizeInPlace(std::vector<double>* values) {
  const auto [min_it, max_it] =
      std::minmax_element(values->begin(), values->end());
  const double min = *min_it;
  const double range = *max_it - min;
  for (double& v : *values) {
    v = range > 0.0 ? (v - min) / range : 0.5;
  }
}

std::string FormatDouble(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

QualityMonitor::QualityMonitor(QualityMonitorConfig config,
                               obs::MetricsRegistry* registry)
    : config_(std::move(config)), registry_(registry) {
  const std::string base = "quality." + config_.model_id + ".";
  const size_t windows = std::max<size_t>(1, config_.num_windows);
  rmse_window_ = std::make_unique<obs::WindowedHistogram>(
      base + "rmse", windows, UnitBucketBounds(), registry_,
      /*gauge_prefix=*/"");
  top1_window_ = std::make_unique<obs::WindowedHistogram>(
      base + "top1_agreement", windows, UnitBucketBounds(), registry_,
      /*gauge_prefix=*/"");
  calibration_window_ = std::make_unique<obs::WindowedHistogram>(
      base + "calibration", windows, CorrelationBucketBounds(), registry_,
      /*gauge_prefix=*/"");
  tasks_observed_counter_ = registry_->GetCounter(base + "tasks_observed");
  tasks_skipped_counter_ = registry_->GetCounter(base + "tasks_skipped");
  drift_flagged_gauge_ = registry_->GetGauge(base + "drift.flagged");
  drift_max_z_gauge_ = registry_->GetGauge(base + "drift.max_abs_z");
  drift_workers_gauge_ = registry_->GetGauge(base + "drift.workers");
  population_z_gauge_ = registry_->GetGauge(base + "drift.population_z");
}

void QualityMonitor::OnResolvedTask(
    const BagOfWords& task, const std::vector<RankedWorker>& predicted,
    const std::vector<std::pair<WorkerId, double>>& realized) {
  (void)task;  // Signals are score-based; the text itself is not used yet.

  // cs:lock(serve.quality)
  std::lock_guard<std::mutex> lock(mu_);
  // Workers present in BOTH the prediction and the feedback, in
  // predicted (descending-score) order. This sits on the blue path's
  // per-task hot loop, so it reuses scratch buffers (no steady-state
  // allocation) and matches by linear scan — k is a crowd size, not a
  // table size, and O(k^2) compares beat hashing at that scale.
  scratch_ids_.clear();
  scratch_pred_.clear();
  scratch_real_.clear();
  for (const RankedWorker& rw : predicted) {
    for (const auto& [worker, score] : realized) {
      if (worker != rw.worker) continue;
      scratch_ids_.push_back(rw.worker);
      scratch_pred_.push_back(rw.score);
      scratch_real_.push_back(score);
      break;
    }
  }
  std::vector<WorkerId>& matched_ids = scratch_ids_;
  std::vector<double>& pred_scores = scratch_pred_;
  std::vector<double>& real_scores = scratch_real_;

  if (matched_ids.size() < 2) {
    ++tasks_skipped_;
    tasks_skipped_counter_->Increment();
    return;
  }
  ++tasks_observed_;
  tasks_observed_counter_->Increment();

  // Top-1 agreement on the RAW scores (normalization is monotone, but
  // raw keeps the tie-break story simple): predicted[0] of the matched
  // set vs the best-feedback worker, ties to the lower id.
  WorkerId best_feedback = matched_ids[0];
  double best_feedback_score = real_scores[0];
  for (size_t i = 1; i < matched_ids.size(); ++i) {
    if (real_scores[i] > best_feedback_score ||
        (real_scores[i] == best_feedback_score &&
         matched_ids[i] < best_feedback)) {
      best_feedback = matched_ids[i];
      best_feedback_score = real_scores[i];
    }
  }
  const double top1 = matched_ids[0] == best_feedback ? 1.0 : 0.0;

  // Calibration (Pearson) before normalization clobbers nothing —
  // correlation is affine-invariant, so compute it on raw scores.
  double calibration = 0.0;
  bool calibration_defined = false;
  if (matched_ids.size() >= 3) {
    const double n = static_cast<double>(matched_ids.size());
    double mp = 0.0;
    double mr = 0.0;
    for (size_t i = 0; i < matched_ids.size(); ++i) {
      mp += pred_scores[i];
      mr += real_scores[i];
    }
    mp /= n;
    mr /= n;
    double spr = 0.0;
    double spp = 0.0;
    double srr = 0.0;
    for (size_t i = 0; i < matched_ids.size(); ++i) {
      const double dp = pred_scores[i] - mp;
      const double dr = real_scores[i] - mr;
      spr += dp * dr;
      spp += dp * dp;
      srr += dr * dr;
    }
    if (spp > 0.0 && srr > 0.0) {
      calibration = spr / std::sqrt(spp * srr);
      calibration_defined = true;
    }
  }

  // Population skill drift uses the RAW per-task mean feedback (the
  // crowd's absolute skill level), tracked before normalization.
  {
    double task_mean = 0.0;
    for (double r : real_scores) task_mean += r;
    task_mean /= static_cast<double>(real_scores.size());
    population_ewma_ = population_ewma_init_
                           ? config_.ewma_alpha * task_mean +
                                 (1.0 - config_.ewma_alpha) * population_ewma_
                           : task_mean;
    population_ewma_init_ = true;
    ++population_n_;
    const double delta = task_mean - population_mean_;
    population_mean_ += delta / static_cast<double>(population_n_);
    population_m2_ += delta * (task_mean - population_mean_);
    if (population_n_ >= 2) {
      const double var =
          population_m2_ / static_cast<double>(population_n_ - 1);
      population_z_ = var > 1e-12
                          ? (population_ewma_ - population_mean_) /
                                std::sqrt(var)
                          : 0.0;
    }
  }

  NormalizeInPlace(&pred_scores);
  NormalizeInPlace(&real_scores);

  double se = 0.0;
  for (size_t i = 0; i < matched_ids.size(); ++i) {
    const double d = real_scores[i] - pred_scores[i];
    se += d * d;
    // Per-worker residual EWMA on the normalized scale, so workers on
    // cheap tasks and expensive tasks share one drift yardstick. The
    // first min_observations residuals also freeze into the worker's
    // baseline — the reference its later EWMA is compared against.
    WorkerState& ws = workers_[matched_ids[i]];
    ws.residual_ewma = ws.observations == 0
                           ? d
                           : config_.ewma_alpha * d +
                                 (1.0 - config_.ewma_alpha) * ws.residual_ewma;
    ++ws.observations;
    if (!ws.baseline_set) {
      ws.baseline_sum += d;
      if (ws.observations >= config_.min_observations) {
        ws.baseline =
            ws.baseline_sum / static_cast<double>(ws.observations);
        ws.baseline_set = true;
      }
    }
  }
  const double rmse = std::sqrt(se / static_cast<double>(matched_ids.size()));

  rmse_window_->Record(rmse);
  top1_window_->Record(top1);
  if (calibration_defined) calibration_window_->Record(calibration);

  RefreshDriftLocked();

  if (++tasks_in_window_ >= config_.window_size) RotateWindowsLocked();
}

void QualityMonitor::RotateWindows() {
  // cs:lock(serve.quality)
  std::lock_guard<std::mutex> lock(mu_);
  RotateWindowsLocked();
}

void QualityMonitor::RotateWindowsLocked() {
  tasks_in_window_ = 0;
  // Records happen under mu_, so the closed window's sum adds this
  // window's RMSEs in arrival order.
  const obs::HistogramSample rmse = rmse_window_->Rotate();
  if (rmse.count > 0) {
    window_rmse_means_.push_back(rmse.Mean());
    // Bound the degradation history; the verdict only needs the ends.
    while (window_rmse_means_.size() > 256) window_rmse_means_.pop_front();
  }
  top1_window_->Rotate();
  calibration_window_->Rotate();
}

void QualityMonitor::RefreshDriftLocked() {
  // Population stats over eligible workers' baseline deviations. Using
  // the deviation (not the raw EWMA) means a worker the model always
  // mis-priced contributes ~0 — only behaviour *changes* stand out.
  double sum = 0.0;
  size_t eligible = 0;
  for (const auto& [id, ws] : workers_) {
    if (ws.observations >= config_.min_observations && ws.baseline_set) {
      sum += ws.residual_ewma - ws.baseline;
      ++eligible;
    }
  }
  flagged_.clear();
  drift_max_abs_z_ = 0.0;
  // A z-score needs a population: with fewer than three eligible
  // workers "deviant" is meaningless, so nothing flags.
  if (eligible >= 3) {
    const double mean = sum / static_cast<double>(eligible);
    double m2 = 0.0;
    for (const auto& [id, ws] : workers_) {
      if (ws.observations < config_.min_observations || !ws.baseline_set) {
        continue;
      }
      const double d = ws.residual_ewma - ws.baseline - mean;
      m2 += d * d;
    }
    const double std_dev =
        std::sqrt(m2 / static_cast<double>(eligible - 1));
    if (std_dev > 1e-9) {
      for (const auto& [id, ws] : workers_) {
        if (ws.observations < config_.min_observations || !ws.baseline_set) {
          continue;
        }
        const double deviation = ws.residual_ewma - ws.baseline;
        const double z = (deviation - mean) / std_dev;
        drift_max_abs_z_ = std::max(drift_max_abs_z_, std::fabs(z));
        if (std::fabs(z) > config_.drift_z_threshold &&
            std::fabs(deviation) > config_.min_drift_deviation) {
          flagged_.push_back(id);
        }
      }
    }
  }
  drift_flagged_gauge_->Set(static_cast<double>(flagged_.size()));
  drift_max_z_gauge_->Set(drift_max_abs_z_);
  drift_workers_gauge_->Set(static_cast<double>(workers_.size()));
  population_z_gauge_->Set(population_z_);
}

QualitySummary QualityMonitor::Summary() const {
  // cs:lock(serve.quality)
  std::lock_guard<std::mutex> lock(mu_);
  QualitySummary s;
  s.model_id = config_.model_id;
  s.tasks_observed = tasks_observed_;
  s.tasks_skipped = tasks_skipped_;
  const obs::HistogramSample rmse = rmse_window_->Merged(/*include_open=*/true);
  const obs::HistogramSample top1 = top1_window_->Merged(/*include_open=*/true);
  const obs::HistogramSample cal =
      calibration_window_->Merged(/*include_open=*/true);
  s.rmse_mean = rmse.Mean();
  s.top1_agreement_mean = top1.Mean();
  s.calibration_mean = cal.Mean();
  if (!window_rmse_means_.empty()) {
    s.rmse_first_window = window_rmse_means_.front();
    s.rmse_last_window = window_rmse_means_.back();
    // "Degraded" = the newest closed window is meaningfully worse than
    // the oldest retained one; 0.05 on a 0..1 scale filters noise.
    s.rmse_degraded = window_rmse_means_.size() >= 2 &&
                      s.rmse_last_window > s.rmse_first_window + 0.05;
  }
  s.drift_flagged = flagged_.size();
  s.drift_max_abs_z = drift_max_abs_z_;
  s.population_drift_z = population_z_;
  s.flagged_workers = flagged_;
  return s;
}

std::vector<WorkerDriftStatus> QualityMonitor::WorkerDrift() const {
  // cs:lock(serve.quality)
  std::lock_guard<std::mutex> lock(mu_);
  // Recompute population mean/std the same way RefreshDriftLocked does,
  // so the returned z-scores match the gauges.
  double sum = 0.0;
  size_t eligible = 0;
  for (const auto& [id, ws] : workers_) {
    if (ws.observations >= config_.min_observations && ws.baseline_set) {
      sum += ws.residual_ewma - ws.baseline;
      ++eligible;
    }
  }
  double mean = 0.0;
  double std_dev = 0.0;
  if (eligible >= 3) {
    mean = sum / static_cast<double>(eligible);
    double m2 = 0.0;
    for (const auto& [id, ws] : workers_) {
      if (ws.observations < config_.min_observations || !ws.baseline_set) {
        continue;
      }
      const double d = ws.residual_ewma - ws.baseline - mean;
      m2 += d * d;
    }
    std_dev = std::sqrt(m2 / static_cast<double>(eligible - 1));
  }
  std::vector<WorkerDriftStatus> out;
  out.reserve(workers_.size());
  for (const auto& [id, ws] : workers_) {
    WorkerDriftStatus d;
    d.worker = id;
    d.residual_ewma = ws.residual_ewma;
    d.baseline = ws.baseline;
    d.observations = ws.observations;
    if (eligible >= 3 && std_dev > 1e-9 && ws.baseline_set &&
        ws.observations >= config_.min_observations) {
      const double deviation = ws.residual_ewma - ws.baseline;
      d.z_score = (deviation - mean) / std_dev;
      d.flagged = std::fabs(d.z_score) > config_.drift_z_threshold &&
                  std::fabs(deviation) > config_.min_drift_deviation;
    }
    out.push_back(d);
  }
  return out;
}

std::string QualityMonitor::SummaryJson() const {
  const QualitySummary s = Summary();
  std::string workers;
  for (size_t i = 0; i < s.flagged_workers.size(); ++i) {
    if (i > 0) workers += ",";
    workers += std::to_string(s.flagged_workers[i]);
  }
  std::string out = "{";
  out += "\"model\": " + obs::JsonQuote(s.model_id);
  out += ", \"tasks_observed\": " + std::to_string(s.tasks_observed);
  out += ", \"tasks_skipped\": " + std::to_string(s.tasks_skipped);
  out += ", \"rmse_mean\": " + FormatDouble(s.rmse_mean);
  out += ", \"top1_agreement_mean\": " + FormatDouble(s.top1_agreement_mean);
  out += ", \"calibration_mean\": " + FormatDouble(s.calibration_mean);
  out += ", \"rmse_first_window\": " + FormatDouble(s.rmse_first_window);
  out += ", \"rmse_last_window\": " + FormatDouble(s.rmse_last_window);
  out += std::string(", \"rmse_degraded\": ") +
         (s.rmse_degraded ? "true" : "false");
  out += ", \"drift_flagged\": " + std::to_string(s.drift_flagged);
  out += ", \"drift_max_abs_z\": " + FormatDouble(s.drift_max_abs_z);
  out += ", \"population_drift_z\": " + FormatDouble(s.population_drift_z);
  out += ", \"flagged_workers\": " + obs::JsonQuote(workers);
  out += "}";
  return out;
}

uint64_t QualityMonitor::tasks_observed() const {
  // cs:lock(serve.quality)
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_observed_;
}

}  // namespace crowdselect::serve
