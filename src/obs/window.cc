#include "obs/window.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/logging.h"

namespace crowdselect::obs {

WindowedHistogram::WindowedHistogram(std::string name, size_t num_windows,
                                     std::vector<double> bounds,
                                     MetricsRegistry* registry,
                                     std::string gauge_prefix)
    : name_(std::move(name)),
      num_windows_(num_windows),
      p50_(registry->GetGauge(gauge_prefix + name_ + ".p50")),
      p95_(registry->GetGauge(gauge_prefix + name_ + ".p95")),
      p99_(registry->GetGauge(gauge_prefix + name_ + ".p99")),
      mean_(registry->GetGauge(gauge_prefix + name_ + ".mean")),
      window_count_(registry->GetGauge(gauge_prefix + name_ + ".window_count")),
      samples_(registry->GetGauge(gauge_prefix + name_ + ".samples")),
      open_(std::move(bounds)) {
  CS_CHECK(num_windows_ >= 1) << "windowed histogram needs >= 1 window";
}

HistogramSample WindowedHistogram::Rotate() {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  closed_.push_back(open_.Drain());
  while (closed_.size() > num_windows_) closed_.pop_front();
  ++rotations_;
  RefreshGaugesLocked();
  return closed_.back();
}

HistogramSample WindowedHistogram::MergeLocked(bool include_open) const {
  HistogramSample s;
  s.name = name_;
  s.bounds = open_.bounds();
  s.bucket_counts.assign(s.bounds.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  auto add = [&](const HistogramSample& w) {
    for (size_t i = 0; i < w.bucket_counts.size(); ++i) {
      s.bucket_counts[i] += w.bucket_counts[i];
    }
    s.count += w.count;
    s.sum += w.sum;
    if (w.count > 0) {
      min = std::min(min, w.min);
      max = std::max(max, w.max);
    }
  };
  for (const HistogramSample& w : closed_) add(w);
  if (include_open) add(open_.Sample());
  s.min = s.count == 0 ? 0.0 : min;
  s.max = s.count == 0 ? 0.0 : max;
  return s;
}

void WindowedHistogram::RefreshGaugesLocked() {
  const HistogramSample merged = MergeLocked(/*include_open=*/false);
  // An all-empty window set reports 0 — "no traffic", which SLO dashboards
  // must distinguish from "fast" via the window_count / samples gauges.
  p50_->Set(merged.count == 0 ? 0.0 : merged.Quantile(0.50));
  p95_->Set(merged.count == 0 ? 0.0 : merged.Quantile(0.95));
  p99_->Set(merged.count == 0 ? 0.0 : merged.Quantile(0.99));
  mean_->Set(merged.Mean());
  window_count_->Set(static_cast<double>(merged.count));
  // Rotate() just pushed the freshly-closed window onto the back.
  samples_->Set(static_cast<double>(closed_.back().count));
}

HistogramSample WindowedHistogram::Merged(bool include_open) const {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  return MergeLocked(include_open);
}

uint64_t WindowedHistogram::rotations() const {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

// ---------------------------------------------------------------------------
// SloTracker
// ---------------------------------------------------------------------------

SloTracker& SloTracker::Global() {
  // cslint: allow(naked-new): leaked singleton, outlives all threads.
  static SloTracker* tracker = new SloTracker();
  return *tracker;
}

WindowedHistogram* SloTracker::GetWindow(std::string_view endpoint) {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = windows_.find(endpoint);
  if (it == windows_.end()) {
    it = windows_
             .emplace(std::string(endpoint),
                      std::make_unique<WindowedHistogram>(
                          std::string(endpoint), kNumWindows,
                          ServeLatencyBucketBounds()))
             .first;
  }
  return it->second.get();
}

void SloTracker::RotateAll() {
  std::vector<WindowedHistogram*> windows;
  {
    // cs:lock(obs.slo.window)
    std::lock_guard<std::mutex> lock(mu_);
    windows.reserve(windows_.size());
    for (const auto& [name, w] : windows_) windows.push_back(w.get());
  }
  for (WindowedHistogram* w : windows) w->Rotate();
}

void SloTracker::StartBackgroundRotation(double interval_seconds) {
  rotation_.Start(
      std::chrono::duration<double>(interval_seconds > 0 ? interval_seconds
                                                         : 1.0),
      [this] { RotateAll(); });
}

}  // namespace crowdselect::obs
