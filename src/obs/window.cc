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
      bounds_(std::move(bounds)),
      p50_(registry->GetGauge(gauge_prefix + name_ + ".p50")),
      p95_(registry->GetGauge(gauge_prefix + name_ + ".p95")),
      p99_(registry->GetGauge(gauge_prefix + name_ + ".p99")),
      mean_(registry->GetGauge(gauge_prefix + name_ + ".mean")),
      window_count_(registry->GetGauge(gauge_prefix + name_ + ".window_count")),
      samples_(registry->GetGauge(gauge_prefix + name_ + ".samples")) {
  CS_CHECK(num_windows_ >= 1) << "windowed histogram needs >= 1 window";
  CS_CHECK(!bounds_.empty() && std::is_sorted(bounds_.begin(), bounds_.end()))
      << "windowed histogram bounds must be non-empty and ascending";
  open_ = EmptyWindow();
}

WindowedHistogram::Window WindowedHistogram::EmptyWindow() const {
  Window w;
  w.buckets.assign(bounds_.size() + 1, 0);
  w.min = std::numeric_limits<double>::infinity();
  w.max = -std::numeric_limits<double>::infinity();
  return w;
}

void WindowedHistogram::Record(double value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  ++open_.buckets[bucket];
  ++open_.count;
  open_.sum += value;
  open_.min = std::min(open_.min, value);
  open_.max = std::max(open_.max, value);
}

void WindowedHistogram::Rotate() {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  closed_.push_back(std::move(open_));
  open_ = EmptyWindow();
  while (closed_.size() > num_windows_) closed_.pop_front();
  ++rotations_;
  RefreshGaugesLocked();
}

HistogramSample WindowedHistogram::MergeLocked(bool include_open) const {
  HistogramSample s;
  s.name = name_;
  s.bounds = bounds_;
  s.bucket_counts.assign(bounds_.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  auto add = [&](const Window& w) {
    for (size_t i = 0; i < w.buckets.size(); ++i) {
      s.bucket_counts[i] += w.buckets[i];
    }
    s.count += w.count;
    s.sum += w.sum;
    if (w.count > 0) {
      min = std::min(min, w.min);
      max = std::max(max, w.max);
    }
  };
  for (const Window& w : closed_) add(w);
  if (include_open) add(open_);
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
  samples_->Set(closed_.empty()
                    ? 0.0
                    : static_cast<double>(closed_.back().count));
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
                          std::string(endpoint), default_num_windows_,
                          ServeLatencyBucketBounds()))
             .first;
  }
  return it->second.get();
}

void SloTracker::Record(std::string_view endpoint, double latency_us) {
  GetWindow(endpoint)->Record(latency_us);
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
  // cs:lock(obs.slo.rotation)
  std::unique_lock<lockdep::Mutex> lock(rotation_mu_);
  if (rotation_thread_.joinable()) return;
  rotation_stopping_ = false;
  rotation_thread_ = std::thread(&SloTracker::RotationLoop, this,
                                 interval_seconds > 0 ? interval_seconds
                                                      : 1.0);
}

void SloTracker::StopBackgroundRotation() {
  std::thread to_join;
  {
    // cs:lock(obs.slo.rotation)
    std::unique_lock<lockdep::Mutex> lock(rotation_mu_);
    if (!rotation_thread_.joinable()) return;
    rotation_stopping_ = true;
    rotation_cv_.notify_all();
    to_join = std::move(rotation_thread_);
  }
  to_join.join();
}

bool SloTracker::background_rotation_running() const {
  // cs:lock(obs.slo.rotation)
  std::unique_lock<lockdep::Mutex> lock(rotation_mu_);
  return rotation_thread_.joinable();
}

void SloTracker::RotationLoop(double interval_seconds) {
  const auto interval = std::chrono::microseconds(
      static_cast<int64_t>(interval_seconds * 1e6));
  for (;;) {
    {
      // lock-order: obs.slo.rotation is released before RotateAll()
      // touches the tracker map or any window mutex (leaf lock).
      // cs:lock(obs.slo.rotation)
      std::unique_lock<lockdep::Mutex> lock(rotation_mu_);
      // The predicate sees a Stop that ran before this thread first
      // waited, and keeps a spurious wakeup from rotating early.
      if (rotation_cv_.wait_for(lock, interval,
                                [this] { return rotation_stopping_; })) {
        return;
      }
    }
    RotateAll();
  }
}

void SloTracker::set_default_num_windows(size_t n) {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  default_num_windows_ = std::max<size_t>(1, n);
}

size_t SloTracker::default_num_windows() const {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  return default_num_windows_;
}

std::vector<std::string> SloTracker::Endpoints() const {
  // cs:lock(obs.slo.window)
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(windows_.size());
  for (const auto& [name, w] : windows_) names.push_back(name);
  return names;
}

}  // namespace crowdselect::obs
