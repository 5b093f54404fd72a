// Sliding-window latency tracking for SLO monitoring: a WindowedHistogram
// keeps the last N rotation windows of a fixed-bucket histogram and, on
// every rotation, refreshes p50/p95/p99 (and window-count) gauges in the
// metrics registry from the merged retained windows. Unlike the plain
// process-lifetime Histogram, quantiles reported here decay — a latency
// spike ages out after `num_windows` rotations instead of polluting the
// percentiles forever.
//
// Rotation is caller-driven (per M queries, per tick of a workload loop,
// or a wall-clock timer at the call site); the class itself never looks
// at a clock, so tests and replayed workloads are deterministic.
//
// The open window is one lock-free Histogram: Record() is its Record(),
// and Rotate() drains it into the ring of closed windows.
//
// SloTracker is the process-wide endpoint table: GetWindow(endpoint)
// lazily creates one WindowedHistogram per endpoint (serve.select,
// serve.select.vsm, crowd.process_task, ...), each call site resolves
// its endpoint once and records on the pointer, and RotateAll() advances
// every window in lockstep.
#ifndef CROWDSELECT_OBS_WINDOW_H_
#define CROWDSELECT_OBS_WINDOW_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/periodic_thread.h"

namespace crowdselect::obs {

/// Fixed-bucket histogram over a ring of rotation windows. Record() fills
/// the current (open) window; Rotate() closes it into the ring, drops the
/// oldest window beyond `num_windows`, and refreshes the quantile gauges
/// from the merged *closed* windows. All methods are thread-safe; Record
/// takes no lock.
class WindowedHistogram {
 public:
  /// Gauges are registered as "<prefix><name>.p50" / ".p95" / ".p99" /
  /// ".mean" / ".window_count" / ".samples" in `registry`; the default
  /// prefix "slo." keeps the SLO endpoints' historical names, the
  /// quality monitor passes "" so its windows surface as quality.*.
  /// ".window_count" is the merged sample count across all retained
  /// windows, ".samples" only the most recently *closed* window — an
  /// idle endpoint shows samples == 0 one rotation after traffic stops,
  /// while window_count decays over the full ring. Both exist so an
  /// empty-window p99 of 0 is distinguishable from a fast healthy one.
  WindowedHistogram(std::string name, size_t num_windows,
                    std::vector<double> bounds,
                    MetricsRegistry* registry = &MetricsRegistry::Global(),
                    std::string gauge_prefix = "slo.");

  void Record(double value) { open_.Record(value); }

  /// Closes the current window into the ring, refreshes the gauges, and
  /// returns the window it closed. Rotating with an empty current window
  /// is valid — it ages out old samples (and eventually zeroes the
  /// gauges) during idle periods.
  HistogramSample Rotate();

  /// Merged sample over the retained closed windows (what the gauges were
  /// computed from at the last Rotate), plus the open window when
  /// `include_open` — for callers that want up-to-the-sample quantiles.
  HistogramSample Merged(bool include_open = false) const;

  const std::string& name() const { return name_; }
  size_t num_windows() const { return num_windows_; }
  uint64_t rotations() const;

 private:
  HistogramSample MergeLocked(bool include_open) const;
  void RefreshGaugesLocked();

  const std::string name_;
  const size_t num_windows_;
  Gauge* p50_;
  Gauge* p95_;
  Gauge* p99_;
  Gauge* mean_;
  Gauge* window_count_;
  Gauge* samples_;

  Histogram open_;  ///< Recorded into without a lock; Rotate() drains it.
  mutable std::mutex mu_;  ///< Guards the closed ring, not the open window.
  std::deque<HistogramSample> closed_;  ///< Front = oldest.
  uint64_t rotations_ = 0;
};

/// Process-wide endpoint -> WindowedHistogram table. Endpoints register
/// lazily on first GetWindow() with the serve latency ladder and
/// kNumWindows windows.
class SloTracker {
 public:
  static constexpr size_t kNumWindows = 6;

  static SloTracker& Global();

  SloTracker() = default;
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// The window for `endpoint`, creating it on first use. The pointer
  /// stays valid for the tracker's lifetime, so a call site resolves it
  /// once and records latencies (microseconds) on it.
  WindowedHistogram* GetWindow(std::string_view endpoint);

  /// Advances every registered endpoint's window in lockstep.
  void RotateAll();

  /// Spawns a thread that calls RotateAll() every `interval_seconds`,
  /// so quantile gauges age out even when the serve path goes idle and
  /// nothing drives rotation. Idempotent while running; intervals <= 0
  /// are clamped to 1s. The destructor joins the thread.
  void StartBackgroundRotation(double interval_seconds);

  /// Joins the rotation thread. Idempotent; safe when never started.
  void StopBackgroundRotation() { rotation_.Stop(); }

  bool background_rotation_running() const { return rotation_.running(); }

 private:
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>>
      windows_;
  // Declared last so it is joined before the windows it rotates die.
  PeriodicThread rotation_;
};

}  // namespace crowdselect::obs

#endif  // CROWDSELECT_OBS_WINDOW_H_
