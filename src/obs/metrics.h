// Process-wide metrics: named counters, gauges, and fixed-bucket
// histograms behind a thread-safe registry. The hot path (Increment /
// Record / Set) is lock-free — a relaxed atomic op per call — so the
// E-step's pool threads can meter themselves without serializing.
// Registration and snapshots take a mutex; instrument pointers returned
// by the registry stay valid for the registry's lifetime, so call sites
// resolve a name once and hold the pointer.
//
// Everything can be no-op'd at runtime: MetricsRegistry::SetEnabled(false)
// turns every instrument owned by that registry into a cheap branch.
#ifndef CROWDSELECT_OBS_METRICS_H_
#define CROWDSELECT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace crowdselect::obs {

/// Monotonic event counter.
class Counter {
 public:
  // cs:signal-safe — incremented from the profiler's SIGPROF handler.
  void Increment(uint64_t delta = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<uint64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Last-value instrument that also keeps a bounded history of every Set()
/// (the per-iteration ELBO trace, the online-pool size over time...).
/// Set() takes a mutex for the history append; it is meant for
/// once-per-iteration cadence, not per-observation hot loops.
class Gauge {
 public:
  void Set(double value);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  /// Every value passed to Set(), oldest first, capped at kMaxHistory
  /// (older entries are discarded once the cap is hit).
  std::vector<double> History() const;
  void Reset();

  static constexpr size_t kMaxHistory = 4096;

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  std::atomic<double> value_{0.0};
  mutable std::mutex mu_;
  // Ring once kMaxHistory is reached: head_ is the next overwrite slot
  // (= the oldest entry). Erasing from the front instead would memmove
  // the whole 4 KB history on every Set — gauges updated per task (the
  // quality monitor's drift gauges, SLO windows) turn that into real
  // per-request cost.
  std::vector<double> history_;
  size_t history_head_ = 0;
  const std::atomic<bool>* enabled_;
};

struct HistogramSample;

/// Fixed-bucket histogram: bucket i counts values <= bounds[i] (and above
/// bounds[i-1]); one overflow bucket catches the rest. Record() is a
/// bucket search plus relaxed atomic adds — no locks, safe from any
/// thread.
class Histogram {
 public:
  /// A histogram outside any registry; it is always enabled.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  uint64_t TotalCount() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;
  double Max() const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> BucketCounts() const;
  /// The current contents, with an empty name.
  HistogramSample Sample() const;
  /// Everything recorded since the last Drain(), leaving the histogram
  /// empty. Each field is swapped out by one atomic exchange, so a
  /// Record() racing a Drain() may land its bucket in one drain and its
  /// sum in the next, but every field of every record is counted in
  /// exactly one drain.
  HistogramSample Drain();
  void Reset();

 private:
  friend class MetricsRegistry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);

  std::vector<double> bounds_;  ///< Ascending upper bounds.
  std::vector<std::atomic<uint64_t>> buckets_;  ///< bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  const std::atomic<bool>* enabled_;
};

/// Default bucket ladder for latencies in microseconds: 1us .. 10s,
/// roughly 1-2-5 per decade.
const std::vector<double>& LatencyBucketBounds();

/// Geometric (log-scale) bucket ladder: `steps_per_decade` bounds per
/// decade from `min_bound` up to and including `max_bound`. Bounds are
/// exact powers of 10^(1/steps_per_decade), so ladders with the same
/// parameters are identical across processes.
std::vector<double> LogBucketBounds(double min_bound, double max_bound,
                                    int steps_per_decade);

/// Bucket ladder for serve-path latencies: log-scale from 0.1us to 10s at
/// four steps per decade. The serving hot path spans cache hits (single-
/// digit microseconds) to cold fold-ins (milliseconds); the default
/// 1-2-5 ladder is too coarse to resolve tail quantiles across that
/// range, this one keeps every bucket within ~78% of its neighbor.
const std::vector<double>& ServeLatencyBucketBounds();

/// Default bucket ladder for feedback scores (0..inf, linear-ish).
const std::vector<double>& ScoreBucketBounds();

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

struct CounterSample {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  std::vector<double> history;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;  ///< bounds.size() + 1 entries.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  /// Bucket-interpolated quantile estimate, q in [0, 1].
  double Quantile(double q) const;
};

/// Point-in-time copy of every instrument in a registry; safe to read,
/// serialize, or diff while the instruments keep moving.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(std::string_view name) const;
  const GaugeSample* FindGauge(std::string_view name) const;
  const HistogramSample* FindHistogram(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Owns named instruments. Get*() registers on first use and returns a
/// stable pointer; concurrent Get*() for the same name return the same
/// instrument. Instrument reads/writes never block a snapshot.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide default registry used by all built-in
  /// instrumentation.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// First registration fixes the bucket bounds; later callers get the
  /// existing instrument regardless of `bounds`. Defaults to the latency
  /// ladder.
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<double>& bounds = LatencyBucketBounds());

  /// Runtime kill switch: when disabled, every instrument owned by this
  /// registry turns its mutating calls into no-ops. Reads still work.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  MetricsSnapshot Snapshot() const;

  /// Current value of every counter and gauge, name-sorted, without gauge
  /// histories or histogram buckets — the cheap read path the time-series
  /// sampler polls on every tick (Snapshot() copies up to 4096 history
  /// doubles per gauge, which is far too heavy for a 1s cadence).
  std::vector<std::pair<std::string, double>> CurrentValues() const;

  /// Zeroes every instrument (counts, sums, gauge histories). Names and
  /// instrument pointers survive — only values reset.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace crowdselect::obs

#endif  // CROWDSELECT_OBS_METRICS_H_
