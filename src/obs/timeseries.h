// Bounded in-memory time-series store: metrics gain *history* instead of
// only instantaneous values. Each named series is a fixed-capacity ring
// of (t, v) points — once full, appending overwrites oldest-first, so
// memory is bounded no matter how long the process runs. Sampling is
// caller-driven (SampleRegistry once per workload tick keeps replayed
// runs deterministic) and walks MetricsRegistry::CurrentValues(), the
// cheap no-history read path, so a tick never copies gauge histories or
// histogram buckets.
//
// The export format is JSONL with one *flat* object per point —
// {"series":"serve.queries","t":12,"v":340} — deliberately matching
// what jsonl::ParseObject can read back, so the `crowdselect report`
// command and downstream tooling never need a nested-JSON parser.
//
// Alert rate() rules (obs/alerts.h) read their windows from this store,
// and the quality monitor's gauges land here like any other metric, so
// one dump carries latency, quality, and alert history side by side.
#ifndef CROWDSELECT_OBS_TIMESERIES_H_
#define CROWDSELECT_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace crowdselect::obs {

/// One sample of one series. `t` is whatever unit the sampler chose
/// (the task index for simulate ticks); a store mixes units only if its
/// callers do.
struct TimeSeriesPoint {
  double t = 0.0;
  double v = 0.0;
};

/// Thread-safe bounded store of named series. All methods may be called
/// concurrently; Append is a mutex + ring store, meant for per-tick
/// cadence (not per-observation hot loops — those belong in Counter /
/// Histogram, which this store then samples).
class TimeSeriesStore {
 public:
  /// The process-wide store the CLI flags and alert engine use.
  static TimeSeriesStore& Global();

  TimeSeriesStore() = default;
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  /// Ring capacity for series created after the call (existing series
  /// keep their ring). Clamped to >= 2. Default 1024 points.
  void set_capacity_per_series(size_t points);
  size_t capacity_per_series() const;

  /// Hard cap on distinct series; appends to new series beyond it are
  /// dropped (counted in timeseries.dropped_series). Default 4096.
  void set_max_series(size_t n);

  /// Appends one point to `series`, creating the series on first use.
  /// Returns false when the series cap rejected a new series.
  bool Append(std::string_view series, double t, double v);

  /// Appends every counter and gauge in `registry` at time `t` (one
  /// point per instrument, series named after the metric). Returns the
  /// number of points appended.
  size_t SampleRegistry(double t,
                        MetricsRegistry* registry = &MetricsRegistry::Global());

  /// Registered series names, sorted.
  std::vector<std::string> SeriesNames() const;

  /// Retained points of `series`, oldest first (empty for unknown).
  std::vector<TimeSeriesPoint> Points(std::string_view series) const;

  /// Total points ever appended / retained series count.
  uint64_t total_points() const;
  size_t num_series() const;

  /// Drops every series and point (capacity settings survive).
  void Clear();

  /// One flat JSON object per line, series in name order, points oldest
  /// first: {"series":"<name>","t":<t>,"v":<v>}.
  std::string ToJsonl() const;

  /// ToJsonl() to a file, written atomically (tmp + rename) so a
  /// concurrent reader never sees a torn dump.
  Status WriteJsonlFile(const std::string& path) const;

 private:
  struct Series {
    std::vector<TimeSeriesPoint> ring;  ///< Fixed capacity once created.
    size_t capacity = 0;
    size_t next = 0;      ///< Ring slot the next append writes.
    uint64_t appended = 0;  ///< Total appends (>= ring.size()).
  };

  bool AppendLocked(std::string_view series, double t, double v);

  mutable std::mutex mu_;
  size_t capacity_per_series_ = 1024;
  size_t max_series_ = 4096;
  uint64_t total_points_ = 0;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace crowdselect::obs

#endif  // CROWDSELECT_OBS_TIMESERIES_H_
