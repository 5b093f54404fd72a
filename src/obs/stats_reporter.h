// Serializes an observability snapshot — every counter, gauge (with
// history), histogram, and an aggregated per-span-name summary — as one
// JSON document, for `crowdselect_cli --stats-out`, the bench harness,
// and tests. Also exports raw spans in Chrome trace_event format and the
// metrics sections in Prometheus text exposition format (scrapeable by a
// node-exporter textfile collector or any file-tailing agent without
// parsing our JSON).
#ifndef CROWDSELECT_OBS_STATS_REPORTER_H_
#define CROWDSELECT_OBS_STATS_REPORTER_H_

#include <atomic>
#include <iosfwd>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/periodic_thread.h"
#include "util/status.h"

namespace crowdselect::obs {

/// Reads from a registry + trace collector (the globals by default) and
/// writes snapshots. Stateless: every call takes a fresh snapshot.
class StatsReporter {
 public:
  explicit StatsReporter(MetricsRegistry* registry = &MetricsRegistry::Global(),
                         TraceCollector* traces = &TraceCollector::Global())
      : registry_(registry), traces_(traces) {}

  /// Full snapshot as pretty-printed JSON:
  ///   {"counters": {name: value},
  ///    "gauges": {name: {"value": v, "history": [...]}},
  ///    "histograms": {name: {"count","sum","min","max","mean","p50",
  ///                          "p90","p99","buckets":[{"le","count"}]}},
  ///    "spans": [{"name","count","total_us","mean_us","max_us"}],
  ///    "dropped_spans": n,
  ///    "alerts": {"firing": n, "rules": [{"name","metric","state",
  ///               "value","breach_streak","transitions"}]}}
  std::string ToJson() const;

  /// ToJson() to a file; parent directory must exist.
  Status WriteJsonFile(const std::string& path) const;

  /// Raw spans as Chrome trace_event JSON (chrome://tracing, Perfetto).
  std::string ToChromeTraceJson() const;
  Status WriteChromeTraceFile(const std::string& path) const;

  /// Counters, gauges and histograms in Prometheus text exposition format
  /// (version 0.0.4). Names are prefixed `crowdselect_` and sanitized to
  /// the Prometheus charset (dots and other illegal characters become
  /// underscores); histograms expose the classic cumulative
  /// `_bucket{le=...}` / `_sum` / `_count` triple. Every family carries a
  /// `# HELP` line sourced from docs/metrics_registry.txt's description
  /// column (obs/metric_help.h). Loaded alert rules append one labeled
  /// `crowdselect_alert_state{rule="..."}` family (0 ok / 1 pending /
  /// 2 firing). Gauge histories and span aggregates are JSON-only —
  /// Prometheus carries current values.
  std::string ToPrometheusText() const;

  /// ToPrometheusText() to a file, written atomically (temp file + rename)
  /// so a concurrent scraper never reads a half-written exposition.
  Status WritePrometheusFile(const std::string& path) const;

 private:
  MetricsRegistry* registry_;
  TraceCollector* traces_;
};

/// Background thread that re-writes a Prometheus exposition file every
/// `interval_seconds` (plus once on Stop/destruction), turning any
/// long-running command — `crowdselect_cli simulate`, the bench harness —
/// into a scrape target for the textfile collector.
class PeriodicStatsExporter {
 public:
  /// Rejects an empty path and `interval_seconds <= 0` (and NaN) with
  /// InvalidArgument, so a misconfigured `--prom-interval-ms 0` fails
  /// loudly at startup; otherwise starts the background writes.
  static Result<std::unique_ptr<PeriodicStatsExporter>> Create(
      std::string path, double interval_seconds,
      StatsReporter reporter = StatsReporter());

  ~PeriodicStatsExporter();

  PeriodicStatsExporter(const PeriodicStatsExporter&) = delete;
  PeriodicStatsExporter& operator=(const PeriodicStatsExporter&) = delete;

  /// Stops the thread and writes one final exposition. Idempotent.
  /// Returns the status of the final write.
  Status Stop();

  /// Completed background writes so far (tests).
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  PeriodicStatsExporter(std::string path, double interval_seconds,
                        StatsReporter reporter);

  Status WriteOnce();

  const std::string path_;
  StatsReporter reporter_;
  std::atomic<uint64_t> writes_{0};
  std::atomic<bool> stopped_{false};
  // Declared last so it is joined before the members its writes read die.
  PeriodicThread thread_;
};

/// Serializes a standalone metrics snapshot (no trace data) as JSON with
/// the same shape as StatsReporter::ToJson()'s first three sections.
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

}  // namespace crowdselect::obs

#endif  // CROWDSELECT_OBS_STATS_REPORTER_H_
