#include "obs/stats_reporter.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "obs/alerts.h"
#include "obs/json_escape.h"
#include "obs/metric_help.h"

namespace crowdselect::obs {

namespace {

// JSON numbers cannot be inf/nan; clamp to null-safe 0 (only reachable
// for empty histograms, which report 0 extremes anyway).
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Num(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Metric names are dotted identifiers; escape defensively regardless.
std::string Quote(const std::string& s) { return JsonQuote(s); }

void AppendCounters(const MetricsSnapshot& snap, std::string* out) {
  *out += "  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    *out += i == 0 ? "\n" : ",\n";
    *out += "    " + Quote(snap.counters[i].name) + ": " +
            Num(snap.counters[i].value);
  }
  *out += snap.counters.empty() ? "}" : "\n  }";
}

void AppendGauges(const MetricsSnapshot& snap, std::string* out) {
  *out += "  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    const GaugeSample& g = snap.gauges[i];
    *out += i == 0 ? "\n" : ",\n";
    *out += "    " + Quote(g.name) + ": {\"value\": " + Num(g.value) +
            ", \"history\": [";
    for (size_t j = 0; j < g.history.size(); ++j) {
      if (j > 0) *out += ", ";
      *out += Num(g.history[j]);
    }
    *out += "]}";
  }
  *out += snap.gauges.empty() ? "}" : "\n  }";
}

void AppendHistograms(const MetricsSnapshot& snap, std::string* out) {
  *out += "  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSample& h = snap.histograms[i];
    *out += i == 0 ? "\n" : ",\n";
    *out += "    " + Quote(h.name) + ": {\"count\": " + Num(h.count) +
            ", \"sum\": " + Num(h.sum) + ", \"min\": " + Num(h.min) +
            ", \"max\": " + Num(h.max) + ", \"mean\": " + Num(h.Mean()) +
            ", \"p50\": " + Num(h.Quantile(0.5)) +
            ", \"p90\": " + Num(h.Quantile(0.9)) +
            ", \"p99\": " + Num(h.Quantile(0.99)) + ", \"buckets\": [";
    // Elide empty buckets to keep snapshots readable; the full ladder is
    // recoverable from the bounds documented in DESIGN.md.
    bool first = true;
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (h.bucket_counts[b] == 0) continue;
      if (!first) *out += ", ";
      first = false;
      const std::string le =
          b < h.bounds.size() ? Num(h.bounds[b]) : "\"inf\"";
      *out += "{\"le\": " + le + ", \"count\": " + Num(h.bucket_counts[b]) +
              "}";
    }
    *out += "]}";
  }
  *out += snap.histograms.empty() ? "}" : "\n  }";
}

struct SpanAgg {
  uint64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

}  // namespace

std::string SnapshotToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n";
  AppendCounters(snapshot, &out);
  out += ",\n";
  AppendGauges(snapshot, &out);
  out += ",\n";
  AppendHistograms(snapshot, &out);
  out += "\n}\n";
  return out;
}

std::string StatsReporter::ToJson() const {
  const MetricsSnapshot snap = registry_->Snapshot();
  const std::vector<SpanRecord> spans = traces_->Snapshot();

  std::map<std::string, SpanAgg> by_name;
  for (const SpanRecord& span : spans) {
    SpanAgg& agg = by_name[span.name];
    ++agg.count;
    agg.total_us += span.duration_us;
    agg.max_us = std::max(agg.max_us, span.duration_us);
  }

  std::string out = "{\n";
  AppendCounters(snap, &out);
  out += ",\n";
  AppendGauges(snap, &out);
  out += ",\n";
  AppendHistograms(snap, &out);
  out += ",\n  \"spans\": [";
  bool first = true;
  for (const auto& [name, agg] : by_name) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + Quote(name) + ", \"count\": " +
           Num(agg.count) + ", \"total_us\": " + Num(agg.total_us) +
           ", \"mean_us\": " +
           Num(agg.total_us / static_cast<double>(agg.count)) +
           ", \"max_us\": " + Num(agg.max_us) + "}";
  }
  out += by_name.empty() ? "]" : "\n  ]";
  out += ",\n  \"dropped_spans\": " + Num(traces_->dropped());

  // Alert rules + states, so one stats dump carries the full "why did
  // it page" story next to the metrics that tripped it.
  const std::vector<AlertStatus> alerts = AlertEngine::Global().Snapshot();
  size_t firing = 0;
  for (const AlertStatus& a : alerts) {
    if (a.state == AlertState::kFiring) ++firing;
  }
  out += ",\n  \"alerts\": {\"firing\": " + Num(static_cast<uint64_t>(firing)) +
         ", \"rules\": [";
  first = true;
  for (const AlertStatus& a : alerts) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + Quote(a.rule.name) + ", \"metric\": " +
           Quote(a.rule.metric) + ", \"state\": " +
           Quote(AlertStateName(a.state)) + ", \"value\": " +
           Num(a.last_value) + ", \"breach_streak\": " +
           Num(static_cast<uint64_t>(a.breach_streak)) +
           ", \"transitions\": " + Num(a.transitions) + "}";
  }
  out += alerts.empty() ? "]}" : "\n  ]}";
  out += "\n}\n";
  return out;
}

Status StatsReporter::WriteJsonFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open stats output file: " + path);
  }
  file << ToJson();
  file.close();
  if (!file.good()) {
    return Status::IOError("failed writing stats output file: " + path);
  }
  return Status::OK();
}

std::string StatsReporter::ToChromeTraceJson() const {
  return SpansToChromeTraceJson(traces_->Snapshot());
}

Status StatsReporter::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::IOError("cannot open trace output file: " + path);
  }
  file << ToChromeTraceJson();
  file.close();
  if (!file.good()) {
    return Status::IOError("failed writing trace output file: " + path);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
// (dots, dashes, hostile bytes) collapses to '_'.
std::string PromName(const std::string& name) {
  std::string out = "crowdselect_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Prometheus floats: inf/nan have spellings, unlike JSON.
std::string PromNum(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// HELP text escaping per the exposition format: backslash and newline.
std::string PromHelp(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Label values additionally escape the double quote.
std::string PromLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string StatsReporter::ToPrometheusText() const {
  const MetricsSnapshot snap = registry_->Snapshot();
  std::string out;
  // Every family gets "# HELP" (from the registry's description column
  // via MetricHelp) and "# TYPE" before its first sample — scrapers and
  // the format e2e test rely on that ordering.
  for (const CounterSample& c : snap.counters) {
    const std::string name = PromName(c.name);
    out += "# HELP " + name + " " + PromHelp(MetricHelp(c.name)) + "\n";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + Num(c.value) + "\n";
  }
  for (const GaugeSample& g : snap.gauges) {
    const std::string name = PromName(g.name);
    out += "# HELP " + name + " " + PromHelp(MetricHelp(g.name)) + "\n";
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + PromNum(g.value) + "\n";
  }
  for (const HistogramSample& h : snap.histograms) {
    const std::string name = PromName(h.name);
    out += "# HELP " + name + " " + PromHelp(MetricHelp(h.name)) + "\n";
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      cumulative += h.bucket_counts[b];
      const std::string le =
          b < h.bounds.size() ? PromNum(h.bounds[b]) : "+Inf";
      out += name + "_bucket{le=\"" + le + "\"} " + Num(cumulative) + "\n";
    }
    out += name + "_sum " + PromNum(h.sum) + "\n";
    out += name + "_count " + Num(h.count) + "\n";
  }
  // Per-rule alert states as one labeled family (0 = ok, 1 = pending,
  // 2 = firing) — rendered only when rules are loaded so rule-less runs
  // keep a byte-stable exposition.
  const std::vector<AlertStatus> alerts = AlertEngine::Global().Snapshot();
  if (!alerts.empty()) {
    out += "# HELP crowdselect_alert_state Alert rule state "
           "(0 = ok, 1 = pending, 2 = firing).\n";
    out += "# TYPE crowdselect_alert_state gauge\n";
    for (const AlertStatus& a : alerts) {
      out += "crowdselect_alert_state{rule=\"" + PromLabelValue(a.rule.name) +
             "\"} " + Num(static_cast<uint64_t>(a.state)) + "\n";
    }
  }
  return out;
}

Status StatsReporter::WritePrometheusFile(const std::string& path) const {
  // Atomic replace: scrape agents tail the target path; they must never
  // observe a truncated exposition.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp);
    if (!file.is_open()) {
      return Status::IOError("cannot open prometheus output file: " + tmp);
    }
    file << ToPrometheusText();
    file.close();
    if (!file.good()) {
      return Status::IOError("failed writing prometheus output file: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("failed renaming " + tmp + " to " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PeriodicStatsExporter
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PeriodicStatsExporter>> PeriodicStatsExporter::Create(
    std::string path, double interval_seconds, StatsReporter reporter) {
  if (path.empty()) {
    return Status::InvalidArgument("exporter path must not be empty");
  }
  if (!(interval_seconds > 0)) {  // Also rejects NaN.
    return Status::InvalidArgument(
        "exporter interval must be > 0 seconds (got " +
        std::to_string(interval_seconds) + ")");
  }
  // The constructor is private, so std::make_unique cannot reach it.
  return std::unique_ptr<PeriodicStatsExporter>(new PeriodicStatsExporter(
      std::move(path), interval_seconds, reporter));
}

PeriodicStatsExporter::PeriodicStatsExporter(std::string path,
                                             double interval_seconds,
                                             StatsReporter reporter)
    : path_(std::move(path)), reporter_(reporter) {
  // A failed background write is retried on the next tick; Stop()
  // reports the final write's status.
  thread_.Start(std::chrono::duration<double>(interval_seconds),
                [this] { (void)WriteOnce(); });
}

Status PeriodicStatsExporter::WriteOnce() {
  const Status st = reporter_.WritePrometheusFile(path_);
  if (st.ok()) writes_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status PeriodicStatsExporter::Stop() {
  if (stopped_.exchange(true)) return Status::OK();
  thread_.Stop();
  return WriteOnce();
}

PeriodicStatsExporter::~PeriodicStatsExporter() {
  // Destructors cannot propagate the final-write status; callers that care
  // about it invoke Stop() themselves first.
  (void)Stop();
}

}  // namespace crowdselect::obs
