#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/json_escape.h"

namespace crowdselect::obs {

namespace {

// JSON numbers cannot be inf/nan; clamp like the stats reporter does.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

TimeSeriesStore& TimeSeriesStore::Global() {
  // cslint: allow(naked-new): leaked singleton, outlives all threads.
  static TimeSeriesStore* store = new TimeSeriesStore();
  return *store;
}

void TimeSeriesStore::set_capacity_per_series(size_t points) {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  capacity_per_series_ = std::max<size_t>(2, points);
}

size_t TimeSeriesStore::capacity_per_series() const {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_per_series_;
}

void TimeSeriesStore::set_max_series(size_t n) {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  max_series_ = std::max<size_t>(1, n);
}

bool TimeSeriesStore::AppendLocked(std::string_view series, double t,
                                   double v) {
  auto it = series_.find(series);
  if (it == series_.end()) {
    if (series_.size() >= max_series_) {
      MetricsRegistry::Global()
          .GetCounter("timeseries.dropped_series")
          ->Increment();
      return false;
    }
    Series s;
    s.capacity = capacity_per_series_;
    s.ring.reserve(s.capacity);
    it = series_.emplace(std::string(series), std::move(s)).first;
  }
  Series& s = it->second;
  if (s.ring.size() < s.capacity) {
    s.ring.push_back(TimeSeriesPoint{t, v});
  } else {
    s.ring[s.next] = TimeSeriesPoint{t, v};
  }
  s.next = (s.next + 1) % s.capacity;
  ++s.appended;
  ++total_points_;
  return true;
}

bool TimeSeriesStore::Append(std::string_view series, double t, double v) {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(series, t, v);
}

size_t TimeSeriesStore::SampleRegistry(double t, MetricsRegistry* registry) {
  // Pull the flat values before taking mu_: CurrentValues() holds the
  // registry mutex, and a gauge refresh elsewhere may want it while we
  // append. Never hold both.
  const std::vector<std::pair<std::string, double>> values =
      registry->CurrentValues();
  size_t appended = 0;
  {
    // cs:lock(obs.timeseries.store)
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, value] : values) {
      // The store's own bookkeeping metrics are excluded: sampling them
      // would mint one new point per tick per meta-metric and the
      // series count would feed back into itself.
      if (name.rfind("timeseries.", 0) == 0) continue;
      if (AppendLocked(name, t, value)) ++appended;
    }
  }
  MetricsRegistry::Global().GetCounter("timeseries.samples")->Increment();
  MetricsRegistry::Global()
      .GetGauge("timeseries.series")
      ->Set(static_cast<double>(num_series()));
  return appended;
}

std::vector<std::string> TimeSeriesStore::SeriesNames() const {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

std::vector<TimeSeriesPoint> TimeSeriesStore::Points(
    std::string_view series) const {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return {};
  const Series& s = it->second;
  std::vector<TimeSeriesPoint> out;
  out.reserve(s.ring.size());
  // Oldest-first: once the ring wrapped, `next` points at the oldest slot.
  const size_t start = s.ring.size() < s.capacity ? 0 : s.next;
  for (size_t i = 0; i < s.ring.size(); ++i) {
    out.push_back(s.ring[(start + i) % s.ring.size()]);
  }
  return out;
}

uint64_t TimeSeriesStore::total_points() const {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  return total_points_;
}

size_t TimeSeriesStore::num_series() const {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

void TimeSeriesStore::Clear() {
  // cs:lock(obs.timeseries.store)
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  total_points_ = 0;
}

std::string TimeSeriesStore::ToJsonl() const {
  std::string out;
  // Snapshot the name list first, then read series one at a time through
  // Points(): the dump never holds mu_ across the whole serialization.
  for (const std::string& name : SeriesNames()) {
    const std::string quoted = JsonQuote(name);
    for (const TimeSeriesPoint& p : Points(name)) {
      out += "{\"series\": " + quoted + ", \"t\": " + Num(p.t) +
             ", \"v\": " + Num(p.v) + "}\n";
    }
  }
  return out;
}

Status TimeSeriesStore::WriteJsonlFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp);
    if (!file.is_open()) {
      return Status::IOError("cannot open timeseries output file: " + tmp);
    }
    file << ToJsonl();
    file.close();
    if (!file.good()) {
      return Status::IOError("failed writing timeseries output file: " + tmp);
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

}  // namespace crowdselect::obs
