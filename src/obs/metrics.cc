#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace crowdselect::obs {

namespace {

// Atomic min/max for doubles via CAS; `first` flags an untouched slot so
// the first recorded value seeds both extremes.
void AtomicMin(std::atomic<double>* slot, double value) {
  double cur = slot->load(std::memory_order_relaxed);
  while (value < cur &&
         !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* slot, double value) {
  double cur = slot->load(std::memory_order_relaxed);
  while (value > cur &&
         !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicAdd(std::atomic<double>* slot, double value) {
  double cur = slot->load(std::memory_order_relaxed);
  while (!slot->compare_exchange_weak(cur, cur + value,
                                      std::memory_order_relaxed)) {
  }
}

// The switch of every histogram constructed outside a registry.
const std::atomic<bool> kAlwaysEnabled{true};

constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

void Gauge::Set(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  value_.store(value, std::memory_order_relaxed);
  // cs:lock(obs.metrics.gauge)
  std::lock_guard<std::mutex> lock(mu_);
  if (history_.size() < kMaxHistory) {
    history_.push_back(value);
  } else {
    history_[history_head_] = value;
    history_head_ = (history_head_ + 1) % kMaxHistory;
  }
}

std::vector<double> Gauge::History() const {
  // cs:lock(obs.metrics.gauge)
  std::lock_guard<std::mutex> lock(mu_);
  if (history_head_ == 0) return history_;
  std::vector<double> out;
  out.reserve(history_.size());
  out.insert(out.end(), history_.begin() + static_cast<long>(history_head_),
             history_.end());
  out.insert(out.end(), history_.begin(),
             history_.begin() + static_cast<long>(history_head_));
  return out;
}

void Gauge::Reset() {
  value_.store(0.0, std::memory_order_relaxed);
  // cs:lock(obs.metrics.gauge)
  std::lock_guard<std::mutex> lock(mu_);
  history_.clear();
  history_head_ = 0;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : Histogram(&kAlwaysEnabled, std::move(bounds)) {}

Histogram::Histogram(const std::atomic<bool>* enabled,
                     std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_(kInfinity),
      max_(-kInfinity),
      enabled_(enabled) {
  CS_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  CS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Record(double value) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::Min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return TotalCount() == 0 ? 0.0 : v;
}

double Histogram::Max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return TotalCount() == 0 ? 0.0 : v;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

HistogramSample Histogram::Sample() const {
  HistogramSample s;
  s.bounds = bounds_;
  s.bucket_counts = BucketCounts();
  s.count = TotalCount();
  s.sum = Sum();
  s.min = Min();
  s.max = Max();
  return s;
}

HistogramSample Histogram::Drain() {
  HistogramSample s;
  s.bounds = bounds_;
  s.bucket_counts.resize(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    s.bucket_counts[i] = buckets_[i].exchange(0, std::memory_order_relaxed);
  }
  s.count = count_.exchange(0, std::memory_order_relaxed);
  s.sum = sum_.exchange(0.0, std::memory_order_relaxed);
  const double min = min_.exchange(kInfinity, std::memory_order_relaxed);
  const double max = max_.exchange(-kInfinity, std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min;
  s.max = s.count == 0 ? 0.0 : max;
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInfinity, std::memory_order_relaxed);
  max_.store(-kInfinity, std::memory_order_relaxed);
}

const std::vector<double>& LatencyBucketBounds() {
  static const std::vector<double> kBounds = {
      1,     2,     5,     10,    20,    50,    100,   200,
      500,   1e3,   2e3,   5e3,   1e4,   2e4,   5e4,   1e5,
      2e5,   5e5,   1e6,   2e6,   5e6,   1e7};
  return kBounds;
}

std::vector<double> LogBucketBounds(double min_bound, double max_bound,
                                    int steps_per_decade) {
  CS_CHECK(min_bound > 0.0 && max_bound > min_bound && steps_per_decade > 0)
      << "log bucket ladder needs 0 < min < max and steps_per_decade >= 1";
  std::vector<double> bounds;
  // Generate from the exponent so accumulated multiplication error cannot
  // produce a non-monotonic ladder.
  const double log_min = std::log10(min_bound);
  for (int i = 0;; ++i) {
    const double b = std::pow(10.0, log_min + i / static_cast<double>(steps_per_decade));
    if (b > max_bound * (1.0 + 1e-12)) break;
    bounds.push_back(b);
  }
  if (bounds.empty() || bounds.back() < max_bound * (1.0 - 1e-12)) {
    bounds.push_back(max_bound);
  }
  return bounds;
}

const std::vector<double>& ServeLatencyBucketBounds() {
  static const std::vector<double> kBounds = LogBucketBounds(0.1, 1e7, 4);
  return kBounds;
}

const std::vector<double>& ScoreBucketBounds() {
  static const std::vector<double> kBounds = {0.0, 0.5, 1.0, 2.0,  4.0,
                                              8.0, 16.0, 32.0, 64.0};
  return kBounds;
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

double HistogramSample::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const uint64_t in_bucket = bucket_counts[i];
    if (static_cast<double>(cumulative + in_bucket) >= target &&
        in_bucket > 0) {
      // Linear interpolation inside the bucket; the overflow bucket and
      // the first bucket fall back to the recorded extremes.
      const double lo = i == 0 ? std::min(min, bounds[0]) : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : std::max(max, lo);
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return max;
}

const CounterSample* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  // cslint: allow(naked-new): leaked singleton, outlives all threads.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  // cs:lock(obs.metrics.registry)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  // cs:lock(obs.metrics.registry)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<double>& bounds) {
  // cs:lock(obs.metrics.registry)
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(&enabled_, bounds)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // cs:lock(obs.metrics.registry)
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterSample{name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back(GaugeSample{name, gauge->Value(), gauge->History()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSample s = hist->Sample();
    s.name = name;
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::CurrentValues()
    const {
  // cs:lock(obs.metrics.registry)
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, static_cast<double>(counter->Value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->Value());
  }
  // counters_ and gauges_ are each sorted; one merge keeps the whole list
  // name-ordered so samplers emit deterministic series order.
  std::inplace_merge(
      out.begin(), out.begin() + static_cast<std::ptrdiff_t>(counters_.size()),
      out.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void MetricsRegistry::ResetAll() {
  // cs:lock(obs.metrics.registry)
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace crowdselect::obs
