// crowdselect_perfbench: runs one named workload from a seed against the
// public CrowdManager API, checks every answer, and prints the metrics.
//
//   crowdselect_perfbench --workload stack_stream --seed 1 --seconds 10 \
//       --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate
// traced run, which prints the per-layer metrics, a per-span table and
// writes the spans as Chrome trace JSON. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 1 when any check failed. perfbench/README.md describes the
// workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "checks.h"
#include "host_speed.h"
#include "model/fold_in.h"
#include "spans.h"
#include "text/bag_of_words.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using crowdselect::Answer;
using crowdselect::BagOfWords;
using crowdselect::CrowdStoreEngine;
using crowdselect::FoldInResult;
using crowdselect::Rng;
using crowdselect::TaskFolder;
using crowdselect::Tokenizer;
using crowdselect::TokenizerOptions;
using crowdselect::Vector;

constexpr size_t kTopK = 10;
// Traced runs alternate recording on and off in blocks of this many
// requests; trace.overhead_pct compares the two halves.
constexpr size_t kTraceBlock = 8;
// Brute-force checked pairs after the timed phase.
constexpr size_t kFinalCheckPairs = 16;
// Recovery is timed this many times; recover_s is the median.
constexpr int kRecoverReps = 5;
// Request time between two host reference samples of one client.
constexpr int64_t kReferenceEveryNs = 10'000'000;
// A timed phase stops at this multiple of --seconds even if its op budget
// is not spent; the run then fails.
constexpr double kDeadlineFactor = 6.0;
// Request ids of hot_route's resolves, apart from its routes' ids.
constexpr uint64_t kHotResolveRequestBase = uint64_t{1} << 40;
// Requests per window of the windowed p99.
constexpr size_t kTailWindow = 100;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string size = "full";
  std::string fault = "none";
  std::string workdir = ".bench_build/perfbench-run";
  std::string trace_dir = ".bench_build/perfbench-traces";
};

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "flag " + key + " has no value";
      return false;
    }
    const char* value = argv[i + 1];
    char* end = nullptr;
    bool ok = true;
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value, &end, 10);
      ok = *value != '\0' && *end == '\0';
    } else if (key == "--seconds") {
      flags->seconds = std::strtod(value, &end);
      ok = *end == '\0' && flags->seconds > 0;
    } else if (key == "--trace") {
      ok = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      flags->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--size") {
      flags->size = value;
    } else if (key == "--fault") {
      flags->fault = value;
    } else if (key == "--workdir") {
      flags->workdir = value;
    } else if (key == "--trace-dir") {
      flags->trace_dir = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (flags->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double Percentile(std::vector<float> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// Metrics in print order, with units.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Names of metrics that are not finite numbers.
  std::vector<std::string> NonFinite() const {
    std::vector<std::string> bad;
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) bad.push_back(m.name);
    }
    return bad;
  }
  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Latencies of one request type, raw and host-normalized, with the p99
/// of every window of kTailWindow consecutive requests of one client.
struct Latencies {
  std::vector<float> raw, norm;
  std::vector<float> raw_window_p99, norm_window_p99;

  void Append(const std::vector<float>& raw_us,
              const std::vector<uint32_t>& block,
              const SpeedNormalizer& normalizer) {
    const size_t first = norm.size();
    double factor = 1.0;
    for (size_t i = 0; i < raw_us.size(); ++i) {
      if (i == 0 || block[i] != block[i - 1]) {
        factor = normalizer.Factor(block[i]);
      }
      raw.push_back(raw_us[i]);
      norm.push_back(static_cast<float>(raw_us[i] * factor));
    }
    for (size_t i = first; i + kTailWindow <= norm.size(); i += kTailWindow) {
      raw_window_p99.push_back(static_cast<float>(Percentile(
          {raw.begin() + i, raw.begin() + i + kTailWindow}, 0.99)));
      norm_window_p99.push_back(static_cast<float>(Percentile(
          {norm.begin() + i, norm.begin() + i + kTailWindow}, 0.99)));
    }
  }
  /// Median of the window p99s: host interference comes in bursts that
  /// hit a few windows, and a pooled p99 over a run counts how many bursts
  /// the run met more than how the program's tail behaves. Runs shorter
  /// than a window use the pooled p99.
  double P99(bool normalized) const {
    const std::vector<float>& windows =
        normalized ? norm_window_p99 : raw_window_p99;
    return windows.empty() ? Percentile(normalized ? norm : raw, 0.99)
                           : Percentile(windows, 0.5);
  }
};

/// One client thread's raw request latencies, with the host reference
/// sampled between its requests after about kReferenceEveryNs of request
/// time. A request recorded after n reference samples ran in block n - 1,
/// which the samples n - 1 and n bracket.
class Timeline {
 public:
  Timeline() { Sample(); }

  /// Reserves room for the samples up front, so growing the vectors
  /// neither copies them mid-phase nor varies the peak resident set.
  void Reserve(size_t routes, size_t resolves) {
    route_.Reserve(routes);
    resolve_.Reserve(resolves);
  }
  void AddRoute(int64_t ns) { Add(&route_, ns); }
  void AddResolve(int64_t ns) { Add(&resolve_, ns); }

  /// Call between requests: samples the host reference when due.
  void MaybeSample() {
    if (busy_since_sample_ns_ >= kReferenceEveryNs) Sample();
  }
  /// Call after the last request.
  void Finish() { Sample(); }

  /// Appends this timeline's latencies to `route` and `resolve`.
  void Collect(Latencies* route, Latencies* resolve) const {
    const SpeedNormalizer normalizer(reference_us_);
    route->Append(route_.raw_us, route_.block, normalizer);
    resolve->Append(resolve_.raw_us, resolve_.block, normalizer);
  }
  const std::vector<float>& reference_us() const { return reference_us_; }

  // Traced runs: requests and their busy time per recording mode (0 off,
  // 1 on).
  uint64_t mode_ops[2] = {0, 0};
  int64_t mode_ns[2] = {0, 0};

 private:
  struct Series {
    std::vector<float> raw_us;
    std::vector<uint32_t> block;
    void Reserve(size_t n) {
      raw_us.reserve(n);
      block.reserve(n);
    }
  };

  void Sample() {
    reference_us_.push_back(static_cast<float>(host_.SampleUs()));
    busy_since_sample_ns_ = 0;
  }

  void Add(Series* series, int64_t ns) {
    series->raw_us.push_back(static_cast<float>(ns) / 1000.0f);
    series->block.push_back(static_cast<uint32_t>(reference_us_.size() - 1));
    busy_since_sample_ns_ += ns;
  }

  HostReference host_;
  std::vector<float> reference_us_;
  int64_t busy_since_sample_ns_ = 0;
  Series route_;
  Series resolve_;
};

/// Times one long call (set-up, recovery) with host reference samples
/// taken right before and after it.
class BracketedTimer {
 public:
  explicit BracketedTimer(HostReference* host) : host_(host) {
    SampleHost();
    t0_ = NowNs();
  }
  /// Stops the clock; returns {raw seconds, host-normalized seconds}.
  std::pair<double, double> Stop() {
    const double raw = Seconds(NowNs() - t0_);
    SampleHost();
    return {raw, raw * SpeedNormalizer(reference_us_).Factor()};
  }

 private:
  static constexpr int kSamples = 3;
  void SampleHost() {
    for (int i = 0; i < kSamples; ++i) {
      reference_us_.push_back(static_cast<float>(host_->SampleUs()));
    }
  }

  HostReference* host_;
  std::vector<float> reference_us_;
  int64_t t0_ = 0;
};

class Runner {
 public:
  Runner(const Flags& flags, const WorkloadSpec& spec, World& world,
         Fault fault)
      : flags_(flags),
        spec_(spec),
        world_(world),
        fault_(fault),
        tokenizer_(TokenizerOptions{.remove_stopwords = true}),
        vocab_(world.dataset().db.vocabulary()) {}

  int Run();

  /// Directory holding this run's stores.
  std::string RunDir() const {
    return flags_.workdir + "/" + spec_.name + "-" +
           std::to_string(flags_.seed) + "-" + std::to_string(getpid());
  }

 private:
  /// A routed task's answer and true category proportions; precision is
  /// computed from these after the run, off the request path.
  struct Routed {
    std::vector<RankedWorker> ranked;
    Vector proportions;
  };

  // --- Requests ------------------------------------------------------------
  /// One crowd-selection query. Untraced, it is SelectCrowd; traced, it is
  /// sent as the two public calls SelectCrowd makes, each in a span.
  crowdselect::Result<std::vector<RankedWorker>> Route(const std::string& text,
                                                       BagOfWords* bag) const;
  /// One resolve: ProcessTask with the simulated crowd.
  crowdselect::Result<std::vector<Answer>> Resolve(const StreamTask& task);

  // --- Phases --------------------------------------------------------------
  bool SetUp();
  void RunPairs(size_t pairs, Timeline* timeline, Rng* traffic);
  void StreamPhase();
  void HotPhase();
  void HotResolves();
  void Probes();
  void Recover();

  // --- Checks --------------------------------------------------------------
  void Fail(const std::string& what);
  void CheckRoute(const std::vector<RankedWorker>& ranked, const BagOfWords& bag,
                  bool brute_force);
  void CheckResolve(const crowdselect::Result<std::vector<Answer>>& answers);

  // --- Results -------------------------------------------------------------
  /// Mean over the distinct routed tasks of |answer ∩ true top-k| / k.
  double Precision() const;
  void ReportEndToEnd(MetricSet* m);
  void ReportLayers(MetricSet* m);
  void Report();

  /// Whether the traced run records request `index` (0-based).
  bool Recording(size_t index) const {
    return flags_.trace && (index / kTraceBlock) % 2 == 0;
  }
  size_t OpBudget() const {
    return std::max(spec_.min_ops, static_cast<size_t>(spec_.ops_per_second *
                                                       flags_.seconds));
  }
  int64_t Deadline() const {
    return NowNs() + static_cast<int64_t>(kDeadlineFactor * 1e9 *
                                          flags_.seconds);
  }

  const Flags& flags_;
  const WorkloadSpec& spec_;
  World& world_;
  const Fault fault_;
  const Tokenizer tokenizer_;
  const crowdselect::Vocabulary& vocab_;

  HostReference host_;  ///< For the set-up and recovery brackets.
  Deployment live_;
  std::unique_ptr<TaskFolder> folder_;  ///< Cold fold-in, off the cache.
  std::vector<crowdselect::WorkerId> candidates_;
  std::vector<char> online_;
  std::vector<double> setup_raw_s_, setup_norm_s_;

  // Request stream.
  std::vector<Timeline> timelines_;  ///< Timed requests, one per client.
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex fail_mu_;
  std::vector<std::string> failures_;
  std::atomic<bool> truncated_{false};
  size_t resolves_ = 0;
  size_t pairs_run_ = 0;
  std::vector<Routed> routed_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_lookups_ = 0;
  uint64_t wal_bytes_ = 0;
  size_t base_tasks_ = 0, base_assignments_ = 0, base_scored_ = 0;

  // Tasks the probes reuse: the first routed bags (cold fold-in) and the
  // most recent ones (still in the fold-in cache).
  std::vector<BagOfWords> first_bags_;
  std::vector<BagOfWords> recent_bags_;

  // hot_route.
  std::vector<StreamTask> hot_tasks_;
  std::vector<std::vector<RankedWorker>> hot_expected_;

  // Recovery and probes.
  bool store_ok_ = true;
  double recover_raw_s_ = 0, recover_norm_s_ = 0;
  double peak_rss_mb_ = 0;
  uint64_t replayed_ = 0;
  double cg_iterations_mean_ = 0;
  double scan_bytes_ = 0;
};

void Runner::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  if (failures_.size() < 10) failures_.push_back(what);
}

crowdselect::Result<std::vector<RankedWorker>> Runner::Route(
    const std::string& text, BagOfWords* bag) const {
  if (!flags_.trace) {
    *bag = BagOfWords::FromTextFrozen(text, tokenizer_, vocab_);
    return live_.manager->SelectCrowd(*bag, kTopK);
  }
  ScopedSpan request("route");
  {
    ScopedSpan span("text.tokenize");
    *bag = BagOfWords::FromTextFrozen(text, tokenizer_, vocab_);
  }
  std::vector<crowdselect::WorkerId> candidates;
  {
    ScopedSpan span("crowddb.pool_snapshot");
    candidates = live_.manager->online_pool()->Snapshot();
  }
  return live_.manager->selector().SelectTopK(*bag, kTopK, candidates);
}

crowdselect::Result<std::vector<Answer>> Runner::Resolve(
    const StreamTask& task) {
  live_.crowd->proportions = &task.proportions;
  std::string text = task.text;
  ScopedSpan request("resolve");
  return live_.manager->ProcessTask(std::move(text), kTopK,
                                    live_.dispatcher.get());
}

void Runner::CheckRoute(const std::vector<RankedWorker>& ranked,
                        const BagOfWords& bag, bool brute_force) {
  std::vector<crowdselect::WorkerId> ids;
  for (const RankedWorker& r : ranked) ids.push_back(r.worker);
  std::string why = CheckDistinctOnline(ids, kTopK, online_);
  if (why.empty() && brute_force) {
    const FoldInResult folded = folder_->FoldIn(bag);
    why = CheckTopK(*live_.tdpm->CurrentSnapshot(), folded.category,
                    candidates_, kTopK, ranked);
  }
  if (!why.empty()) {
    ++failed_;
    Fail("route: " + why);
  }
}

void Runner::CheckResolve(
    const crowdselect::Result<std::vector<Answer>>& answers) {
  std::string why;
  if (!answers.ok()) {
    why = answers.status().ToString();
  } else {
    std::vector<crowdselect::WorkerId> ids;
    for (const Answer& a : *answers) ids.push_back(a.worker);
    why = CheckDistinctOnline(ids, kTopK, online_);
  }
  if (!why.empty()) {
    ++failed_;
    Fail("resolve: " + why);
  }
}

bool Runner::SetUp() {
  std::error_code ec;
  fs::create_directories(RunDir(), ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", RunDir().c_str(),
                 ec.message().c_str());
    return false;
  }
  for (size_t rep = 0; rep < spec_.setup_reps; ++rep) {
    if (rep > 0) {
      live_.Close();
      fs::remove_all(live_.dir, ec);
    }
    DeployOptions options;
    options.traced = flags_.trace;
    options.fault = fault_;
    options.crowd_seed = flags_.seed * 0x9E3779B97F4A7C15ULL + 1;
    SpanLog::SetRecording(flags_.trace);
    BracketedTimer timer(&host_);
    const crowdselect::Status st =
        Deploy(world_, spec_, RunDir() + "/store" + std::to_string(rep),
               options, &live_);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return false;
    }
    SpanLog::SetRecording(false);
    if (spec_.hot) {
      // Warm the fold-in cache with the hot set; the warm-up is part of
      // set-up. Its answers are what every timed route must return.
      hot_expected_.assign(hot_tasks_.size(), {});
      for (size_t i = 0; i < hot_tasks_.size(); ++i) {
        BagOfWords bag;
        auto ranked = Route(hot_tasks_[i].text, &bag);
        if (!ranked.ok()) {
          std::fprintf(stderr, "warm-up failed: %s\n",
                       ranked.status().ToString().c_str());
          return false;
        }
        hot_expected_[i] = std::move(ranked).value();
      }
    }
    const auto [raw, norm] = timer.Stop();
    setup_raw_s_.push_back(raw);
    setup_norm_s_.push_back(norm);
  }
  auto folder = TaskFolder::Create(live_.tdpm->fit().params,
                                   ModelOptions(spec_));
  if (!folder.ok()) {
    std::fprintf(stderr, "fold-in: %s\n", folder.status().ToString().c_str());
    return false;
  }
  folder_ = std::make_unique<TaskFolder>(std::move(folder).value());
  candidates_ = live_.manager->online_pool()->Snapshot();
  online_.assign(live_.engine->NumWorkers(), 0);
  for (crowdselect::WorkerId w : candidates_) online_[w] = 1;
  base_tasks_ = live_.engine->NumTasks();
  base_assignments_ = live_.engine->NumAssignments();
  base_scored_ = live_.engine->NumScoredAssignments();
  return true;
}

void Runner::RunPairs(size_t pairs, Timeline* timeline, Rng* traffic) {
  // Timed pairs (timeline != nullptr) get only the checks that cost
  // nothing next to a request, so no timed request runs on caches a
  // brute-force check has just flushed; untimed pairs check every route.
  const int64_t deadline = Deadline();
  for (size_t i = 0; i < pairs; ++i) {
    if (timeline != nullptr && NowNs() > deadline) {
      truncated_ = true;
      break;
    }
    const StreamTask route_task = world_.NextUnseen(traffic);
    const StreamTask resolve_task = world_.NextUnseen(traffic);
    const size_t index = pairs_run_++;
    const int mode = timeline != nullptr && Recording(index) ? 1 : 0;
    SpanLog::SetRecording(mode == 1);
    SpanLog::SetRequest(2 * index + 1);

    BagOfWords bag;
    const int64_t r0 = NowNs();
    auto ranked = Route(route_task.text, &bag);
    const int64_t r1 = NowNs();
    ++attempted_;
    if (!ranked.ok()) {
      ++failed_;
      Fail("route: " + ranked.status().ToString());
    } else {
      CheckRoute(*ranked, bag, /*brute_force=*/timeline == nullptr);
      routed_.push_back({*ranked, route_task.proportions});
    }
    if (first_bags_.size() < spec_.probe_tasks) first_bags_.push_back(bag);
    recent_bags_[index % recent_bags_.size()] = std::move(bag);

    SpanLog::SetRequest(2 * index + 2);
    const int64_t s0 = NowNs();
    auto answers = Resolve(resolve_task);
    const int64_t s1 = NowNs();
    ++attempted_;
    ++resolves_;
    CheckResolve(answers);
    if (timeline != nullptr) {
      timeline->AddRoute(r1 - r0);
      timeline->AddResolve(s1 - s0);
      timeline->mode_ops[mode] += 2;
      timeline->mode_ns[mode] += (r1 - r0) + (s1 - s0);
      timeline->MaybeSample();
    }
  }
  SpanLog::SetRecording(false);
}

void Runner::StreamPhase() {
  // Untimed, brute-force checked pairs before and after the timed ones;
  // the first also warm the process up.
  Rng traffic(flags_.seed);
  recent_bags_.assign(64, BagOfWords());
  RunPairs(spec_.check_pairs, nullptr, &traffic);
  const size_t pairs = (OpBudget() + 1) / 2;
  timelines_.emplace_back();
  timelines_.back().Reserve(pairs, pairs);
  routed_.reserve(spec_.check_pairs + pairs + kFinalCheckPairs);
  RunPairs(pairs, &timelines_.back(), &traffic);
  timelines_.back().Finish();
  RunPairs(kFinalCheckPairs, nullptr, &traffic);
  recent_bags_.resize(std::min(recent_bags_.size(), pairs_run_));
}

void Runner::HotPhase() {
  // The clients share one op budget: each claims the next request index
  // until the budget is spent.
  const size_t budget = OpBudget();
  std::atomic<size_t> next{0};
  const int64_t deadline = Deadline();
  timelines_.resize(spec_.clients);
  // Any client may run most of the shared budget.
  for (Timeline& t : timelines_) t.Reserve(budget, 0);
  auto client = [&](size_t c) {
    Rng rng(flags_.seed * 1000003 + c);
    Timeline& timeline = timelines_[c];
    BagOfWords bag;
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= budget) break;
      const int64_t t0 = NowNs();
      if (t0 > deadline) {
        truncated_ = true;
        break;
      }
      const size_t task = rng.UniformInt(hot_tasks_.size());
      const int mode = Recording(i) ? 1 : 0;
      SpanLog::SetRecording(mode == 1);
      SpanLog::SetRequest(i + 1);
      auto ranked = Route(hot_tasks_[task].text, &bag);
      const int64_t t1 = NowNs();
      timeline.AddRoute(t1 - t0);
      timeline.mode_ops[mode] += 1;
      timeline.mode_ns[mode] += t1 - t0;
      ++attempted_;
      // No writes run during this phase, so every answer must equal the
      // checked answer of the warm-up.
      bool same = ranked.ok() && ranked->size() == hot_expected_[task].size();
      for (size_t r = 0; same && r < ranked->size(); ++r) {
        same = (*ranked)[r].worker == hot_expected_[task][r].worker &&
               (*ranked)[r].score == hot_expected_[task][r].score;
      }
      if (!same) {
        ++failed_;
        Fail(ranked.ok() ? "route: answer differs from the checked answer"
                         : "route: " + ranked.status().ToString());
      }
      timeline.MaybeSample();
    }
    SpanLog::SetRecording(false);
    timeline.Finish();
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec_.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
}

void Runner::HotResolves() {
  // Re-dispatched hot tasks: fold-in is served from the cache, so these
  // resolves time the write path, the observer and the live update.
  Rng rng(flags_.seed ^ 0x5E5017EULL);
  timelines_.emplace_back();
  Timeline& timeline = timelines_.back();
  timeline.Reserve(0, spec_.hot_resolves);
  SpanLog::SetRecording(flags_.trace);
  for (size_t i = 0; i < spec_.hot_resolves; ++i) {
    const StreamTask& task = hot_tasks_[rng.UniformInt(hot_tasks_.size())];
    SpanLog::SetRequest(kHotResolveRequestBase + i);
    const int64_t t0 = NowNs();
    auto answers = Resolve(task);
    timeline.AddResolve(NowNs() - t0);
    ++attempted_;
    ++resolves_;
    CheckResolve(answers);
    timeline.MaybeSample();
  }
  SpanLog::SetRecording(false);
  timeline.Finish();
}

template <typename Fn>
void Repeat(const char* name, size_t max_calls, double max_seconds,
            const Fn& fn) {
  const int64_t stop = NowNs() + static_cast<int64_t>(max_seconds * 1e9);
  for (size_t i = 0; i < max_calls; ++i) {
    if (i >= 5 && NowNs() > stop) break;
    ScopedSpan span(name, /*probe=*/true);
    fn(i);
  }
}

void Runner::Probes() {
  if (first_bags_.empty() || routed_.empty()) {
    Fail("probe: no routed task to probe with");
    return;
  }
  SpanLog::SetRecording(true);
  SpanLog::SetRequest(0);
  const std::vector<BagOfWords>& cached =
      spec_.hot ? first_bags_ : recent_bags_;

  // Cold fold-in from the fitted parameters, on the run's first tasks.
  std::vector<Vector> categories;
  int64_t cg_total = 0;
  for (const BagOfWords& bag : first_bags_) {
    FoldInResult r;
    {
      ScopedSpan span("serve.foldin", /*probe=*/true);
      r = folder_->Posterior(bag);
    }
    cg_total += r.cg_iterations;
    folder_->FinalizeCategory(&r);
    categories.push_back(std::move(r.category));
  }
  cg_iterations_mean_ =
      static_cast<double>(cg_total) / static_cast<double>(first_bags_.size());

  const crowdselect::serve::SelectionEngine* engine = live_.tdpm->engine();
  Repeat("serve.project", 2000, 0.2, [&](size_t i) {
    auto r = engine->Project(cached[i % cached.size()]);
    if (!r.ok()) Fail("probe: " + r.status().ToString());
  });
  Repeat("serve.scan", 2000, 0.3, [&](size_t i) {
    auto r = engine->RankByCategory(categories[i % categories.size()], kTopK,
                                    candidates_);
    if (!r.ok()) Fail("probe: " + r.status().ToString());
  });

  // The bytes the scan must read, computed from sizes (candidates x K
  // doubles), and a memcpy of the same byte count for reference.
  const size_t bytes =
      candidates_.size() * spec_.num_categories * sizeof(double);
  scan_bytes_ = static_cast<double>(bytes);
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  volatile char sink = 0;
  Repeat("serve.memcpy", 2000, 0.3, [&](size_t i) {
    src[i % bytes] = static_cast<char>(i);
    std::memcpy(dst.data(), src.data(), bytes);
    sink = sink + dst[(i * 7919) % bytes];
  });

  // Copy-on-write of k rows of the live snapshot (what one resolve's
  // live update publishes).
  auto snapshot = live_.tdpm->CurrentSnapshot();
  std::vector<std::pair<crowdselect::WorkerId, Vector>> rows;
  for (const RankedWorker& r : routed_.back().ranked) {
    rows.emplace_back(r.worker, snapshot->RowCopy(r.worker));
  }
  Repeat("serve.snapshot_cow", 500, 0.3, [&](size_t) {
    auto next = snapshot->WithUpdatedRows(rows);
    if (next == nullptr) Fail("probe: WithUpdatedRows returned nothing");
  });

  // Selection with one client, then with four at once, on cached tasks.
  const crowdselect::CrowdSelector& selector = *live_.tdpm;
  auto select_loop = [&](const char* name, size_t offset) {
    SpanLog::SetRecording(true);
    Repeat(name, 2000, 0.3, [&](size_t i) {
      auto r = selector.SelectTopK(cached[(i + offset) % cached.size()], kTopK,
                                   candidates_);
      if (!r.ok()) Fail("probe: " + r.status().ToString());
    });
    SpanLog::SetRecording(false);
  };
  select_loop("model.select.1client", 0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 4; ++c) {
    threads.emplace_back(select_loop, "model.select.4client", c * 17);
  }
  for (std::thread& t : threads) t.join();
  SpanLog::SetRecording(false);
}

void Runner::Recover() {
  const size_t tasks = base_tasks_ + resolves_;
  const size_t assignments = base_assignments_ + kTopK * resolves_;
  const size_t scored = base_scored_ + kTopK * resolves_;
  auto check_counts = [&](const char* which, const CrowdStore& store) {
    if (store.NumTasks() != tasks || store.NumAssignments() != assignments ||
        store.NumScoredAssignments() != scored) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s store holds %zu tasks, %zu assignments, %zu scored; "
                    "expected %zu, %zu, %zu",
                    which, store.NumTasks(), store.NumAssignments(),
                    store.NumScoredAssignments(), tasks, assignments, scored);
      Fail(buf);
      store_ok_ = false;
    }
  };
  check_counts("live", *live_.engine);
  const std::string dir = live_.dir;
  live_.Close();
  std::vector<float> raw, norm;
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    BracketedTimer timer(&host_);
    auto reopened = CrowdStoreEngine::Open(dir);
    const auto [raw_s, norm_s] = timer.Stop();
    raw.push_back(static_cast<float>(raw_s));
    norm.push_back(static_cast<float>(norm_s));
    if (!reopened.ok()) {
      Fail("reopen: " + reopened.status().ToString());
      store_ok_ = false;
      return;
    }
    check_counts("reopened", **reopened);
    replayed_ = (*reopened)->open_stats().wal_records_applied;
  }
  recover_raw_s_ = Percentile(raw, 0.5);
  recover_norm_s_ = Percentile(norm, 0.5);
}

double Runner::Precision() const {
  if (routed_.empty()) return std::nan("");
  double sum = 0;
  for (const Routed& r : routed_) {
    sum += PrecisionAtK(
        r.ranked,
        TrueTopK(world_.true_skills(), r.proportions, candidates_, kTopK),
        kTopK);
  }
  return sum / static_cast<double>(routed_.size());
}

void Runner::ReportEndToEnd(MetricSet* m) {
  Latencies route, resolve;
  std::vector<float> reference;
  for (size_t c = 0; c < timelines_.size(); ++c) {
    timelines_[c].Collect(&route, &resolve);
    if (c < spec_.clients) {
      reference.insert(reference.end(), timelines_[c].reference_us().begin(),
                       timelines_[c].reference_us().end());
    }
  }
  // Completed ops over the time each client spent in them: every client
  // of a closed loop is always in a request, so this is ops over the wall
  // time of the timed requests, without the benchmark's own work between
  // them. hot_route counts its routes only.
  auto seconds = [](const std::vector<float>& v) {
    double s = 0;
    for (float x : v) s += x;
    return s * 1e-6;
  };
  const double clients = static_cast<double>(spec_.clients);
  const double tput_raw =
      spec_.hot ? clients * static_cast<double>(route.raw.size()) /
                      seconds(route.raw)
                : static_cast<double>(route.raw.size() + resolve.raw.size()) /
                      (seconds(route.raw) + seconds(resolve.raw));
  const double tput_norm =
      spec_.hot ? clients * static_cast<double>(route.norm.size()) /
                      seconds(route.norm)
                : static_cast<double>(route.norm.size() + resolve.norm.size()) /
                      (seconds(route.norm) + seconds(resolve.norm));
  const double reference_us = SpeedNormalizer(reference).MedianReferenceUs();
  std::vector<float> setup_norm(setup_norm_s_.begin(), setup_norm_s_.end());
  std::vector<float> setup_raw(setup_raw_s_.begin(), setup_raw_s_.end());

  m->Add("route_p50_us", Percentile(route.norm, 0.50), "us");
  m->Add("route_p99_us", route.P99(true), "us");
  m->Add("resolve_p50_us", Percentile(resolve.norm, 0.50), "us");
  m->Add("resolve_p99_us", resolve.P99(true), "us");
  m->Add("throughput_ops_s", tput_norm, "ops/s");
  m->Add("select_precision", Precision(), "ratio");
  m->Add("setup_s", Percentile(setup_norm, 0.5), "s");
  m->Add("recover_s", recover_norm_s_, "s");
  m->Add("peak_rss_mb", peak_rss_mb_, "MB");

  std::printf("# %s seed %llu: %zu timed routes, %zu timed resolves, %zu "
              "routed tasks checked for precision, %zu set-ups\n",
              spec_.name.c_str(), static_cast<unsigned long long>(flags_.seed),
              route.raw.size(), resolve.raw.size(), routed_.size(),
              setup_raw_s_.size());
  std::printf("# times are scaled to a host where the reference mix takes "
              "%.0f us; here its median was %.1f us\n",
              HostReference::kNominalUs, reference_us);
  std::printf("# raw (unscaled): route_p50_us=%.3f route_p99_us=%.3f "
              "resolve_p50_us=%.3f resolve_p99_us=%.3f throughput_ops_s=%.1f "
              "setup_s=%.4f recover_s=%.4f\n",
              Percentile(route.raw, 0.50), route.P99(false),
              Percentile(resolve.raw, 0.50), resolve.P99(false),
              tput_raw, Percentile(setup_raw, 0.5), recover_raw_s_);
}

void Runner::ReportLayers(MetricSet* m) {
  std::map<std::string, SpanStats> spans = SpanLog::Stats();
  auto p50 = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? std::nan("")
                             : Percentile(it->second.durations_us, 0.5);
  };
  std::vector<float> writes = spans["crowddb.assign"].durations_us;
  const std::vector<float>& feedback = spans["crowddb.feedback"].durations_us;
  writes.insert(writes.end(), feedback.begin(), feedback.end());
  // Throughput with recording on and off, from the same interleaved
  // stream: ops over the busy time of each half.
  uint64_t mode_ops[2] = {0, 0};
  int64_t mode_ns[2] = {0, 0};
  for (const Timeline& t : timelines_) {
    for (int mode = 0; mode < 2; ++mode) {
      mode_ops[mode] += t.mode_ops[mode];
      mode_ns[mode] += t.mode_ns[mode];
    }
  }
  const double tput_off =
      static_cast<double>(mode_ops[0]) / Seconds(std::max<int64_t>(mode_ns[0], 1));
  const double tput_on =
      static_cast<double>(mode_ops[1]) / Seconds(std::max<int64_t>(mode_ns[1], 1));
  const double scan_us = p50("serve.scan");
  const double scan_gbps = scan_bytes_ / (scan_us * 1e3);
  const double memcpy_gbps = scan_bytes_ / (p50("serve.memcpy") * 1e3);

  m->Add("crowddb.pool_snapshot_us", p50("crowddb.pool_snapshot"), "us");
  m->Add("crowddb.add_task_us", p50("crowddb.add_task"), "us");
  m->Add("crowddb.write_us", Percentile(writes, 0.5), "us");
  m->Add("crowddb.wal_bytes_per_resolve",
         static_cast<double>(wal_bytes_) / static_cast<double>(resolves_), "B");
  m->Add("crowddb.replay_records_per_s",
         static_cast<double>(replayed_) / recover_raw_s_, "1/s");
  m->Add("model.train_s", p50("model.train") * 1e-6, "s");
  m->Add("model.select_us", p50("model.select"), "us");
  m->Add("model.select_contention",
         p50("model.select.4client") / p50("model.select.1client"), "ratio");
  m->Add("model.observe_us", p50("model.observe"), "us");
  m->Add("serve.foldin_us", p50("serve.foldin"), "us");
  m->Add("serve.cg_iterations", cg_iterations_mean_, "count");
  m->Add("serve.cache_hit_ratio",
         static_cast<double>(cache_hits_) /
             static_cast<double>(std::max<uint64_t>(cache_lookups_, 1)),
         "ratio");
  m->Add("serve.cache_lookups", static_cast<double>(cache_lookups_), "count");
  m->Add("serve.project_us", p50("serve.project"), "us");
  m->Add("serve.scan_us", scan_us, "us");
  m->Add("serve.scan_gbps", scan_gbps, "GB/s");
  m->Add("serve.scan_bw_ratio", scan_gbps / memcpy_gbps, "ratio");
  m->Add("serve.snapshot_cow_us", p50("serve.snapshot_cow"), "us");
  m->Add("serve.quality_observe_us", p50("serve.quality_observe"), "us");
  m->Add("text.tokenize_us", p50("text.tokenize"), "us");
  m->Add("trace.overhead_pct", (1.0 - tput_on / tput_off) * 100.0, "%");

  std::printf("# traced %s seed %llu: spans per name (probe = timed after "
              "the request stream; times are raw)\n",
              spec_.name.c_str(), static_cast<unsigned long long>(flags_.seed));
  std::printf("%-28s %5s %10s %12s %12s %12s\n", "span", "probe", "count",
              "busy_ms", "self_ms", "p50_us");
  for (const auto& [name, s] : spans) {
    std::printf("%-28s %5s %10llu %12.3f %12.3f %12.3f\n", name.c_str(),
                s.probe ? "yes" : "no", static_cast<unsigned long long>(s.count),
                static_cast<double>(s.busy_ns) * 1e-6,
                static_cast<double>(s.self_ns) * 1e-6,
                Percentile(s.durations_us, 0.5));
  }
  std::printf("# scan bytes computed from sizes: %.0f B (%zu candidates x "
              "K=%zu x 8 B); memcpy of the same count: %.3f GB/s\n",
              scan_bytes_, candidates_.size(), spec_.num_categories,
              memcpy_gbps);
  std::printf("# cache: %llu hits of %llu lookups; recording on: %llu ops, "
              "off: %llu ops\n",
              static_cast<unsigned long long>(cache_hits_),
              static_cast<unsigned long long>(cache_lookups_),
              static_cast<unsigned long long>(mode_ops[1]),
              static_cast<unsigned long long>(mode_ops[0]));
  std::error_code ec;
  fs::create_directories(flags_.trace_dir, ec);
  // One file per workload, so repeated runs do not pile up dumps.
  const std::string path =
      flags_.trace_dir + "/" + spec_.name + ".trace.json";
  std::string error;
  if (SpanLog::WriteChromeTrace(path, &error)) {
    std::printf("# spans written to %s (%llu over the per-thread cap not "
                "written)\n",
                path.c_str(),
                static_cast<unsigned long long>(SpanLog::DroppedSpans()));
  } else {
    Fail("span dump: " + error);
  }
}

void Runner::Report() {
  MetricSet m;
  if (flags_.trace) {
    ReportLayers(&m);
  } else {
    ReportEndToEnd(&m);
  }
  m.PrintTable();
  if (!flags_.trace) {
    std::printf("%-32s %16.6f ratio (%llu of %llu ops)\n", "failed_ratio",
                static_cast<double>(failed_) /
                    static_cast<double>(std::max<uint64_t>(attempted_, 1)),
                static_cast<unsigned long long>(failed_.load()),
                static_cast<unsigned long long>(attempted_.load()));
  }
  for (const std::string& name : m.NonFinite()) {
    Fail("metric " + name + " has no value");
  }
  if (truncated_) Fail("op budget not reached before the deadline");
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const bool correct = failed_ == 0 && failures_.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted_.load()),
              static_cast<unsigned long long>(failed_.load()), m.Json().c_str());
  std::fflush(stdout);
}

int Runner::Run() {
  if (spec_.hot) {
    Rng rng(flags_.seed ^ 0x407ULL);
    for (size_t i = 0; i < spec_.hot_set; ++i) {
      hot_tasks_.push_back(world_.NextUnseen(&rng));
    }
  }
  const int64_t t_setup = NowNs();
  if (!SetUp()) return 1;
  const int64_t t_stream = NowNs();
  const crowdselect::serve::FoldInCache* cache = live_.tdpm->engine()->cache();
  const uint64_t hits0 = cache->hits(), misses0 = cache->misses();
  const std::string wal = live_.dir + "/" + CrowdStoreEngine::kWalFile;
  const uint64_t wal0 = FileSize(wal);
  if (spec_.hot) {
    // Check every hot answer once, against brute force.
    for (size_t i = 0; i < hot_tasks_.size(); ++i) {
      BagOfWords bag = BagOfWords::FromTextFrozen(hot_tasks_[i].text,
                                                  tokenizer_, vocab_);
      CheckRoute(hot_expected_[i], bag, /*brute_force=*/true);
      routed_.push_back({hot_expected_[i], hot_tasks_[i].proportions});
      first_bags_.push_back(std::move(bag));
    }
    HotPhase();
    HotResolves();
  } else {
    StreamPhase();
  }
  cache_hits_ = cache->hits() - hits0;
  cache_lookups_ = cache_hits_ + cache->misses() - misses0;
  wal_bytes_ = FileSize(wal) - wal0;
  const int64_t t_probes = NowNs();
  if (flags_.trace) Probes();
  const int64_t t_recover = NowNs();
  Recover();
  // Before the report's own bookkeeping, which is not the program's.
  peak_rss_mb_ = PeakRssMb();
  const int64_t t_report = NowNs();
  Report();
  std::fprintf(stderr,
               "perfbench: wall s: set-up %.1f, requests %.1f, probes %.1f, "
               "recovery %.1f, report %.1f\n",
               Seconds(t_stream - t_setup), Seconds(t_probes - t_stream),
               Seconds(t_recover - t_probes), Seconds(t_report - t_recover),
               Seconds(NowNs() - t_report));
  return failed_ == 0 && failures_.empty() ? 0 : 1;
}

/// Removes the run's store directories however the run ends.
class RemoveOnExit {
 public:
  explicit RemoveOnExit(std::string dir) : dir_(std::move(dir)) {}
  ~RemoveOnExit() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;

 private:
  std::string dir_;
};

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(flags.workload, flags.size, &spec)) {
    std::fprintf(stderr, "unknown workload %s (size %s)\n",
                 flags.workload.c_str(), flags.size.c_str());
    return 2;
  }
  Fault fault = Fault::kNone;
  if (flags.fault == "swap_ranks") {
    fault = Fault::kSwapRanks;
  } else if (flags.fault == "drop_feedback") {
    fault = Fault::kDropFeedback;
  } else if (flags.fault != "none") {
    std::fprintf(stderr, "unknown fault %s\n", flags.fault.c_str());
    return 2;
  }
  auto world = World::Build(spec);
  if (!world.ok()) {
    std::fprintf(stderr, "world: %s\n", world.status().ToString().c_str());
    return 1;
  }
  Runner runner(flags, spec, **world, fault);
  RemoveOnExit cleanup(runner.RunDir());
  return runner.Run();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
