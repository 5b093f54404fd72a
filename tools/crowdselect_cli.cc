// crowdselect command-line tool: generate / inspect / train / select /
// evaluate, end to end, over CSV datasets (see crowddb/import_export.h).
//
//   crowdselect_cli generate --platform quora|yahoo|stack|hetero --out DIR
//                            [--seed N] [--types N] [--spammers F] ...
//   crowdselect_cli stats    --data DIR [--thresholds 1,2,3]
//   crowdselect_cli train    --data DIR --model FILE [--k N] [--iters N]
//   crowdselect_cli select   --data DIR --model FILE|ID --task "TEXT" [--top N]
//   crowdselect_cli explain  --data DIR --model FILE|ID --task "TEXT" [--top N]
//   crowdselect_cli evaluate --data DIR [--k N] [--tests N] [--threshold N]
//                            [--models tdpm,router]
//   crowdselect_cli simulate --data DIR [--k N] [--iters N] [--tasks N]
//                            [--top N] [--seed N] [--slo-window N]
//   crowdselect_cli ingest   --data DIR --db-dir DIR [--shards N]
//   crowdselect_cli dbinfo   --db-dir DIR
//   crowdselect_cli debug-dump [--workers N] [--queries N] [--out FILE]
//
// `ingest` bulk-loads a CSV dataset into a durable storage-engine
// directory (docs/storage.md: CHECKPOINT + wal.log + MANIFEST); `dbinfo`
// prints what Open() recovered, including per-shard record counts.
// `simulate --db-dir DIR` runs the blue path against that engine, so every
// simulated task / answer / feedback is WAL-logged and crash-recoverable.
//
// Every command also accepts --stats-out FILE (observability snapshot as
// JSON, see obs/stats_reporter.h), --trace-out FILE (Chrome trace_event
// JSON loadable in chrome://tracing or Perfetto), and --prom-out FILE
// (Prometheus text exposition, see docs/observability.md). The serving
// commands (select, explain, simulate) accept --serve-threads N and
// --foldin-cache N, and simulate accepts --live-updates 1 (see
// serve/selection_engine.h). `explain` (or `select --explain-out FILE`)
// attaches a serve::QueryStats to the query and renders the EXPLAIN plan:
// snapshot version, fold-in cache hit/miss, Newton iterations, per-stage
// latencies, and the per-candidate score decomposition.
//
// Crowd models (docs/models.md): select/explain accept --model as either
// a trained TDPM snapshot FILE (the classic path) or a model ID ("tdpm"
// or "router"), in which case the model is trained in-process from
// --data before serving and the EXPLAIN payload carries the serving
// model id plus the router's dispatch decision; simulate takes an ID.
// Any other --model that names no readable file fails, naming the id.
// `generate --platform hetero` produces the heterogeneous workload (Zipf
// task-type mix, specialist / spammer / adversarial worker profiles) the
// router is built for, and `evaluate --models tdpm,router` compares
// crowd models head to head.
//
// Black-box diagnostics (docs/observability.md): every command accepts
// --crash-dump-dir DIR (install the async-signal-safe crash handler),
// --flightrec-out FILE (dump the flight recorder on exit), --profile-out
// FILE (SIGPROF sampling profiler, collapsed-stack output), --watchdog-ms
// N (stall watchdog tick), and --slo-rotate-ms N (background SLO window
// rotation). `debug-dump` runs a synthetic serve workload and writes the
// flight-recorder dump on demand — the same JSONL format a crash dump
// uses.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <unordered_map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crowdselect/crowdselect.h"
#include "crowddb/jsonl.h"
#include "obs/alerts.h"
#include "obs/crash_handler.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"
#include "serve/quality_monitor.h"
#include "util/rng.h"
#include "util/string_util.h"

using namespace crowdselect;

namespace {

// Names the flag and exits 2, as a usage error does: a malformed or
// missing value must never run the command on a default.
[[noreturn]] void BadFlag(const std::string& key, const std::string& problem) {
  std::fprintf(stderr, "error: --%s %s\n", key.c_str(), problem.c_str());
  std::exit(2);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  const char* Get(const std::string& key, const char* fallback = nullptr) const {
    auto it = flags.find(key);
    if (it != flags.end()) return it->second.c_str();
    return fallback;
  }
  long GetInt(const std::string& key, long fallback) const {
    const char* v = Get(key);
    long out = fallback;
    if (v != nullptr && !ParseWhole(v, &out)) {
      BadFlag(key, "expects an integer, got '" + std::string(v) + "'");
    }
    return out;
  }
  /// A count or size: a negative value exits 2 instead of wrapping
  /// around in a size_t.
  size_t GetCount(const std::string& key, size_t fallback) const {
    const long v = GetInt(key, static_cast<long>(fallback));
    if (v < 0) {
      BadFlag(key, "expects a count >= 0, got '" + std::to_string(v) + "'");
    }
    return static_cast<size_t>(v);
  }
  double GetDouble(const std::string& key, double fallback) const {
    const char* v = Get(key);
    double out = fallback;
    if (v != nullptr && !ParseWhole(v, &out)) {
      BadFlag(key, "expects a number, got '" + std::string(v) + "'");
    }
    return out;
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: crowdselect_cli "
               "<generate|stats|train|select|explain|evaluate|simulate"
               "|ingest|dbinfo> [--flag value]...\n"
               "  generate --platform quora|yahoo|stack|hetero --out DIR "
               "[--seed N]\n"
               "           hetero also takes --types N --workers N --tasks N "
               "--answers N\n"
               "           --specialists F --spammers F --adversarial F "
               "--type-zipf F\n"
               "  stats    --data DIR [--thresholds 1,3,5]\n"
               "  train    --data DIR --model FILE [--k N] [--iters N]\n"
               "  select   --data DIR --model FILE|ID --task TEXT [--top N]\n"
               "  explain  --data DIR --model FILE|ID --task TEXT [--top N]\n"
               "           (IDs: tdpm, router — trained in-process;\n"
               "            --clusters N router members)\n"
               "  evaluate --data DIR [--k N] [--tests N] [--threshold N]\n"
               "           [--models tdpm,router compare crowd models "
               "instead of\n"
               "            the VSM/TSPM/DRM/TDPM baseline table]\n"
               "  simulate --data DIR | --db-dir DIR [--k N] [--iters N] "
               "[--tasks N] [--top N] [--seed N]\n"
               "  ingest   --data DIR --db-dir DIR [--shards N]\n"
               "  dbinfo   --db-dir DIR\n"
               "  debug-dump [--workers N] [--k N] [--queries N] [--top N] "
               "[--out FILE]\n"
               "  report   --timeseries FILE [--quality FILE] "
               "[--format md|json] [--out FILE]\n"
               "common flags:\n"
               "  --stats-out FILE   write a metrics/span snapshot as JSON\n"
               "  --trace-out FILE   write spans as Chrome trace_event JSON\n"
               "  --prom-out FILE    write metrics as Prometheus text "
               "exposition\n"
               "  --timeseries-out FILE  write sampled metric history as "
               "JSONL\n"
               "  --alert-rules FILE     load declarative alert rules "
               "(docs/observability.md)\n"
               "serving flags (select, explain, simulate):\n"
               "  --serve-threads N  scan threads for selection (0 = all cores)\n"
               "  --foldin-cache N   fold-in cache entries (0 disables)\n"
               "  --force-scalar 1   pin the scalar score kernel (also:\n"
               "                     CROWDSELECT_FORCE_SCALAR=1 env)\n"
               "  --explain-out FILE select/explain: write the query's "
               "EXPLAIN payload as JSON\n"
               "  --live-updates 1   simulate only: incremental skill refresh\n"
               "                     after each resolved task\n"
               "  --slo-window N     simulate only: rotate SLO latency "
               "windows every N tasks\n"
               "quality monitoring (simulate, evaluate):\n"
               "  --quality-out FILE  simulate: online shadow-evaluation "
               "report (flat JSON);\n"
               "                      evaluate: per-model quality JSONL\n"
               "  --quality-window N  simulate: tasks per quality rotation "
               "window (default 50)\n"
               "  --drift-after N     simulate: after N tasks, flip a "
               "fraction of workers\n"
               "  --drift-workers F   ...to near-zero feedback (spammer "
               "onset, default 0.3)\n"
               "  --drift-z Z         |z| above which a worker is flagged "
               "as drifting (default 3)\n"
               "storage flags (ingest, dbinfo, simulate --db-dir):\n"
               "  --shards N          in-memory shards (default 8)\n"
               "  --fsync 1           fsync the WAL after every append\n"
               "  --auto-checkpoint N checkpoint every N mutations\n"
               "diagnostics flags (every command):\n"
               "  --crash-dump-dir DIR   install the crash handler; fatal\n"
               "                         signals write DIR/crash_<pid>.jsonl\n"
               "  --flightrec-out FILE   dump the flight recorder on exit\n"
               "  --profile-out FILE     sampling CPU profiler, collapsed\n"
               "                         stacks (--profile-interval-us N)\n"
               "  --watchdog-ms N        stall watchdog, tick every N ms\n"
               "  --select-deadline-ms N watchdog deadline per select "
               "(default 1000)\n"
               "  --scan-parallel-min N  parallel-scan candidate threshold\n"
               "  --slo-rotate-ms N      background SLO window rotation\n"
               "  --crash-after-tasks N  simulate only: abort() after N "
               "tasks (crash-path testing)\n");
  return 2;
}

serve::ServeOptions ServeOptionsFromArgs(const Args& args) {
  serve::ServeOptions serve_options;
  serve_options.num_threads = args.GetCount("serve-threads", 0);
  serve_options.foldin_cache_capacity = args.GetCount("foldin-cache", 256);
  serve_options.min_parallel_candidates = args.GetCount(
      "scan-parallel-min", serve_options.min_parallel_candidates);
  serve_options.scan_block =
      args.GetCount("scan-block", serve_options.scan_block);
  serve_options.select_deadline_ms = static_cast<double>(
      args.GetInt("select-deadline-ms",
                  static_cast<long>(serve_options.select_deadline_ms)));
  serve_options.force_scalar_kernel = args.GetInt("force-scalar", 0) != 0;
  return serve_options;
}

Result<Platform> ParsePlatform(const std::string& name) {
  if (name == "quora") return Platform::kQuora;
  if (name == "yahoo") return Platform::kYahooAnswer;
  if (name == "stack") return Platform::kStackOverflow;
  return Status::InvalidArgument("unknown platform: " + name);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Black-box diagnostics (docs/observability.md): crash handler, flight
// recorder dumps, stall watchdog, sampling profiler, SLO rotation.
// ---------------------------------------------------------------------------

/// One-line reconstruction of the invocation, embedded in crash dumps so
/// a postmortem shows what the process was asked to do.
std::string ConfigSummary(const Args& args) {
  std::string out = args.command;
  for (const auto& [key, value] : args.flags) {
    out += " --" + key + " " + value;
  }
  return out;
}

std::string BuildInfoString() {
  std::string info = "crowdselect_cli";
#ifdef NDEBUG
  info += " (release)";
#else
  info += " (debug)";
#endif
  return info;
}

/// Honors the diagnostics flags before the command runs. Misconfiguration
/// (bad profiler interval, unwritable crash-dump dir) fails loudly here
/// rather than being discovered during a postmortem.
Status SetupDiagnostics(const Args& args) {
  if (const char* dir = args.Get("crash-dump-dir")) {
    obs::CrashHandlerOptions options;
    options.dump_dir = dir;
    options.build_info = BuildInfoString();
    options.config = ConfigSummary(args);
    CS_RETURN_NOT_OK(obs::InstallCrashHandler(options));
  }
  if (const long tick_ms = args.GetInt("watchdog-ms", 0); tick_ms > 0) {
    obs::Watchdog::Global().Start(static_cast<double>(tick_ms));
  }
  if (const long rotate_ms = args.GetInt("slo-rotate-ms", 0); rotate_ms > 0) {
    obs::SloTracker::Global().StartBackgroundRotation(
        static_cast<double>(rotate_ms) / 1e3);
  }
  if (args.Get("profile-out") != nullptr) {
    CS_RETURN_NOT_OK(obs::SamplingProfiler::Global().Start(
        static_cast<double>(args.GetInt("profile-interval-us", 1000))));
  }
  if (const char* rules = args.Get("alert-rules")) {
    // A bad rule file fails the command up front — a silently ignored
    // alert is worse than no alert.
    CS_RETURN_NOT_OK(obs::AlertEngine::Global().LoadRulesFile(rules));
    std::fprintf(stderr, "loaded %zu alert rule(s) from %s\n",
                 obs::AlertEngine::Global().NumRules(), rules);
  }
  return Status::OK();
}

/// Flushes diagnostics after the command ran. Like the observability
/// outputs, failures here are reported but never change the exit code.
void FinishDiagnostics(const Args& args) {
  if (const char* path = args.Get("profile-out")) {
    obs::SamplingProfiler& profiler = obs::SamplingProfiler::Global();
    (void)profiler.Stop();  // Not running is fine: Start() may have failed.
    const Status st = profiler.WriteCollapsedFile(path);
    if (st.ok()) {
      std::fprintf(stderr, "profile written to %s (%llu samples, %llu "
                   "dropped)\n", path,
                   static_cast<unsigned long long>(profiler.samples()),
                   static_cast<unsigned long long>(profiler.dropped()));
    } else {
      std::fprintf(stderr, "error writing --profile-out: %s\n",
                   st.ToString().c_str());
    }
  }
  if (const char* path = args.Get("flightrec-out")) {
    const Status st =
        obs::FlightRecorder::Global().WriteJsonlFile(path, "cli_exit");
    if (st.ok()) {
      std::fprintf(stderr, "flight-recorder dump written to %s\n", path);
    } else {
      std::fprintf(stderr, "error writing --flightrec-out: %s\n",
                   st.ToString().c_str());
    }
  }
  obs::Watchdog::Global().Stop();
  obs::SloTracker::Global().StopBackgroundRotation();
}

/// Builds a ModelConfig for id-created models from the serving and model
/// flags (shared by select, explain, simulate, evaluate).
ModelConfig ModelConfigFromArgs(const Args& args) {
  ModelConfig config;
  config.tdpm.num_categories = args.GetCount("k", 10);
  config.tdpm.max_em_iterations = static_cast<int>(args.GetCount("iters", 30));
  config.tdpm.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  config.tdpm.num_threads = 0;
  config.serve = ServeOptionsFromArgs(args);
  config.router_num_clusters = args.GetCount("clusters", 3);
  return config;
}

int CmdGenerate(const Args& args) {
  const char* platform_name = args.Get("platform");
  const char* out = args.Get("out");
  if (!platform_name || !out) return Usage();
  if (std::string(platform_name) == "hetero") {
    HeterogeneousConfig config;
    config.seed = static_cast<uint64_t>(args.GetInt("seed", 0xEDB7));
    config.num_types = args.GetCount("types", config.num_types);
    config.num_workers = args.GetCount("workers", config.num_workers);
    config.num_tasks = args.GetCount("tasks", config.num_tasks);
    config.answers_per_task =
        args.GetCount("answers", config.answers_per_task);
    config.specialist_fraction =
        args.GetDouble("specialists", config.specialist_fraction);
    config.spammer_fraction =
        args.GetDouble("spammers", config.spammer_fraction);
    config.adversarial_fraction =
        args.GetDouble("adversarial", config.adversarial_fraction);
    config.type_zipf_exponent =
        args.GetDouble("type-zipf", config.type_zipf_exponent);
    auto data = GenerateHeterogeneousDataset(config);
    if (!data.ok()) return Fail(data.status());
    Status st = ExportDatabaseCsvFiles(data->dataset.db, out);
    if (!st.ok()) return Fail(st);
    std::map<WorkerProfile, size_t> mix;
    for (WorkerProfile p : data->worker_profile) ++mix[p];
    std::printf(
        "wrote %s/{workers,tasks,assignments}.csv: heterogeneous workload, "
        "%zu types, %zu workers (%zu specialist / %zu generalist / "
        "%zu spammer / %zu adversarial), %zu tasks\n",
        out, config.num_types, data->dataset.db.NumWorkers(),
        mix[WorkerProfile::kSpecialist], mix[WorkerProfile::kGeneralist],
        mix[WorkerProfile::kSpammer], mix[WorkerProfile::kAdversarial],
        data->dataset.db.NumTasks());
    return 0;
  }
  // A fixed platform's world has its own shape, so a shape flag would be
  // silently ignored.
  for (const char* flag : {"types", "workers", "tasks", "answers",
                           "specialists", "spammers", "adversarial",
                           "type-zipf"}) {
    if (args.Get(flag) != nullptr) {
      BadFlag(flag, "is read only by --platform hetero");
    }
  }
  auto platform = ParsePlatform(platform_name);
  if (!platform.ok()) return Fail(platform.status());
  auto dataset =
      GeneratePlatformDataset(*platform, args.GetInt("seed", 0xEDB7));
  if (!dataset.ok()) return Fail(dataset.status());
  Status st = ExportDatabaseCsvFiles(dataset->db, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s/{workers,tasks,assignments}.csv: %zu workers, "
              "%zu tasks, %zu scored answers\n",
              out, dataset->db.NumWorkers(), dataset->db.NumTasks(),
              dataset->db.NumScoredAssignments());
  return 0;
}

int CmdStats(const Args& args) {
  const char* data = args.Get("data");
  if (!data) return Usage();
  std::vector<size_t> thresholds = {1, 2, 3, 5, 8, 12};
  if (const char* t = args.Get("thresholds")) {
    thresholds.clear();
    for (const auto& piece : SplitAny(t, ",")) {
      size_t threshold = 0;
      if (!ParseWhole(piece, &threshold)) {
        BadFlag("thresholds", "expects comma-separated counts, got '" +
                                  std::string(t) + "'");
      }
      thresholds.push_back(threshold);
    }
  }
  auto db = ImportDatabaseCsvFiles(data);
  if (!db.ok()) return Fail(db.status());
  TableReporter table("Crowd statistics");
  table.SetHeader({"Threshold", "GroupSize", "TaskCoverage"});
  for (const GroupStats& s : GroupSweep(*db, thresholds)) {
    table.AddRow({std::to_string(s.threshold), std::to_string(s.size),
                  TableReporter::Cell(s.coverage)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdTrain(const Args& args) {
  const char* data = args.Get("data");
  const char* model_path = args.Get("model");
  if (!data || !model_path) return Usage();
  auto db = ImportDatabaseCsvFiles(data);
  if (!db.ok()) return Fail(db.status());

  TdpmOptions options;
  options.num_categories = args.GetCount("k", 10);
  options.max_em_iterations = static_cast<int>(args.GetCount("iters", 30));
  options.num_threads = 0;
  TdpmSelector selector(options);
  Timer timer;
  Status st = selector.Train(*db);
  if (!st.ok()) return Fail(st);

  TdpmModelSnapshot snapshot;
  snapshot.params = selector.fit().params;
  snapshot.workers = selector.fit().state.workers;
  st = snapshot.SaveToFile(model_path);
  if (!st.ok()) return Fail(st);
  std::printf("trained TDPM (K=%zu) on %zu tasks in %.2fs; ELBO %.1f -> "
              "%.1f over %d iterations; model saved to %s\n",
              options.num_categories, db->NumTasks(), timer.ElapsedSeconds(),
              selector.fit().elbo_history.front(),
              selector.fit().elbo_history.back(), selector.fit().iterations,
              model_path);
  return 0;
}

/// Shared setup of the serving commands (select, explain): data + model
/// loaded, task tokenized against the training vocabulary, and a
/// candidate pool assembled from the online workers. Two serving paths:
/// `model` is set when --model named a model id (trained in-process),
/// `engine` when it named a TDPM snapshot file (classic path).
struct ServeContext {
  CrowdDatabase db;
  std::unique_ptr<serve::SelectionEngine> engine;
  std::unique_ptr<CrowdModel> model;
  BagOfWords bag;
  std::vector<WorkerId> candidates;
  std::string task_text;
};

Result<ServeContext> MakeServeContext(const Args& args) {
  const char* data = args.Get("data");
  const char* model_path = args.Get("model");
  const char* task_text = args.Get("task");
  if (!data || !model_path || !task_text) {
    return Status::InvalidArgument(
        "select/explain need --data, --model, and --task");
  }
  CS_ASSIGN_OR_RETURN(CrowdDatabase db, ImportDatabaseCsvFiles(data));

  Tokenizer tokenizer{TokenizerOptions{.remove_stopwords = true}};
  ServeContext ctx;
  ctx.task_text = task_text;
  ctx.bag = BagOfWords::FromTextFrozen(task_text, tokenizer, db.vocabulary());
  if (ctx.bag.empty()) {
    std::fprintf(stderr,
                 "warning: no task term matched the training vocabulary; "
                 "selection falls back to the prior\n");
  }

  if (IsCrowdModelId(model_path)) {
    // Model id: build and train the model in-process from --data.
    CS_ASSIGN_OR_RETURN(ctx.model,
                        CreateCrowdModel(model_path, ModelConfigFromArgs(args)));
    CS_RETURN_NOT_OK(ctx.model->Train(db));
    ctx.candidates = db.OnlineWorkers();
    ctx.db = std::move(db);
    return ctx;
  }
  if (!std::ifstream(model_path).good()) {
    return Status::NotFound(StringPrintf(
        "--model \"%s\" is neither a crowd model id (router, tdpm) nor a "
        "readable model file",
        model_path));
  }

  CS_ASSIGN_OR_RETURN(TdpmModelSnapshot snapshot,
                      TdpmModelSnapshot::LoadFromFile(model_path));

  TdpmOptions options;
  options.num_categories = snapshot.params.num_categories();
  CS_ASSIGN_OR_RETURN(TaskFolder folder,
                      TaskFolder::Create(snapshot.params, options));

  // Serve through the engine: snapshot the loaded worker posteriors and
  // fold the task in through the cache.
  ctx.engine =
      std::make_unique<serve::SelectionEngine>(ServeOptionsFromArgs(args));
  ctx.engine->SetFolder(std::move(folder));
  ctx.engine->PublishSnapshot(
      serve::SkillMatrixSnapshot::FromPosteriors(snapshot.workers));
  for (WorkerId w : db.OnlineWorkers()) {
    if (w < snapshot.workers.size()) ctx.candidates.push_back(w);
  }
  ctx.db = std::move(db);
  return ctx;
}

/// One serving query through whichever path the context holds.
Result<std::vector<RankedWorker>> ServeQuery(const ServeContext& ctx,
                                             size_t top,
                                             serve::QueryStats* stats) {
  if (ctx.model != nullptr) {
    return ctx.model->SelectTopKExplained(ctx.bag, top, ctx.candidates, stats);
  }
  return ctx.engine->SelectTopK(ctx.bag, top, ctx.candidates,
                                /*rng=*/nullptr, stats);
}

/// Honors --explain-out: dumps the query's EXPLAIN payload as JSON.
/// Diagnostics only — failures are reported but do not fail the command.
void WriteExplainJson(const Args& args, const serve::QueryStats& stats) {
  const char* path = args.Get("explain-out");
  if (path == nullptr) return;
  std::ofstream out(path, std::ios::trunc);
  out << stats.ToJson() << "\n";
  if (out.good()) {
    std::fprintf(stderr, "explain payload written to %s\n", path);
  } else {
    std::fprintf(stderr, "error writing --explain-out %s\n", path);
  }
}

int CmdSelect(const Args& args) {
  const size_t top = args.GetCount("top", 3);
  auto ctx = MakeServeContext(args);
  if (!ctx.ok()) return Fail(ctx.status());
  // Attach QueryStats only when asked: the ranking is identical either
  // way, but stats widen the scan by one rank to compute the cutoff.
  const bool want_stats = args.Get("explain-out") != nullptr;
  serve::QueryStats stats;
  auto ranked = ServeQuery(*ctx, top, want_stats ? &stats : nullptr);
  if (!ranked.ok()) return Fail(ranked.status());
  std::printf("task: %s\n", ctx->task_text.c_str());
  for (const RankedWorker& rw : *ranked) {
    std::printf("  %-24s score %.3f\n",
                ctx->db.GetWorker(rw.worker).value()->handle.c_str(),
                rw.score);
  }
  if (want_stats) WriteExplainJson(args, stats);
  return 0;
}

int CmdExplain(const Args& args) {
  const size_t top = args.GetCount("top", 3);
  auto ctx = MakeServeContext(args);
  if (!ctx.ok()) return Fail(ctx.status());
  serve::QueryStats stats;
  auto ranked = ServeQuery(*ctx, top, &stats);
  if (!ranked.ok()) return Fail(ranked.status());
  std::printf("task: %s\n", ctx->task_text.c_str());
  std::fputs(stats.ToText().c_str(), stdout);
  WriteExplainJson(args, stats);
  return 0;
}

int CmdEvaluate(const Args& args) {
  const char* data = args.Get("data");
  if (!data) return Usage();
  const size_t threshold = args.GetCount("threshold", 1);
  const size_t num_tests = args.GetCount("tests", 100);
  const size_t k = args.GetCount("k", 10);
  auto db = ImportDatabaseCsvFiles(data);
  if (!db.ok()) return Fail(db.status());

  // CSV datasets do not carry ground truth, so evaluation defines the
  // right worker as the best-scored answerer of each held-out task —
  // exactly the paper's §7.2.2 definition.
  // Rebuild a SyntheticDataset-like split directly from the database.
  const WorkerGroup group = MakeGroup(*db, threshold, "group");

  // Manual split: sample resolved tasks with >= 3 in-group answerers.
  SyntheticDataset shim;
  shim.db = *db;
  shim.world.assignment.resize(db->NumTasks());
  shim.feedback.resize(db->NumTasks());
  for (const auto& a : db->assignments()) {
    if (!a.has_score) continue;
    shim.world.assignment[a.task].push_back(a.worker);
    shim.feedback[a.task].push_back(a.score);
  }
  SplitOptions split_options;
  split_options.num_test_tasks = num_tests;
  auto split = MakeSplit(shim, group, split_options);
  if (!split.ok()) return Fail(split.status());

  std::vector<SelectorFactory> factories;
  if (const char* models = args.Get("models")) {
    // Head-to-head comparison of crowd models ("tdpm,router")
    // instead of the VSM/TSPM/DRM/TDPM baseline table.
    std::vector<std::string> ids;
    for (const auto& piece : SplitAny(models, ",")) ids.push_back(piece);
    auto by_id = ModelSelectorFactories(ids, ModelConfigFromArgs(args));
    if (!by_id.ok()) return Fail(by_id.status());
    factories = std::move(*by_id);
  } else {
    factories = StandardSelectorFactories(k, 97);
  }
  auto results = RunExperiment(*split, factories);
  if (!results.ok()) return Fail(results.status());
  TableReporter table(StringPrintf(
      "Evaluation on %s (threshold %zu, K=%zu, %zu test tasks)", data,
      threshold, k, split->cases.size()));
  table.SetHeader({"Algorithm", "ACCU", "Top1", "Top2", "Train s",
                   "Select ms"});
  for (const auto& r : *results) {
    table.AddRow({r.name, TableReporter::Cell(r.mean_accu),
                  TableReporter::Cell(r.top1), TableReporter::Cell(r.top2),
                  TableReporter::Cell(r.train_seconds, 2),
                  TableReporter::Cell(r.select_millis, 3)});
  }
  table.Print(std::cout);

  // Model-quality telemetry: per-model accuracy gauges (quality.eval.*)
  // feed the time-series store and alert rules like any live metric, so
  // "ACCU dropped below X" can page from a batch evaluation too.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    double tick = 0.0;
    const bool sample = args.Get("timeseries-out") != nullptr ||
                        args.Get("alert-rules") != nullptr;
    for (const auto& r : *results) {
      const std::string base = "quality.eval." + r.name + ".";
      registry.GetGauge(base + "accu")->Set(r.mean_accu);
      registry.GetGauge(base + "top1")->Set(r.top1);
      registry.GetGauge(base + "top2")->Set(r.top2);
      if (sample) {
        (void)obs::TimeSeriesStore::Global().SampleRegistry(tick);
        tick += 1.0;
      }
    }
    if (obs::AlertEngine::Global().NumRules() > 0) {
      (void)obs::AlertEngine::Global().EvaluateAll();
    }
  }
  if (const char* path = args.Get("quality-out")) {
    // One flat JSON object per model — the same jsonl dialect the
    // `report` command and the time-series dump speak.
    std::ofstream out(path);
    if (!out.is_open()) {
      return Fail(Status::IOError(
          std::string("cannot open --quality-out file: ") + path));
    }
    for (const auto& r : *results) {
      jsonl::Object obj;
      obj["model"] = r.name;
      obj["accu"] = r.mean_accu;
      obj["top1"] = r.top1;
      obj["top2"] = r.top2;
      obj["train_seconds"] = r.train_seconds;
      obj["select_millis"] = r.select_millis;
      out << jsonl::WriteObject(obj) << "\n";
    }
    out.close();
    if (!out.good()) {
      return Fail(Status::IOError(
          std::string("failed writing --quality-out file: ") + path));
    }
    std::fprintf(stderr, "quality report written to %s\n", path);
  }
  return 0;
}

StorageOptions StorageOptionsFromArgs(const Args& args) {
  StorageOptions options;
  options.num_shards = args.GetCount("shards", 8);
  options.sync_every_append = args.GetInt("fsync", 0) != 0;
  options.auto_checkpoint_every = args.GetCount("auto-checkpoint", 0);
  return options;
}

int CmdIngest(const Args& args) {
  const char* data = args.Get("data");
  const char* db_dir = args.Get("db-dir");
  if (!data || !db_dir) return Usage();
  auto db = ImportDatabaseCsvFiles(data);
  if (!db.ok()) return Fail(db.status());
  auto engine = CrowdStoreEngine::Open(db_dir, StorageOptionsFromArgs(args));
  if (!engine.ok()) return Fail(engine.status());
  Status st = (*engine)->BulkImport(*db);
  if (!st.ok()) return Fail(st);
  std::printf("ingested %zu workers, %zu tasks, %zu assignments into %s "
              "(%zu shards, checkpoint at seq %llu)\n",
              (*engine)->NumWorkers(), (*engine)->NumTasks(),
              (*engine)->NumAssignments(), db_dir, (*engine)->num_shards(),
              static_cast<unsigned long long>((*engine)->last_sequence()));
  return 0;
}

int CmdDbinfo(const Args& args) {
  const char* db_dir = args.Get("db-dir");
  if (!db_dir) return Usage();
  auto engine = CrowdStoreEngine::Open(db_dir, StorageOptionsFromArgs(args));
  if (!engine.ok()) return Fail(engine.status());
  const StorageOpenStats& open = (*engine)->open_stats();
  std::printf("database: %s\n", db_dir);
  std::printf("  workers %zu, tasks %zu, assignments %zu (%zu scored), "
              "latent dim %zu\n",
              (*engine)->NumWorkers(), (*engine)->NumTasks(),
              (*engine)->NumAssignments(), (*engine)->NumScoredAssignments(),
              (*engine)->latent_dim());
  std::printf("  checkpoint: %s (seq %llu), last seq %llu\n",
              open.checkpoint_loaded ? "loaded" : "none",
              static_cast<unsigned long long>(open.checkpoint_seq),
              static_cast<unsigned long long>((*engine)->last_sequence()));
  std::printf("  wal: %llu records scanned, %llu applied%s\n",
              static_cast<unsigned long long>(open.wal_records_scanned),
              static_cast<unsigned long long>(open.wal_records_applied),
              open.wal_torn_tail ? " (torn tail truncated)" : "");
  for (size_t s = 0; s < (*engine)->num_shards(); ++s) {
    const auto counts = (*engine)->CountsOfShard(s);
    std::printf("  shard %zu: %zu workers, %zu tasks, %zu assignments\n", s,
                counts.workers, counts.tasks, counts.assignments);
  }
  return 0;
}

int CmdSimulate(const Args& args) {
  const char* data = args.Get("data");
  const char* db_dir = args.Get("db-dir");
  if (!data && !db_dir) return Usage();
  const size_t num_tasks = args.GetCount("tasks", 5);
  const size_t top = args.GetCount("top", 3);
  const size_t drift_after = args.GetCount("drift-after", 0);
  // SLO monitoring: rotate the sliding latency windows every N processed
  // tasks so the slo.* gauges track a moving recent horizon instead of
  // the whole run.
  const size_t slo_window = args.GetCount("slo-window", 0);

  // Two backends: --db-dir serves from the durable storage engine (every
  // simulated mutation is WAL-logged and survives a crash), --data keeps
  // the classic in-memory CrowdDatabase loaded from CSV.
  std::optional<CrowdDatabase> db;
  std::unique_ptr<CrowdStoreEngine> engine;
  if (db_dir) {
    auto opened = CrowdStoreEngine::Open(db_dir, StorageOptionsFromArgs(args));
    if (!opened.ok()) return Fail(opened.status());
    engine = std::move(*opened);
  } else {
    auto imported = ImportDatabaseCsvFiles(data);
    if (!imported.ok()) return Fail(imported.status());
    db = std::move(*imported);
  }

  // --model defaults to the classic TDPM path; "router" swaps the
  // serving backend (the manager only sees the CrowdSelector interface).
  ModelConfig model_config = ModelConfigFromArgs(args);
  model_config.tdpm.max_em_iterations =
      static_cast<int>(args.GetCount("iters", 10));
  auto created = CreateCrowdModel(args.Get("model", "tdpm"), model_config);
  if (!created.ok()) return Fail(created.status());
  std::unique_ptr<CrowdModel> selector = std::move(*created);
  auto manager = engine
                     ? std::make_unique<CrowdManager>(engine.get(),
                                                      std::move(selector))
                     : std::make_unique<CrowdManager>(&*db,
                                                      std::move(selector));
  manager->set_live_skill_updates(args.GetInt("live-updates", 0) != 0);

  // Online shadow evaluation: score every prediction against realized
  // feedback before fold-in (serve/quality_monitor.h). Enabled by
  // --quality-out (report wanted) or implicitly by --alert-rules /
  // --timeseries-out, since quality gauges are what those watch.
  std::unique_ptr<serve::QualityMonitor> quality;
  if (args.Get("quality-out") != nullptr ||
      args.Get("alert-rules") != nullptr ||
      args.Get("timeseries-out") != nullptr) {
    serve::QualityMonitorConfig qconfig;
    qconfig.model_id = args.Get("model", "tdpm");
    qconfig.window_size = args.GetCount("quality-window", 50);
    if (qconfig.window_size == 0) qconfig.window_size = 50;
    const double threshold = args.GetDouble("drift-z", 0.0);
    if (threshold > 0.0) qconfig.drift_z_threshold = threshold;
    quality = std::make_unique<serve::QualityMonitor>(qconfig);
    manager->set_resolved_observer(quality.get());
  }

  Status st = manager->InferCrowdModel();
  if (!st.ok()) return Fail(st);

  // Simulated crowd: workers echo the task text back; feedback follows
  // each worker's historical mean score (plus mild noise), so workers
  // keep performing at the level the model was trained on and a healthy
  // run's predictions genuinely correlate with realized feedback.
  // Drift injection (--drift-after N): once N tasks have resolved, a
  // deterministic fraction of workers turns spammer — near-zero feedback
  // regardless of the model's opinion of them — which is exactly the
  // regime shift the quality monitor's drift detectors must catch.
  std::unordered_map<WorkerId, double> base_score;
  {
    const CrowdDatabase* history = nullptr;
    std::shared_ptr<const CrowdDatabase> frozen;
    if (engine) {
      auto view = engine->FrozenView();
      if (!view.ok()) return Fail(view.status());
      frozen = std::move(*view);
      history = frozen.get();
    } else {
      history = &*db;
    }
    std::unordered_map<WorkerId, std::pair<double, uint64_t>> sums;
    for (const AssignmentRecord& a : history->assignments()) {
      if (!a.has_score) continue;
      auto& acc = sums[a.worker];
      acc.first += a.score;
      ++acc.second;
    }
    for (const auto& [worker, acc] : sums) {
      base_score[worker] = acc.first / static_cast<double>(acc.second);
    }
  }
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 0xC0FFEE)));
  const int drift_pct = static_cast<int>(
      100.0 * args.GetDouble("drift-workers", 0.3));
  size_t processed = 0;
  auto answer_fn = [](WorkerId, const TaskRecord& task) {
    return "re: " + task.text;
  };
  auto feedback_fn = [&rng, &processed, &base_score, drift_after,
                      drift_pct](WorkerId worker, const TaskRecord&,
                                 const std::string&) {
    // Spread the flipped set across the id space: generated worlds
    // correlate id order with skill, so a contiguous id block would flip
    // an entire skill tier at once instead of scattered workers.
    if (drift_after > 0 && processed >= drift_after &&
        static_cast<int>((worker * 37 + 11) % 100) < drift_pct) {
      return std::max(0.0, rng.Normal(0.05, 0.05));
    }
    const auto it = base_score.find(worker);
    const double mean = it == base_score.end() ? 2.0 : it->second;
    return std::max(0.0, mean + rng.Normal(0.0, 0.25));
  };
  auto dispatcher =
      engine ? std::make_unique<TaskDispatcher>(engine.get(), answer_fn,
                                                feedback_fn)
             : std::make_unique<TaskDispatcher>(&*db, answer_fn, feedback_fn);

  // Optionally keep a Prometheus exposition file fresh in the background
  // while the simulation runs.
  std::unique_ptr<obs::PeriodicStatsExporter> exporter;
  if (const char* prom = args.Get("prom-out")) {
    const long interval_ms = args.GetInt("prom-interval-ms", 0);
    if (interval_ms != 0) {
      // Create() rejects a non-positive interval with InvalidArgument
      // rather than clamping it, so a negative --prom-interval-ms fails
      // the command up front.
      auto exporter_or = obs::PeriodicStatsExporter::Create(
          prom, static_cast<double>(interval_ms) / 1e3);
      if (!exporter_or.ok()) return Fail(exporter_or.status());
      exporter = std::move(*exporter_or);
    }
  }
  // Reuse existing task texts as the stream of incoming tasks. Copy first:
  // ProcessTask appends tasks and would invalidate iterators; the engine
  // backend hands out a frozen view for the same reason.
  std::vector<std::string> texts;
  if (engine) {
    auto view = engine->FrozenView();
    if (!view.ok()) return Fail(view.status());
    for (const TaskRecord& task : (*view)->tasks()) {
      texts.push_back(task.text);
      if (texts.size() >= num_tasks) break;
    }
  } else {
    for (const TaskRecord& task : db->tasks()) {
      texts.push_back(task.text);
      if (texts.size() >= num_tasks) break;
    }
  }
  // Crash-path testing (tests/integration/cli_crash_dump_test.cmake):
  // abort mid-run after N tasks so the crash handler's dump can be
  // inspected. 0 (the default) disables.
  const long crash_after =
      args.GetInt("crash-after-tasks", 0);
  // Per-task telemetry tick: sample every counter/gauge into the
  // time-series store (t = task index, so replays are deterministic)
  // and sweep the alert rules — rate() rules read the sampled history.
  const bool tick_timeseries = args.Get("timeseries-out") != nullptr ||
                               args.Get("alert-rules") != nullptr;
  const bool tick_alerts = obs::AlertEngine::Global().NumRules() > 0;
  for (const std::string& text : texts) {
    auto answers = manager->ProcessTask(text, top, dispatcher.get());
    if (!answers.ok()) return Fail(answers.status());
    ++processed;
    if (crash_after > 0 && processed >= static_cast<size_t>(crash_after)) {
      std::fprintf(stderr,
                   "deliberately aborting after %zu tasks "
                   "(--crash-after-tasks)\n",
                   processed);
      std::abort();
    }
    if (slo_window > 0 && processed % slo_window == 0) {
      obs::SloTracker::Global().RotateAll();
    }
    if (tick_timeseries) {
      (void)obs::TimeSeriesStore::Global().SampleRegistry(
          static_cast<double>(processed));
    }
    if (tick_alerts) (void)obs::AlertEngine::Global().EvaluateAll();
  }
  if (engine) {
    // Fold the simulated mutations into the checkpoint so the next open
    // replays nothing.
    st = engine->Checkpoint();
    if (!st.ok()) return Fail(st);
  }
  if (slo_window > 0) {
    // Final rotation publishes the tail window into the slo.* gauges, so
    // --stats-out / --prom-out snapshots taken after the loop see it.
    obs::SloTracker::Global().RotateAll();
  }
  if (quality != nullptr) {
    // Publish the final partial quality window, then detach before the
    // monitor dies (the manager outlives this scope on some paths).
    quality->RotateWindows();
    manager->set_resolved_observer(nullptr);
    if (tick_timeseries) {
      (void)obs::TimeSeriesStore::Global().SampleRegistry(
          static_cast<double>(processed + 1));
    }
    if (const char* path = args.Get("quality-out")) {
      std::ofstream out(path);
      if (!out.is_open()) {
        return Fail(Status::IOError(
            std::string("cannot open --quality-out file: ") + path));
      }
      out << quality->SummaryJson() << "\n";
      out.close();
      if (!out.good()) {
        return Fail(Status::IOError(
            std::string("failed writing --quality-out file: ") + path));
      }
      std::fprintf(stderr, "quality report written to %s\n", path);
    }
  }
  if (exporter != nullptr) {
    const Status stop_status = exporter->Stop();
    if (!stop_status.ok()) {
      std::fprintf(stderr, "error writing periodic --prom-out: %s\n",
                   stop_status.ToString().c_str());
    }
  }
  std::printf("simulated %zu tasks through the blue path: %zu answers "
              "collected from top-%zu crowds\n",
              dispatcher->tasks_dispatched(), dispatcher->answers_collected(),
              top);
  return 0;
}

/// Synthetic serve workload for on-demand diagnostics: publishes a random
/// skill matrix, runs --queries top-k scans against it, then dumps the
/// flight recorder — the same JSONL a crash dump contains, produced
/// without crashing. Doubles as the profiler's standard workload:
///   crowdselect_cli debug-dump --queries 10000 --profile-out prof.txt
int CmdDebugDump(const Args& args) {
  const size_t workers = args.GetCount("workers", 5000);
  const size_t dims = args.GetCount("k", 16);
  const size_t queries = args.GetCount("queries", 1000);
  const size_t top = args.GetCount("top", 5);
  if (workers == 0 || dims == 0) {
    return Fail(Status::InvalidArgument(
        "debug-dump needs --workers >= 1 and --k >= 1"));
  }

  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 0xD1A6)));
  Matrix skills(workers, dims);
  for (size_t w = 0; w < workers; ++w) {
    double* row = skills.RowPtr(w);
    for (size_t d = 0; d < dims; ++d) row[d] = rng.Uniform();
  }
  serve::SelectionEngine engine(ServeOptionsFromArgs(args));
  engine.PublishSnapshot(serve::SkillMatrixSnapshot::FromMatrix(
      std::move(skills)));
  std::vector<WorkerId> candidates(workers);
  for (size_t w = 0; w < workers; ++w) candidates[w] = static_cast<WorkerId>(w);

  // One query event per scan: RankByCategory bypasses SelectTopK's query
  // instrumentation, so mark each iteration explicitly — the dump then
  // carries a meaningful event stream even for small inline scans.
  static const uint16_t query_name =
      obs::FlightRecorder::Global().InternName("cli.debug_dump.query");
  for (size_t q = 0; q < queries; ++q) {
    Vector category(dims);
    for (size_t d = 0; d < dims; ++d) category[d] = rng.Uniform();
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kQuery,
                                         query_name, q, top);
    auto ranked = engine.RankByCategory(category, top, candidates);
    if (!ranked.ok()) return Fail(ranked.status());
  }

  if (const char* out = args.Get("out")) {
    Status st = obs::WriteDiagnosticDump(out, "debug_dump");
    if (!st.ok()) return Fail(st);
    std::printf("flight-recorder dump written to %s (%llu events recorded, "
                "%zu queries over %zu workers)\n",
                out,
                static_cast<unsigned long long>(
                    obs::FlightRecorder::Global().total_events()),
                queries, workers);
  } else {
    std::fputs(obs::FlightRecorder::Global().Dump("debug_dump").c_str(),
               stdout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// report: render a quality report from a time-series dump
// ---------------------------------------------------------------------------

/// Per-series aggregate computed from a --timeseries-out dump.
struct SeriesSummary {
  uint64_t count = 0;
  double t_first = 0.0;
  double t_last = 0.0;
  double v_first = 0.0;
  double v_last = 0.0;
  double v_min = 0.0;
  double v_max = 0.0;
  double v_sum = 0.0;

  double Mean() const {
    return count == 0 ? 0.0 : v_sum / static_cast<double>(count);
  }
};

Result<std::map<std::string, SeriesSummary>> LoadTimeSeriesDump(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open time-series dump: " + path);
  std::map<std::string, SeriesSummary> series;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto obj = jsonl::ParseObject(line);
    if (!obj.ok()) {
      return Status::Corruption("bad time-series line " +
                                std::to_string(line_no) + ": " +
                                obj.status().message());
    }
    const auto name_it = obj->find("series");
    const auto t_it = obj->find("t");
    const auto v_it = obj->find("v");
    if (name_it == obj->end() ||
        !std::holds_alternative<std::string>(name_it->second) ||
        t_it == obj->end() || !std::holds_alternative<double>(t_it->second) ||
        v_it == obj->end() || !std::holds_alternative<double>(v_it->second)) {
      return Status::Corruption("time-series line " + std::to_string(line_no) +
                                " is not {series, t, v}");
    }
    const double t = std::get<double>(t_it->second);
    const double v = std::get<double>(v_it->second);
    SeriesSummary& s = series[std::get<std::string>(name_it->second)];
    if (s.count == 0) {
      s.t_first = t;
      s.v_first = v;
      s.v_min = v;
      s.v_max = v;
    }
    ++s.count;
    s.t_last = t;
    s.v_last = v;
    s.v_min = std::min(s.v_min, v);
    s.v_max = std::max(s.v_max, v);
    s.v_sum += v;
  }
  return series;
}

/// Renders the model-quality report. Markdown groups the quality.* and
/// alert.* series into their own sections (the interesting ones) with
/// everything else in an appendix; JSON emits one flat object per
/// series — the same jsonl dialect the dump itself uses, so downstream
/// tooling needs exactly one parser.
int CmdReport(const Args& args) {
  const char* ts_path = args.Get("timeseries");
  if (!ts_path) return Usage();
  auto series = LoadTimeSeriesDump(ts_path);
  if (!series.ok()) return Fail(series.status());

  // Optional quality report lines (simulate/evaluate --quality-out),
  // echoed into the report verbatim-ish.
  std::vector<jsonl::Object> quality_lines;
  if (const char* qpath = args.Get("quality")) {
    std::ifstream in(qpath);
    if (!in) {
      return Fail(Status::IOError(std::string("cannot open quality file: ") +
                                  qpath));
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto obj = jsonl::ParseObject(line);
      if (!obj.ok()) return Fail(obj.status());
      quality_lines.push_back(std::move(*obj));
    }
  }

  const std::string format = args.Get("format", "md");
  std::string out;
  if (format == "json") {
    for (const auto& [name, s] : *series) {
      jsonl::Object obj;
      obj["series"] = name;
      obj["count"] = static_cast<double>(s.count);
      obj["t_first"] = s.t_first;
      obj["t_last"] = s.t_last;
      obj["v_first"] = s.v_first;
      obj["v_last"] = s.v_last;
      obj["v_min"] = s.v_min;
      obj["v_max"] = s.v_max;
      obj["v_mean"] = s.Mean();
      out += jsonl::WriteObject(obj) + "\n";
    }
    for (const jsonl::Object& q : quality_lines) {
      out += jsonl::WriteObject(q) + "\n";
    }
  } else if (format == "md") {
    auto row = [](const std::string& name, const SeriesSummary& s) {
      return StringPrintf("| %s | %llu | %.4g | %.4g | %.4g | %.4g | %.4g |\n",
                          name.c_str(),
                          static_cast<unsigned long long>(s.count), s.v_first,
                          s.v_last, s.v_min, s.v_max, s.Mean());
    };
    const std::string header =
        "| series | points | first | last | min | max | mean |\n"
        "|---|---|---|---|---|---|---|\n";
    std::string quality_rows;
    std::string alert_rows;
    std::string other_rows;
    for (const auto& [name, s] : *series) {
      if (name.rfind("quality.", 0) == 0) {
        quality_rows += row(name, s);
      } else if (name.rfind("alert.", 0) == 0) {
        alert_rows += row(name, s);
      } else {
        other_rows += row(name, s);
      }
    }
    out += "# Model-quality report\n\n";
    out += StringPrintf("Source: `%s` (%zu series)\n\n", ts_path,
                        series->size());
    if (!quality_lines.empty()) {
      out += "## Quality summary\n\n";
      for (const jsonl::Object& q : quality_lines) {
        out += "- `" + jsonl::WriteObject(q) + "`\n";
      }
      out += "\n";
    }
    if (!quality_rows.empty()) {
      out += "## Quality signals\n\n" + header + quality_rows + "\n";
    }
    if (!alert_rows.empty()) {
      out += "## Alerts\n\n" + header + alert_rows + "\n";
    }
    if (!other_rows.empty()) {
      out += "## All other metrics\n\n" + header + other_rows + "\n";
    }
  } else {
    return Fail(Status::InvalidArgument("unknown --format: " + format +
                                        " (expected md or json)"));
  }

  if (const char* path = args.Get("out")) {
    std::ofstream file(path);
    if (!file.is_open()) {
      return Fail(
          Status::IOError(std::string("cannot open --out file: ") + path));
    }
    file << out;
    file.close();
    if (!file.good()) {
      return Fail(
          Status::IOError(std::string("failed writing --out file: ") + path));
    }
    std::printf("report written to %s\n", path);
  } else {
    std::fputs(out.c_str(), stdout);
  }
  return 0;
}

/// Honors --stats-out / --trace-out after the command ran. Failures here
/// are diagnostics, not command failures: the exit code stays the
/// command's own.
void WriteObservabilityOutputs(const Args& args) {
  // Final alert sweep first, so the states serialized below (JSON
  // "alerts" section, crowdselect_alert_state family) reflect the
  // run's end-of-life metric values even for commands without their
  // own evaluation cadence.
  if (obs::AlertEngine::Global().NumRules() > 0) {
    (void)obs::AlertEngine::Global().EvaluateAll();
  }
  const obs::StatsReporter reporter;
  if (const char* path = args.Get("stats-out")) {
    const Status st = reporter.WriteJsonFile(path);
    if (st.ok()) {
      std::fprintf(stderr, "stats snapshot written to %s\n", path);
    } else {
      std::fprintf(stderr, "error writing --stats-out: %s\n",
                   st.ToString().c_str());
    }
  }
  if (const char* path = args.Get("trace-out")) {
    const Status st = reporter.WriteChromeTraceFile(path);
    if (st.ok()) {
      std::fprintf(stderr, "chrome trace written to %s\n", path);
    } else {
      std::fprintf(stderr, "error writing --trace-out: %s\n",
                   st.ToString().c_str());
    }
  }
  if (const char* path = args.Get("prom-out")) {
    const Status st = reporter.WritePrometheusFile(path);
    if (st.ok()) {
      std::fprintf(stderr, "prometheus exposition written to %s\n", path);
    } else {
      std::fprintf(stderr, "error writing --prom-out: %s\n",
                   st.ToString().c_str());
    }
  }
  if (const char* path = args.Get("timeseries-out")) {
    obs::TimeSeriesStore& store = obs::TimeSeriesStore::Global();
    // Commands without their own sampling cadence still get one point
    // per series — a dump is never empty just because nothing ticked.
    if (store.total_points() == 0) (void)store.SampleRegistry(0.0);
    const Status st = store.WriteJsonlFile(path);
    if (st.ok()) {
      std::fprintf(stderr, "time-series dump written to %s (%llu points, "
                   "%zu series)\n", path,
                   static_cast<unsigned long long>(store.total_points()),
                   store.num_series());
    } else {
      std::fprintf(stderr, "error writing --timeseries-out: %s\n",
                   st.ToString().c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Commands and the flags each one reads. A flag outside its command's
// list exits 2 before the command runs, so a misspelled or retired flag
// never runs the command on a default.
// ---------------------------------------------------------------------------

using FlagList = std::vector<std::string_view>;

/// `flags` followed by every flag of `groups`.
FlagList With(FlagList flags, std::initializer_list<FlagList> groups) {
  for (const FlagList& group : groups) {
    flags.insert(flags.end(), group.begin(), group.end());
  }
  return flags;
}

/// Read by every command: SetupDiagnostics, FinishDiagnostics and
/// WriteObservabilityOutputs.
const FlagList kCommonFlags = {
    "stats-out",   "trace-out",     "prom-out",    "timeseries-out",
    "alert-rules", "crash-dump-dir", "watchdog-ms", "slo-rotate-ms",
    "profile-out", "profile-interval-us", "flightrec-out"};
/// ServeOptionsFromArgs.
const FlagList kServeFlags = {"serve-threads",      "foldin-cache",
                              "scan-parallel-min",  "scan-block",
                              "select-deadline-ms", "force-scalar"};
/// ModelConfigFromArgs.
const FlagList kModelFlags =
    With({"k", "iters", "seed", "clusters"}, {kServeFlags});
/// StorageOptionsFromArgs.
const FlagList kStorageFlags = {"shards", "fsync", "auto-checkpoint"};

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  FlagList flags;  ///< Besides kCommonFlags.

  bool Reads(std::string_view flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end() ||
           std::find(kCommonFlags.begin(), kCommonFlags.end(), flag) !=
               kCommonFlags.end();
  }
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate", CmdGenerate,
       {"platform", "out", "seed", "types", "workers", "tasks", "answers",
        "specialists", "spammers", "adversarial", "type-zipf"}},
      {"stats", CmdStats, {"data", "thresholds"}},
      {"train", CmdTrain, {"data", "model", "k", "iters"}},
      {"select", CmdSelect,
       With({"data", "model", "task", "top", "explain-out"}, {kModelFlags})},
      {"explain", CmdExplain,
       With({"data", "model", "task", "top", "explain-out"}, {kModelFlags})},
      {"evaluate", CmdEvaluate,
       With({"data", "threshold", "tests", "models", "quality-out"},
            {kModelFlags})},
      {"simulate", CmdSimulate,
       With({"data", "db-dir", "model", "live-updates", "quality-out",
             "quality-window", "drift-z", "drift-after", "drift-workers",
             "tasks", "top", "slo-window", "prom-interval-ms",
             "crash-after-tasks"},
            {kModelFlags, kStorageFlags})},
      {"ingest", CmdIngest, With({"data", "db-dir"}, {kStorageFlags})},
      {"dbinfo", CmdDbinfo, With({"db-dir"}, {kStorageFlags})},
      {"debug-dump", CmdDebugDump,
       With({"workers", "k", "queries", "top", "seed", "out"},
            {kServeFlags})},
      {"report", CmdReport, {"timeseries", "quality", "format", "out"}},
  };
  return commands;
}

/// Reads `command`'s `--flag value` pairs in argv order. A token without
/// `--`, a flag the command does not read, or a flag with no value exits
/// 2 naming it.
Args Parse(int argc, char** argv, const Command& command) {
  Args args;
  args.command = std::string(command.name);
  for (int i = 2; i < argc; i += 2) {
    const std::string_view token = argv[i];
    if (token.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: %s is not a flag (flags are --name value)\n",
                   argv[i]);
      std::exit(2);
    }
    const std::string key(token.substr(2));
    if (!command.Reads(key)) BadFlag(key, "is not a flag of " + args.command);
    if (i + 1 == argc) BadFlag(key, "has no value");
    args.flags[key] = argv[i + 1];
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc >= 2 ? argv[1] : "";
  const std::vector<Command>& commands = Commands();
  const auto command =
      std::find_if(commands.begin(), commands.end(),
                   [name](const Command& c) { return c.name == name; });
  if (command == commands.end()) return Usage();
  const Args args = Parse(argc, argv, *command);
  if (const Status st = SetupDiagnostics(args); !st.ok()) return Fail(st);
  const int rc = command->run(args);
  WriteObservabilityOutputs(args);
  FinishDiagnostics(args);
  return rc;
}
