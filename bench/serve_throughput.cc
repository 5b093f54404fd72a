// Serving-path throughput: queries/sec of the selection scan as a
// function of the worker-pool size and thread count, plus the fold-in
// cache's effect on repeated-task latency. These back the serving
// engine's two claims: the blocked parallel scan beats the pre-refactor
// scalar loop at large pools, and a cache hit skips the fold-in subproblem.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <vector>

#include "crowdselect/crowdselect.h"

using namespace crowdselect;

namespace {

constexpr size_t kCategories = 16;
constexpr size_t kVocab = 2000;
constexpr size_t kTopK = 10;

// Synthetic serving state shared across pool sizes: a dense skill matrix
// (the snapshot) plus the same posteriors as per-worker Vectors — the
// pre-refactor representation the scalar baseline scans.
struct ScanFixture {
  std::shared_ptr<const serve::SkillMatrixSnapshot> snapshot;
  std::vector<Vector> worker_skills;
  std::vector<WorkerId> candidates;
  Vector category;

  static ScanFixture* Get(size_t num_workers) {
    static std::map<size_t, ScanFixture*> cache;
    auto it = cache.find(num_workers);
    if (it != cache.end()) return it->second;
    Rng rng(77);
    // cslint: allow(naked-new): cached fixture, leaked for the process.
    auto* fixture = new ScanFixture;
    Matrix skills(num_workers, kCategories);
    fixture->worker_skills.reserve(num_workers);
    fixture->candidates.reserve(num_workers);
    for (size_t w = 0; w < num_workers; ++w) {
      Vector row(kCategories);
      for (size_t d = 0; d < kCategories; ++d) {
        row[d] = rng.Normal();
        skills(w, d) = row[d];
      }
      fixture->worker_skills.push_back(std::move(row));
      fixture->candidates.push_back(static_cast<WorkerId>(w));
    }
    fixture->snapshot = serve::SkillMatrixSnapshot::FromMatrix(skills);
    fixture->category = Vector(kCategories);
    for (size_t d = 0; d < kCategories; ++d) {
      fixture->category[d] = rng.Normal();
    }
    cache[num_workers] = fixture;
    return fixture;
  }
};

// Pre-refactor serving scan: one thread, per-worker Vector::Dot into a
// single TopKAccumulator (what TdpmSelector::SelectTopK used to run).
void BM_ScanScalar(benchmark::State& state) {
  ScanFixture* fixture = ScanFixture::Get(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TopKAccumulator acc(kTopK);
    for (WorkerId w : fixture->candidates) {
      acc.Offer(w, fixture->worker_skills[w].Dot(fixture->category));
    }
    benchmark::DoNotOptimize(acc.Take());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = static_cast<double>(fixture->candidates.size());
}
BENCHMARK(BM_ScanScalar)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Engine scan: blocked parallel top-k over the contiguous snapshot.
// range(0) = pool size, range(1) = threads.
void BM_ScanEngine(benchmark::State& state) {
  ScanFixture* fixture = ScanFixture::Get(static_cast<size_t>(state.range(0)));
  serve::ServeOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  serve::SelectionEngine engine(options);
  engine.PublishSnapshot(fixture->snapshot);
  for (auto _ : state) {
    auto ranked =
        engine.RankByCategory(fixture->category, kTopK, fixture->candidates);
    benchmark::DoNotOptimize(ranked.value());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["workers"] = static_cast<double>(fixture->candidates.size());
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ScanEngine)
    ->ArgsProduct({{10000, 100000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

// Fold-in fixture: a synthetic model (uniform language model, identity
// priors) is enough — the fold-in subproblem's cost does not depend on where
// beta came from.
struct FoldFixture {
  TaskFolder folder;
  BagOfWords task;

  static FoldFixture* Get() {
    static FoldFixture* fixture = [] {
      TdpmOptions options;
      options.num_categories = kCategories;
      auto folder =
          TaskFolder::Create(TdpmModelParams::Init(kCategories, kVocab),
                             options);
      CS_CHECK(folder.ok());
      // cslint: allow(naked-new): cached fixture, leaked for the process.
      auto* f = new FoldFixture{std::move(*folder), BagOfWords()};
      Rng rng(5);
      for (int t = 0; t < 24; ++t) {
        f->task.Add(static_cast<TermId>(rng.UniformInt(kVocab)),
                    1 + static_cast<uint32_t>(rng.UniformInt(4)));
      }
      return f;
    }();
    return fixture;
  }
};

// Per-query fold-in latency with the cache disabled (every query pays the
// Newton solve) vs enabled (every query after the first is a lookup). The
// task stream repeats one task — the cache's best case, and exactly the
// redispatch pattern the cache exists for.
void BM_FoldInRepeated(benchmark::State& state) {
  FoldFixture* fixture = FoldFixture::Get();
  serve::ServeOptions options;
  options.foldin_cache_capacity = static_cast<size_t>(state.range(0));
  serve::SelectionEngine engine(options);
  engine.SetFolder(fixture->folder);
  for (auto _ : state) {
    auto projected = engine.Project(fixture->task);
    benchmark::DoNotOptimize(projected.value());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cache"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FoldInRepeated)->Arg(0)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
