// Micro-benchmarks of the computational kernels behind the paper's
// running-time claims: Cholesky solves (worker E-step), the Newton subproblem
// and fold-in (task E-step / Algorithm 3), and top-k ranking — each as a
// function of the latent dimension K. These decompose the Fig. 4/6/8
// latencies: fold-in dominates, ranking is negligible.
#include <benchmark/benchmark.h>

#include <map>

#include "crowdselect/crowdselect.h"

using namespace crowdselect;

namespace {

Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng->Normal();
  }
  Matrix spd = a.Multiply(a.Transposed());
  spd.AddDiagonal(1.0);
  return spd;
}

// Factor and solve as every production caller does them: through
// FactorizeWithJitter, whose symmetry check is part of the cost.
void BM_CholeskySolve(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = RandomSpd(k, &rng);
  Vector b(k);
  for (size_t i = 0; i < k; ++i) b[i] = rng.Normal();
  for (auto _ : state) {
    auto chol = Cholesky::FactorizeWithJitter(a);
    benchmark::DoNotOptimize(chol->Solve(b));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(10)->Arg(20)->Arg(30)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

// The trained model used by the fold-in / ranking benches below.
struct FoldFixture {
  TdpmSelector selector;
  BagOfWords probe;
  std::vector<WorkerId> candidates;

  static FoldFixture* Get(size_t k) {
    static std::map<size_t, FoldFixture*> cache;
    auto it = cache.find(k);
    if (it != cache.end()) return it->second;
    PlatformConfig config = DefaultPlatformConfig(Platform::kQuora);
    config.world.num_workers = 200;
    config.world.num_tasks = 600;
    config.world.vocab_size = 600;
    auto dataset = GeneratePlatformDataset(Platform::kQuora, config, 33);
    CS_CHECK(dataset.ok());
    TdpmOptions options;
    options.num_categories = k;
    options.max_em_iterations = 10;
    options.num_threads = 0;
    // cslint: allow(naked-new): cached fixture, leaked for the process.
    auto* fixture = new FoldFixture{TdpmSelector(options),
                                    dataset->db.GetTask(0).value()->bag,
                                    dataset->db.OnlineWorkers()};
    CS_CHECK_OK(fixture->selector.Train(dataset->db));
    cache[k] = fixture;
    return fixture;
  }
};

void BM_FoldIn(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  FoldFixture* fixture = FoldFixture::Get(k);
  // The selector's engine caches posteriors by task content, so the
  // repeated probe would time cache hits through it; a TaskFolder over
  // the same trained parameters runs the solve on every iteration.
  TdpmOptions options;
  options.num_categories = k;
  auto folder = TaskFolder::Create(fixture->selector.fit().params, options);
  CS_CHECK(folder.ok()) << folder.status().ToString();
  for (auto _ : state) {
    benchmark::DoNotOptimize(folder->Posterior(fixture->probe));
  }
}
BENCHMARK(BM_FoldIn)->Arg(10)->Arg(30)->Arg(50)->Unit(benchmark::kMicrosecond);

void BM_SelectTopK(benchmark::State& state) {
  FoldFixture* fixture = FoldFixture::Get(30);
  const size_t top = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto selected = fixture->selector.SelectTopK(fixture->probe, top,
                                                 fixture->candidates);
    benchmark::DoNotOptimize(selected.value());
  }
}
BENCHMARK(BM_SelectTopK)->Arg(1)->Arg(2)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// Ranking alone (scores precomputed posture): TopKAccumulator over 10k
// candidates.
void BM_TopKAccumulator(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> scores(10000);
  for (auto& s : scores) s = rng.Normal();
  for (auto _ : state) {
    TopKAccumulator acc(static_cast<size_t>(state.range(0)));
    for (size_t i = 0; i < scores.size(); ++i) {
      acc.Offer(static_cast<WorkerId>(i), scores[i]);
    }
    benchmark::DoNotOptimize(acc.Take());
  }
}
BENCHMARK(BM_TopKAccumulator)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

// Incremental skill update: one observation + posterior refresh.
void BM_IncrementalSkillUpdate(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  TdpmModelParams params = TdpmModelParams::Init(k, 10);
  auto updater = IncrementalSkillUpdater::Create(params);
  CS_CHECK(updater.ok());
  auto worker_state = updater->NewWorkerState();
  Rng rng(3);
  SkillObservation obs;
  obs.category_mean = Vector(k);
  obs.category_var = Vector(k, 0.1);
  for (size_t i = 0; i < k; ++i) obs.category_mean[i] = rng.Normal();
  obs.score = 2.0;
  for (auto _ : state) {
    updater->Observe(obs, &worker_state);
    benchmark::DoNotOptimize(updater->Posterior(worker_state).value());
  }
}
BENCHMARK(BM_IncrementalSkillUpdate)->Arg(10)->Arg(30)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

// Cost of one metered span (arg 1) vs the disabled no-op path (arg 0) —
// the per-call observability tax paid by fold-in/selection above. Keep it
// well under 2% of the cheapest instrumented operation.
void BM_ScopedSpanOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  obs::MetricsRegistry::Global().SetEnabled(enabled);
  obs::TraceCollector::Global().SetEnabled(enabled);
  static obs::SpanMeter meter("bench.span_overhead");
  for (auto _ : state) {
    obs::ScopedSpan span(meter);
    benchmark::ClobberMemory();
  }
  obs::MetricsRegistry::Global().SetEnabled(true);
  obs::TraceCollector::Global().SetEnabled(true);
}
BENCHMARK(BM_ScopedSpanOverhead)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
