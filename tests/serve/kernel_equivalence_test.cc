// Engine-level determinism tests for the blocked ScoreKernel scan:
// kernel choice (scalar vs dispatched SIMD), scan geometry (block size,
// shard count, inline vs parallel) and candidate shape (dense vs sparse)
// must never change a ranking. The scalar kernel on a sequential scan is
// the specification; everything else must match it bitwise.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "serve/selection_engine.h"
#include "serve/skill_matrix.h"
#include "util/cpuid.h"
#include "util/logging.h"
#include "util/rng.h"

namespace crowdselect::serve {
namespace {

std::shared_ptr<const SkillMatrixSnapshot> RandomSnapshot(size_t n, size_t k,
                                                          uint64_t seed) {
  Rng rng(seed);
  Matrix skills(n, k);
  for (size_t w = 0; w < n; ++w) {
    for (size_t d = 0; d < k; ++d) skills(w, d) = rng.Normal();
  }
  return SkillMatrixSnapshot::FromMatrix(std::move(skills));
}

Vector RandomCategory(size_t k, uint64_t seed) {
  Rng rng(seed);
  Vector c(k);
  for (size_t d = 0; d < k; ++d) c[d] = rng.Normal();
  return c;
}

std::vector<WorkerId> DenseRange(size_t n) {
  std::vector<WorkerId> ids(n);
  for (size_t w = 0; w < n; ++w) ids[w] = static_cast<WorkerId>(w);
  return ids;
}

void ExpectSameRanking(const std::vector<RankedWorker>& a,
                       const std::vector<RankedWorker>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].worker, b[i].worker) << what << " rank " << i;
    // Bitwise, not epsilon: the determinism contract.
    EXPECT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(double)), 0)
        << what << " rank " << i << ": " << a[i].score << " vs "
        << b[i].score;
  }
}

// Forced-scalar vs whatever runtime dispatch picked, across pool sizes
// that land on / straddle / fill panel boundaries, with a block size
// that splits panels across parallel chunks.
TEST(KernelEquivalenceTest, DispatchedKernelMatchesScalarBitwise) {
  for (size_t pool : {size_t{1}, size_t{3}, size_t{8}, size_t{9}, size_t{17},
                      size_t{64}, size_t{257}, size_t{1000}, size_t{5000}}) {
    const size_t dims = 1 + pool % 7;
    auto snapshot = RandomSnapshot(pool, dims, 40 + pool);
    const Vector category = RandomCategory(dims, 90 + pool);
    const std::vector<WorkerId> candidates = DenseRange(pool);

    ServeOptions scalar_options;
    scalar_options.force_scalar_kernel = true;
    scalar_options.min_parallel_candidates = 1u << 30;  // always inline
    SelectionEngine scalar_engine(scalar_options);
    scalar_engine.PublishSnapshot(snapshot);

    ServeOptions simd_options;
    simd_options.num_threads = 4;
    simd_options.min_parallel_candidates = 16;  // parallel almost always
    simd_options.scan_block = 24;               // 3 panels per chunk
    SelectionEngine simd_engine(simd_options);
    simd_engine.PublishSnapshot(snapshot);

    for (size_t k : {size_t{1}, size_t{6}, size_t{16}}) {
      auto reference = scalar_engine.RankByCategory(category, k, candidates);
      auto dispatched = simd_engine.RankByCategory(category, k, candidates);
      ASSERT_TRUE(reference.ok() && dispatched.ok());
      ExpectSameRanking(*reference, *dispatched, "pool scan");
    }
  }
}

// Sparse subsets leave the panel path but must score through the exact
// same arithmetic chain, so per-worker scores agree bitwise with a
// dense scan that happened to rank the same workers.
TEST(KernelEquivalenceTest, SparseSubsetScoresMatchDenseBitwise) {
  constexpr size_t kPool = 700;
  constexpr size_t kDims = 9;
  auto snapshot = RandomSnapshot(kPool, kDims, 5);
  const Vector category = RandomCategory(kDims, 6);
  SelectionEngine engine;
  engine.PublishSnapshot(snapshot);

  // Full dense ranking: every worker with its panel-scan score.
  auto dense = engine.RankByCategory(category, kPool, DenseRange(kPool));
  ASSERT_TRUE(dense.ok());
  std::vector<double> score_of(kPool);
  for (const RankedWorker& rw : *dense) score_of[rw.worker] = rw.score;

  // Every 3rd worker: not contiguous, so this exercises the gather path.
  std::vector<WorkerId> sparse;
  for (size_t w = 0; w < kPool; w += 3) sparse.push_back(WorkerId(w));
  auto ranked = engine.RankByCategory(category, sparse.size(), sparse);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), sparse.size());
  for (const RankedWorker& rw : *ranked) {
    EXPECT_EQ(std::memcmp(&rw.score, &score_of[rw.worker], sizeof(double)), 0)
        << "worker " << rw.worker;
  }
}

// Tie-heavy pool: scores collide massively (only 4 distinct values), so
// any nondeterminism in merge order, chunk boundaries, or kernel choice
// shows up as a reordered ranking. The contract: equal
// scores break by ascending worker id, always.
TEST(KernelEquivalenceTest, TieBreakingIsAscendingIdEverywhere) {
  constexpr size_t kPool = 512;
  constexpr size_t kTopK = 16;
  Matrix skills(kPool, 1);
  for (size_t w = 0; w < kPool; ++w) {
    skills(w, 0) = static_cast<double>(w % 4);
  }
  auto snapshot = SkillMatrixSnapshot::FromMatrix(std::move(skills));
  Vector category(1, 1.0);
  const std::vector<WorkerId> candidates = DenseRange(kPool);

  for (bool force_scalar : {false, true}) {
    for (size_t scan_block : {size_t{5}, size_t{10}, size_t{64}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ServeOptions options;
        options.force_scalar_kernel = force_scalar;
        options.num_threads = threads;
        options.min_parallel_candidates = 16;
        options.scan_block = scan_block;
        SelectionEngine engine(options);
        engine.PublishSnapshot(snapshot);
        auto ranked = engine.RankByCategory(category, kTopK, candidates);
        ASSERT_TRUE(ranked.ok());
        ASSERT_EQ(ranked->size(), kTopK);
        for (size_t i = 0; i < kTopK; ++i) {
          // Workers scoring 3 are ids 3, 7, 11, ... in id order.
          EXPECT_EQ((*ranked)[i].worker, WorkerId(3 + 4 * i))
              << "scalar=" << force_scalar << " block=" << scan_block
              << " threads=" << threads << " rank " << i;
          EXPECT_DOUBLE_EQ((*ranked)[i].score, 3.0);
        }
      }
    }
  }
}

// Live fold-in path: WithUpdatedRows must leave the panels in exactly
// the state a from-scratch snapshot build would produce, and queries on
// the updated snapshot must see the new scores through every path.
TEST(KernelEquivalenceTest, LiveUpdateReencodesPanelsExactly) {
  constexpr size_t kPool = 41;  // straddles a panel boundary (6 panels)
  constexpr size_t kDims = 4;
  auto snapshot = RandomSnapshot(kPool, kDims, 13);

  Rng rng(14);
  std::vector<std::pair<WorkerId, Vector>> updates;
  for (WorkerId w : {WorkerId(0), WorkerId(7), WorkerId(8), WorkerId(40)}) {
    Vector row(kDims);
    for (size_t d = 0; d < kDims; ++d) row[d] = rng.Normal();
    updates.emplace_back(w, row);
  }
  auto updated = snapshot->WithUpdatedRows(updates);

  // The re-encoded panels must be byte-identical to a fresh build of
  // the updated matrix.
  Matrix rebuilt(kPool, kDims);
  for (size_t w = 0; w < kPool; ++w) {
    const double* row = updated->RowPtr(WorkerId(w));
    for (size_t d = 0; d < kDims; ++d) rebuilt(w, d) = row[d];
  }
  const kernels::BlockedPanels fresh = kernels::BlockedPanels::Build(rebuilt);
  const kernels::BlockedPanels& live = updated->panels();
  ASSERT_EQ(live.num_panels(), fresh.num_panels());
  const size_t panel_doubles = live.dims() * kernels::kPanelWidth;
  for (size_t p = 0; p < live.num_panels(); ++p) {
    EXPECT_EQ(std::memcmp(live.PanelFp(p), fresh.PanelFp(p),
                          panel_doubles * sizeof(double)),
              0)
        << "fp panel " << p;
  }

  // And the serving view agrees: panel scan over the updated snapshot
  // ranks with the new rows.
  const Vector category = RandomCategory(kDims, 15);
  SelectionEngine engine;
  engine.PublishSnapshot(updated);
  auto ranked =
      engine.RankByCategory(category, kPool, DenseRange(kPool));
  ASSERT_TRUE(ranked.ok());
  for (const RankedWorker& rw : *ranked) {
    const double expected = live.LaneScore(rw.worker, category.raw());
    EXPECT_EQ(std::memcmp(&rw.score, &expected, sizeof(double)), 0)
        << "worker " << rw.worker;
  }
}

// The engine surfaces which kernel served the query.
TEST(KernelEquivalenceTest, EngineReportsDispatchedKernel) {
  SelectionEngine dispatched;
  EXPECT_TRUE(std::strcmp(dispatched.kernel().id(), "scalar") == 0 ||
              std::strcmp(dispatched.kernel().id(), "avx2") == 0);

  ServeOptions options;
  options.force_scalar_kernel = true;
  SelectionEngine forced(options);
  EXPECT_STREQ(forced.kernel().id(), "scalar");
}

}  // namespace
}  // namespace crowdselect::serve
