#include "serve/skill_matrix.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "serve/selection_engine.h"
#include "util/rng.h"

namespace crowdselect::serve {
namespace {

std::vector<WorkerPosterior> MakePosteriors(size_t n, size_t k,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<WorkerPosterior> workers(n);
  for (auto& w : workers) {
    w.lambda = Vector(k);
    w.nu_sq = Vector(k, 0.1);
    for (size_t d = 0; d < k; ++d) w.lambda[d] = rng.Normal();
  }
  return workers;
}

TEST(SkillMatrixSnapshotTest, FromPosteriorsFlattensRowMajor) {
  const auto workers = MakePosteriors(5, 3, 1);
  auto snap = SkillMatrixSnapshot::FromPosteriors(workers);
  ASSERT_EQ(snap->num_workers(), 5u);
  ASSERT_EQ(snap->num_categories(), 3u);
  EXPECT_EQ(snap->version(), 1u);
  for (WorkerId w = 0; w < 5; ++w) {
    const double* row = snap->RowPtr(w);
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(row[d], workers[w].lambda[d]);
    }
  }
  // Rows are contiguous: row w+1 starts exactly K doubles after row w.
  EXPECT_EQ(snap->RowPtr(1), snap->RowPtr(0) + 3);
  EXPECT_EQ(snap->RowPtr(4), snap->RowPtr(0) + 4 * 3);
}

TEST(SkillMatrixSnapshotTest, EmptyPoolIsValid) {
  auto snap = SkillMatrixSnapshot::FromPosteriors({});
  EXPECT_EQ(snap->num_workers(), 0u);
  EXPECT_EQ(snap->num_categories(), 0u);
}

TEST(SkillMatrixSnapshotTest, ScoreMatchesDot) {
  const auto workers = MakePosteriors(4, 8, 2);
  auto snap = SkillMatrixSnapshot::FromPosteriors(workers);
  Rng rng(3);
  Vector category(8);
  for (size_t d = 0; d < 8; ++d) category[d] = rng.Normal();
  for (WorkerId w = 0; w < 4; ++w) {
    EXPECT_NEAR(snap->Score(w, category), workers[w].lambda.Dot(category),
                1e-12);
  }
}

TEST(SkillMatrixSnapshotTest, WithUpdatedRowsIsCopyOnWrite) {
  const auto workers = MakePosteriors(4, 2, 4);
  auto v1 = SkillMatrixSnapshot::FromPosteriors(workers);
  Vector updated(2);
  updated[0] = 42.0;
  updated[1] = -7.0;
  auto v2 = v1->WithUpdatedRows({{1, updated}});
  EXPECT_EQ(v2->version(), v1->version() + 1);
  // The new version carries the update...
  EXPECT_DOUBLE_EQ(v2->RowPtr(1)[0], 42.0);
  EXPECT_DOUBLE_EQ(v2->RowPtr(1)[1], -7.0);
  // ...other rows are untouched...
  EXPECT_DOUBLE_EQ(v2->RowPtr(0)[0], workers[0].lambda[0]);
  EXPECT_DOUBLE_EQ(v2->RowPtr(3)[1], workers[3].lambda[1]);
  // ...and the original snapshot is unchanged.
  EXPECT_DOUBLE_EQ(v1->RowPtr(1)[0], workers[1].lambda[0]);
}

TEST(SkillMatrixSnapshotTest, PanelsMirrorTheRowMajorView) {
  const auto workers = MakePosteriors(11, 3, 9);
  auto snap = SkillMatrixSnapshot::FromPosteriors(workers);
  const kernels::BlockedPanels& panels = snap->panels();
  EXPECT_EQ(panels.num_workers(), snap->num_workers());
  EXPECT_EQ(panels.dims(), snap->num_categories());
  for (size_t w = 0; w < snap->num_workers(); ++w) {
    const double* panel = panels.PanelFp(w / kernels::kPanelWidth);
    const size_t lane = w % kernels::kPanelWidth;
    for (size_t d = 0; d < snap->num_categories(); ++d) {
      EXPECT_EQ(panel[d * kernels::kPanelWidth + lane], snap->RowPtr(w)[d])
          << "worker " << w << " dim " << d;
    }
  }
}

TEST(SkillMatrixSnapshotTest, WithUpdatedRowsReencodesPanels) {
  const auto workers = MakePosteriors(10, 2, 5);
  auto v1 = SkillMatrixSnapshot::FromPosteriors(workers);
  Vector updated(2);
  updated[0] = 42.0;
  updated[1] = -7.0;
  auto v2 = v1->WithUpdatedRows({{9, updated}});  // lane 1 of panel 1
  const kernels::BlockedPanels& panels = v2->panels();
  const double* panel = panels.PanelFp(1);
  EXPECT_EQ(panel[0 * kernels::kPanelWidth + 1], 42.0);
  EXPECT_EQ(panel[1 * kernels::kPanelWidth + 1], -7.0);
  // The original snapshot's panels are untouched.
  EXPECT_DOUBLE_EQ(v1->panels().PanelFp(1)[0 * kernels::kPanelWidth + 1],
                   workers[9].lambda[0]);
  // Same physical layout, same signature.
  EXPECT_EQ(v1->layout_signature(), v2->layout_signature());
}

TEST(SnapshotHandleTest, AcquireReturnsLatestPublish) {
  SnapshotHandle handle;
  EXPECT_EQ(handle.Acquire(), nullptr);
  auto v1 = SkillMatrixSnapshot::FromPosteriors(MakePosteriors(2, 2, 5), 1);
  handle.Publish(v1);
  EXPECT_EQ(handle.Acquire(), v1);
  auto v2 = v1->WithUpdatedRows({});
  handle.Publish(v2);
  EXPECT_EQ(handle.Acquire(), v2);
  // The old version stays alive for readers that still hold it.
  EXPECT_EQ(v1->version(), 1u);
}

// Writers keep publishing new versions while readers scan whatever
// version they acquired. Run under TSan in CI: the reader must never see
// a torn matrix, and every acquired snapshot must be internally
// consistent (all rows from the same version).
TEST(SnapshotHandleTest, ConcurrentPublishAndRead) {
  constexpr size_t kWorkers = 64;
  constexpr size_t kCategories = 4;
  constexpr int kPublishes = 200;
  // Version v sets every cell to v, so mixed-version reads are detectable.
  auto make_version = [](uint64_t v) {
    Matrix skills(kWorkers, kCategories);
    for (size_t w = 0; w < kWorkers; ++w) {
      for (size_t d = 0; d < kCategories; ++d) {
        skills(w, d) = static_cast<double>(v);
      }
    }
    return SkillMatrixSnapshot::FromMatrix(std::move(skills), v);
  };

  SnapshotHandle handle;
  handle.Publish(make_version(1));
  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = handle.Acquire();
        const double expected = static_cast<double>(snap->version());
        for (WorkerId w = 0; w < kWorkers; ++w) {
          const double* row = snap->RowPtr(w);
          for (size_t d = 0; d < kCategories; ++d) {
            if (row[d] != expected) torn_reads.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (uint64_t v = 2; v <= kPublishes; ++v) {
      handle.Publish(make_version(v));
    }
    stop.store(true);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(handle.Acquire()->version(), static_cast<uint64_t>(kPublishes));
}

// Same shape but through the engine: readers run full RankByCategory
// queries while a writer publishes incremental row updates.
TEST(SnapshotHandleTest, ConcurrentEngineQueriesDuringPublish) {
  constexpr size_t kWorkers = 128;
  constexpr size_t kCategories = 4;
  SelectionEngine engine;
  engine.PublishSnapshot(
      SkillMatrixSnapshot::FromPosteriors(MakePosteriors(kWorkers,
                                                         kCategories, 9)));
  std::vector<WorkerId> candidates;
  for (WorkerId w = 0; w < kWorkers; ++w) candidates.push_back(w);
  Vector category(kCategories, 1.0);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto ranked = engine.RankByCategory(category, 5, candidates);
        if (!ranked.ok() || ranked->size() != 5u) failures.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
      Vector row(kCategories);
      for (size_t d = 0; d < kCategories; ++d) row[d] = rng.Normal();
      auto current = engine.snapshot();
      engine.PublishSnapshot(current->WithUpdatedRows(
          {{static_cast<WorkerId>(rng.UniformInt(kWorkers)), row}}));
    }
    stop.store(true);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace crowdselect::serve
