#include "crowddb/online_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace crowdselect {
namespace {

TEST(OnlinePoolTest, CheckInOut) {
  OnlineWorkerPool pool;
  EXPECT_EQ(pool.size(), 0u);
  pool.CheckIn(3);
  pool.CheckIn(1);
  pool.CheckIn(3);  // Idempotent.
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.IsOnline(3));
  EXPECT_FALSE(pool.IsOnline(2));
  pool.CheckOut(3);
  EXPECT_FALSE(pool.IsOnline(3));
  pool.CheckOut(3);  // Idempotent.
  EXPECT_EQ(pool.size(), 1u);
}

TEST(OnlinePoolTest, SnapshotIsSorted) {
  OnlineWorkerPool pool;
  pool.CheckInAll({9, 2, 5, 2});
  EXPECT_EQ(pool.Snapshot(), (std::vector<WorkerId>{2, 5, 9}));
}

TEST(OnlinePoolTest, PublishedVectorKeepsItsContents) {
  OnlineWorkerPool pool;
  pool.CheckInAll({4, 1, 7});
  const std::shared_ptr<const std::vector<WorkerId>> held = pool.Published();
  ASSERT_EQ(*held, (std::vector<WorkerId>{1, 4, 7}));
  pool.CheckIn(3);
  pool.CheckOut(4);
  pool.CheckInAll({0, 9});
  EXPECT_EQ(*held, (std::vector<WorkerId>{1, 4, 7}));
  EXPECT_EQ(*pool.Published(), (std::vector<WorkerId>{0, 1, 3, 7, 9}));
}

TEST(OnlinePoolTest, CallsThatChangeNothingPublishNothing) {
  OnlineWorkerPool pool;
  pool.CheckInAll({2, 5});
  const std::shared_ptr<const std::vector<WorkerId>> held = pool.Published();
  pool.CheckIn(5);
  pool.CheckOut(9);
  pool.CheckInAll({5, 2, 2});
  pool.CheckInAll({});
  EXPECT_EQ(pool.Published(), held);
  pool.CheckIn(3);
  EXPECT_NE(pool.Published(), held);
}

TEST(OnlinePoolTest, RandomChurnMatchesSetModel) {
  constexpr WorkerId kIds = 48;
  OnlineWorkerPool pool;
  std::set<WorkerId> model;
  Rng rng(20150323);
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.UniformInt(5);
    if (op < 2) {
      const auto w = static_cast<WorkerId>(rng.UniformInt(kIds));
      pool.CheckIn(w);
      model.insert(w);
    } else if (op < 4) {
      const auto w = static_cast<WorkerId>(rng.UniformInt(kIds));
      pool.CheckOut(w);
      model.erase(w);
    } else {
      std::vector<WorkerId> batch(rng.UniformInt(6));
      for (WorkerId& w : batch) {
        w = static_cast<WorkerId>(rng.UniformInt(kIds));
      }
      pool.CheckInAll(batch);
      model.insert(batch.begin(), batch.end());
    }
    ASSERT_EQ(pool.Snapshot(),
              std::vector<WorkerId>(model.begin(), model.end()))
        << "step " << step;
    ASSERT_EQ(pool.size(), model.size()) << "step " << step;
    for (WorkerId w = 0; w < kIds; ++w) {
      ASSERT_EQ(pool.IsOnline(w), model.count(w) > 0)
          << "step " << step << " worker " << w;
    }
  }
}

TEST(OnlinePoolTest, ConcurrentCheckInsAreSafe) {
  OnlineWorkerPool pool;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 250; ++i) {
        pool.CheckIn(static_cast<WorkerId>(t * 250 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.size(), 2000u);
}

// Readers walk the published vector while writers churn the pool: every
// vector a reader holds must stay strictly ascending (run under TSan via
// crowddb_test's tsan label, this also checks the pointer handoff).
TEST(OnlinePoolTest, ReadersSeeAscendingVectorsWhileWritersChurn) {
  constexpr WorkerId kIds = 256;
  OnlineWorkerPool pool;
  std::vector<WorkerId> all(kIds);
  for (WorkerId w = 0; w < kIds; ++w) all[w] = w;
  pool.CheckInAll(all);
  std::atomic<bool> writing{true};
  std::atomic<int> unordered{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      do {
        const std::shared_ptr<const std::vector<WorkerId>> ids =
            pool.Published();
        for (size_t i = 1; i < ids->size(); ++i) {
          if ((*ids)[i - 1] >= (*ids)[i]) unordered.fetch_add(1);
        }
        reads.fetch_add(1);
      } while (writing.load());
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&pool, t] {
      Rng rng(7 + static_cast<uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const auto w = static_cast<WorkerId>(rng.UniformInt(kIds));
        if (rng.Bernoulli(0.5)) {
          pool.CheckIn(w);
        } else {
          pool.CheckOut(w);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  writing.store(false);
  for (auto& th : readers) th.join();
  EXPECT_EQ(unordered.load(), 0);
  EXPECT_GE(reads.load(), 2u);
}

}  // namespace
}  // namespace crowdselect
