#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crowddb/jsonl.h"
#include "obs/metrics.h"

namespace crowdselect::obs {
namespace {

TEST(TimeSeriesStoreTest, AppendAndReadBack) {
  TimeSeriesStore store;
  EXPECT_TRUE(store.Append("a", 0.0, 1.0));
  EXPECT_TRUE(store.Append("a", 1.0, 2.0));
  EXPECT_TRUE(store.Append("b", 0.0, 9.0));

  EXPECT_EQ(store.num_series(), 2u);
  EXPECT_EQ(store.total_points(), 3u);
  const std::vector<std::string> names = store.SeriesNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");

  const std::vector<TimeSeriesPoint> a = store.Points("a");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].t, 0.0);
  EXPECT_EQ(a[0].v, 1.0);
  EXPECT_EQ(a[1].t, 1.0);
  EXPECT_EQ(a[1].v, 2.0);
  EXPECT_TRUE(store.Points("unknown").empty());
}

TEST(TimeSeriesStoreTest, RingOverwritesOldestOnceFull) {
  TimeSeriesStore store;
  store.set_capacity_per_series(4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Append("s", static_cast<double>(i), 10.0 * i));
  }
  const std::vector<TimeSeriesPoint> points = store.Points("s");
  ASSERT_EQ(points.size(), 4u);
  // Oldest-first: the retained window is t = 6..9.
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].t, static_cast<double>(6 + i));
    EXPECT_EQ(points[i].v, 10.0 * (6 + i));
  }
  EXPECT_EQ(store.total_points(), 10u);
}

TEST(TimeSeriesStoreTest, CapacityIsPerSeriesAtCreationTime) {
  TimeSeriesStore store;
  store.set_capacity_per_series(2);
  store.Append("small", 0.0, 0.0);
  store.set_capacity_per_series(8);
  store.Append("big", 0.0, 0.0);
  for (int i = 1; i < 8; ++i) {
    store.Append("small", static_cast<double>(i), 0.0);
    store.Append("big", static_cast<double>(i), 0.0);
  }
  // "small" keeps the ring it was created with; "big" gets the new cap.
  EXPECT_EQ(store.Points("small").size(), 2u);
  EXPECT_EQ(store.Points("big").size(), 8u);
}

TEST(TimeSeriesStoreTest, MaxSeriesCapDropsNewSeries) {
  TimeSeriesStore store;
  store.set_max_series(2);
  EXPECT_TRUE(store.Append("a", 0.0, 0.0));
  EXPECT_TRUE(store.Append("b", 0.0, 0.0));
  EXPECT_FALSE(store.Append("c", 0.0, 0.0));
  // Existing series keep accepting appends.
  EXPECT_TRUE(store.Append("a", 1.0, 1.0));
  EXPECT_EQ(store.num_series(), 2u);
}

TEST(TimeSeriesStoreTest, SampleRegistryCapturesCountersAndGauges) {
  MetricsRegistry registry;
  registry.GetCounter("serve.queries")->Increment(7);
  registry.GetGauge("pool.size")->Set(3.0);
  // Metrics in the store's own namespace are skipped so a sampling tick
  // never feeds back into itself.
  registry.GetCounter("timeseries.samples")->Increment();

  TimeSeriesStore store;
  const size_t appended = store.SampleRegistry(5.0, &registry);
  EXPECT_EQ(appended, 2u);

  const std::vector<TimeSeriesPoint> queries = store.Points("serve.queries");
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0].t, 5.0);
  EXPECT_EQ(queries[0].v, 7.0);
  ASSERT_EQ(store.Points("pool.size").size(), 1u);
  EXPECT_EQ(store.Points("pool.size")[0].v, 3.0);
  EXPECT_TRUE(store.Points("timeseries.samples").empty());
}

TEST(TimeSeriesStoreTest, ToJsonlIsFlatAndParsesBack) {
  TimeSeriesStore store;
  store.Append("quality.m.rmse.mean", 0.0, 0.25);
  store.Append("quality.m.rmse.mean", 1.0, 0.5);
  store.Append("alert.firing", 1.0, 1.0);

  const std::string dump = store.ToJsonl();
  std::istringstream lines(dump);
  std::string line;
  size_t parsed = 0;
  std::vector<std::string> series_seen;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto object = jsonl::ParseObject(line);
    ASSERT_TRUE(object.ok()) << line;
    ASSERT_TRUE(object->count("series"));
    ASSERT_TRUE(object->count("t"));
    ASSERT_TRUE(object->count("v"));
    series_seen.push_back(std::get<std::string>((*object)["series"]));
    ++parsed;
  }
  EXPECT_EQ(parsed, 3u);
  // Series in name order, points oldest first within a series.
  ASSERT_EQ(series_seen.size(), 3u);
  EXPECT_EQ(series_seen[0], "alert.firing");
  EXPECT_EQ(series_seen[1], "quality.m.rmse.mean");
  EXPECT_EQ(series_seen[2], "quality.m.rmse.mean");
}

TEST(TimeSeriesStoreTest, ClearDropsPointsButKeepsSettings) {
  TimeSeriesStore store;
  store.set_capacity_per_series(4);
  store.Append("a", 0.0, 0.0);
  store.Clear();
  EXPECT_EQ(store.num_series(), 0u);
  EXPECT_EQ(store.total_points(), 0u);
  for (int i = 0; i < 10; ++i) {
    store.Append("a", static_cast<double>(i), 0.0);
  }
  EXPECT_EQ(store.Points("a").size(), 4u);
}

TEST(TimeSeriesStoreTest, BackgroundSamplingStartsAndStopsCleanly) {
  MetricsRegistry registry;
  registry.GetGauge("g")->Set(1.0);
  TimeSeriesStore store;
  store.StartSampling(0.01, &registry);
  EXPECT_TRUE(store.sampling_running());
  // Idempotent while running.
  store.StartSampling(0.01, &registry);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (store.total_points() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  store.StopSampling();
  EXPECT_FALSE(store.sampling_running());
  EXPECT_GT(store.total_points(), 0u);
  store.StopSampling();  // Idempotent when already stopped.
}

// Regression: the sampler waited without a predicate, so a Stop that
// ran before the thread's first wait was lost and Stop blocked for a
// whole interval.
TEST(TimeSeriesStoreTest, StopRightAfterStartReturnsPromptly) {
  MetricsRegistry registry;
  registry.GetGauge("g")->Set(1.0);
  TimeSeriesStore store;
  const auto start = std::chrono::steady_clock::now();
  store.StartSampling(/*interval_seconds=*/30.0, &registry);
  store.StopSampling();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  EXPECT_FALSE(store.sampling_running());
  EXPECT_EQ(store.total_points(), 0u) << "a stop must not sample";
}

TEST(TimeSeriesStoreTest, GlobalIsASingleton) {
  EXPECT_EQ(&TimeSeriesStore::Global(), &TimeSeriesStore::Global());
}

}  // namespace
}  // namespace crowdselect::obs
