#include "obs/window.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace crowdselect::obs {
namespace {

const std::vector<double> kBounds = {1.0, 10.0, 100.0, 1000.0};

double GaugeValue(MetricsRegistry& registry, const std::string& name) {
  return registry.GetGauge(name)->Value();
}

TEST(WindowedHistogramTest, GaugesRefreshOnlyOnRotation) {
  MetricsRegistry registry;
  WindowedHistogram window("rot", 3, kBounds, &registry);
  window.Record(50.0);
  // The open window is not published: gauges stay at their initial zero
  // until the window closes.
  EXPECT_EQ(GaugeValue(registry, "slo.rot.window_count"), 0.0);
  EXPECT_EQ(window.Merged().count, 0u);
  EXPECT_EQ(window.Merged(/*include_open=*/true).count, 1u);

  window.Rotate();
  EXPECT_EQ(window.rotations(), 1u);
  EXPECT_EQ(GaugeValue(registry, "slo.rot.window_count"), 1.0);
  EXPECT_GT(GaugeValue(registry, "slo.rot.p50"), 0.0);
}

TEST(WindowedHistogramTest, SingleSampleQuantilesLandInItsBucket) {
  MetricsRegistry registry;
  WindowedHistogram window("single", 4, kBounds, &registry);
  window.Record(42.0);
  window.Rotate();
  // With one sample every quantile is a bucket-interpolated estimate
  // inside that sample's bucket (10, 100].
  for (const char* g : {"slo.single.p50", "slo.single.p95",
                        "slo.single.p99"}) {
    const double v = GaugeValue(registry, g);
    EXPECT_GT(v, 10.0) << g;
    EXPECT_LE(v, 100.0) << g;
  }
  EXPECT_EQ(GaugeValue(registry, "slo.single.window_count"), 1.0);
}

TEST(WindowedHistogramTest, QuantilesAreMonotone) {
  MetricsRegistry registry;
  WindowedHistogram window("mono", 2, kBounds, &registry);
  for (int i = 1; i <= 200; ++i) window.Record(static_cast<double>(i * 3));
  window.Rotate();
  const double p50 = GaugeValue(registry, "slo.mono.p50");
  const double p95 = GaugeValue(registry, "slo.mono.p95");
  const double p99 = GaugeValue(registry, "slo.mono.p99");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(WindowedHistogramTest, EmptyRotationsAgeOutOldSamples) {
  MetricsRegistry registry;
  WindowedHistogram window("age", 3, kBounds, &registry);
  window.Record(500.0);
  window.Rotate();
  EXPECT_GT(GaugeValue(registry, "slo.age.p99"), 100.0);

  // Idle rotations: the spike window survives until it falls off the
  // 3-window ring, then the gauges report "no traffic" as zero.
  window.Rotate();
  window.Rotate();
  EXPECT_EQ(GaugeValue(registry, "slo.age.window_count"), 1.0);
  window.Rotate();
  EXPECT_EQ(GaugeValue(registry, "slo.age.window_count"), 0.0);
  EXPECT_EQ(GaugeValue(registry, "slo.age.p50"), 0.0);
  EXPECT_EQ(GaugeValue(registry, "slo.age.p95"), 0.0);
  EXPECT_EQ(GaugeValue(registry, "slo.age.p99"), 0.0);
}

TEST(WindowedHistogramTest, RingKeepsOnlyLastNWindows) {
  MetricsRegistry registry;
  WindowedHistogram window("ring", 2, kBounds, &registry);
  window.Record(900.0);  // Slow era.
  window.Rotate();
  window.Record(2.0);  // Fast era, twice: pushes the slow window out.
  window.Rotate();
  window.Record(2.0);
  window.Rotate();
  const HistogramSample merged = window.Merged();
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.max, 2.0);
  EXPECT_LT(GaugeValue(registry, "slo.ring.p99"), 10.0);
}

TEST(WindowedHistogramTest, MergedAggregatesAcrossRetainedWindows) {
  MetricsRegistry registry;
  WindowedHistogram window("merge", 4, kBounds, &registry);
  window.Record(5.0);
  window.Rotate();
  window.Record(50.0);
  window.Rotate();
  const HistogramSample merged = window.Merged();
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.min, 5.0);
  EXPECT_EQ(merged.max, 50.0);
  EXPECT_DOUBLE_EQ(merged.sum, 55.0);
}

TEST(WindowedHistogramTest, MeanAndSampleCountGaugesTrackTheNewestWindow) {
  MetricsRegistry registry;
  WindowedHistogram window("counted", 3, kBounds, &registry);
  window.Record(10.0);
  window.Record(30.0);
  window.Rotate();
  EXPECT_DOUBLE_EQ(GaugeValue(registry, "slo.counted.mean"), 20.0);
  // `samples` is the newest closed window's own count — the per-window
  // denominator a percentile gauge should be read against — while
  // `window_count` is the merged count across all retained windows.
  EXPECT_EQ(GaugeValue(registry, "slo.counted.samples"), 2.0);
  EXPECT_EQ(GaugeValue(registry, "slo.counted.window_count"), 2.0);

  window.Record(100.0);
  window.Rotate();
  EXPECT_EQ(GaugeValue(registry, "slo.counted.samples"), 1.0);
  EXPECT_EQ(GaugeValue(registry, "slo.counted.window_count"), 3.0);
}

TEST(WindowedHistogramTest, CustomGaugePrefixReplacesSlo) {
  MetricsRegistry registry;
  WindowedHistogram window("quality.m.rmse", 2, kBounds, &registry,
                           /*gauge_prefix=*/"");
  window.Record(1.0);
  window.Rotate();
  // Gauges land at the bare name — no "slo." in front.
  EXPECT_EQ(GaugeValue(registry, "quality.m.rmse.window_count"), 1.0);
  EXPECT_EQ(GaugeValue(registry, "quality.m.rmse.samples"), 1.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  for (const auto& gauge : snapshot.gauges) {
    EXPECT_EQ(gauge.name.rfind("slo.", 0), std::string::npos) << gauge.name;
  }
}

TEST(SloTrackerTest, LazilyCreatesEndpointsAndRotatesInLockstep) {
  SloTracker tracker;
  EXPECT_TRUE(tracker.Endpoints().empty());
  tracker.Record("test.alpha", 10.0);
  tracker.Record("test.beta", 20.0);
  EXPECT_EQ(tracker.Endpoints(),
            (std::vector<std::string>{"test.alpha", "test.beta"}));
  tracker.RotateAll();
  EXPECT_EQ(tracker.GetWindow("test.alpha")->rotations(), 1u);
  EXPECT_EQ(tracker.GetWindow("test.beta")->rotations(), 1u);
  EXPECT_EQ(tracker.GetWindow("test.alpha")->Merged().count, 1u);
}

TEST(SloTrackerTest, DefaultNumWindowsAppliesToNewEndpoints) {
  SloTracker tracker;
  EXPECT_EQ(tracker.default_num_windows(), 6u);
  tracker.Record("test.before", 1.0);
  tracker.set_default_num_windows(2);
  tracker.Record("test.after", 1.0);
  EXPECT_EQ(tracker.GetWindow("test.before")->num_windows(), 6u);
  EXPECT_EQ(tracker.GetWindow("test.after")->num_windows(), 2u);
}

TEST(SloTrackerTest, GlobalIsASingleton) {
  EXPECT_EQ(&SloTracker::Global(), &SloTracker::Global());
}

TEST(SloTrackerTest, BackgroundRotationAdvancesWindowsAndStopsCleanly) {
  SloTracker tracker;
  tracker.Record("test.bg", 5.0);
  EXPECT_FALSE(tracker.background_rotation_running());
  tracker.StartBackgroundRotation(/*interval_seconds=*/0.002);
  tracker.StartBackgroundRotation(0.002);  // Idempotent while running.
  EXPECT_TRUE(tracker.background_rotation_running());

  WindowedHistogram* window = tracker.GetWindow("test.bg");
  for (int i = 0; i < 2000 && window->rotations() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(window->rotations(), 2u);

  tracker.StopBackgroundRotation();
  EXPECT_FALSE(tracker.background_rotation_running());
  const uint64_t settled = window->rotations();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(window->rotations(), settled)
      << "no rotations after a clean stop";
  tracker.StopBackgroundRotation();  // Idempotent when stopped.
}

TEST(SloTrackerTest, DestructorJoinsTheRotationThread) {
  // Destruction while the rotation thread sleeps must not hang or leak
  // the thread (TSan would flag a detached racer).
  SloTracker tracker;
  tracker.Record("test.dtor", 1.0);
  tracker.StartBackgroundRotation(/*interval_seconds=*/30.0);
  EXPECT_TRUE(tracker.background_rotation_running());
}

// Regression: the rotation thread waited without a predicate, so a Stop
// that ran before the thread's first wait was lost and Stop blocked for
// a whole interval.
TEST(SloTrackerTest, StopRightAfterStartReturnsPromptly) {
  SloTracker tracker;
  tracker.Record("test.prompt", 1.0);
  const auto start = std::chrono::steady_clock::now();
  tracker.StartBackgroundRotation(/*interval_seconds=*/30.0);
  tracker.StopBackgroundRotation();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  EXPECT_FALSE(tracker.background_rotation_running());
  EXPECT_EQ(tracker.GetWindow("test.prompt")->rotations(), 0u)
      << "a stop must not rotate";
}

TEST(SloTrackerTest, NonPositiveRotationIntervalIsClamped) {
  SloTracker tracker;
  tracker.StartBackgroundRotation(/*interval_seconds=*/-1.0);
  EXPECT_TRUE(tracker.background_rotation_running());
  tracker.StopBackgroundRotation();
}

}  // namespace
}  // namespace crowdselect::obs
