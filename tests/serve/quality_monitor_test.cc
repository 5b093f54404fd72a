#include "serve/quality_monitor.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "crowddb/jsonl.h"
#include "crowddb/selector_interface.h"
#include "obs/metrics.h"
#include "text/bag_of_words.h"

namespace crowdselect::serve {
namespace {

BagOfWords SomeTask() {
  BagOfWords bag;
  bag.Add(/*term=*/1, /*count=*/3);
  return bag;
}

std::vector<RankedWorker> Ranked(
    const std::vector<std::pair<WorkerId, double>>& scores) {
  std::vector<RankedWorker> out;
  for (const auto& [worker, score] : scores) out.push_back({worker, score});
  return out;
}

TEST(QualityMonitorTest, PerfectAgreementScoresZeroRmseAndTopOne) {
  obs::MetricsRegistry registry;
  QualityMonitorConfig config;
  config.model_id = "m";
  config.window_size = 4;
  QualityMonitor monitor(config, &registry);

  // Prediction and feedback agree exactly (up to scale): normalized
  // RMSE 0, top-1 hit, perfect correlation.
  for (int i = 0; i < 4; ++i) {
    monitor.OnResolvedTask(SomeTask(),
                           Ranked({{1, 0.9}, {2, 0.5}, {3, 0.1}}),
                           {{1, 9.0}, {2, 5.0}, {3, 1.0}});
  }
  const QualitySummary s = monitor.Summary();
  EXPECT_EQ(s.tasks_observed, 4u);
  EXPECT_EQ(s.tasks_skipped, 0u);
  EXPECT_LT(s.rmse_mean, 0.05);
  EXPECT_GT(s.top1_agreement_mean, 0.9);
  EXPECT_GT(s.calibration_mean, 0.9);
  EXPECT_FALSE(s.rmse_degraded);
  EXPECT_EQ(registry.GetCounter("quality.m.tasks_observed")->Value(), 4u);

  // The full window rotated, so the signal gauges are live.
  EXPECT_LT(registry.GetGauge("quality.m.rmse.p95")->Value(), 0.05);
  EXPECT_EQ(registry.GetGauge("quality.m.rmse.samples")->Value(), 4.0);
}

TEST(QualityMonitorTest, InvertedRankingScoresHighRmseAndMissesTopOne) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "inv", .window_size = 2}, &registry);
  for (int i = 0; i < 2; ++i) {
    // Model ranks worker 1 first; the crowd says worker 3 was best.
    monitor.OnResolvedTask(SomeTask(),
                           Ranked({{1, 0.9}, {2, 0.5}, {3, 0.1}}),
                           {{1, 1.0}, {2, 5.0}, {3, 9.0}});
  }
  const QualitySummary s = monitor.Summary();
  EXPECT_GT(s.rmse_mean, 0.5);
  EXPECT_LT(s.top1_agreement_mean, 0.1);
  EXPECT_LT(s.calibration_mean, -0.9);
}

TEST(QualityMonitorTest, TasksWithFewerThanTwoMatchedWorkersAreSkipped) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "s"}, &registry);
  // One matched worker (2 is predicted but has no feedback; 9 has
  // feedback but was not predicted).
  monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.5}}),
                         {{1, 3.0}, {9, 1.0}});
  // Empty intersection.
  monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}}), {{7, 1.0}});
  const QualitySummary s = monitor.Summary();
  EXPECT_EQ(s.tasks_observed, 0u);
  EXPECT_EQ(s.tasks_skipped, 2u);
  EXPECT_EQ(registry.GetCounter("quality.s.tasks_skipped")->Value(), 2u);
}

TEST(QualityMonitorTest, SpammerOnsetFlagsTheDriftingWorker) {
  obs::MetricsRegistry registry;
  QualityMonitorConfig config;
  config.model_id = "d";
  config.window_size = 100;
  config.drift_z_threshold = 2.0;
  config.min_observations = 5;
  QualityMonitor monitor(config, &registry);

  // Reference period: everyone — including worker 6 — performs exactly
  // as predicted, so every baseline freezes near zero deviation.
  for (int i = 0; i < 10; ++i) {
    monitor.OnResolvedTask(
        SomeTask(),
        Ranked({{6, 0.95}, {1, 0.9}, {2, 0.7}, {3, 0.5}, {4, 0.3}, {5, 0.1}}),
        {{6, 9.5}, {1, 9.0}, {2, 7.0}, {3, 5.0}, {4, 3.0}, {5, 1.0}});
  }
  EXPECT_EQ(monitor.Summary().drift_flagged, 0u);

  // Onset: worker 6 turns spammer (worst feedback while still predicted
  // best) — its residual EWMA dives far below its frozen baseline.
  for (int i = 0; i < 20; ++i) {
    monitor.OnResolvedTask(
        SomeTask(),
        Ranked({{6, 0.95}, {1, 0.9}, {2, 0.7}, {3, 0.5}, {4, 0.3}, {5, 0.1}}),
        {{1, 9.0}, {2, 7.0}, {3, 5.0}, {4, 3.0}, {5, 1.0}, {6, 0.0}});
  }
  const QualitySummary s = monitor.Summary();
  EXPECT_GE(s.drift_flagged, 1u);
  ASSERT_FALSE(s.flagged_workers.empty());
  EXPECT_EQ(s.flagged_workers[0], 6u);
  EXPECT_GT(s.drift_max_abs_z, config.drift_z_threshold);
  EXPECT_GE(registry.GetGauge("quality.d.drift.flagged")->Value(), 1.0);
  EXPECT_EQ(registry.GetGauge("quality.d.drift.workers")->Value(), 6.0);

  const std::vector<WorkerDriftStatus> drift = monitor.WorkerDrift();
  ASSERT_EQ(drift.size(), 6u);
  bool found = false;
  for (const WorkerDriftStatus& w : drift) {
    if (w.worker != 6) {
      EXPECT_FALSE(w.flagged);
      continue;
    }
    found = true;
    EXPECT_TRUE(w.flagged);
    // Post-onset feedback sits far below the worker's own baseline.
    EXPECT_LT(w.residual_ewma, w.baseline - 0.5);
    EXPECT_EQ(w.observations, 30u);
  }
  EXPECT_TRUE(found);
}

TEST(QualityMonitorTest, PersistentMispricingIsNotDrift) {
  obs::MetricsRegistry registry;
  QualityMonitorConfig config;
  config.model_id = "bias";
  config.drift_z_threshold = 2.0;
  config.min_observations = 5;
  QualityMonitor monitor(config, &registry);
  // Worker 4 is mis-priced from the very first task (predicted worst,
  // delivers best) and never changes. Its residual EWMA is large, but
  // its deviation from its own baseline is ~0 — no drift.
  for (int i = 0; i < 40; ++i) {
    monitor.OnResolvedTask(
        SomeTask(), Ranked({{1, 0.9}, {2, 0.7}, {3, 0.3}, {4, 0.1}}),
        {{1, 8.0}, {2, 7.0}, {3, 2.0}, {4, 9.0}});
  }
  EXPECT_EQ(monitor.Summary().drift_flagged, 0u);
  for (const WorkerDriftStatus& w : monitor.WorkerDrift()) {
    if (w.worker == 4) {
      EXPECT_GT(w.residual_ewma, 0.5);  // Mis-priced, yes...
      EXPECT_FALSE(w.flagged);          // ...but stable, so not drifting.
    }
  }
}

TEST(QualityMonitorTest, NoDriftFlagsWithoutAPopulation) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "p", .min_observations = 1}, &registry);
  // Only two workers ever observed: z-scores need >= 3 eligible.
  for (int i = 0; i < 10; ++i) {
    monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.1}}),
                           {{1, 1.0}, {2, 9.0}});
  }
  EXPECT_EQ(monitor.Summary().drift_flagged, 0u);
}

TEST(QualityMonitorTest, RmseDegradationComparesFirstAndLastWindow) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "deg", .window_size = 5}, &registry);
  // Window 1: perfect agreement.
  for (int i = 0; i < 5; ++i) {
    monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.1}}),
                           {{1, 9.0}, {2, 1.0}});
  }
  EXPECT_FALSE(monitor.Summary().rmse_degraded);
  // Window 2: inverted.
  for (int i = 0; i < 5; ++i) {
    monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.1}}),
                           {{1, 1.0}, {2, 9.0}});
  }
  const QualitySummary s = monitor.Summary();
  EXPECT_TRUE(s.rmse_degraded);
  // Two workers who agree score RMSE 0, two who are inverted RMSE 1.
  EXPECT_EQ(s.rmse_first_window, 0.0);
  EXPECT_EQ(s.rmse_last_window, 1.0);
}

TEST(QualityMonitorTest, RotateWindowsPublishesThePartialWindow) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "rot", .window_size = 1000}, &registry);
  monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.1}}),
                         {{1, 9.0}, {2, 1.0}});
  // Window far from full: gauges still zero.
  EXPECT_EQ(registry.GetGauge("quality.rot.rmse.window_count")->Value(), 0.0);
  monitor.RotateWindows();
  EXPECT_EQ(registry.GetGauge("quality.rot.rmse.window_count")->Value(), 1.0);
  EXPECT_EQ(registry.GetGauge("quality.rot.rmse.samples")->Value(), 1.0);
  EXPECT_EQ(monitor.Summary().rmse_first_window, 0.0);
  EXPECT_EQ(monitor.Summary().rmse_last_window, 0.0);
}

TEST(QualityMonitorTest, IdleRotationPushesNoWindowMean) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "idle", .window_size = 1000},
                         &registry);
  monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.1}}),
                         {{1, 1.0}, {2, 9.0}});
  monitor.RotateWindows();  // Closes the inverted window: mean RMSE 1.
  monitor.RotateWindows();  // Closes an empty window: no mean to push.
  const QualitySummary s = monitor.Summary();
  EXPECT_EQ(s.rmse_first_window, 1.0);
  EXPECT_EQ(s.rmse_last_window, 1.0);
  EXPECT_FALSE(s.rmse_degraded);
  EXPECT_EQ(registry.GetGauge("quality.idle.rmse.samples")->Value(), 0.0);
}

TEST(QualityMonitorTest, SummaryJsonIsFlatAndParseable) {
  obs::MetricsRegistry registry;
  QualityMonitor monitor({.model_id = "json"}, &registry);
  monitor.OnResolvedTask(SomeTask(), Ranked({{1, 0.9}, {2, 0.1}}),
                         {{1, 9.0}, {2, 1.0}});
  auto object = jsonl::ParseObject(monitor.SummaryJson());
  ASSERT_TRUE(object.ok()) << object.status().ToString();
  EXPECT_EQ(std::get<std::string>((*object)["model"]), "json");
  EXPECT_EQ(std::get<double>((*object)["tasks_observed"]), 1.0);
  EXPECT_TRUE(object->count("rmse_mean"));
  EXPECT_TRUE(object->count("rmse_degraded"));
  EXPECT_TRUE(object->count("population_drift_z"));
  EXPECT_TRUE(object->count("flagged_workers"));
}

}  // namespace
}  // namespace crowdselect::serve
