#include "obs/stats_reporter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "obs/alerts.h"
#include "obs/json_escape.h"
#include "obs/metric_help.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace crowdselect::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class StatsReporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Global().SetEnabled(true);
    TraceCollector::Global().Clear();
  }
};

TEST_F(StatsReporterTest, ToJsonCarriesEverySection) {
  MetricsRegistry registry;
  registry.GetCounter("reporter.counter")->Increment(3);
  registry.GetGauge("reporter.gauge")->Set(1.25);
  registry.GetHistogram("reporter.histo", {1.0, 2.0})->Record(1.5);
  { CS_SPAN(span, "reporter.span"); }

  const StatsReporter reporter(&registry);
  const std::string json = reporter.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"reporter.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("1.25"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"reporter.span\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\""), std::string::npos);
}

TEST_F(StatsReporterTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("reporter.file_counter")->Increment(9);
  const StatsReporter reporter(&registry);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_stats_test.json").string();
  ASSERT_TRUE(reporter.WriteJsonFile(path).ok());
  const std::string contents = ReadFile(path);
  EXPECT_EQ(contents, reporter.ToJson());
  EXPECT_NE(contents.find("\"reporter.file_counter\": 9"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(StatsReporterTest, WriteToUnwritablePathFails) {
  const StatsReporter reporter;
  EXPECT_FALSE(
      reporter.WriteJsonFile("/nonexistent_dir_cs/stats.json").ok());
  EXPECT_FALSE(
      reporter.WriteChromeTraceFile("/nonexistent_dir_cs/trace.json").ok());
}

TEST_F(StatsReporterTest, ChromeTraceFileContainsSpans) {
  { CS_SPAN(span, "reporter.chrome"); }
  const StatsReporter reporter;
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_trace_test.json").string();
  ASSERT_TRUE(reporter.WriteChromeTraceFile(path).ok());
  const std::string contents = ReadFile(path);
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("\"reporter.chrome\""), std::string::npos);
  std::filesystem::remove(path);
}

// ---- String escaping -------------------------------------------------------

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain.name"), "plain.name");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line1\nline2\ttab"), "line1\\nline2\\ttab");
  EXPECT_EQ(JsonEscape(std::string("\r\b\f")), "\\r\\b\\f");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
}

TEST_F(StatsReporterTest, JsonEscapesHostileMetricNames) {
  MetricsRegistry registry;
  const std::string hostile = "evil\"name\\with\nnewline";
  registry.GetCounter(hostile)->Increment(1);
  registry.GetGauge(hostile + ".g")->Set(2.0);
  registry.GetHistogram(hostile + ".h", {1.0})->Record(0.5);
  const StatsReporter reporter(&registry);
  const std::string json = reporter.ToJson();
  // The escaped form appears; the raw quote-in-name form must not.
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline"), std::string::npos);
  EXPECT_EQ(json.find("evil\"name"), std::string::npos);
  EXPECT_EQ(json.find('\n' + std::string("newline")), std::string::npos);
}

TEST_F(StatsReporterTest, ChromeTraceEscapesHostileSpanNames) {
  {
    ScopedSpan span("span\"with\\quote\nand newline");
  }
  const StatsReporter reporter;
  const std::string trace = reporter.ToChromeTraceJson();
  EXPECT_NE(trace.find("span\\\"with\\\\quote\\nand newline"),
            std::string::npos);
  // No raw control characters inside the emitted JSON string.
  EXPECT_EQ(trace.find("with\\quote\n"), std::string::npos);
}

// ---- Prometheus exposition -------------------------------------------------

TEST_F(StatsReporterTest, PrometheusExposesAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("prom.requests")->Increment(7);
  registry.GetGauge("prom.depth")->Set(3.5);
  auto* histo = registry.GetHistogram("prom.lat", {1.0, 10.0});
  histo->Record(0.5);
  histo->Record(5.0);
  histo->Record(100.0);
  const StatsReporter reporter(&registry);
  const std::string text = reporter.ToPrometheusText();

  EXPECT_NE(text.find("# TYPE crowdselect_prom_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_prom_requests 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdselect_prom_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_prom_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crowdselect_prom_lat histogram"),
            std::string::npos);
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(text.find("crowdselect_prom_lat_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_prom_lat_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_prom_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_prom_lat_count 3"), std::string::npos);
  EXPECT_NE(text.find("crowdselect_prom_lat_sum 105.5"), std::string::npos);
}

TEST_F(StatsReporterTest, PrometheusSanitizesIllegalNameCharacters) {
  MetricsRegistry registry;
  registry.GetCounter("serve.cache.hits")->Increment(2);
  registry.GetCounter("weird-name with spaces")->Increment(1);
  const StatsReporter reporter(&registry);
  const std::string text = reporter.ToPrometheusText();
  EXPECT_NE(text.find("crowdselect_serve_cache_hits 2"), std::string::npos);
  EXPECT_NE(text.find("crowdselect_weird_name_with_spaces 1"),
            std::string::npos);
  // No raw dots or spaces survive in metric names.
  EXPECT_EQ(text.find("serve.cache.hits"), std::string::npos);
}

TEST_F(StatsReporterTest, PrometheusEmitsHelpFromTheMetricRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("serve.queries")->Increment(1);
  registry.GetGauge("quality.tdpm.rmse.p95")->Set(0.1);
  registry.GetCounter("made.up.metric")->Increment(1);
  const StatsReporter reporter(&registry);
  const std::string text = reporter.ToPrometheusText();
  // Registered metric: the registry's description column verbatim.
  EXPECT_NE(text.find("# HELP crowdselect_serve_queries Queries served by "
                      "the selection engine."),
            std::string::npos);
  // quality.* resolves through the wildcard prefix entry.
  EXPECT_NE(text.find("# HELP crowdselect_quality_tdpm_rmse_p95 Online "
                      "shadow-evaluation signals"),
            std::string::npos);
  // Unknown metric: generic fallback, never an empty HELP.
  EXPECT_NE(
      text.find(
          "# HELP crowdselect_made_up_metric crowdselect metric "
          "made.up.metric (no description registered)."),
      std::string::npos);
  EXPECT_EQ(text.find("# HELP crowdselect_made_up_metric \n"),
            std::string::npos);
  EXPECT_GT(MetricHelpTableSize(), 0u);
}

TEST_F(StatsReporterTest, ToJsonCarriesTheAlertsSection) {
  AlertEngine::Global().Clear();
  MetricsRegistry registry;
  registry.GetGauge("alerts.test.signal")->Set(9.0);
  const StatsReporter reporter(&registry);
  EXPECT_NE(reporter.ToJson().find("\"alerts\""), std::string::npos);
  EXPECT_NE(reporter.ToJson().find("\"firing\": 0"), std::string::npos);

  AlertRule rule;
  rule.name = "json_section";
  rule.metric = "alerts.test.signal";
  rule.threshold = 5.0;
  ASSERT_TRUE(AlertEngine::Global().AddRule(rule).ok());
  AlertEngine::Global().EvaluateAll(&registry, /*series=*/nullptr);
  const std::string json = reporter.ToJson();
  EXPECT_NE(json.find("\"firing\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"json_section\""), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"alerts.test.signal\""),
            std::string::npos);
  AlertEngine::Global().Clear();
}

TEST_F(StatsReporterTest, PrometheusRendersLoadedAlertRulesAsAFamily) {
  AlertEngine::Global().Clear();
  MetricsRegistry registry;
  const StatsReporter reporter(&registry);
  // No rules loaded: the family is absent entirely.
  EXPECT_EQ(reporter.ToPrometheusText().find("crowdselect_alert_state"),
            std::string::npos);

  registry.GetGauge("alerts.prom.signal")->Set(1.0);
  AlertRule firing;
  firing.name = "prom_firing";
  firing.metric = "alerts.prom.signal";
  firing.threshold = 0.5;
  AlertRule ok;
  ok.name = "prom_ok";
  ok.metric = "alerts.prom.signal";
  ok.threshold = 100.0;
  ASSERT_TRUE(AlertEngine::Global().AddRule(firing).ok());
  ASSERT_TRUE(AlertEngine::Global().AddRule(ok).ok());
  AlertEngine::Global().EvaluateAll(&registry, /*series=*/nullptr);

  const std::string text = reporter.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE crowdselect_alert_state gauge"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_alert_state{rule=\"prom_firing\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("crowdselect_alert_state{rule=\"prom_ok\"} 0"),
            std::string::npos);
  AlertEngine::Global().Clear();
}

TEST_F(StatsReporterTest, WritePrometheusFileIsAtomic) {
  MetricsRegistry registry;
  registry.GetCounter("prom.file")->Increment(4);
  const StatsReporter reporter(&registry);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_prom_test.prom").string();
  ASSERT_TRUE(reporter.WritePrometheusFile(path).ok());
  EXPECT_EQ(ReadFile(path), reporter.ToPrometheusText());
  // The temp staging file does not linger.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(
      reporter.WritePrometheusFile("/nonexistent_dir_cs/out.prom").ok());
  std::filesystem::remove(path);
}

TEST_F(StatsReporterTest, PeriodicExporterWritesAndStops) {
  MetricsRegistry registry;
  registry.GetCounter("prom.periodic")->Increment(1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_prom_periodic.prom")
          .string();
  {
    auto exporter = PeriodicStatsExporter::Create(
        path, /*interval_seconds=*/0.01, StatsReporter(&registry));
    ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
    // Stop() writes a final snapshot even if no interval elapsed.
    ASSERT_TRUE((*exporter)->Stop().ok());
    ASSERT_TRUE((*exporter)->Stop().ok()) << "Stop must be idempotent";
    EXPECT_GE((*exporter)->writes(), 1u);
  }
  EXPECT_NE(ReadFile(path).find("crowdselect_prom_periodic 1"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(StatsReporterTest, PeriodicExporterCreateRejectsBadIntervals) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_prom_create.prom")
          .string();
  for (const double interval : {0.0, -1.0, std::nan("")}) {
    auto created = PeriodicStatsExporter::Create(path, interval);
    ASSERT_FALSE(created.ok()) << "interval " << interval;
    EXPECT_TRUE(created.status().IsInvalidArgument())
        << created.status().ToString();
  }
  EXPECT_TRUE(
      PeriodicStatsExporter::Create("", 1.0).status().IsInvalidArgument());

  auto created = PeriodicStatsExporter::Create(path, 0.01);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_NE(*created, nullptr);
  EXPECT_TRUE((*created)->Stop().ok());
  std::filesystem::remove(path);
}

// A Stop right after Create must not wait out the 30 s interval; it
// makes exactly the one final write.
TEST_F(StatsReporterTest, PeriodicExporterStopRightAfterStartReturnsPromptly) {
  MetricsRegistry registry;
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_prom_prompt.prom")
          .string();
  const auto start = std::chrono::steady_clock::now();
  auto exporter = PeriodicStatsExporter::Create(
      path, /*interval_seconds=*/30.0, StatsReporter(&registry));
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  EXPECT_TRUE((*exporter)->Stop().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
  EXPECT_EQ((*exporter)->writes(), 1u);
  std::filesystem::remove(path);
}

TEST_F(StatsReporterTest, PeriodicExporterDestroyedDuringFirstWrite) {
  // Races destruction against the very first background write: the
  // destructor must join the thread before members die (TSan enforces
  // the absence of a use-after-free / data race here).
  MetricsRegistry registry;
  registry.GetCounter("prom.race")->Increment(1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_prom_race.prom")
          .string();
  for (int i = 0; i < 50; ++i) {
    auto exporter = PeriodicStatsExporter::Create(
        path, /*interval_seconds=*/1e-4, StatsReporter(&registry));
    ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
    // Destroyed immediately — often exactly while a tick is mid-write.
  }
  std::filesystem::remove(path);
}

TEST_F(StatsReporterTest, PeriodicExporterReadersNeverSeePartialFiles) {
  // The exporter replaces the file via tmp + rename, so a concurrent
  // reader sees either no file or one complete exposition — never a
  // truncated prefix.
  MetricsRegistry registry;
  registry.GetCounter("prom.atomic")->Increment(7);
  const std::string path =
      (std::filesystem::temp_directory_path() / "cs_prom_atomic.prom")
          .string();
  std::filesystem::remove(path);
  {
    auto exporter = PeriodicStatsExporter::Create(
        path, /*interval_seconds=*/1e-4, StatsReporter(&registry));
    ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
    size_t reads = 0;
    while (reads < 200) {
      const std::string content = ReadFile(path);
      if (content.empty()) continue;  // Not yet renamed into place.
      ++reads;
      EXPECT_NE(content.find("# TYPE crowdselect_prom_atomic counter"),
                std::string::npos)
          << "partial exposition visible to a reader";
      EXPECT_EQ(content.back(), '\n');
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace crowdselect::obs
