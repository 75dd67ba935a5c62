// Exporters: Prometheus text format (label splitting, histogram buckets,
// one header per family), the JSON snapshot (percentiles inline), and the
// unified ScrapeReport document with health blocks folded in.
#include <gtest/gtest.h>

#include <string>

#include "fadewich/obs/export.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {
namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  MetricsRegistry registry_;
};

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST_F(ObsExportTest, PrometheusCountersAndLabelSplitting) {
  registry_.counter("t_plain_total", "plain counter").add(3);
  registry_.counter("t_labeled_total{label=\"2\"}", "labeled").add(5);
  registry_.counter("t_labeled_total{label=\"7\"}").add(1);

  const std::string text = to_prometheus(registry_.snapshot());
  EXPECT_TRUE(contains(text, "# HELP t_plain_total plain counter\n"));
  EXPECT_TRUE(contains(text, "# TYPE t_plain_total counter\n"));
  EXPECT_TRUE(contains(text, "t_plain_total 3\n"));
  // The label suffix moves out of the family key into sample labels...
  EXPECT_TRUE(contains(text, "t_labeled_total{label=\"2\"} 5\n"));
  EXPECT_TRUE(contains(text, "t_labeled_total{label=\"7\"} 1\n"));
  // ...and the shared base name gets exactly one TYPE header.
  std::size_t headers = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE t_labeled_total", pos)) != std::string::npos;
       ++pos) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
}

TEST_F(ObsExportTest, PrometheusHistogramBucketsAreCumulative) {
  Histogram histogram =
      registry_.histogram("t_lat_seconds", "latency", {0.1, 0.5});
  histogram.observe(0.05);
  histogram.observe(0.2);
  histogram.observe(0.3);
  histogram.observe(2.0);

  const std::string text = to_prometheus(registry_.snapshot());
  EXPECT_TRUE(contains(text, "# TYPE t_lat_seconds histogram\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_bucket{le=\"0.1\"} 1\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_bucket{le=\"0.5\"} 3\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_count 4\n"));
  EXPECT_TRUE(contains(text, "t_lat_seconds_sum 2.55\n"));
}

TEST_F(ObsExportTest, JsonSnapshotCarriesPercentiles) {
  registry_.counter("t_json_total").add(9);
  registry_.gauge("t_json_gauge").set(1.5);
  Histogram histogram =
      registry_.histogram("t_json_seconds", "", {10.0, 20.0});
  for (int i = 0; i < 100; ++i) histogram.observe(15.0);

  const std::string json = to_json(registry_.snapshot());
  EXPECT_TRUE(contains(json, "\"t_json_total\":9"));
  EXPECT_TRUE(contains(json, "\"t_json_gauge\":1.5"));
  EXPECT_TRUE(contains(json, "\"count\":100"));
  EXPECT_TRUE(contains(json, "\"p50\":15"));
  EXPECT_TRUE(contains(json, "\"p95\":19.5"));
  EXPECT_TRUE(contains(json, "\"p99\":19.9"));
  EXPECT_TRUE(contains(json, "{\"le\":10,\"count\":0}"));
  EXPECT_TRUE(contains(json, "{\"le\":20,\"count\":100}"));
  EXPECT_TRUE(contains(json, "{\"le\":\"+Inf\",\"count\":100}"));
}

TEST_F(ObsExportTest, ScrapeReportFoldsHealthBlocksAndEvents) {
  registry_.counter("t_scrape_total").inc();
  EventLog events;
  events.warn("net", "sensor offline", 40, {{"sensor", "1"}});

  ScrapeReport report = scrape(registry_, &events);
  HealthBlock station;
  station.name = "station";
  station.add("reports", 120.0);
  station.add("duplicates", 4.0);
  report.health.push_back(station);
  HealthBlock supervisor;
  supervisor.name = "supervisor";
  supervisor.add("all_healthy", 1.0);
  report.health.push_back(supervisor);

  ASSERT_NE(report.find_block("station"), nullptr);
  ASSERT_NE(report.find_block("supervisor"), nullptr);
  EXPECT_EQ(report.find_block("missing"), nullptr);
  EXPECT_EQ(report.find_block("station")->fields[0].second, 120.0);

  const std::string prom = report.to_prometheus();
  EXPECT_TRUE(contains(prom, "t_scrape_total 1\n"));
  EXPECT_TRUE(contains(prom, "fadewich_health_station_reports 120\n"));
  EXPECT_TRUE(contains(prom, "fadewich_health_station_duplicates 4\n"));
  EXPECT_TRUE(contains(prom, "fadewich_health_supervisor_all_healthy 1\n"));

  const std::string json = report.to_json();
  EXPECT_TRUE(contains(json, "\"metrics\":{"));
  EXPECT_TRUE(contains(
      json, "\"station\":{\"reports\":120,\"duplicates\":4}"));
  EXPECT_TRUE(contains(json, "\"supervisor\":{\"all_healthy\":1}"));
  // The one warn event rides along.
  EXPECT_TRUE(contains(json, "\"message\":\"sensor offline\""));
  EXPECT_TRUE(contains(json, "\"sensor\":\"1\""));
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_TRUE(contains(json, "\"events\":[{"));
  EXPECT_FALSE(contains(json, "\"spans\""));
}

TEST_F(ObsExportTest, ScrapeWithoutEventsIsMetricsOnly) {
  registry_.gauge("t_only_gauge").set(2.0);
  const ScrapeReport report = scrape(registry_);
  EXPECT_TRUE(report.events.empty());
  EXPECT_TRUE(report.health.empty());
  EXPECT_TRUE(contains(report.to_prometheus(), "t_only_gauge 2\n"));
}

}  // namespace
}  // namespace fadewich::obs
