// Merged fleet observability: one scrape carries per-office labeled
// series, fleet aggregates, and the supervisor block.
#include "fadewich/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::fleet {
namespace {

namespace fs = std::filesystem;

FleetConfig labeled_fleet(std::size_t offices) {
  FleetConfig config;
  config.offices = offices;
  config.shard.system = default_shard_system();
  config.per_office_series = true;
  return config;
}

TEST(FleetScrape, PerOfficeSeriesAndAggregatesShareOneDocument) {
  exec::ThreadPool pool(2);
  Fleet fleet(labeled_fleet(3), &pool);
  fleet.run_week(3000);

  const obs::ScrapeReport report = fleet.scrape();

  for (std::size_t i = 0; i < fleet.offices(); ++i) {
    const std::string name = obs::labeled(
        "fadewich_fleet_office_ticks_total",
        {{"office", std::to_string(i)}});
    const obs::CounterSample* ticks = report.metrics.find_counter(name);
    ASSERT_NE(ticks, nullptr) << name;
    EXPECT_GE(ticks->value, 3000u);
  }

  const obs::HealthBlock* fleet_block = report.find_block("fleet");
  ASSERT_NE(fleet_block, nullptr);
  bool saw_offices = false;
  bool saw_p99 = false;
  for (const auto& [field, value] : fleet_block->fields) {
    if (field == "offices") {
      saw_offices = true;
      EXPECT_EQ(value, 3.0);
    }
    if (field == "deauth_latency_p99_seconds") {
      saw_p99 = true;
      EXPECT_GE(value, 0.0);
    }
  }
  EXPECT_TRUE(saw_offices);
  EXPECT_TRUE(saw_p99);

  // Both render paths must carry the per-office label.
  const std::string prometheus = report.to_prometheus();
  EXPECT_NE(prometheus.find("office=\"2\""), std::string::npos);
  EXPECT_NE(prometheus.find("fadewich_health_fleet_offices"),
            std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("fadewich_fleet_office_ticks_total"),
            std::string::npos);
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
}

TEST(FleetScrape, CardinalityCapFallsBackToAggregates) {
  FleetConfig config = labeled_fleet(6);
  config.per_office_series_cap = 4;  // 6 offices > cap: aggregate only
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  fleet.run_week(200);

  const obs::ScrapeReport report = fleet.scrape();
  const std::string name = obs::labeled(
      "fadewich_fleet_office_ticks_total", {{"office", "5"}});
  EXPECT_EQ(report.metrics.find_counter(name), nullptr);
  const obs::CounterSample* ticks =
      report.metrics.find_counter("fadewich_fleet_ticks_total");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->value, 6u * 200u);
}

TEST(FleetScrape, SupervisedFleetExportsTheSupervisorBlock) {
  const std::string root =
      (fs::temp_directory_path() / "fadewich_fleet_scrape_sup").string();
  fs::remove_all(root);
  FleetConfig config = labeled_fleet(2);
  config.snapshot_root = root;
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  fleet.run_week(600);

  const obs::ScrapeReport report = fleet.scrape();
  const obs::HealthBlock* sup = report.find_block("supervisor");
  ASSERT_NE(sup, nullptr);
  bool saw_modules = false;
  for (const auto& [field, value] : sup->fields) {
    if (field == "modules") {
      saw_modules = true;
      EXPECT_EQ(value, 2.0);
    }
  }
  EXPECT_TRUE(saw_modules);
  fs::remove_all(root);
}

/// The "supervisor" block a 5-office fleet should export after 2000
/// ticks: totals first, then status, restarts and heartbeat per office.
std::vector<std::pair<std::string, double>> supervisor_fields(
    const std::vector<double>& status, const std::vector<double>& restarts) {
  double total = 0.0;
  bool healthy = true;
  for (std::size_t i = 0; i < status.size(); ++i) {
    total += restarts[i];
    healthy = healthy && status[i] == 0.0;
  }
  std::vector<std::pair<std::string, double>> fields = {
      {"modules", 5.0}, {"total_restarts", total},
      {"all_healthy", healthy ? 1.0 : 0.0}};
  for (std::size_t i = 0; i < status.size(); ++i) {
    const std::string office = "office-" + std::to_string(i);
    fields.emplace_back(office + "_status", status[i]);
    fields.emplace_back(office + "_restarts", restarts[i]);
    fields.emplace_back(office + "_last_heartbeat", 2000.0);
  }
  return fields;
}

class SupervisorBlock : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fadewich_supervisor_block_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  FleetConfig five_offices() const {
    FleetConfig config;
    config.offices = 5;
    config.shard.system = default_shard_system();
    config.snapshot_root = root_;
    config.checkpoint_period = 300;
    config.per_office_series = false;
    return config;
  }

  static std::vector<std::pair<std::string, double>> block(
      const Fleet& fleet) {
    const obs::ScrapeReport report = fleet.scrape();
    const obs::HealthBlock* sup = report.find_block("supervisor");
    if (sup == nullptr) return {};
    return sup->fields;
  }

  std::string root_;
};

TEST_F(SupervisorBlock, OneRecoveredCrash) {
  exec::ThreadPool pool(2);
  Fleet fleet(five_offices(), &pool);
  fleet.inject_crash(2, 1100);
  fleet.run_week(2000);
  EXPECT_EQ(block(fleet), supervisor_fields({0, 0, 0, 0, 0},
                                            {0, 0, 1, 0, 0}));
}

TEST_F(SupervisorBlock, ExhaustedRestartBudget) {
  FleetConfig config = five_offices();
  config.max_restarts = 1;
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  fleet.inject_crash(2, 800);
  fleet.run_week(1000);
  fleet.inject_crash(2, 1600);
  fleet.run_week(1000);
  EXPECT_EQ(block(fleet), supervisor_fields({0, 0, 2, 0, 0},
                                            {0, 0, 1, 0, 0}));
}

TEST(FleetScrape, RunStatsReportThroughput) {
  exec::ThreadPool pool(2);
  Fleet fleet(labeled_fleet(2), &pool);
  const RunStats stats = fleet.run_week(500);
  EXPECT_EQ(stats.ticks, 500);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.ticks_per_sec, 0.0);
  EXPECT_GT(stats.offices_per_sec, 0.0);
  EXPECT_GT(fleet.memory_bytes_per_office(), 0.0);
}

}  // namespace
}  // namespace fadewich::fleet
