// Tests for the fault-tolerance sweep: degraded replay through the
// central station and per-scenario security evaluation.
#include "fadewich/eval/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "fadewich/eval/paper_setup.hpp"

namespace fadewich::eval {
namespace {

class FaultSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PaperSetup setup = small_setup(1, 45.0 * 60.0);
    setup.seed = 99;
    experiment_ = std::make_unique<PaperExperiment>(
        make_paper_experiment(setup));
  }

  static void TearDownTestSuite() { experiment_.reset(); }

  static const sim::Recording& recording() {
    return experiment_->recording;
  }

  static std::unique_ptr<PaperExperiment> experiment_;
};

std::unique_ptr<PaperExperiment> FaultSweepTest::experiment_;

TEST_F(FaultSweepTest, DisabledReplayIsByteIdentical) {
  const ReplayResult replay = replay_through_station(
      recording(), net::FaultConfig{}, net::StationConfig{}, 1);
  ASSERT_EQ(replay.recording.tick_count(), recording().tick_count());
  for (std::size_t s = 0; s < recording().stream_count(); ++s) {
    ASSERT_EQ(replay.recording.stream(s), recording().stream(s))
        << "stream " << s;
  }
  EXPECT_EQ(replay.health.incomplete_releases, 0u);
  EXPECT_EQ(replay.health.imputed_cells, 0u);
  EXPECT_EQ(replay.gap_rows, 0u);
  EXPECT_EQ(replay.recording.events().size(), recording().events().size());
}

TEST_F(FaultSweepTest, LossyReplayCompletesAndImputes) {
  net::FaultConfig faults;
  faults.drop_probability = 0.10;
  net::StationConfig station;
  station.deadline_ticks = 2;
  const ReplayResult replay =
      replay_through_station(recording(), faults, station, 5);
  EXPECT_EQ(replay.recording.tick_count(), recording().tick_count());
  EXPECT_GT(replay.health.incomplete_releases, 0u);
  EXPECT_GT(replay.health.imputed_cells, 0u);
  EXPECT_GT(replay.fault_counters.dropped, 0u);
  EXPECT_EQ(replay.gap_rows, 0u);  // deadline releases every tick
  // Ground truth rides along untouched.
  EXPECT_EQ(replay.recording.events().size(), recording().events().size());
  EXPECT_EQ(replay.recording.seated_intervals().size(),
            recording().seated_intervals().size());
}

TEST_F(FaultSweepTest, EvictionGapsRepeatThePreviousRow) {
  // A deadline longer than the ring span: an incomplete row is evicted
  // before its deadline passes, is never released, and is forward-filled.
  net::FaultConfig faults;
  faults.drop_probability = 0.01;
  net::StationConfig station;
  station.deadline_ticks = 8;
  station.max_pending = 2;
  const ReplayResult replay =
      replay_through_station(recording(), faults, station, 5);
  const sim::Recording& got = replay.recording;
  ASSERT_EQ(got.tick_count(), recording().tick_count());
  EXPECT_GT(replay.health.evictions, 0u);
  EXPECT_GT(replay.gap_rows, 0u);
  EXPECT_LT(replay.gap_rows, static_cast<std::uint64_t>(got.tick_count()));

  // Every cell is either the original sample or the previous row's value
  // (released rows impute from it, gap rows repeat it outright), so at
  // least gap_rows ticks repeat the previous row in every stream.
  std::uint64_t repeats = 0;
  for (Tick t = 0; t < got.tick_count(); ++t) {
    bool repeat = true;
    for (std::size_t s = 0; s < got.stream_count(); ++s) {
      const double prev = t > 0 ? got.rssi(s, t - 1) : 0.0;
      const double v = got.rssi(s, t);
      ASSERT_TRUE(v == prev || v == recording().rssi(s, t))
          << "tick " << t << " stream " << s;
      repeat = repeat && v == prev;
    }
    if (repeat) ++repeats;
  }
  EXPECT_GE(repeats, replay.gap_rows);
}

TEST_F(FaultSweepTest, FaultyReplayRequiresADeadline) {
  net::FaultConfig faults;
  faults.drop_probability = 0.10;
  EXPECT_THROW(replay_through_station(recording(), faults,
                                      net::StationConfig{}, 1),
               ContractViolation);
}

TEST_F(FaultSweepTest, ScenarioFaultsDropLowestPrioritySensorsFirst) {
  FaultScenario scenario;
  scenario.loss_rate = 0.05;
  scenario.dropped_sensors = 2;
  const net::FaultConfig faults = scenario_faults(scenario, 9, 1'000);
  EXPECT_DOUBLE_EQ(faults.drop_probability, 0.05);
  ASSERT_EQ(faults.outages.size(), 2u);
  const std::vector<std::size_t> priority = sensor_subset(9);
  EXPECT_EQ(faults.outages[0].device, priority[8]);
  EXPECT_EQ(faults.outages[1].device, priority[7]);
  for (const net::SensorOutage& outage : faults.outages) {
    EXPECT_EQ(outage.from, 0);
    EXPECT_EQ(outage.to, 1'000);
  }
}

TEST_F(FaultSweepTest, EvaluateFaultScenarioAccountsForEveryLeave) {
  FaultScenario scenario;
  scenario.loss_rate = 0.10;
  const FaultScenarioResult result = evaluate_fault_scenario(
      recording(), sensor_subset(recording().sensor_count()),
      default_md_config(), SecurityConfig{}, scenario);
  EXPECT_GT(result.leave_events, 0u);
  EXPECT_EQ(result.case_a + result.case_b + result.case_c,
            result.leave_events);
  EXPECT_GE(result.mean_delay, 0.0);
  EXPECT_GE(result.p90_delay, 0.0);
  EXPECT_GT(result.health.imputed_cells, 0u);
  EXPECT_GT(result.fault_counters.dropped, 0u);
}

}  // namespace
}  // namespace fadewich::eval
