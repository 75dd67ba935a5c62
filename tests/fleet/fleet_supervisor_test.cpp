// Supervised fleet recovery: killing one shard mid-week must recover it
// through the fleet supervisor without perturbing any neighbor's output.
// The SupervisorTest cases pin the watchdog rules themselves: config
// validation, per-office restart accounting, and the restart budget.
#include "fadewich/fleet/fleet.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::fleet {
namespace {

namespace fs = std::filesystem;

constexpr Tick kWeek = 3200;
constexpr std::size_t kOffices = 5;
constexpr std::size_t kVictim = 2;

class FleetSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("fadewich_fleet_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  FleetConfig supervised(const std::string& subdir) const {
    FleetConfig config;
    config.offices = kOffices;
    config.shard.system = default_shard_system();
    config.snapshot_root = root_ + "/" + subdir;
    config.checkpoint_period = 300;
    config.per_office_series = false;
    return config;
  }

  std::string root_;
};

TEST_F(FleetSupervisorTest, CrashedShardRecoversWithoutPerturbingNeighbors) {
  exec::ThreadPool pool(4);

  Fleet reference(supervised("reference"), &pool);
  reference.run_week(kWeek);
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < kOffices; ++i) {
    expected.push_back(reference.shard_digest(i));
  }
  ASSERT_EQ(reference.total_restarts(), 0u);

  Fleet crashed(supervised("crashed"), &pool);
  crashed.inject_crash(kVictim, kWeek / 2);
  const RunStats stats = crashed.run_week(kWeek);

  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(crashed.total_restarts(), 1u);
  EXPECT_FALSE(crashed.shard(kVictim).faulted());
  EXPECT_EQ(crashed.shard(kVictim).tick(), kWeek);

  const HealthReport health = crashed.supervisor_health();
  ASSERT_EQ(health.modules.size(), kOffices);
  EXPECT_TRUE(health.all_healthy());
  EXPECT_EQ(health.total_restarts, 1u);

  for (std::size_t i = 0; i < kOffices; ++i) {
    if (i == kVictim) continue;
    EXPECT_EQ(crashed.shard_digest(i), expected[i])
        << "recovery of office " << kVictim << " perturbed office " << i;
  }
  // The victim keeps running the same deterministic stream; its week
  // still ends online with the rest of the fleet.
  EXPECT_FALSE(crashed.shard(kVictim).training());
}

TEST_F(FleetSupervisorTest, RecoveryPrefersTheSnapshotRing) {
  exec::ThreadPool pool(2);
  Fleet fleet(supervised("ring"), &pool);
  // Crash well past the first checkpoint so a warm restore is possible.
  fleet.inject_crash(kVictim, 1100);
  fleet.run_week(2000);
  EXPECT_EQ(fleet.total_restarts(), 1u);
  EXPECT_EQ(fleet.shard(kVictim).restores(), 1u);
  EXPECT_FALSE(fleet.shard(kVictim).faulted());
  EXPECT_EQ(fleet.shard(kVictim).tick(), 2000);
}

TEST_F(FleetSupervisorTest, RepeatedCrashesExhaustTheRestartBudget) {
  exec::ThreadPool pool(4);

  Fleet reference(supervised("budget_ref"), &pool);
  reference.run_week(kWeek);

  FleetConfig config = supervised("budget");
  config.max_restarts = 1;
  Fleet fleet(config, &pool);
  fleet.inject_crash(kVictim, 800);
  fleet.run_week(1000);
  ASSERT_EQ(fleet.total_restarts(), 1u);

  // A second crash exceeds max_restarts = 1: the module is retired as
  // kFailed and the shard stays parked at its failing tick.
  fleet.inject_crash(kVictim, 1600);
  fleet.run_week(kWeek - 1000);

  const HealthReport health = fleet.supervisor_health();
  ASSERT_EQ(health.modules.size(), kOffices);
  EXPECT_FALSE(health.all_healthy());
  std::size_t failed = 0;
  for (const ModuleHealth& m : health.modules) {
    if (m.status == ModuleStatus::kFailed) ++failed;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_TRUE(fleet.shard(kVictim).faulted());
  EXPECT_LT(fleet.shard(kVictim).tick(), kWeek);

  // The retired shard must not take the rest of the campus with it.
  for (std::size_t i = 0; i < kOffices; ++i) {
    if (i == kVictim) continue;
    EXPECT_EQ(fleet.shard(i).tick(), kWeek);
    EXPECT_EQ(fleet.shard_digest(i), reference.shard_digest(i));
  }
}

TEST_F(FleetSupervisorTest, UnsupervisedFleetHasNoSupervisor) {
  FleetConfig config;
  config.offices = 2;
  config.shard.system = default_shard_system();
  config.per_office_series = false;
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  EXPECT_FALSE(fleet.supervised());
  EXPECT_TRUE(fleet.supervisor_health().modules.empty());
}

TEST_F(FleetSupervisorTest, CrashBehindTheCursorIsRejected) {
  exec::ThreadPool pool(2);
  Fleet fleet(supervised("behind"), &pool);
  fleet.run_week(500);
  EXPECT_THROW(fleet.inject_crash(0, 100), Error);
}

class SupervisorTest : public FleetSupervisorTest {
 protected:
  FleetConfig pair(const std::string& subdir) const {
    FleetConfig config = supervised(subdir);
    config.offices = 2;
    return config;
  }
};

TEST_F(SupervisorTest, ValidatesConfig) {
  FleetConfig bad = pair("bad");
  bad.max_restarts = 0;
  EXPECT_THROW(Fleet{bad}, Error);
}

TEST_F(SupervisorTest, HealthyModuleIsLeftAlone) {
  exec::ThreadPool pool(2);
  Fleet fleet(pair("healthy"), &pool);
  EXPECT_EQ(fleet.run_week(700).restarts, 0u);
  const HealthReport health = fleet.supervisor_health();
  ASSERT_EQ(health.modules.size(), 2u);
  EXPECT_TRUE(health.all_healthy());
  EXPECT_EQ(health.total_restarts, 0u);
  for (const ModuleHealth& m : health.modules) {
    EXPECT_EQ(m.last_heartbeat, 700);
    EXPECT_TRUE(m.last_fault.empty());
  }
}

TEST_F(SupervisorTest, ReportedFailureTriggersRestart) {
  exec::ThreadPool pool(2);
  Fleet fleet(pair("failure"), &pool);
  fleet.inject_crash(1, 400);
  EXPECT_EQ(fleet.run_week(700).restarts, 1u);
  const HealthReport health = fleet.supervisor_health();
  EXPECT_TRUE(health.all_healthy());
  EXPECT_EQ(health.total_restarts, 1u);
  EXPECT_EQ(health.modules[1].name, "office-1");
  EXPECT_EQ(health.modules[1].restarts, 1u);
  EXPECT_EQ(health.modules[1].last_fault, "injected shard crash at tick 400");
}

TEST_F(SupervisorTest, RestartsAreBoundedThenFailed) {
  FleetConfig config = pair("bounded");
  config.max_restarts = 2;
  exec::ThreadPool pool(2);
  Fleet fleet(config, &pool);
  for (int round = 0; round < 4; ++round) {
    fleet.inject_crash(0, fleet.tick() + 50);
    fleet.run_week(100);
  }
  const HealthReport health = fleet.supervisor_health();
  EXPECT_EQ(health.modules[0].restarts, 2u);  // bounded
  EXPECT_EQ(health.modules[0].status, ModuleStatus::kFailed);
  EXPECT_FALSE(health.all_healthy());
  EXPECT_TRUE(fleet.shard(0).faulted());
  EXPECT_EQ(fleet.shard(0).tick(), 250);  // parked at the third crash
}

TEST_F(SupervisorTest, ModulesAreIndependent) {
  exec::ThreadPool pool(2);
  Fleet fleet(pair("independent"), &pool);
  fleet.inject_crash(0, 300);
  fleet.run_week(600);
  const HealthReport health = fleet.supervisor_health();
  EXPECT_EQ(health.modules[0].restarts, 1u);
  EXPECT_EQ(health.modules[1].restarts, 0u);
  EXPECT_TRUE(health.modules[1].last_fault.empty());
  EXPECT_EQ(fleet.shard(1).restores(), 0u);
}

}  // namespace
}  // namespace fadewich::fleet
