// Thread-count invariance: the parallel pipelines must produce outputs
// bit-identical to their serial counterparts.  Every parallel unit (day,
// fold, one-vs-one problem) is seeded independently before any fan-out,
// so the only thing a bigger pool may change is wall time.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fadewich/eval/fault_sweep.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/ml/dataset.hpp"
#include "fadewich/ml/multiclass_svm.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "fadewich/sim/recording.hpp"
#include "fadewich/sim/schedule.hpp"
#include "fadewich/sim/simulator.hpp"

namespace fadewich {
namespace {

sim::DayScheduleConfig tiny_day() {
  sim::DayScheduleConfig config;
  config.day_length = 10.0 * 60.0;
  config.calibration = 2.0 * 60.0;
  config.departure_window = 3.0 * 60.0;
  config.min_breaks = 1;
  config.max_breaks = 1;
  config.break_min = 60.0;
  config.break_max = 2.0 * 60.0;
  return config;
}

sim::Recording run_week(exec::ThreadPool& pool, std::size_t days) {
  const rf::FloorPlan plan = rf::paper_office();
  Rng rng(99);
  const sim::WeekSchedule week = sim::generate_week_schedule(
      tiny_day(), plan.workstation_count(), days, rng);
  sim::SimulationConfig config;
  config.seed = 99;
  return sim::simulate_week(plan, week, config, &pool);
}

TEST(DeterminismTest, SimulateWeekIsByteIdenticalAcrossThreadCounts) {
  exec::ThreadPool serial(1);
  exec::ThreadPool wide(4);
  const sim::Recording a = run_week(serial, 2);
  const sim::Recording b = run_week(wide, 2);

  ASSERT_EQ(a.stream_count(), b.stream_count());
  ASSERT_EQ(a.tick_count(), b.tick_count());
  for (std::size_t s = 0; s < a.stream_count(); ++s) {
    ASSERT_EQ(a.stream(s), b.stream(s)) << "stream " << s;
  }

  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t e = 0; e < a.events().size(); ++e) {
    EXPECT_EQ(a.events()[e].kind, b.events()[e].kind);
    EXPECT_EQ(a.events()[e].workstation, b.events()[e].workstation);
    EXPECT_DOUBLE_EQ(a.events()[e].movement_start,
                     b.events()[e].movement_start);
    EXPECT_DOUBLE_EQ(a.events()[e].movement_end, b.events()[e].movement_end);
    EXPECT_DOUBLE_EQ(a.events()[e].proximity_exit,
                     b.events()[e].proximity_exit);
  }

  ASSERT_EQ(a.seated_intervals().size(), b.seated_intervals().size());
  for (std::size_t w = 0; w < a.seated_intervals().size(); ++w) {
    ASSERT_EQ(a.seated_intervals()[w].size(), b.seated_intervals()[w].size());
    for (std::size_t k = 0; k < a.seated_intervals()[w].size(); ++k) {
      EXPECT_DOUBLE_EQ(a.seated_intervals()[w][k].begin,
                       b.seated_intervals()[w][k].begin);
      EXPECT_DOUBLE_EQ(a.seated_intervals()[w][k].end,
                       b.seated_intervals()[w][k].end);
    }
  }
}

TEST(DeterminismTest, StationReplayIsByteIdenticalWhenFaultFree) {
  // The deadline-driven central station is now on the main data path:
  // with fault injection disabled it must reproduce its input recording
  // byte for byte, or the fault-tolerance rework would silently change
  // every downstream result.
  exec::ThreadPool pool(4);
  const sim::Recording rec = run_week(pool, 1);
  const eval::ReplayResult clean = eval::replay_through_station(
      rec, net::FaultConfig{}, net::StationConfig{}, 3);
  ASSERT_EQ(clean.recording.tick_count(), rec.tick_count());
  for (std::size_t s = 0; s < rec.stream_count(); ++s) {
    ASSERT_EQ(clean.recording.stream(s), rec.stream(s)) << "stream " << s;
  }
}

TEST(DeterminismTest, FaultyStationReplayIsSeedDeterministic) {
  exec::ThreadPool pool(4);
  const sim::Recording rec = run_week(pool, 1);
  net::FaultConfig faults;
  faults.drop_probability = 0.2;
  faults.delay_probability = 0.1;
  faults.duplicate_probability = 0.05;
  net::StationConfig station;
  station.deadline_ticks = 2;

  const eval::ReplayResult a =
      eval::replay_through_station(rec, faults, station, 11);
  const eval::ReplayResult b =
      eval::replay_through_station(rec, faults, station, 11);
  for (std::size_t s = 0; s < rec.stream_count(); ++s) {
    ASSERT_EQ(a.recording.stream(s), b.recording.stream(s))
        << "stream " << s;
  }
  EXPECT_EQ(a.health.imputed_cells, b.health.imputed_cells);
  EXPECT_EQ(a.fault_counters.dropped, b.fault_counters.dropped);

  const eval::ReplayResult c =
      eval::replay_through_station(rec, faults, station, 12);
  bool differs = c.fault_counters.dropped != a.fault_counters.dropped;
  for (std::size_t s = 0; !differs && s < rec.stream_count(); ++s) {
    differs = c.recording.stream(s) != a.recording.stream(s);
  }
  EXPECT_TRUE(differs);
}

TEST(DeterminismTest, MulticlassSvmTrainsIdenticallyInParallel) {
  // Four well-separated Gaussian blobs; deterministic low-discrepancy
  // offsets stand in for random draws.
  ml::Dataset data;
  const double cx[] = {-10.0, 10.0, -10.0, 10.0};
  const double cy[] = {-10.0, -10.0, 10.0, 10.0};
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 30; ++i) {
      const double jx = 0.37 * ((i * 7) % 11 - 5);
      const double jy = 0.41 * ((i * 5) % 13 - 6);
      data.add({cx[c] + jx, cy[c] + jy}, c);
    }
  }

  exec::ThreadPool one(1);
  ml::MulticlassSvm serial_model;
  serial_model.train(data, &one);

  exec::ThreadPool wide(4);
  ml::MulticlassSvm parallel_model;
  parallel_model.train(data, &wide);

  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(serial_model.predict(data.features[i]),
              parallel_model.predict(data.features[i]));
  }
  EXPECT_DOUBLE_EQ(serial_model.accuracy(data), parallel_model.accuracy(data));
}

}  // namespace
}  // namespace fadewich
