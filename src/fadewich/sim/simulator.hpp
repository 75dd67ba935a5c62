// The office simulator: executes a WeekSchedule against the RF channel
// model tick by tick and produces a Recording — the synthetic equivalent
// of the paper's five-day data collection (Section VI-B).
#pragma once

#include <cstdint>

#include "fadewich/rf/channel.hpp"
#include "fadewich/rf/floorplan.hpp"
#include "fadewich/sim/person.hpp"
#include "fadewich/sim/recording.hpp"
#include "fadewich/sim/schedule.hpp"

namespace fadewich::exec {
class ThreadPool;
}  // namespace fadewich::exec

namespace fadewich::sim {

struct SimulationConfig {
  double tick_hz = 5.0;
  rf::ChannelConfig channel;
  PersonConfig person;
  std::uint64_t seed = 42;
};

/// Run the schedule in the given office and record every stream.
///
/// One user per workstation; `week.days[d]` commands person p to enter or
/// leave.  Commands arriving while a person is mid-transition are deferred
/// until the person can obey them (the generator's separation margin makes
/// deferral rare).  All sensors in the plan are recorded; experiments on
/// fewer sensors select stream subsets from the same recording, so sensor
/// sweeps see identical user behaviour (as in the paper, where all nine
/// sensors recorded simultaneously and subsets were analysed offline).
///
/// Execution: days are mutually independent — each gets its own channel
/// and agents, seeded deterministically from `config.seed` — so they run
/// concurrently on `pool` (the process-wide pool when nullptr; honours
/// FADEWICH_THREADS), each sampling its channel one tick at a time.  Day
/// results are merged in tick order, so the Recording is bit-identical at
/// any thread count, including a 1-thread pool.
Recording simulate_week(const rf::FloorPlan& plan, const WeekSchedule& week,
                        const SimulationConfig& config,
                        exec::ThreadPool* pool = nullptr);

}  // namespace fadewich::sim
