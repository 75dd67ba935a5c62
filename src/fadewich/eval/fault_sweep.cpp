#include "fadewich/eval/fault_sweep.hpp"

#include <optional>

#include "fadewich/common/error.hpp"
#include "fadewich/eval/paper_setup.hpp"

namespace fadewich::eval {

ReplayResult replay_through_station(const sim::Recording& original,
                                    const net::FaultConfig& faults,
                                    net::StationConfig station_config,
                                    std::uint64_t seed) {
  FADEWICH_EXPECTS(!faults.enabled() || station_config.deadline_ticks > 0);
  const std::size_t m = original.sensor_count();
  const Tick ticks = original.tick_count();
  std::optional<net::FaultInjector> injector;
  if (faults.enabled()) injector.emplace(m, faults, seed);

  const auto devices = static_cast<net::DeviceId>(m);
  // Each tick every device reports every link it hears; trailing ticks
  // only release what the injector still holds back.
  const TickBatch reports = [&](Tick t, std::vector<net::Measurement>& batch) {
    for (net::DeviceId tx = 0; tx < devices && t < ticks; ++tx) {
      for (net::DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx) continue;
        const net::Measurement report{
            tx, rx, t, original.rssi(original.stream_index(tx, rx), t)};
        if (injector) {
          injector->offer(report, batch);
        } else {
          batch.push_back(report);
        }
      }
    }
    if (injector) injector->advance(t, batch);
  };
  ReplayResult out{
      replay_rows(original, station_config,
                  injector ? faults.max_delay_ticks : 0, reports),
      {}};
  if (injector) out.fault_counters = injector->counters();
  return out;
}

net::FaultConfig scenario_faults(const FaultScenario& scenario,
                                 std::size_t sensor_count,
                                 Tick tick_count) {
  FADEWICH_EXPECTS(scenario.dropped_sensors < sensor_count);
  net::FaultConfig faults;
  faults.drop_probability = scenario.loss_rate;
  const std::vector<std::size_t> priority = sensor_subset(sensor_count);
  for (std::size_t k = 0; k < scenario.dropped_sensors; ++k) {
    net::SensorOutage outage;
    outage.device =
        static_cast<net::DeviceId>(priority[priority.size() - 1 - k]);
    outage.from = 0;
    outage.to = tick_count;
    faults.outages.push_back(outage);
  }
  return faults;
}

FaultScenarioResult evaluate_fault_scenario(
    const sim::Recording& recording,
    const std::vector<std::size_t>& sensors,
    const core::MovementDetectorConfig& md_config,
    const SecurityConfig& config, const FaultScenario& scenario) {
  net::StationConfig station_config;
  station_config.deadline_ticks = scenario.deadline_ticks;
  const net::FaultConfig faults = scenario_faults(
      scenario, recording.sensor_count(), recording.tick_count());

  ReplayResult replay = replay_through_station(
      recording, faults, station_config, scenario.seed);

  const SecurityResult security = evaluate_security(
      replay.recording, sensors, md_config, config);

  FaultScenarioResult out;
  summarize_deauths(security, out);
  out.scenario = scenario;
  out.health = replay.health;
  out.fault_counters = replay.fault_counters;
  return out;
}

}  // namespace fadewich::eval
