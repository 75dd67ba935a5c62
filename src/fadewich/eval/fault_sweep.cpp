#include "fadewich/eval/fault_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

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

  net::CentralStation station(m, station_config);
  std::optional<net::FaultInjector> injector;
  if (faults.enabled()) injector.emplace(m, faults, seed);
  std::vector<net::Measurement> reports;

  // Station stream order -> recording stream order (both are the dense
  // tx-major layout today; the map keeps the replay correct if either
  // side ever changes).
  std::vector<std::size_t> rec_stream(station.stream_count());
  for (std::size_t s = 0; s < station.stream_count(); ++s) {
    const auto [tx, rx] = station.stream_pair(s);
    rec_stream[s] = original.stream_index(tx, rx);
  }

  ReplayResult out{
      sim::Recording(original.rate().hz(), m, original.day_length(),
                     original.day_count()),
      {}, {}, 0};
  out.recording.events() = original.events();
  out.recording.seated_intervals() = original.seated_intervals();

  std::vector<double> row(station.stream_count(), 0.0);
  std::vector<double> last_row(station.stream_count(), 0.0);
  Tick expected = 0;
  std::uint64_t gaps = 0;
  const net::CentralStation::RowSink emit = [&](const net::StationRow& got) {
    while (expected < got.tick) {  // eviction gap: forward-fill
      out.recording.append_samples(last_row);
      ++gaps;
      ++expected;
    }
    for (std::size_t s = 0; s < rec_stream.size(); ++s) {
      row[rec_stream[s]] = got.values[s];
    }
    out.recording.append_samples(row);
    last_row = row;
    ++expected;
  };

  const auto devices = static_cast<net::DeviceId>(m);
  for (Tick t = 0; t < ticks; ++t) {
    for (net::DeviceId tx = 0; tx < devices; ++tx) {
      for (net::DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx) continue;
        const net::Measurement report{
            tx, rx, t,
            original.rssi(original.stream_index(tx, rx), t)};
        if (injector) {
          injector->offer(report, reports);
        } else {
          reports.push_back(report);
        }
      }
    }
    if (injector) injector->advance(t, reports);
    station.ingest(reports, emit, t);
    reports.clear();
  }

  // Drain delayed traffic and force the deadline on trailing ticks.
  const Tick horizon = ticks + station_config.deadline_ticks +
                       (injector ? faults.max_delay_ticks : 0) + 1;
  for (Tick t = ticks; t < horizon && expected < ticks; ++t) {
    if (injector) injector->advance(t, reports);
    station.ingest(reports, emit, t);
    reports.clear();
  }
  while (expected < ticks) {  // fully evicted tail, if any
    out.recording.append_samples(last_row);
    ++gaps;
    ++expected;
  }
  FADEWICH_ENSURES(out.recording.tick_count() == ticks);

  out.health = station.health();
  if (injector) out.fault_counters = injector->counters();
  out.gap_rows = gaps;
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
  out.scenario = scenario;
  out.health = replay.health;
  out.fault_counters = replay.fault_counters;
  out.re_accuracy = security.re_accuracy;
  out.leave_events = security.outcomes.size();
  std::vector<double> delays;
  delays.reserve(security.outcomes.size());
  for (const LeaveOutcome& o : security.outcomes) {
    switch (o.outcome) {
      case DeauthCase::kCorrect: ++out.case_a; break;
      case DeauthCase::kMisclassified: ++out.case_b; break;
      case DeauthCase::kMissed: ++out.case_c; break;
    }
    delays.push_back(o.delay);
  }
  if (!delays.empty()) {
    double sum = 0.0;
    for (const double d : delays) sum += d;
    out.mean_delay = sum / static_cast<double>(delays.size());
    std::sort(delays.begin(), delays.end());
    const auto idx = static_cast<std::size_t>(std::ceil(
                         0.9 * static_cast<double>(delays.size()))) -
                     1;
    out.p90_delay = delays[std::min(idx, delays.size() - 1)];
  }
  return out;
}

}  // namespace fadewich::eval
