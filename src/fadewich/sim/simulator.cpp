#include "fadewich/sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "fadewich/common/error.hpp"
#include "fadewich/exec/thread_pool.hpp"

namespace fadewich::sim {

namespace {

/// Per-person bookkeeping while executing a day.
struct PersonTracker {
  std::optional<Seconds> transit_start;  // global time movement began
  bool leaving = false;                  // current transit direction
  std::optional<Seconds> seated_since;   // global time seated began
  std::optional<Seconds> proximity_exit;  // got > 1 m from the seat
};

/// Everything one simulated day produces, with global-timeline
/// timestamps, ready to be merged into the Recording in day order.
struct DayResult {
  std::vector<std::int8_t> samples;  // row-major [tick][stream], int8 dBm
  EventLog events;
  std::vector<std::vector<Interval>> seated;  // per workstation
};

DayResult simulate_day(const rf::FloorPlan& plan, const WeekSchedule& week,
                       std::size_t day, const SimulationConfig& config,
                       std::uint64_t channel_seed, Rng person_rng) {
  const std::size_t people = plan.workstation_count();
  const Seconds day_length = week.day_config.day_length;
  const Seconds dt = 1.0 / config.tick_hz;
  const Seconds day_start = day_length * static_cast<double>(day);
  const auto& movements = week.days[day];
  const TickRate rate(config.tick_hz);

  rf::ChannelConfig channel_config = config.channel;
  channel_config.tick_hz = config.tick_hz;  // keep burst timing in sync
  rf::ChannelMatrix channel(plan.sensors, channel_config, channel_seed);
  const std::size_t streams = channel.stream_count();

  DayResult result;
  result.seated.assign(people, {});

  // Fresh agents each morning: everyone starts outside.
  std::vector<Person> persons;
  std::vector<PersonTracker> trackers(people);
  persons.reserve(people);
  for (std::size_t p = 0; p < people; ++p) {
    persons.emplace_back(plan, p, config.person, person_rng.split(p));
    if (week.day_config.start_seated) {
      persons.back().sit_down_immediately();
      trackers[p].seated_since = day_start;
    }
  }

  std::size_t next_movement = 0;
  std::vector<Movement> deferred;

  const Tick day_ticks = rate.to_ticks_floor(day_length);
  result.samples.reserve(static_cast<std::size_t>(day_ticks) * streams);

  std::vector<rf::BodyState> bodies;
  std::vector<double> row(streams);

  for (Tick tick = 0; tick < day_ticks; ++tick) {
    const Seconds local_now = rate.to_seconds(tick);
    const Seconds global_now = day_start + local_now;

    // Issue due movement commands; defer the ones the person cannot
    // obey yet (still walking from the previous command).
    auto try_issue = [&](const Movement& m) -> bool {
      Person& person = persons[m.person];
      PersonTracker& tr = trackers[m.person];
      if (m.kind == Movement::Kind::kLeave) {
        if (!person.seated()) return false;
        person.start_leaving();
        tr.transit_start = global_now;
        tr.leaving = true;
        if (tr.seated_since) {
          result.seated[m.person].push_back({*tr.seated_since, global_now});
          tr.seated_since.reset();
        }
      } else {
        if (person.phase() != Person::Phase::kOutside) return false;
        person.start_entering();
        tr.transit_start = global_now;
        tr.leaving = false;
      }
      return true;
    };

    for (auto it = deferred.begin(); it != deferred.end();) {
      it = try_issue(*it) ? deferred.erase(it) : std::next(it);
    }
    while (next_movement < movements.size() &&
           movements[next_movement].time <= local_now) {
      if (!try_issue(movements[next_movement])) {
        deferred.push_back(movements[next_movement]);
      }
      ++next_movement;
    }

    // Advance agents; emit ground-truth events on transit completion.
    for (std::size_t p = 0; p < people; ++p) {
      Person& person = persons[p];
      const bool was_in_transit = person.in_transit();
      person.advance(dt);
      PersonTracker& tr = trackers[p];
      if (tr.leaving && tr.transit_start && !tr.proximity_exit &&
          person.inside() &&
          rf::distance(person.body().position,
                       plan.workstations[p].seat) > 1.0) {
        tr.proximity_exit = global_now;
      }
      if (was_in_transit && !person.in_transit() && tr.transit_start) {
        if (tr.leaving) {
          result.events.push_back(
              {EventKind::kLeave, p, *tr.transit_start, global_now,
               tr.proximity_exit.value_or(global_now)});
        } else {
          result.events.push_back({EventKind::kEnter, p, *tr.transit_start,
                                   global_now, *tr.transit_start});
          tr.seated_since = global_now;
        }
        tr.transit_start.reset();
        tr.proximity_exit.reset();
      }
    }

    // Sample the channel with this tick's occupancy.
    bodies.clear();
    for (const Person& person : persons) {
      if (person.inside()) bodies.push_back(person.body());
    }
    channel.sample(bodies, row);
    for (const double v : row) {
      result.samples.push_back(Recording::encode_dbm(v));
    }
  }

  // Close any seated interval still open at day end.
  for (std::size_t p = 0; p < people; ++p) {
    if (trackers[p].seated_since) {
      result.seated[p].push_back(
          {*trackers[p].seated_since, day_start + day_length});
    }
  }

  return result;
}

}  // namespace

Recording simulate_week(const rf::FloorPlan& plan, const WeekSchedule& week,
                        const SimulationConfig& config,
                        exec::ThreadPool* pool) {
  FADEWICH_EXPECTS(plan.sensor_count() >= 2);
  FADEWICH_EXPECTS(plan.workstation_count() >= 1);
  FADEWICH_EXPECTS(!week.days.empty());

  if (pool == nullptr) pool = &exec::ThreadPool::global();
  const std::size_t days = week.days.size();
  const std::size_t people = plan.workstation_count();
  const Seconds day_length = week.day_config.day_length;

  Recording rec(config.tick_hz, plan.sensor_count(), day_length, days);
  rec.seated_intervals().assign(people, {});

  // Seed every day's channel and agents up front, in serial day order:
  // split() mutates the parent generator, so doing this before the fan-out
  // is what makes the per-day streams independent of scheduling.
  Rng root(config.seed);
  Rng channel_seed_rng = root.split(1);
  std::vector<std::uint64_t> channel_seeds;
  std::vector<Rng> person_rngs;
  channel_seeds.reserve(days);
  person_rngs.reserve(days);
  for (std::size_t day = 0; day < days; ++day) {
    channel_seeds.push_back(channel_seed_rng.split(day).engine()());
    person_rngs.push_back(root.split(100 + day));
  }

  // Days are independent: run them concurrently, then merge in day order
  // so the global timeline is identical at any thread count.
  std::vector<DayResult> results(days);
  pool->parallel_for(0, days, [&](std::size_t day) {
    results[day] = simulate_day(plan, week, day, config,
                                channel_seeds[day], person_rngs[day]);
  });

  const Tick day_ticks = rec.rate().to_ticks_floor(day_length);
  for (DayResult& day_result : results) {
    rec.append_block(day_result.samples,
                     static_cast<std::size_t>(day_ticks));
    rec.events().insert(rec.events().end(), day_result.events.begin(),
                        day_result.events.end());
    for (std::size_t p = 0; p < people; ++p) {
      auto& seated = rec.seated_intervals()[p];
      seated.insert(seated.end(), day_result.seated[p].begin(),
                    day_result.seated[p].end());
    }
  }

  return rec;
}

}  // namespace fadewich::sim
