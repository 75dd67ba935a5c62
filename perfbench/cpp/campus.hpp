// The serving path the campus workloads drive, composed from public
// calls the way a deployment would have to compose it today (the library
// has no driver from the plane to bridged shards):
//
//   net::IngestPlane::replay -> fleet::IngestBridge (one strict
//   net::CentralStation per office) -> fleet::OfficeShard::run_until ->
//   core::FadewichSystem::step
//
// Shards advance in one parallel_for per replay call, like
// Fleet::run_week's lockstep blocks, then the bridge is trimmed behind
// them.  With a tracer attached every call into a layer is a span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/ingest_bridge.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/net/ingest_plane.hpp"
#include "fadewich/obs/metrics.hpp"
#include "generator.hpp"
#include "trace.hpp"

namespace perfbench {

/// Time from when an office-tick's last frame was due to an event, with
/// the number of office-ticks that share it.
struct Sample {
  double ms = 0.0;
  std::uint64_t weight = 0;
};

/// Weighted nearest-rank quantile (q in [0, 1]); 0 when empty.
double quantile(std::vector<Sample> samples, double q);

/// When each tick's last frame was due: a campus-wide ring (the replay
/// call that carries the tick) plus, per office, whether a straggler
/// moved the tick's last frame into the next call.  Time the bench spends
/// synthesising bytes between closed-loop calls can be excluded: due
/// times shift later by every exclusion made after they were set.
class DueClock {
 public:
  explicit DueClock(const CampusGenerator& generator)
      : generator_(generator) {}
  void set(Tick tick, std::int64_t due_ns) {
    ring_[slot(tick)] = due_ns - excluded_;
  }
  void exclude(std::int64_t ns) { excluded_ += ns; }
  std::int64_t due(std::size_t office, Tick tick) const {
    return excluded_ + ring_[slot(generator_.tick_straggles(office, tick)
                                      ? tick + 1
                                      : tick)];
  }

 private:
  static std::size_t slot(Tick tick) {
    return static_cast<std::size_t>(tick) & (kRing - 1);
  }
  static constexpr std::size_t kRing = 1 << 14;
  const CampusGenerator& generator_;
  std::vector<std::int64_t> ring_ = std::vector<std::int64_t>(kRing, 0);
  std::int64_t excluded_ = 0;
};

class Campus {
 public:
  /// Builds the plane (on `pool`, one decoder lane per pool participant),
  /// the bridge, and one shard per generator office.  `serial` builds the
  /// reference plane instead: one lane, every round on the caller.
  Campus(const CampusGenerator& generator, fadewich::exec::ThreadPool& pool,
         bool serial = false);

  std::size_t offices() const { return shards_.size(); }
  const fadewich::fleet::OfficeShard& shard(std::size_t office) const {
    return *shards_[office];
  }
  const fadewich::fleet::IngestBridge& bridge() const { return bridge_; }

  /// Run later calls on another pool, with a plane of its own.
  void use_pool(fadewich::exec::ThreadPool& pool);

  /// A non-null tracer records a span around every layer call.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Feed one byte chunk through the plane into the bridge.
  void replay(std::span<const std::uint8_t> bytes);

  /// Step every shard to its bridge's ready boundary in one parallel_for,
  /// then trim the bridge behind it.  Returns office-ticks stepped.
  /// When `due` is set, every decided office-tick adds a report-to-
  /// decision sample to `decided` (grouped per office and due time).
  /// Only ticks in [sample_from, sample_to) are sampled.
  std::uint64_t step(const DueClock* due = nullptr,
                     std::vector<Sample>* decided = nullptr,
                     Tick sample_from = 0, Tick sample_to = 0);

  /// Never step office o past cap[o] (the reference pass stops where the
  /// measured pass stopped).
  void set_cap(std::vector<Tick> cap) { cap_ = std::move(cap); }

  /// Rows released by the last replay call: samples of (due -> end of
  /// that call) for ticks from `sample_from` on, and the largest
  /// per-office bridge backlog seen.
  void release_samples(const DueClock& due, std::int64_t released_ns,
                       Tick sample_from, std::vector<Sample>& out);
  std::uint64_t bridge_rows_peak() const { return bridge_rows_peak_; }

  bool online() const;
  bool any_faulted() const;

  /// Plane counters summed over every plane this campus used.
  fadewich::net::PlaneCounters plane_counters() const;
  std::uint64_t replay_calls() const { return replay_calls_; }

  /// Latency histogram all shards observe leave-to-deauth times into.
  double deauth_quantile(double q) const;

 private:
  fadewich::net::IngestPlane& plane();

  bool serial_;
  fadewich::exec::ThreadPool* pool_;
  Tracer* tracer_ = nullptr;
  fadewich::obs::MetricsRegistry registry_;
  fadewich::fleet::IngestBridge bridge_;
  std::map<fadewich::exec::ThreadPool*,
           std::unique_ptr<fadewich::net::IngestPlane>>
      planes_;
  std::vector<std::unique_ptr<fadewich::fleet::OfficeShard>> shards_;
  std::vector<Tick> cap_;
  std::vector<Tick> ready_;       // rows_ready_through at the last look
  std::vector<Tick> before_;      // shard ticks before the last step
  std::vector<std::int64_t> stepped_at_;  // end of each shard's run_until
  std::uint64_t replay_calls_ = 0;
  std::uint64_t bridge_rows_peak_ = 0;
};

}  // namespace perfbench
