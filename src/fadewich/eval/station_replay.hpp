// The one replay loop behind the fault and attack sweeps: a recording's
// ticks go through a CentralStation, and the rows it releases become a
// reconstructed recording.
//
// The caller supplies only how one tick's measurement batch reaches the
// station (reports through a FaultInjector, or frames through an
// AttackInjector, FrameDecoder and Defender).  The loop owns the rest:
// the station and its stream map, forward-filling rows the station
// evicted, draining delayed traffic past the last tick, and the digest
// of the released rows.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fadewich/net/central_station.hpp"
#include "fadewich/net/measurement.hpp"
#include "fadewich/sim/recording.hpp"

namespace fadewich::eval {

/// What the station reconstructed from one replay.
struct StationReplay {
  sim::Recording recording;
  net::StationHealth health;
  std::uint64_t gap_rows = 0;  // ticks forward-filled (eviction gaps)
  /// CRC-32 over every released row's values in tick order (high half)
  /// and the tick count (low half).  Two replays reconstructed the same
  /// matrix iff digests match.
  std::uint64_t row_digest = 0;
};

/// Appends the measurements that reach the station at tick `t` to
/// `batch`.  Called for every tick of the recording, then for trailing
/// ticks (t >= tick_count) while delayed traffic drains.
using TickBatch =
    std::function<void(Tick t, std::vector<net::Measurement>& batch)>;

/// Replay `original` through a station built from `config`.
/// `max_delay_ticks` is the latest a report can still arrive after its
/// tick; the drain stops once the station has released every tick or the
/// deadline plus that delay has passed.  The result keeps the original's
/// tick count, events and seated intervals; ticks the station never
/// released repeat the previous row.
StationReplay replay_rows(const sim::Recording& original,
                          const net::StationConfig& config,
                          Tick max_delay_ticks, const TickBatch& produce);

}  // namespace fadewich::eval
