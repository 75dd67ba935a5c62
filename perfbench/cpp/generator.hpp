// Seeded campus traffic: the bytes a campus of FADEWICH offices puts on
// the wire, and nothing else.  The program under test receives only these
// bytes; the generator is the sensors.
//
// Every office is the paper's office (9 devices, 72 streams, 3
// workstations) running the occupancy script of fleet::ShardConfig: a
// stream is in a movement burst exactly when OfficeShard would burst it,
// so the shard's classifier sees real leaves and the deauth latencies it
// reports mean something.  Each office's settle prelude is shifted by a
// seeded fraction of a cycle (so leaves spread over the campus), and each
// cycle's bursts get a seeded strength.  Samples are stateless functions
// of (seed, office, tick, stream), drawn from a precomputed normal table
// so synthesis stays cheap next to the system it feeds.
//
// Live impairments (drops, adjacent duplicates, one-tick stragglers, and
// single-bit flips past the header) are also pure functions of the seed.
// A straggler arrives behind its office's frames of the next tick, so the
// station sees that office's ticks go backwards.  Each replay call's bytes
// depend on its tick alone, so the stream is identical however it is cut
// into calls.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fadewich/common/time.hpp"
#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/net/wire.hpp"

namespace perfbench {

using fadewich::Tick;

inline constexpr std::size_t kDevices = 9;
inline constexpr std::size_t kStreams = kDevices * (kDevices - 1);
inline constexpr std::size_t kWorkstations = 3;
inline constexpr std::size_t kReportsPerFrame = kDevices - 1;
inline constexpr std::size_t kFrameBytes =
    fadewich::net::wire_frame_size(kReportsPerFrame, true);
inline constexpr std::size_t kOfficeTickBytes = kDevices * kFrameBytes;
/// First byte a bit flip may hit: everything from here on is covered by
/// the CRC, so a flip always yields exactly one bad_crc rejection.
inline constexpr std::size_t kFlipFrom = fadewich::net::kWireHeaderSize;

/// The shard template every workload uses: the paper's office.
fadewich::fleet::ShardConfig paper_office();

/// Ticks a paper_office() shard trains before it goes online.
Tick training_ticks();

/// Per-frame impairment probabilities.
struct Impairment {
  double drop = 0.0;
  double duplicate = 0.0;
  double straggle = 0.0;
  double flip = 0.0;
};

/// What the generator put on (or kept off) the wire.
struct WireLedger {
  std::uint64_t frames_emitted = 0;   // frames written into bytes
  std::uint64_t frames_dropped = 0;   // sensor frames never written
  std::uint64_t duplicates = 0;       // extra copies among emitted
  std::uint64_t stragglers = 0;       // frames moved behind their tick
  std::uint64_t flipped = 0;          // emitted frames with a bit flip
  std::uint64_t reports_generated = 0;  // reports in sensor frames
  std::uint64_t bytes = 0;
};

class CampusGenerator {
 public:
  CampusGenerator(std::uint64_t seed, std::size_t offices,
                  Impairment impairment = {});

  std::size_t offices() const { return offices_; }

  /// The shard config of one office: paper_office() with a seeded settle
  /// prelude, so offices' leaves are spread over one script cycle instead
  /// of happening in the same tick campus-wide.
  fadewich::fleet::ShardConfig office_config(std::size_t office) const;
  std::uint64_t seed() const { return seed_; }
  const Impairment& impairment() const { return impairment_; }

  /// The quantised RSSI stream `stream` of `office` carries at `tick`.
  std::int8_t rssi(std::size_t office, Tick tick, std::size_t stream) const;

  /// Whether the sensor frame (office, tick, tx) is dropped, duplicated,
  /// held back behind its tick, or bit-flipped.
  bool dropped(std::size_t office, Tick tick, std::size_t tx) const;
  bool duplicated(std::size_t office, Tick tick, std::size_t tx) const;
  bool straggles(std::size_t office, Tick tick, std::size_t tx) const;
  bool flipped(std::size_t office, Tick tick, std::size_t tx) const;
  /// True when some frame of (office, tick) straggles: its last frame
  /// then rides the next tick's replay call.
  bool tick_straggles(std::size_t office, Tick tick) const;

  /// Clean campus ticks [from, from + ticks): tick-major, office-minor,
  /// 9 authenticated frames per office-tick.  `out` is resized to hold
  /// exactly that; offices are encoded in parallel when `pool` is set.
  void clean_block(Tick from, Tick ticks, std::vector<std::uint8_t>& out,
                   fadewich::exec::ThreadPool* pool) const;

  /// One impaired replay call: per office, its non-straggling frames of
  /// `tick`, then its stragglers of tick - 1.  Appends to `out`.
  void impaired_call(Tick tick, std::vector<std::uint8_t>& out,
                     WireLedger& ledger) const;

  /// The reference RowSource: the quantised values the clean capture
  /// encodes for `office`, written straight into the shard's block.
  fadewich::fleet::OfficeShard::RowSource direct_source(
      std::size_t office) const;

 private:
  std::uint64_t draw(std::size_t office, Tick tick, std::uint64_t slot,
                     std::uint64_t salt) const;
  bool chance(std::size_t office, Tick tick, std::size_t tx,
              std::uint64_t salt, double p) const;
  /// Noise level of a stream at a tick: a seeded per-cycle strength
  /// inside the script's leave/enter bursts, quiet otherwise.
  double sigma(std::size_t office, Tick tick, std::size_t stream) const;
  void encode_frame(std::size_t office, Tick tick, std::size_t tx,
                    std::vector<std::uint8_t>& out) const;
  void encode_office_tick(std::size_t office, Tick tick,
                          std::uint8_t* out) const;

  std::uint64_t seed_;
  std::size_t offices_;
  Impairment impairment_;
  std::vector<fadewich::net::WireKey> keys_;
  std::vector<float> base_dbm_;  // offices x streams path-loss levels
  // ShardConfig's script geometry, in ticks (settle per office, and the
  // seconds it came from, so the shard converts the same double).
  std::vector<double> settle_seconds_;
  std::vector<Tick> settle_;
  Tick burst_ = 0, away_ = 0, cycle_ = 0;
};

/// 2^16 standard normals from a fixed Box-Muller pass, shared by every
/// generator.
const std::array<float, 65536>& normal_table();

}  // namespace perfbench
