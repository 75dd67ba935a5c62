// The sharded ingestion plane: the multi-lane front door that turns one
// recorded (or received) byte stream into per-shard measurement streams
// at line rate.
//
// Topology: N decoder *lanes* each own a contiguous byte range of the
// input, aligned to validated frame starts (find_frame_boundary), and
// run the never-throw scan_frame hunt in parallel on the exec pool.
// Each decoded frame is routed by station id to one of S *shards* and
// its reports pushed through the (lane, shard) SPSC ring — lanes x
// shards IngestQueues, each with exactly one producer (the lane) and
// one consumer (the shard's drain task).  A shard drains lane rings in
// lane order behind a *frontier* cursor: all of lane l's reports are
// consumed before any of lane l+1's, which reconstructs wire order per
// shard exactly — the same tick-order-merge contract simulate_week uses
// — so the per-shard measurement stream is bit-identical at any lane
// count, and a CentralStation fed by a shard releases identical
// rows whether one lane decoded the capture or sixteen did.
//
// Scheduling is round-based and cooperative: every round is one
// parallel_for over lanes + shards where no task ever blocks or spins —
// a lane that hits a full ring parks the overflow in a carry buffer and
// returns (counted ring_full_backpressure); a shard whose frontier ring
// is empty returns and re-checks next round.  That makes the plane
// deadlock-free at any pool size including one thread, where
// parallel_for degenerates to a serial loop and the rounds interleave
// decode and drain on the caller.
//
// Ordering/equivalence contract: lane boundaries are validated frame
// starts, so partitioning never splits or duplicates a frame the
// single-lane hunt would deliver.  Two documented edge cases: (1) a
// corrupt fragment abutting a boundary may be counted `truncated` by
// the lane where the single-lane walk would count `bad_crc` +
// `resync_bytes` — attribution differs, delivered frames do not; (2) a
// crafted CRC-valid frame embedded inside another CRC-valid frame's
// payload could make the partitioned walk deliver differently than the
// sequential walk.  No honest encoder emits overlapping frames and the
// bench's hard equivalence gate re-verifies every corpus it replays.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/net/ingest_queue.hpp"
#include "fadewich/net/measurement.hpp"
#include "fadewich/net/wire.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::net {

struct PlaneConfig {
  /// Decoder workers.  Requires >= 1; FADEWICH_INGEST_LANES is the
  /// conventional runtime source (see common/env.hpp).
  std::size_t lanes = 1;
  /// Output partitions (one per fleet office, typically).  Requires >= 1.
  std::size_t shards = 1;
  /// Slots per (lane, shard) ring; 0 derives it from ring_budget_bytes.
  std::size_t ring_capacity = 0;
  /// Total measurement-slot memory across all rings when ring_capacity
  /// is 0; the derived per-ring capacity is clamped to [256, 65536].
  std::size_t ring_budget_bytes = 32ull << 20;
  /// Max measurements handed to the sink per call (and the drain
  /// scratch-buffer size).  Requires >= 1.
  std::size_t drain_batch = 4096;
  /// Run every round on the calling thread instead of the pool — the
  /// reproducible single-thread reference the bench gates against.
  bool serial = false;
  /// Mint per-shard labeled obs series — subject to the cardinality cap
  /// below, exactly like fleet's per-office series.
  bool per_shard_series = true;
  std::size_t per_shard_series_cap = 512;
};

/// Per-shard ingest counters, exported through obs::labeled when the
/// cardinality cap allows.
struct PlaneShardCounters {
  std::uint64_t frames_decoded = 0;         // CRC-valid frames routed here
  std::uint64_t crc_rejected = 0;           // kBadCrc frames attributed here
  std::uint64_t ring_full_backpressure = 0; // lane stalls on this shard's rings
  std::uint64_t reports_delivered = 0;      // measurements handed to the sink
};

struct PlaneCounters {
  WireCounters wire;                  // merged across lanes
  std::uint64_t rounds = 0;           // cooperative scheduling rounds
  std::uint64_t reports_delivered = 0;
  std::uint64_t ring_full_backpressure = 0;
  std::vector<PlaneShardCounters> per_shard;
};

/// Flatten plane counters for obs::ScrapeReport.
obs::HealthBlock health_block(const PlaneCounters& counters);

class IngestPlane {
 public:
  /// station id -> shard index (must return < shards).  The default is
  /// station_id % shards — the fleet convention where office i's
  /// station carries id i.
  using Router = std::function<std::size_t(std::uint16_t station_id)>;

  /// Per-shard batch consumer.  Called concurrently for *different*
  /// shards (never concurrently for one shard), with batches in exact
  /// wire order per shard; the span dies with the call.
  using Sink =
      std::function<void(std::size_t shard, std::span<const Measurement>)>;

  /// Invalid configs throw fadewich::Error.  `pool` defaults to the
  /// process-global pool.
  explicit IngestPlane(PlaneConfig config, exec::ThreadPool* pool = nullptr);
  ~IngestPlane();

  /// Replace the station->shard route.  Must be set before replay().
  void set_router(Router router);

  const PlaneConfig& config() const { return config_; }
  std::size_t ring_capacity() const { return ring_capacity_; }

  /// Drive one complete byte stream through the plane.  Returns the
  /// number of measurements delivered to the sink.  Reusable: counters
  /// accumulate across calls.  Throws fadewich::Error if the router
  /// returns an out-of-range shard or the plane stops making progress
  /// (both indicate caller bugs, not input bytes — input bytes never
  /// throw).
  std::uint64_t replay(std::span<const std::uint8_t> bytes,
                       const Sink& sink);

  const PlaneCounters& counters() const { return counters_; }

 private:
  struct LaneState;
  struct ShardState;

  IngestQueue& ring(std::size_t lane, std::size_t shard) {
    return *rings_[lane * config_.shards + shard];
  }
  void plan_lanes(std::span<const std::uint8_t> bytes);
  void decode_round(LaneState& lane, std::span<const std::uint8_t> bytes);
  void drain_round(ShardState& shard, const Sink& sink);
  std::uint64_t progress_mark() const;
  void merge_lane_counters();
  void flush_obs();

  PlaneConfig config_;
  exec::ThreadPool* pool_;
  Router router_;
  std::size_t ring_capacity_ = 0;
  std::vector<std::unique_ptr<IngestQueue>> rings_;  // lanes x shards
  std::vector<std::unique_ptr<LaneState>> lanes_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  PlaneCounters counters_;
  // Labeled per-shard handles (empty when the cardinality cap bites)
  // plus the last-flushed snapshot so repeated replays export deltas.
  struct ShardMetrics {
    obs::Counter frames;
    obs::Counter crc_rejected;
    obs::Counter backpressure;
    obs::Counter reports;
  };
  std::vector<ShardMetrics> shard_metrics_;
  std::vector<PlaneShardCounters> flushed_;
  obs::Histogram ring_depth_;
};

}  // namespace fadewich::net
