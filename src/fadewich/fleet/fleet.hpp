// Campus-scale fleet: N independent office shards stepped in lockstep
// blocks on the work-stealing pool, supervised as a unit, and scraped as
// one observability document.
//
// Execution model.  run_week() advances every shard to a common tick
// boundary per block via parallel_for, then — serially, on the fleet
// thread — walks the offices in index order and restarts each faulted
// one: restore its newest snapshot (or cold-start as a last resort) and
// replay forward to the boundary.  The stateless per-tick driver makes
// the replay exact: recovery of one shard cannot perturb any neighbor,
// and the recovered shard's own outputs past the snapshot are the same
// bytes it would have produced without the crash.  Restarts are counted
// per office and bounded by max_restarts; an office past the bound is
// retired as failed and left parked at its failing tick, so a crash loop
// degrades loudly instead of spinning forever.
//
// Determinism.  Shard i's seed is task_seed(fleet seed, i), so its
// stream is a function of (fleet seed, i) alone — independent of fleet
// size, thread count, and block scheduling.  fleet_digest() folds the
// per-shard CRCs in index order; equal digests mean bit-identical weeks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fadewich/exec/thread_pool.hpp"
#include "fadewich/fleet/office_shard.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::fleet {

struct FleetConfig {
  std::size_t offices = 16;
  std::uint64_t seed = 0xFADE'2017'0001ull;
  ShardConfig shard;  // template applied to every office

  /// Block quantum in ticks: shards run this far between supervision
  /// passes.  0 means shard.block_ticks.
  Tick supervise_every = 0;

  /// Root directory for per-office snapshot rings.  Empty disables
  /// persistence and supervision entirely (the 10k-office bench sweeps
  /// run unsupervised; recovery is exercised on small fleets).
  std::string snapshot_root;
  Tick checkpoint_period = 500;  // ticks between shard checkpoints
  std::size_t max_restarts = 5;  // per office, >= 1

  /// Mint per-office labeled series (fadewich_fleet_office_*{office="i"})
  /// while the fleet is at or under the cardinality cap; above it only
  /// the fleet aggregates are exported.
  bool per_office_series = true;
  std::size_t per_office_series_cap = 512;
};

/// One run_week() summary, for benches and the merged scrape.
struct RunStats {
  Tick ticks = 0;              // ticks advanced per shard this run
  double wall_seconds = 0.0;
  double ticks_per_sec = 0.0;  // total shard-ticks / wall
  double offices_per_sec = 0.0;  // offices advanced the full run / wall
  std::size_t restarts = 0;    // supervisor restarts during the run
};

/// Supervision state of one office, as the scrape reports it.  The enum
/// values are the exported status codes; 1 ("restarting") is never seen
/// because every fault is handled in the pass that observes it.
enum class ModuleStatus { kHealthy = 0, kFailed = 2 };

struct ModuleHealth {
  std::string name;  // "office-<index>"
  ModuleStatus status = ModuleStatus::kHealthy;
  Tick last_heartbeat = 0;  // last boundary the supervisor checked
  std::uint64_t restarts = 0;
  std::string last_fault;  // what() of the most recent fault, if any
};

struct HealthReport {
  std::vector<ModuleHealth> modules;
  std::uint64_t total_restarts = 0;

  bool all_healthy() const {
    for (const ModuleHealth& m : modules) {
      if (m.status != ModuleStatus::kHealthy) return false;
    }
    return true;
  }
};

class Fleet {
 public:
  /// Builds all shards (in parallel on `pool`) and, when snapshot_root
  /// is set, gives each one a snapshot ring and puts it under
  /// supervision.  `pool` defaults to the process-wide pool; the fleet
  /// does not own it.
  explicit Fleet(FleetConfig config, exec::ThreadPool* pool = nullptr);

  std::size_t offices() const { return shards_.size(); }
  Tick tick() const { return cursor_; }
  bool supervised() const { return !watch_.empty(); }

  /// Advance every office by `ticks` in lockstep blocks.  Returns the
  /// run's throughput stats (also retained for scrape()).
  RunStats run_week(Tick ticks);

  /// Arm a one-shot crash in office `office` at absolute tick `tick`
  /// (must be ahead of the current cursor).  A supervised fleet
  /// recovers it on the next supervision pass.
  void inject_crash(std::size_t office, Tick tick);

  const OfficeShard& shard(std::size_t office) const;

  /// CRC-32 fold of every shard digest in index order.
  std::uint32_t fleet_digest() const;
  std::uint32_t shard_digest(std::size_t office) const;

  std::uint64_t total_deauths() const;
  std::uint64_t total_spurious_deauths() const;
  std::uint64_t total_restarts() const;

  /// Mean fleet-layer bytes per office (staged blocks + arenas + shard
  /// objects); the bench trends this across the 10 -> 10k sweep.
  double memory_bytes_per_office() const;

  /// Supervisor view; empty report when the fleet is unsupervised.
  HealthReport supervisor_health() const;

  /// One merged scrape: the global metrics snapshot (fleet aggregates
  /// plus per-office labeled series when minted), a "fleet" HealthBlock
  /// (offices, cursor, deauth totals, last-run throughput, p99 deauth
  /// latency, bytes per office), and the supervisor block when present.
  obs::ScrapeReport scrape() const;

 private:
  void supervise(Tick boundary, std::size_t* restarts);

  /// Per-office supervision state; empty when unsupervised.  Every
  /// office is checked at every boundary, so its last heartbeat is the
  /// cursor.
  struct Watch {
    std::uint64_t restarts = 0;
    bool failed = false;     // budget spent or a restart re-faulted
    std::string last_fault;
  };

  FleetConfig config_;
  exec::ThreadPool* pool_;
  std::vector<std::unique_ptr<OfficeShard>> shards_;
  std::vector<Watch> watch_;

  Tick cursor_ = 0;  // common boundary all healthy shards reached
  RunStats last_run_;

  obs::Histogram fleet_latency_;  // shared by all shards: fleet-wide p99
};

}  // namespace fadewich::fleet
