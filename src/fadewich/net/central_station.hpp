// The central station: assembles per-tick measurement reports into the
// m x (m-1) synchronised stream rows MD reads.
//
// The paper assumes every stream reports every tick; this station does
// not.  It keeps one clock — the newest tick whose delivery is over,
// max(now, newest report tick - 1) — and one release rule:
//
//   * on every clock advance, each row with tick <= clock is released
//     if it is complete, or if clock - tick >= deadline_ticks (missing
//     cells are imputed from the stream's last released value and
//     flagged stale);
//   * a report for a tick <= clock whose row is no longer held is late;
//   * rows leave in tick order: a released row never overtakes an older
//     held one.
//
// With deadline 0 an incomplete row leaves as soon as its tick is over,
// which is what a tick-ordered wire stream wants; a positive deadline
// gives reordered or delayed reports that many ticks to arrive.  Rows
// live in a tick-indexed ring spanning at most max_pending ticks whose
// row storage is allocated on demand and recycled, so a tick-ordered
// office holds one row and allocates nothing in steady state.  Release
// depends only on the measurement sequence and the `now` values passed,
// never on how the sequence is cut into batches.  Every degradation is
// counted in a StationHealth block, so a lossy reporting path degrades
// output quality instead of aborting the process.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fadewich/net/measurement.hpp"
#include "fadewich/net/seq_window.hpp"
#include "fadewich/obs/export.hpp"

namespace fadewich::net {

struct StationConfig {
  /// An incomplete row is released once the station clock is this many
  /// ticks past it; 0 releases it as soon as its tick is over.
  Tick deadline_ticks = 0;
  /// Ring span: held rows cover at most this many consecutive ticks.  A
  /// report that does not fit evicts the oldest held rows (counted in
  /// StationHealth::evictions).  Requires >= 1.
  std::size_t max_pending = 1024;
};

/// One released row.  `valid[s]` is true when stream s actually reported
/// for this tick; false cells carry the stream's last released value
/// (0 dBm before any release) and should be treated as stale downstream.
struct StationRow {
  Tick tick = 0;
  std::vector<double> values;
  std::vector<std::uint8_t> valid;
  std::size_t missing = 0;

  bool complete() const { return missing == 0; }
};

/// Degradation counters.  Resettable per reporting interval via reset();
/// the station separately keeps monotone lifetime eviction/imputation
/// totals (CentralStation::lifetime_evictions()/lifetime_imputed_cells())
/// so scrapers that expect never-decreasing counters survive a reset.
struct StationHealth {
  std::uint64_t reports = 0;             // measurements ingested
  std::uint64_t duplicates = 0;          // repeat (tick, stream) reports
  std::uint64_t late_reports = 0;        // tick already over, row gone
  std::uint64_t evictions = 0;           // rows dropped by the ring span
  std::uint64_t incomplete_releases = 0; // rows released with imputation
  std::uint64_t imputed_cells = 0;       // sum of imputed_per_stream
  std::uint64_t duplicates_rejected = 0; // exact repeats dropped unapplied
  std::uint64_t malformed = 0;           // out-of-range device ids / ticks
  std::vector<std::uint64_t> imputed_per_stream;

  /// Zero every counter; imputed_per_stream keeps its size.
  void reset();
};

/// Flatten a health block for obs::ScrapeReport (per-stream imputation is
/// summarised as its max, not expanded per stream).
obs::HealthBlock health_block(const StationHealth& health);

class CentralStation {
 public:
  /// A released-row consumer.  The row reference is valid only for the
  /// duration of the call: the station recycles its storage.
  using RowSink = std::function<void(const StationRow&)>;

  /// `device_count` radios; streams are all ordered (tx, rx) pairs in
  /// row-major order (matching rf::ChannelMatrix).  Requires >= 2.
  explicit CentralStation(std::size_t device_count,
                          StationConfig config = {});

  std::size_t device_count() const { return device_count_; }
  std::size_t stream_count() const {
    return device_count_ * (device_count_ - 1);
  }
  const StationConfig& config() const { return config_; }

  std::size_t stream_index(DeviceId tx, DeviceId rx) const;

  /// Inverse of stream_index: the (tx, rx) pair of a stream.
  std::pair<DeviceId, DeviceId> stream_pair(std::size_t stream) const;

  /// Apply `batch` in order and hand every released row to `on_row`, in
  /// tick order.  `now`, when given, advances the clock after the batch
  /// (and re-runs the release rule even if it does not advance).
  /// End-of-stream is `ingest({}, on_row, clock() + 1)`.  Hostile input
  /// is counted in health(), never thrown.
  void ingest(std::span<const Measurement> batch, const RowSink& on_row,
              std::optional<Tick> now = std::nullopt);

  /// The newest tick whose delivery is over (-1 before any).
  Tick clock() const { return clock_; }

  /// Rows currently held in the ring (assembling, or released and
  /// waiting behind an older held row).
  std::size_t buffered_count() const { return rows_.size() - free_.size(); }

  const StationHealth& health() const { return health_; }

  /// Zero the resettable health block (lifetime totals are untouched).
  void reset_health() { health_.reset(); }

  /// Monotone lifetime totals, unaffected by reset_health().
  std::uint64_t lifetime_evictions() const { return lifetime_evictions_; }
  std::uint64_t lifetime_imputed_cells() const { return lifetime_imputed_; }

 private:
  struct Row {
    StationRow out;          // values / valid mask / tick, emitted as-is
    std::size_t filled = 0;  // streams reported so far
    bool released = false;   // final, waiting behind an older held row
  };
  static constexpr std::int32_t kNoRow = -1;

  std::int32_t& slot(Tick tick) {
    return slots_[static_cast<std::size_t>(tick) & (slots_.size() - 1)];
  }
  std::int32_t find(Tick tick) {
    return tick >= base_ && tick < end_ ? slot(tick) : kNoRow;
  }
  std::int32_t open(Tick tick, const RowSink& on_row);
  void advance(Tick clock, const RowSink& on_row);
  void finalize(Row& row);
  void pop_front(const RowSink& on_row);
  void recycle(std::int32_t index);

  std::size_t device_count_;
  StationConfig config_;
  // The ring: ticks [base_, end_) map to slots_[tick & (size - 1)], each
  // a rows_ index or kNoRow; the front slot always holds a row.
  std::vector<std::int32_t> slots_;
  Tick base_ = 0;
  Tick end_ = 0;
  std::vector<Row> rows_;            // row storage, grown on demand
  std::vector<std::int32_t> free_;   // rows_ indexes not in the ring
  Tick clock_ = -1;
  std::vector<double> last_value_;   // per-stream imputation source
  // One anti-replay window per stream over tick numbers: an exact repeat
  // of an already-applied (tick, stream) report that arrives late is
  // told apart from a straggling loss.
  std::vector<SeqWindow> seen_ticks_;
  StationHealth health_;
  std::uint64_t lifetime_evictions_ = 0;
  std::uint64_t lifetime_imputed_ = 0;
};

}  // namespace fadewich::net
