#include "fadewich/net/central_station.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/obs.hpp"

namespace fadewich::net {

namespace {

struct StationMetrics {
  obs::Counter reports = obs::registry().counter(
      "fadewich_net_reports_total", "measurements ingested by the station");
  obs::Counter duplicates = obs::registry().counter(
      "fadewich_net_duplicates_total", "repeat (tick, stream) reports");
  obs::Counter late = obs::registry().counter(
      "fadewich_net_late_reports_total",
      "reports for already-released ticks");
  obs::Counter evictions = obs::registry().counter(
      "fadewich_net_evictions_total", "rows dropped by the capacity cap");
  obs::Counter incomplete = obs::registry().counter(
      "fadewich_net_incomplete_releases_total",
      "rows released past the deadline");
  obs::Counter imputed = obs::registry().counter(
      "fadewich_net_imputed_cells_total",
      "cells filled from last released values");
  obs::Counter duplicates_rejected = obs::registry().counter(
      "fadewich_net_duplicates_rejected_total",
      "exact repeat reports dropped without effect");
  obs::Counter malformed = obs::registry().counter(
      "fadewich_net_malformed_total",
      "reports with impossible device ids or ticks");
  static StationMetrics& get() {
    static StationMetrics metrics;
    return metrics;
  }
};

}  // namespace

void StationHealth::reset() {
  reports = 0;
  duplicates = 0;
  late_reports = 0;
  evictions = 0;
  incomplete_releases = 0;
  imputed_cells = 0;
  duplicates_rejected = 0;
  malformed = 0;
  std::fill(imputed_per_stream.begin(), imputed_per_stream.end(), 0);
}

obs::HealthBlock health_block(const StationHealth& health) {
  obs::HealthBlock block;
  block.name = "station";
  block.add("reports", static_cast<double>(health.reports));
  block.add("duplicates", static_cast<double>(health.duplicates));
  block.add("late_reports", static_cast<double>(health.late_reports));
  block.add("evictions", static_cast<double>(health.evictions));
  block.add("incomplete_releases",
            static_cast<double>(health.incomplete_releases));
  block.add("imputed_cells", static_cast<double>(health.imputed_cells));
  block.add("duplicates_rejected",
            static_cast<double>(health.duplicates_rejected));
  block.add("malformed", static_cast<double>(health.malformed));
  std::uint64_t worst = 0;
  for (const std::uint64_t n : health.imputed_per_stream) {
    worst = std::max(worst, n);
  }
  block.add("max_imputed_per_stream", static_cast<double>(worst));
  return block;
}

CentralStation::CentralStation(std::size_t device_count,
                               StationConfig config)
    : device_count_(device_count), config_(config) {
  // Station configs come from deployment descriptions at runtime, so
  // invalid values throw fadewich::Error (recoverable data error)
  // instead of tripping a contract check.
  if (device_count < 2) {
    throw Error("central station: device_count must be >= 2");
  }
  if (config.deadline_ticks < 0) {
    throw Error("central station: deadline_ticks must be >= 0");
  }
  if (config.max_pending < 1) {
    throw Error("central station: max_pending must be >= 1");
  }
  last_value_.assign(stream_count(), 0.0);
  health_.imputed_per_stream.assign(stream_count(), 0);
  seen_ticks_.assign(stream_count(), SeqWindow{});
}

std::size_t CentralStation::stream_index(DeviceId tx, DeviceId rx) const {
  FADEWICH_EXPECTS(tx < device_count_);
  FADEWICH_EXPECTS(rx < device_count_);
  FADEWICH_EXPECTS(tx != rx);
  return static_cast<std::size_t>(tx) * (device_count_ - 1) +
         (rx < tx ? rx : rx - 1);
}

std::pair<DeviceId, DeviceId> CentralStation::stream_pair(
    std::size_t stream) const {
  FADEWICH_EXPECTS(stream < stream_count());
  const auto tx = static_cast<DeviceId>(stream / (device_count_ - 1));
  auto rx = static_cast<DeviceId>(stream % (device_count_ - 1));
  if (rx >= tx) ++rx;
  return {tx, rx};
}

void CentralStation::ingest(std::span<const Measurement> batch,
                            const RowSink& on_row, std::optional<Tick> now) {
  const std::size_t devices = device_count_;
  // obs counters are flushed once per batch instead of bumped per
  // measurement: at millions of reports/sec the per-inc() shard lookup
  // is the dominant station cost.
  std::uint64_t n_dup = 0, n_dup_rej = 0, n_late = 0, n_malformed = 0;
  // The row the previous report went to, cached with raw pointers so a
  // run of same-tick reports skips the ring lookup.  Only advance() and
  // open() move rows, and both happen on a tick change, which refreshes
  // the cache.
  Tick row_tick = -1;
  Row* row = nullptr;
  double* values = nullptr;
  std::uint8_t* valid = nullptr;
  for (const Measurement& m : batch) {
    // Ingest runs on wire-decoded input: a CRC-valid frame can still
    // carry device ids or ticks no deployment produced.  Those reports
    // are counted malformed and dropped — stream_index() is a contract
    // for trusted callers, not a validator for hostile bytes.
    if (m.tx >= devices || m.rx >= devices || m.tx == m.rx || m.tick < 0 ||
        m.tick == std::numeric_limits<Tick>::max()) {
      ++n_malformed;
      continue;
    }
    const std::size_t s = static_cast<std::size_t>(m.tx) * (devices - 1) +
                          (m.rx < m.tx ? m.rx : m.rx - 1);
    if (m.tick != row_tick) {
      // A report for tick t says delivery of every tick before t is over.
      if (m.tick - 1 > clock_) advance(m.tick - 1, on_row);
      std::int32_t index = find(m.tick);
      if (index == kNoRow || rows_[index].released) {
        if (m.tick <= clock_) {
          // Its tick is over and its row is gone (released, evicted, or
          // never opened): the report cannot amend anything.
          ++n_late;
          if (seen_ticks_[s].seen(static_cast<std::uint64_t>(m.tick))) {
            // Not a straggling loss — a repeat of a report this stream
            // already delivered (wire duplicate / injector duplicate).
            ++n_dup_rej;
          }
          continue;
        }
        index = open(m.tick, on_row);
      }
      row_tick = m.tick;
      row = &rows_[static_cast<std::size_t>(index)];
      values = row->out.values.data();
      valid = row->out.valid.data();
    }
    if (!valid[s]) {
      valid[s] = 1;
      ++row->filled;
      values[s] = m.rssi_dbm;
      seen_ticks_[s].accept(static_cast<std::uint64_t>(m.tick));
    } else {
      ++n_dup;
      if (values[s] == m.rssi_dbm) {
        ++n_dup_rej;  // exact repeat: dropped without effect
      } else {
        values[s] = m.rssi_dbm;  // revised reports keep the latest
      }
    }
  }
  if (now.has_value()) advance(std::max(clock_, *now), on_row);

  health_.reports += batch.size();
  health_.duplicates += n_dup;
  health_.duplicates_rejected += n_dup_rej;
  health_.late_reports += n_late;
  health_.malformed += n_malformed;
  StationMetrics& mx = StationMetrics::get();
  if (!batch.empty()) mx.reports.add(static_cast<double>(batch.size()));
  if (n_dup) mx.duplicates.add(static_cast<double>(n_dup));
  if (n_dup_rej) mx.duplicates_rejected.add(static_cast<double>(n_dup_rej));
  if (n_late) mx.late.add(static_cast<double>(n_late));
  if (n_malformed) mx.malformed.add(static_cast<double>(n_malformed));
}

void CentralStation::advance(Tick clock, const RowSink& on_row) {
  clock_ = clock;
  const std::size_t streams = stream_count();
  for (Tick t = base_; t < end_ && t <= clock_; ++t) {
    const std::int32_t index = slot(t);
    if (index == kNoRow) continue;
    Row& row = rows_[static_cast<std::size_t>(index)];
    if (!row.released &&
        (row.filled == streams || clock_ - t >= config_.deadline_ticks)) {
      finalize(row);
    }
  }
  pop_front(on_row);
}

void CentralStation::finalize(Row& row) {
  StationRow& out = row.out;
  row.released = true;
  out.missing = stream_count() - row.filled;
  if (out.missing == 0) {
    std::copy(out.values.begin(), out.values.end(), last_value_.begin());
    return;
  }
  ++health_.incomplete_releases;
  StationMetrics::get().incomplete.inc();
  StationMetrics::get().imputed.add(static_cast<double>(out.missing));
  for (std::size_t s = 0; s < out.values.size(); ++s) {
    if (out.valid[s]) {
      last_value_[s] = out.values[s];
    } else {
      out.values[s] = last_value_[s];  // last-known-value imputation
      ++health_.imputed_cells;
      ++health_.imputed_per_stream[s];
      ++lifetime_imputed_;
    }
  }
}

void CentralStation::pop_front(const RowSink& on_row) {
  // Emit released rows from the front until the oldest held one.
  while (base_ < end_) {
    std::int32_t& front = slot(base_);
    if (front != kNoRow) {
      Row& row = rows_[static_cast<std::size_t>(front)];
      if (!row.released) return;
      on_row(row.out);
      recycle(front);
      front = kNoRow;
    }
    ++base_;
  }
}

void CentralStation::recycle(std::int32_t index) {
  Row& row = rows_[static_cast<std::size_t>(index)];
  // Every unreported cell is imputed at release, so only the mask needs
  // clearing for reuse.
  std::fill(row.out.valid.begin(), row.out.valid.end(), std::uint8_t{0});
  row.filled = 0;
  row.released = false;
  free_.push_back(index);
}

std::int32_t CentralStation::open(Tick tick, const RowSink& on_row) {
  // The ring's span is capped: evict the oldest held rows until `tick`
  // fits, emitting any released rows they were holding back.
  while (base_ < end_ &&
         static_cast<std::uint64_t>(tick - base_) >= config_.max_pending) {
    std::int32_t& front = slot(base_);
    recycle(front);
    front = kNoRow;
    ++base_;
    ++health_.evictions;
    ++lifetime_evictions_;
    StationMetrics::get().evictions.inc();
    pop_front(on_row);
  }
  if (base_ == end_) base_ = tick;
  const auto span = static_cast<std::size_t>(tick - base_) + 1;
  if (span > slots_.size()) {
    std::vector<std::int32_t> grown(std::bit_ceil(span), kNoRow);
    for (Tick t = base_; t < end_; ++t) {
      grown[static_cast<std::size_t>(t) & (grown.size() - 1)] = slot(t);
    }
    slots_.swap(grown);
  }
  std::int32_t index;
  if (free_.empty()) {
    index = static_cast<std::int32_t>(rows_.size());
    Row& row = rows_.emplace_back();
    row.out.values.assign(stream_count(), 0.0);
    row.out.valid.assign(stream_count(), 0);
  } else {
    index = free_.back();
    free_.pop_back();
  }
  rows_[static_cast<std::size_t>(index)].out.tick = tick;
  slot(tick) = index;
  end_ = tick + 1;
  return index;
}

}  // namespace fadewich::net
