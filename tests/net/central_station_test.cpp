#include "fadewich/net/central_station.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"

namespace fadewich::net {
namespace {

/// Append every directed measurement for one tick with value
/// base - stream_index.
void push_full_round(std::vector<Measurement>& out, std::size_t devices,
                     Tick tick, double base) {
  CentralStation index(devices);
  for (DeviceId tx = 0; tx < devices; ++tx) {
    for (DeviceId rx = 0; rx < devices; ++rx) {
      if (tx == rx) continue;
      out.push_back({tx, rx, tick,
                     base - static_cast<double>(index.stream_index(tx, rx))});
    }
  }
}

/// Collects released rows; `ingest` feeds one batch and clears it.
struct Rows {
  std::vector<StationRow> rows;
  CentralStation::RowSink sink() {
    return [this](const StationRow& row) { rows.push_back(row); };
  }
  void ingest(CentralStation& station, std::vector<Measurement>& batch,
              std::optional<Tick> now = std::nullopt) {
    station.ingest(batch, sink(), now);
    batch.clear();
  }
  void finish(CentralStation& station) {
    station.ingest({}, sink(), station.clock() + 1);
  }
};

TEST(CentralStationTest, RejectsTooFewDevices) {
  EXPECT_THROW(CentralStation(1), Error);
}

TEST(CentralStationTest, RejectsZeroPendingCapacity) {
  StationConfig config;
  config.max_pending = 0;
  EXPECT_THROW(CentralStation(3, config), Error);
}

TEST(CentralStationTest, StreamIndexIsDenseAndUnique) {
  CentralStation station(4);
  std::vector<bool> seen(station.stream_count(), false);
  for (DeviceId tx = 0; tx < 4; ++tx) {
    for (DeviceId rx = 0; rx < 4; ++rx) {
      if (tx == rx) continue;
      const std::size_t s = station.stream_index(tx, rx);
      ASSERT_LT(s, station.stream_count());
      EXPECT_FALSE(seen[s]);
      seen[s] = true;
    }
  }
}

TEST(CentralStationTest, StreamIndexRoundTripsOverAllPairs) {
  for (std::size_t devices : {2u, 3u, 5u, 9u}) {
    CentralStation station(devices);
    // tx/rx -> index -> tx/rx is the identity for every ordered pair...
    for (DeviceId tx = 0; tx < devices; ++tx) {
      for (DeviceId rx = 0; rx < devices; ++rx) {
        if (tx == rx) continue;
        const auto [tx2, rx2] =
            station.stream_pair(station.stream_index(tx, rx));
        EXPECT_EQ(tx2, tx) << devices << " devices";
        EXPECT_EQ(rx2, rx) << devices << " devices";
      }
    }
    // ...and index -> tx/rx -> index covers every stream.
    for (std::size_t s = 0; s < station.stream_count(); ++s) {
      const auto [tx, rx] = station.stream_pair(s);
      EXPECT_NE(tx, rx);
      EXPECT_EQ(station.stream_index(tx, rx), s);
    }
  }
}

TEST(CentralStationTest, IncompleteTickIsNotReported) {
  // Neither an open tick nor an over-but-within-deadline tick releases
  // an incomplete row.
  StationConfig config;
  config.deadline_ticks = 2;
  CentralStation station(3, config);
  Rows got;
  std::vector<Measurement> batch{{0, 1, 0, -50.0}, {1, 0, 0, -52.0}};
  got.ingest(station, batch);
  EXPECT_TRUE(got.rows.empty());
  got.ingest(station, batch, 1);  // clock 1: tick 0 is over, deadline not
  EXPECT_TRUE(got.rows.empty());
  EXPECT_EQ(station.buffered_count(), 1u);
}

TEST(CentralStationTest, CompleteTickAssemblesRow) {
  CentralStation station(3);
  Rows got;
  std::vector<Measurement> batch;
  push_full_round(batch, 3, 7, -40.0);
  got.ingest(station, batch);
  // Complete, but tick 7's delivery is not over until the clock says so.
  EXPECT_TRUE(got.rows.empty());
  got.ingest(station, batch, 7);
  ASSERT_EQ(got.rows.size(), 1u);
  const StationRow& row = got.rows[0];
  EXPECT_EQ(row.tick, 7);
  EXPECT_TRUE(row.complete());
  ASSERT_EQ(row.values.size(), 6u);
  for (std::size_t s = 0; s < row.values.size(); ++s) {
    EXPECT_DOUBLE_EQ(row.values[s], -40.0 - static_cast<double>(s));
    EXPECT_TRUE(row.valid[s]);
  }
}

TEST(CentralStationTest, ReleasedRowsSurfaceInTickOrder) {
  StationConfig config;
  config.deadline_ticks = 5;
  CentralStation station(2, config);
  Rows got;
  std::vector<Measurement> batch{
      {0, 1, 0, -50.0}, {0, 1, 1, -51.0}, {1, 0, 1, -61.0}};
  // Tick 1 is complete but tick 0 is still held: nothing may surface
  // yet, or MD would see an out-of-order stream.
  got.ingest(station, batch, 1);
  EXPECT_TRUE(got.rows.empty());
  // Completing tick 0 unblocks both, in order.
  batch.push_back({1, 0, 0, -60.0});
  got.ingest(station, batch, 1);
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[0].tick, 0);
  EXPECT_EQ(got.rows[1].tick, 1);
  EXPECT_TRUE(got.rows[0].complete());
  EXPECT_TRUE(got.rows[1].complete());
}

TEST(CentralStationTest, OutOfOrderTickDeliveryAssemblesBothTicks) {
  StationConfig config;
  config.deadline_ticks = 2;
  CentralStation station(2, config);
  Rows got;
  // Tick 2's row opens, then all of tick 3 arrives before the rest of
  // tick 2: a held row keeps taking reports after its tick is over.
  std::vector<Measurement> batch{{0, 1, 2, -47.0}};
  push_full_round(batch, 2, 3, -45.0);
  batch.push_back({1, 0, 2, -48.0});
  got.ingest(station, batch);
  got.finish(station);
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[0].tick, 2);
  EXPECT_EQ(got.rows[1].tick, 3);
  EXPECT_TRUE(got.rows[0].complete());
  EXPECT_DOUBLE_EQ(got.rows[0].values[0], -47.0);
  EXPECT_DOUBLE_EQ(got.rows[0].values[1], -48.0);
  EXPECT_DOUBLE_EQ(got.rows[1].values[0], -45.0);
  EXPECT_EQ(station.health().late_reports, 0u);
}

TEST(CentralStationTest, RowIsEmittedExactlyOnce) {
  CentralStation station(2);
  Rows got;
  std::vector<Measurement> batch;
  push_full_round(batch, 2, 3, -45.0);
  got.ingest(station, batch, 3);
  got.finish(station);
  got.finish(station);
  // A repeat of a released report is late, not a second row.
  push_full_round(batch, 2, 3, -45.0);
  got.ingest(station, batch, 5);
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0].tick, 3);
  EXPECT_EQ(station.health().late_reports, 2u);
  EXPECT_EQ(station.health().duplicates_rejected, 2u);
  EXPECT_EQ(station.buffered_count(), 0u);
}

TEST(CentralStationTest, DuplicateReportsKeepTheLatest) {
  CentralStation station(2);
  Rows got;
  std::vector<Measurement> batch{
      {0, 1, 0, -50.0}, {0, 1, 0, -55.0}, {1, 0, 0, -60.0}};
  got.ingest(station, batch, 0);
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(got.rows[0].values[station.stream_index(0, 1)], -55.0);
  EXPECT_EQ(station.health().duplicates, 1u);
}

TEST(CentralStationTest, DuplicateAcrossIngestCallsStillLatestWins) {
  CentralStation station(2);
  Rows got;
  std::vector<Measurement> batch{{0, 1, 0, -50.0}};
  got.ingest(station, batch);
  batch = {{0, 1, 0, -52.0}, {1, 0, 0, -60.0}};  // newer report, same cell
  got.ingest(station, batch, 0);
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(got.rows[0].values[station.stream_index(0, 1)], -52.0);
}

TEST(CentralStationTest, RejectsOutOfRangeDevices) {
  CentralStation station(3);
  EXPECT_THROW(station.stream_index(3, 0), ContractViolation);
  EXPECT_THROW(station.stream_index(0, 0), ContractViolation);
  EXPECT_THROW(station.stream_pair(6), ContractViolation);
}

TEST(CentralStationTest, DeadlineReleasesIncompleteRowWithImputation) {
  StationConfig config;
  config.deadline_ticks = 2;
  CentralStation station(2, config);
  Rows got;

  // Tick 0 completes normally: both streams carry real values.
  std::vector<Measurement> batch{{0, 1, 0, -41.0}, {1, 0, 0, -42.0}};
  got.ingest(station, batch, 0);
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_TRUE(got.rows[0].complete());

  // Tick 1 loses stream (1->0); the row must not release before the
  // deadline, then release with the lost cell imputed from tick 0.
  batch = {{0, 1, 1, -51.0}};
  got.ingest(station, batch, 1);
  got.ingest(station, batch, 2);
  EXPECT_EQ(got.rows.size(), 1u);
  got.ingest(station, batch, 3);  // 3 - 1 >= deadline
  ASSERT_EQ(got.rows.size(), 2u);
  const StationRow& row = got.rows[1];
  EXPECT_EQ(row.tick, 1);
  EXPECT_FALSE(row.complete());
  EXPECT_EQ(row.missing, 1u);
  const std::size_t fresh = station.stream_index(0, 1);
  const std::size_t stale = station.stream_index(1, 0);
  EXPECT_TRUE(row.valid[fresh]);
  EXPECT_DOUBLE_EQ(row.values[fresh], -51.0);
  EXPECT_FALSE(row.valid[stale]);
  EXPECT_DOUBLE_EQ(row.values[stale], -42.0);  // last released value

  EXPECT_EQ(station.health().incomplete_releases, 1u);
  EXPECT_EQ(station.health().imputed_cells, 1u);
  EXPECT_EQ(station.health().imputed_per_stream[stale], 1u);
  EXPECT_EQ(station.health().imputed_per_stream[fresh], 0u);
}

TEST(CentralStationTest, LateReportAfterReleaseIsCountedAndDiscarded) {
  StationConfig config;
  config.deadline_ticks = 1;
  CentralStation station(2, config);
  Rows got;
  std::vector<Measurement> batch{{0, 1, 0, -50.0}};
  got.ingest(station, batch, 5);  // deadline long past: released incomplete
  ASSERT_EQ(got.rows.size(), 1u);

  batch = {{1, 0, 0, -60.0}};  // the lost report finally shows up
  got.ingest(station, batch, 6);
  EXPECT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(station.health().late_reports, 1u);
}

TEST(CentralStationTest, PendingIsBoundedAndEvictionsAreRecorded) {
  // Regression: a permanently missing stream used to grow pending state
  // without bound.  With a deadline longer than the ring's span the
  // rows never expire, so every new tick beyond max_pending evicts the
  // oldest held row, and the eviction is counted.
  StationConfig config;
  config.max_pending = 8;
  config.deadline_ticks = 1000;
  CentralStation station(3, config);
  Rows got;
  std::vector<Measurement> batch;
  const Tick ticks = 100;
  for (Tick t = 0; t < ticks; ++t) {
    for (DeviceId tx = 0; tx < 3; ++tx) {
      for (DeviceId rx = 0; rx < 3; ++rx) {
        if (tx == rx) continue;
        if (tx == 2 && rx == 0) continue;  // stream (2->0) never reports
        batch.push_back({tx, rx, t, -50.0});
      }
    }
    got.ingest(station, batch, t);
    EXPECT_TRUE(got.rows.empty());
    EXPECT_LE(station.buffered_count(), config.max_pending);
  }
  EXPECT_EQ(station.health().evictions,
            static_cast<std::uint64_t>(ticks) - config.max_pending);
  EXPECT_EQ(station.lifetime_evictions(), station.health().evictions);
}

TEST(CentralStationTest, FarFutureTickEvictsAndReleasesInOrder) {
  // A report far past the ring's span: rows within the deadline are
  // evicted (not released), and rows released behind them surface.
  StationConfig config;
  config.max_pending = 4;
  config.deadline_ticks = 100;
  CentralStation station(2, config);
  Rows got;
  std::vector<Measurement> batch{
      {0, 1, 0, -50.0}, {0, 1, 1, -51.0}, {1, 0, 1, -61.0}};
  got.ingest(station, batch, 1);  // tick 1 complete, held behind tick 0
  EXPECT_TRUE(got.rows.empty());
  batch = {{0, 1, 10, -52.0}};
  got.ingest(station, batch);
  EXPECT_EQ(station.health().evictions, 1u);  // tick 0 never completed
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0].tick, 1);
  EXPECT_EQ(station.buffered_count(), 1u);  // tick 10
}

TEST(CentralStationTest, StrictModeStragglerDoesNotStallRelease) {
  // Regression: a straggler for a tick already released used to re-open
  // a row that could never complete and hold every newer tick behind it
  // forever.  With deadline 0 (once called strict mode) it is late.
  CentralStation station(2);
  Rows got;
  std::vector<Measurement> batch;
  push_full_round(batch, 2, 0, -40.0);
  push_full_round(batch, 2, 1, -41.0);
  got.ingest(station, batch);
  ASSERT_EQ(got.rows.size(), 1u);  // tick 0; tick 1 is still open

  // The straggler: a duplicate of a tick-0 report shows up late.
  batch.push_back({0, 1, 0, -40.0});
  got.ingest(station, batch);
  EXPECT_EQ(station.health().late_reports, 1u);
  EXPECT_EQ(station.health().duplicates_rejected, 1u);
  EXPECT_EQ(station.buffered_count(), 1u);  // tick 1 only, nothing re-opened

  // Every newer tick keeps releasing.
  push_full_round(batch, 2, 2, -42.0);
  got.ingest(station, batch);
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[1].tick, 1);
  EXPECT_TRUE(got.rows[1].complete());
}

TEST(CentralStationTest, HealthCountsReports) {
  CentralStation station(2);
  Rows got;
  std::vector<Measurement> batch;
  push_full_round(batch, 2, 0, -40.0);
  got.ingest(station, batch);
  EXPECT_EQ(station.health().reports, 2u);
  EXPECT_EQ(station.health().duplicates, 0u);
  EXPECT_EQ(station.health().evictions, 0u);
}

// ---------------------------------------------------------------------
// Property tests of the one release rule over an impaired stream.

constexpr std::size_t kDevices = 3;  // 6 streams

/// A tick-ordered stream with lost frames, exact and revised duplicates,
/// stragglers that arrive behind the next tick's first frame (the
/// campus_live pattern), malformed reports, one far-future jump, and a
/// repeat of the first report at the very end.
std::vector<Measurement> impaired_stream(std::uint64_t seed, Tick ticks) {
  Rng rng(seed);
  std::vector<Measurement> out;
  std::vector<Measurement> straggling;
  for (Tick t = 0; t < ticks; ++t) {
    const Tick tick = t < ticks - 5 ? t : t + 40;  // far-future tail
    bool first = true;
    for (DeviceId tx = 0; tx < kDevices; ++tx) {
      for (DeviceId rx = 0; rx < kDevices; ++rx) {
        if (tx == rx) continue;
        const Measurement m{tx, rx, tick,
                            -40.0 - static_cast<double>(
                                        rng.uniform_int(0, 50))};
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.05) continue;  // lost
        if (roll < 0.10) {
          straggling.push_back(m);  // arrives behind the next tick
          continue;
        }
        out.push_back(m);
        if (first) {
          // The previous tick's stragglers land after this tick's
          // first frame.
          out.insert(out.end(), straggling.begin(), straggling.end());
          straggling.clear();
          first = false;
        }
        if (roll < 0.13) out.push_back(m);  // exact duplicate
        if (roll > 0.97) {
          Measurement revised = m;
          revised.rssi_dbm -= 3.0;
          out.push_back(revised);
        }
      }
    }
    if (rng.uniform(0.0, 1.0) < 0.05) out.push_back({7, 1, tick, -1.0});
  }
  out.insert(out.end(), straggling.begin(), straggling.end());
  out.push_back(out.front());  // a repeat long after its tick
  return out;
}

struct SplitRun {
  std::vector<StationRow> rows;
  StationHealth health;
  std::size_t max_buffered = 0;  // most rows held after any call
};

SplitRun run_split(std::span<const Measurement> stream,
                   StationConfig config, std::size_t batch) {
  CentralStation station(kDevices, config);
  SplitRun run;
  const CentralStation::RowSink sink = [&run](const StationRow& row) {
    run.rows.push_back(row);
  };
  for (std::size_t at = 0; at < stream.size(); at += batch) {
    station.ingest(stream.subspan(at, std::min(batch, stream.size() - at)),
                   sink);
    run.max_buffered = std::max(run.max_buffered, station.buffered_count());
  }
  // End of stream: run the clock past every deadline.
  station.ingest({}, sink, station.clock() + 1 + config.deadline_ticks);
  run.health = station.health();
  return run;
}

std::vector<std::uint64_t> counters(const StationHealth& h) {
  std::vector<std::uint64_t> out{h.reports, h.duplicates, h.late_reports,
                                 h.evictions, h.incomplete_releases,
                                 h.imputed_cells, h.duplicates_rejected,
                                 h.malformed};
  out.insert(out.end(), h.imputed_per_stream.begin(),
             h.imputed_per_stream.end());
  return out;
}

void expect_same(const SplitRun& got, const SplitRun& want,
                 std::size_t batch) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << "batch " << batch;
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].tick, want.rows[i].tick) << batch << "/" << i;
    EXPECT_EQ(got.rows[i].values, want.rows[i].values) << batch << "/" << i;
    EXPECT_EQ(got.rows[i].valid, want.rows[i].valid) << batch << "/" << i;
    EXPECT_EQ(got.rows[i].missing, want.rows[i].missing)
        << batch << "/" << i;
  }
  EXPECT_EQ(counters(got.health), counters(want.health)) << batch;
}

TEST(CentralStationPropertyTest, BatchSplitsGiveIdenticalRowsAndHealth) {
  const std::vector<Measurement> stream = impaired_stream(0x5eed, 400);
  StationConfig deadline0;
  StationConfig deadline3;
  deadline3.deadline_ticks = 3;
  StationConfig evicting;  // deadline >= span: held rows get evicted
  evicting.deadline_ticks = 6;
  evicting.max_pending = 4;
  for (const StationConfig& config : {deadline0, deadline3, evicting}) {
    const SplitRun whole = run_split(stream, config, stream.size());
    // Rows leave in strictly increasing tick order, and `missing`
    // matches the validity mask.
    for (std::size_t i = 0; i < whole.rows.size(); ++i) {
      const StationRow& row = whole.rows[i];
      if (i > 0) {
        EXPECT_GT(row.tick, whole.rows[i - 1].tick) << i;
      }
      EXPECT_EQ(row.missing, static_cast<std::size_t>(std::count(
                                 row.valid.begin(), row.valid.end(), 0)))
          << i;
    }
    EXPECT_GT(whole.health.late_reports, 0u);
    EXPECT_GT(whole.health.incomplete_releases, 0u);
    EXPECT_GT(whole.health.duplicates_rejected, 0u);
    EXPECT_GT(whole.health.malformed, 0u);
    for (const std::size_t batch : {1u, 7u, 17u}) {
      const SplitRun split = run_split(stream, config, batch);
      expect_same(split, whole, batch);
      // With deadline 0 a row leaves as soon as its tick is over, so
      // the station never holds more than the newest tick's row.
      if (config.deadline_ticks == 0) {
        EXPECT_LE(split.max_buffered, 1u);
      }
    }
  }
  EXPECT_GT(run_split(stream, evicting, 1).health.evictions, 0u);
}

TEST(CentralStationPropertyTest, LosslessOrderedStreamReleasesEveryRow) {
  std::vector<Measurement> stream;
  for (Tick t = 0; t < 50; ++t) {
    push_full_round(stream, kDevices, t, -40.0 - static_cast<double>(t));
  }
  const SplitRun whole = run_split(stream, StationConfig{}, stream.size());
  ASSERT_EQ(whole.rows.size(), 50u);
  for (std::size_t i = 0; i < whole.rows.size(); ++i) {
    EXPECT_EQ(whole.rows[i].tick, static_cast<Tick>(i));
    EXPECT_TRUE(whole.rows[i].complete());
    EXPECT_DOUBLE_EQ(whole.rows[i].values[0],
                     -40.0 - static_cast<double>(i));
  }
  EXPECT_EQ(whole.health.incomplete_releases, 0u);
  EXPECT_EQ(whole.health.late_reports, 0u);
  for (const std::size_t batch : {1u, 7u, 17u}) {
    expect_same(run_split(stream, StationConfig{}, batch), whole, batch);
  }
}

}  // namespace
}  // namespace fadewich::net
