#include "fadewich/eval/station_replay.hpp"

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/error.hpp"

namespace fadewich::eval {

StationReplay replay_rows(const sim::Recording& original,
                          const net::StationConfig& config,
                          Tick max_delay_ticks, const TickBatch& produce) {
  const std::size_t m = original.sensor_count();
  const Tick ticks = original.tick_count();
  net::CentralStation station(m, config);

  // Station stream order -> recording stream order (both are the dense
  // tx-major layout today; the map keeps the replay correct if either
  // side ever changes).
  std::vector<std::size_t> rec_stream(station.stream_count());
  for (std::size_t s = 0; s < station.stream_count(); ++s) {
    const auto [tx, rx] = station.stream_pair(s);
    rec_stream[s] = original.stream_index(tx, rx);
  }

  StationReplay out{sim::Recording(original.rate().hz(), m,
                                   original.day_length(),
                                   original.day_count()),
                    {}, 0, 0};
  out.recording.events() = original.events();
  out.recording.seated_intervals() = original.seated_intervals();

  Crc32 digest;
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
    digest.update(row.data(), row.size() * sizeof(double));
    out.recording.append_samples(row);
    last_row = row;
    ++expected;
  };

  std::vector<net::Measurement> batch;
  const auto step = [&](Tick t) {
    produce(t, batch);
    station.ingest(batch, emit, t);
    batch.clear();
  };
  for (Tick t = 0; t < ticks; ++t) step(t);

  // Drain delayed traffic and force the deadline on trailing ticks.
  const Tick horizon = ticks + config.deadline_ticks + max_delay_ticks + 1;
  for (Tick t = ticks; t < horizon && expected < ticks; ++t) step(t);
  while (expected < ticks) {  // fully evicted tail, if any
    out.recording.append_samples(last_row);
    ++gaps;
    ++expected;
  }
  FADEWICH_ENSURES(out.recording.tick_count() == ticks);

  out.health = station.health();
  out.gap_rows = gaps;
  out.row_digest = (static_cast<std::uint64_t>(digest.value()) << 32) |
                   static_cast<std::uint64_t>(ticks);
  return out;
}

}  // namespace fadewich::eval
