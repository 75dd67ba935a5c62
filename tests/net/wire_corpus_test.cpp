// Adversarial decoder corpus: hostile byte streams through net::wire
// decode and CentralStation::ingest.  The contract under attack bytes
// is count-don't-abort — no crash, no throw, correct reject counters,
// bounded memory — and this suite runs under the ASan/UBSan CI leg, so
// an out-of-bounds read on a crafted frame fails loudly.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fadewich/common/crc32.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/net/central_station.hpp"
#include "fadewich/net/wire.hpp"

namespace fadewich::net {
namespace {

constexpr std::size_t kDevices = 4;

std::vector<WireReport> make_reports(DeviceId tx) {
  std::vector<WireReport> reports;
  for (DeviceId rx = 0; rx < kDevices; ++rx) {
    if (rx == tx) continue;
    reports.push_back({rx, static_cast<std::int8_t>(-50)});
  }
  return reports;
}

std::vector<std::uint8_t> valid_frame(std::uint64_t seq = 0, Tick tick = 3,
                                      DeviceId tx = 1) {
  std::vector<std::uint8_t> bytes;
  encode_frame({tx, seq, tick, tx}, make_reports(tx), bytes);
  return bytes;
}

void store_le16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Re-seal a tampered frame so it passes the CRC but carries hostile
/// semantics (the attacker controls the trailer too).
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t crc_off = bytes.size() - kWireTrailerSize;
  const std::uint32_t crc = crc32(bytes.data() + 4, crc_off - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[crc_off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// Feed bytes, pull everything, route survivors through ingest.
struct Harness {
  FrameDecoder decoder;
  CentralStation station{kDevices, StationConfig{2, 64}};
  std::vector<Measurement> batch;

  void run(const std::vector<std::uint8_t>& bytes, Tick now = 10) {
    decoder.feed(bytes);
    while (const DecodedFrame* frame = decoder.next()) {
      to_measurements(*frame, batch);
    }
    station.ingest(batch, [](const StationRow&) {}, now);
    batch.clear();
  }
};

TEST(WireCorpusTest, TruncationAtEveryLengthNeverCrashes) {
  const auto bytes = valid_frame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Harness h;
    h.run({bytes.begin(), bytes.begin() + static_cast<long>(len)});
    EXPECT_EQ(h.decoder.counters().frames_ok, 0u) << "len " << len;
    h.decoder.finish();
  }
}

TEST(WireCorpusTest, EveryBitFlipIsRejectedOrHarmless) {
  const auto bytes = valid_frame();
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto mutated = bytes;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Harness h;
    h.run(mutated);
    h.decoder.finish();
    // Either the frame was rejected outright, or the flip missed the
    // covered region (magic byte flips just resync).  Never a crash,
    // never more than one frame out.
    EXPECT_LE(h.decoder.counters().frames_ok, 1u) << "bit " << bit;
  }
}

TEST(WireCorpusTest, CrcValidButSemanticallyHostileFramesAreCounted) {
  // Out-of-range transmitter id: CRC-sealed, decodes fine, and every
  // report dies in ingest's malformed check instead of tripping the
  // stream_index contract.
  auto bad_tx = valid_frame();
  store_le16(bad_tx.data() + 24, 500);
  reseal(bad_tx);

  // Receiver id outside the deployment.
  auto bad_rx = valid_frame();
  store_le16(bad_rx.data() + kWireHeaderSize, 9999);
  reseal(bad_rx);

  // Negative tick.
  auto bad_tick = valid_frame();
  store_le64(bad_tick.data() + 16, static_cast<std::uint64_t>(-77));
  reseal(bad_tick);

  Harness h;
  h.run(bad_tx);
  h.run(bad_rx);
  h.run(bad_tick);
  h.decoder.finish();
  EXPECT_EQ(h.decoder.counters().frames_ok, 3u);
  // bad_tx: 3 malformed reports; bad_rx: 1; bad_tick: 3.
  EXPECT_EQ(h.station.health().malformed, 7u);
  EXPECT_EQ(h.station.health().reports, 9u);
}

TEST(WireCorpusTest, OversizedReportCountIsRejected) {
  auto bytes = valid_frame();
  store_le16(bytes.data() + 26, static_cast<std::uint16_t>(
                                    kMaxFrameReports + 1));
  reseal(bytes);
  Harness h;
  h.run(bytes);
  h.decoder.finish();
  EXPECT_EQ(h.decoder.counters().frames_ok, 0u);
  EXPECT_GE(h.decoder.counters().bad_length, 1u);
}

TEST(WireCorpusTest, ZeroReportCountIsRejected) {
  auto bytes = valid_frame();
  store_le16(bytes.data() + 26, 0);
  reseal(bytes);
  Harness h;
  h.run(bytes);
  h.decoder.finish();
  EXPECT_EQ(h.decoder.counters().frames_ok, 0u);
  EXPECT_GE(h.decoder.counters().bad_length, 1u);
}

TEST(WireCorpusTest, InflatedCountPointingPastTheBufferIsSafe) {
  // Claim more reports than the bytes that follow: the decoder must
  // wait for more input (or count truncation on finish), never read
  // past its buffer.
  auto bytes = valid_frame();
  store_le16(bytes.data() + 26, 200);  // frame claims 200 reports
  reseal(bytes);
  Harness h;
  h.run(bytes);
  EXPECT_EQ(h.decoder.counters().frames_ok, 0u);
  h.decoder.finish();
  EXPECT_GE(h.decoder.counters().truncated, 1u);
}

TEST(WireCorpusTest, RandomGarbageStreamStaysBounded) {
  Rng rng(1234);
  Harness h;
  std::vector<std::uint8_t> chunk(512);
  for (int round = 0; round < 64; ++round) {
    for (auto& b : chunk) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    h.run(chunk);
    // Bounded memory: the decoder may hold at most one partial frame's
    // worth of bytes plus the chunk, never the accumulated stream.
    EXPECT_LE(h.decoder.buffered_bytes(),
              wire_frame_size(kMaxFrameReports, true) + chunk.size());
  }
  h.decoder.finish();
  EXPECT_LE(h.station.buffered_count(), 64u);  // capacity cap holds
}

TEST(WireCorpusTest, DuplicateFramesAreRejectedBySeqWindows) {
  const auto bytes = valid_frame(/*seq=*/5, /*tick=*/3);
  Harness h;
  h.run(bytes, 3);
  h.run(bytes, 4);  // exact wire-level duplicate
  EXPECT_EQ(h.decoder.counters().frames_ok, 2u);
  EXPECT_EQ(h.station.health().duplicates_rejected, 3u);
  EXPECT_EQ(h.station.health().reports, 6u);
}

TEST(WireCorpusTest, HostileFramesNeverPoisonSubsequentTraffic) {
  // Garbage, then a tampered frame, then honest traffic: the honest
  // frame decodes and assembles.
  Harness h;
  std::vector<std::uint8_t> garbage{'F', 'D', 'W', 'F', 0xFF, 0xEE, 0xDD};
  auto tampered = valid_frame();
  tampered[20] ^= 0x10;  // break the CRC
  h.run(garbage);
  h.run(tampered);
  h.run(valid_frame(1, 9, 2), 9);
  h.decoder.finish();
  EXPECT_EQ(h.decoder.counters().frames_ok, 1u);
  EXPECT_EQ(h.station.health().reports, 3u);
  EXPECT_EQ(h.station.health().malformed, 0u);
}

}  // namespace
}  // namespace fadewich::net
