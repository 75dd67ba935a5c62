// Tests of the benchmark's own code: the seeded generator, its
// impairments, the metric names, and the span self-time arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>
#include <vector>

#include "campus.hpp"
#include "fadewich/net/wire.hpp"
#include "generator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<std::uint8_t> clean(std::uint64_t seed) {
  CampusGenerator gen(seed, 5);
  std::vector<std::uint8_t> bytes;
  gen.clean_block(100, 32, bytes, nullptr);
  return bytes;
}

std::vector<std::uint8_t> impaired(std::uint64_t seed, Impairment imp,
                                   Tick ticks, WireLedger* ledger) {
  CampusGenerator gen(seed, 8, imp);
  std::vector<std::uint8_t> bytes;
  WireLedger scratch;
  for (Tick t = 0; t < ticks; ++t) {
    gen.impaired_call(t, bytes, ledger != nullptr ? *ledger : scratch);
  }
  return bytes;
}

TEST(Generator, SameSeedSameBytesOtherSeedOtherBytes) {
  EXPECT_EQ(clean(7), clean(7));
  EXPECT_NE(clean(7), clean(8));
  const Impairment imp{0.01, 0.01, 0.01, 0.01};
  EXPECT_EQ(impaired(7, imp, 300, nullptr), impaired(7, imp, 300, nullptr));
  EXPECT_NE(impaired(7, imp, 300, nullptr), impaired(8, imp, 300, nullptr));
}

TEST(Generator, SeedsDoNotPermuteOffices) {
  // Office o under seed s must not replay office o' under seed s'.
  CampusGenerator a(1, 8);
  CampusGenerator b(2, 8);
  for (std::size_t oa = 0; oa < 8; ++oa) {
    for (std::size_t ob = 0; ob < 8; ++ob) {
      bool same = true;
      for (Tick t = 0; t < 16 && same; ++t) {
        same = a.rssi(oa, t, 0) == b.rssi(ob, t, 0) &&
               a.rssi(oa, t, 1) == b.rssi(ob, t, 1);
      }
      EXPECT_FALSE(same) << "seed 1 office " << oa << " == seed 2 office "
                         << ob;
    }
  }
}

TEST(Generator, ParallelSynthesisMatchesSerial) {
  CampusGenerator gen(3, 9);
  fadewich::exec::ThreadPool pool(3);
  std::vector<std::uint8_t> serial, parallel;
  gen.clean_block(50, 16, serial, nullptr);
  gen.clean_block(50, 16, parallel, &pool);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.size(), 16u * 9u * kOfficeTickBytes);
}

TEST(Generator, CleanBytesDecodeToEveryReport) {
  CampusGenerator gen(11, 3);
  std::vector<std::uint8_t> bytes;
  gen.clean_block(0, 10, bytes, nullptr);
  fadewich::net::FrameDecoder decoder;
  decoder.feed(bytes);
  std::size_t frames = 0;
  while (const fadewich::net::DecodedFrame* f = decoder.next()) {
    ASSERT_TRUE(f->authenticated);
    const auto office = f->header.station_id;
    const Tick tick = f->header.tick;
    const std::size_t tx = f->header.tx;
    for (const auto& r : f->reports) {
      const std::size_t stream =
          tx * (kDevices - 1) + (r.rx < tx ? r.rx : r.rx - 1);
      EXPECT_EQ(r.rssi_dbm, gen.rssi(office, tick, stream));
    }
    ++frames;
  }
  EXPECT_EQ(frames, 10u * 3u * kDevices);
  EXPECT_EQ(decoder.counters().rejected_frames(), 0u);
}

TEST(Generator, ImpairmentRatesComeOutAsConfigured) {
  const Impairment imp{0.02, 0.03, 0.04, 0.05};
  WireLedger ledger;
  const auto bytes = impaired(5, imp, 4000, &ledger);
  const double frames = 4000.0 * 8 * kDevices;  // sensor frames
  const auto near = [](double got, double want) {
    EXPECT_NEAR(got, want, 0.08 * want);
  };
  near(static_cast<double>(ledger.frames_dropped) / frames, imp.drop);
  // The other impairments apply only to frames that were not dropped.
  const double kept = frames - static_cast<double>(ledger.frames_dropped);
  near(static_cast<double>(ledger.stragglers) / kept, imp.straggle);
  near(static_cast<double>(ledger.duplicates) / kept, imp.duplicate);
  near(static_cast<double>(ledger.flipped) /
           static_cast<double>(ledger.frames_emitted),
       imp.flip);
  EXPECT_EQ(ledger.bytes, bytes.size());
  EXPECT_EQ(ledger.bytes, ledger.frames_emitted * kFrameBytes);
}

TEST(Generator, DamageIsExactlyAccountedByTheDecoder) {
  WireLedger ledger;
  const auto bytes =
      impaired(9, Impairment{0.01, 0.01, 0.01, 0.02}, 1500, &ledger);
  fadewich::net::FrameDecoder decoder;
  decoder.feed(bytes);
  while (decoder.next() != nullptr) {
  }
  decoder.finish();
  const auto& c = decoder.counters();
  EXPECT_GT(ledger.flipped, 0u);
  EXPECT_EQ(c.frames_ok + c.rejected_frames(), ledger.frames_emitted);
  EXPECT_EQ(c.bad_crc, ledger.flipped);
  EXPECT_EQ(c.resync_bytes, ledger.flipped * (kFrameBytes - 1));
}

TEST(Generator, StragglersArriveBehindTheNextTick) {
  const Impairment imp{0.01, 0.05, 0.05, 0.0};
  CampusGenerator gen(4, 8, imp);
  WireLedger ledger;
  std::vector<std::uint8_t> bytes;
  for (Tick t = 0; t < 400; ++t) gen.impaired_call(t, bytes, ledger);
  fadewich::net::FrameDecoder decoder;
  decoder.feed(bytes);
  std::vector<Tick> newest(8, -1);
  std::uint64_t regressions = 0;
  while (const fadewich::net::DecodedFrame* f = decoder.next()) {
    const std::size_t o = f->header.station_id;
    const Tick tick = f->header.tick;
    if (tick < newest[o]) {
      // Only a straggler goes back, and only by one tick.
      EXPECT_EQ(tick, newest[o] - 1);
      EXPECT_TRUE(gen.straggles(o, tick, f->header.tx));
      ++regressions;
    }
    newest[o] = std::max(newest[o], tick);
  }
  // Every straggler but those of the last tick came behind the next one.
  std::uint64_t last_tick = 0;
  for (std::size_t o = 0; o < 8; ++o) {
    for (std::size_t tx = 0; tx < kDevices; ++tx) {
      if (gen.straggles(o, 399, tx)) ++last_tick;
    }
  }
  EXPECT_GT(regressions, 0u);
  EXPECT_EQ(regressions, ledger.stragglers - last_tick);
}

TEST(Metrics, NamesFitTheGrammarAndAreUnique) {
  const std::regex grammar("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  for (const auto* names : {&end_to_end_names(), &per_layer_names()}) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(std::regex_match(name, grammar)) << name;
      EXPECT_LE(name.size(), 64u) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
  }
  EXPECT_EQ(end_to_end_names().front(), "setup_s");
  EXPECT_EQ(workload_names().size(), 3u);
}

TEST(Quantile, WeightedNearestRank) {
  const std::vector<Sample> samples = {{5.0, 1}, {1.0, 8}, {9.0, 1}};
  EXPECT_EQ(quantile(samples, 0.5), 1.0);
  EXPECT_EQ(quantile(samples, 0.8), 1.0);
  EXPECT_EQ(quantile(samples, 0.9), 5.0);
  EXPECT_EQ(quantile(samples, 0.99), 9.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
}

Span span(std::uint64_t id, std::uint64_t parent, std::uint32_t thread,
          SpanKind kind, std::int64_t start, std::int64_t end) {
  return Span{id, parent, thread, kind, start, end};
}

TEST(SelfTime, UnionOfOverlappingIntervals) {
  EXPECT_EQ(union_ns({{0, 10}, {5, 15}, {20, 30}, {25, 26}}), 25);
  EXPECT_EQ(union_ns({{0, 10}, {10, 20}}), 20);
  EXPECT_EQ(union_ns({{3, 3}, {7, 5}}), 0);
  EXPECT_EQ(union_ns({}), 0);
}

TEST(SelfTime, ChildrenOverlappingAcrossThreadsCountOnce) {
  // A replay on thread 0 over [0, 100); sink calls on three threads, two
  // of them overlapping in time, and one running past the parent's end.
  const Span parent = span(1, 0, 0, SpanKind::kReplay, 0, 100);
  const std::vector<Span> children = {
      span(2, 1, 1, SpanKind::kSink, 10, 40),
      span(3, 1, 2, SpanKind::kSink, 30, 50),   // overlaps [30, 40)
      span(4, 1, 3, SpanKind::kSink, 90, 120),  // clipped to [90, 100)
  };
  // Covered: [10, 50) + [90, 100) = 50, so self = 100 - 50.
  EXPECT_EQ(self_ns(parent, children), 50);

  std::vector<Span> all = children;
  all.push_back(parent);
  const std::vector<std::int64_t> self = self_by_kind(all);
  EXPECT_EQ(self[static_cast<int>(SpanKind::kReplay)], 50);
  // Sinks have no children: self == duration, summed across threads.
  EXPECT_EQ(self[static_cast<int>(SpanKind::kSink)], 30 + 20 + 30);
  EXPECT_EQ(total_by_kind(all)[static_cast<int>(SpanKind::kSink)], 80);
}

TEST(SelfTime, SingleThreadSharesSumToWall) {
  // One thread: replay [0, 40) with sinks [5, 15) and [20, 30); stepping
  // loop [50, 90) with run_until [52, 80) and trim [80, 85); wall 100.
  Tracer tracer;
  tracer.record(1, 0, SpanKind::kReplay, 0, 40);
  tracer.record(2, 1, SpanKind::kSink, 5, 15);
  tracer.record(3, 1, SpanKind::kSink, 20, 30);
  tracer.record(4, 0, SpanKind::kParallelFor, 50, 90);
  tracer.record(5, 4, SpanKind::kRunUntil, 52, 80);
  tracer.record(6, 4, SpanKind::kTrim, 80, 85);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 6u);
  const std::vector<std::int64_t> self = self_by_kind(spans);
  std::int64_t sum = 0;
  for (const std::int64_t s : self) sum += s;
  const std::int64_t uncovered = 100 - union_ns({{0, 40}, {50, 90}});
  EXPECT_EQ(sum + uncovered, 100);
  EXPECT_EQ(self[static_cast<int>(SpanKind::kReplay)], 20);
  EXPECT_EQ(self[static_cast<int>(SpanKind::kParallelFor)], 7);
}

TEST(Tracer, ThreadsGetTheirOwnBuffers) {
  Tracer tracer;
  fadewich::exec::ThreadPool pool(3);
  pool.parallel_for(0, 400, [&](std::size_t i) {
    const auto t = static_cast<std::int64_t>(i);
    tracer.record(tracer.next_id(), 0, SpanKind::kRunUntil, t, t + 1);
  });
  const std::vector<Span> spans = tracer.spans();
  EXPECT_EQ(spans.size(), 400u);
  std::set<std::uint64_t> ids;
  for (const Span& s : spans) ids.insert(s.id);
  EXPECT_EQ(ids.size(), 400u);
}

}  // namespace
}  // namespace perfbench
