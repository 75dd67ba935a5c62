// MetricsRegistry: shard merge correctness under concurrent writers,
// fetch-or-create family identity, percentile interpolation, reset
// semantics, and the type-mismatch guard.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/obs/metrics.hpp"
#include "fadewich/obs/toggle.hpp"

namespace fadewich::obs {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  MetricsRegistry registry_;
};

TEST_F(ObsMetricsTest, CounterMergesAllShardsAcrossThreads) {
  Counter counter = registry_.counter("t_counter_total", "help text");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&counter] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) counter.inc();
    });
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot snapshot = registry_.snapshot();
  const CounterSample* sample = snapshot.find_counter("t_counter_total");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value, kThreads * kPerThread);
  EXPECT_EQ(sample->help, "help text");
}

TEST_F(ObsMetricsTest, HistogramMergesCountAndSumAcrossThreads) {
  Histogram histogram =
      registry_.histogram("t_hist_seconds", "", {1.0, 2.0, 4.0});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&histogram] {
      for (int n = 0; n < kPerThread; ++n) histogram.observe(1.5);
    });
  }
  for (std::thread& w : workers) w.join();

  const MetricsSnapshot snapshot = registry_.snapshot();
  const HistogramSample* sample = snapshot.find_histogram("t_hist_seconds");
  ASSERT_NE(sample, nullptr);
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(sample->count, total);
  EXPECT_NEAR(sample->sum, 1.5 * static_cast<double>(total), 1e-6);
  // Every observation lands in the (1, 2] bucket regardless of shard.
  ASSERT_EQ(sample->counts.size(), 4u);  // 3 bounds + the +inf bucket
  EXPECT_EQ(sample->counts[1], total);
}

TEST_F(ObsMetricsTest, SameNameReturnsSameFamily) {
  Counter a = registry_.counter("t_shared_total");
  Counter b = registry_.counter("t_shared_total");
  a.inc();
  b.add(2);
  EXPECT_EQ(registry_.snapshot().find_counter("t_shared_total")->value, 3u);
  EXPECT_EQ(registry_.family_count(), 1u);
}

TEST_F(ObsMetricsTest, TypeMismatchThrows) {
  registry_.counter("t_name");
  EXPECT_THROW(registry_.gauge("t_name"), Error);
  EXPECT_THROW(registry_.histogram("t_name"), Error);
  registry_.gauge("t_gauge");
  EXPECT_THROW(registry_.counter("t_gauge"), Error);
}

TEST_F(ObsMetricsTest, NonIncreasingBoundsThrow) {
  EXPECT_THROW(registry_.histogram("t_bad", "", {1.0, 1.0}), Error);
  EXPECT_THROW(registry_.histogram("t_bad2", "", {2.0, 1.0}), Error);
}

TEST_F(ObsMetricsTest, PercentileInterpolatesWithinBucket) {
  Histogram histogram =
      registry_.histogram("t_pct_seconds", "", {10.0, 20.0, 40.0});
  for (int i = 0; i < 100; ++i) histogram.observe(15.0);

  const MetricsSnapshot snapshot = registry_.snapshot();
  const HistogramSample* s = snapshot.find_histogram("t_pct_seconds");
  ASSERT_NE(s, nullptr);
  // All mass in the (10, 20] bucket: quantiles interpolate linearly
  // between the bucket's bounds.
  EXPECT_NEAR(s->percentile(0.50), 15.0, 1e-9);
  EXPECT_NEAR(s->percentile(0.95), 19.5, 1e-9);
  EXPECT_NEAR(s->percentile(0.99), 19.9, 1e-9);
}

TEST_F(ObsMetricsTest, PercentileSpansBucketsAndClampsAtInf) {
  Histogram histogram =
      registry_.histogram("t_pct2_seconds", "", {10.0, 20.0, 40.0});
  for (int i = 0; i < 50; ++i) histogram.observe(5.0);   // bucket 0
  for (int i = 0; i < 50; ++i) histogram.observe(15.0);  // bucket 1

  const MetricsSnapshot first = registry_.snapshot();
  const HistogramSample* s = first.find_histogram("t_pct2_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_NEAR(s->percentile(0.75), 15.0, 1e-9);
  EXPECT_NEAR(s->percentile(0.99), 19.8, 1e-9);
  EXPECT_NEAR(s->mean(), 10.0, 1e-9);

  // An observation past the last bound clamps to the last finite bound.
  histogram.observe(1000.0);
  const MetricsSnapshot second = registry_.snapshot();
  EXPECT_NEAR(second.find_histogram("t_pct2_seconds")->percentile(1.0),
              40.0, 1e-9);
}

TEST_F(ObsMetricsTest, EmptyHistogramPercentileIsZero) {
  registry_.histogram("t_empty_seconds");
  const MetricsSnapshot snapshot = registry_.snapshot();
  const HistogramSample* s = snapshot.find_histogram("t_empty_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->percentile(0.5), 0.0);
  EXPECT_EQ(s->mean(), 0.0);
}

TEST_F(ObsMetricsTest, ResetZeroesValuesButKeepsFamiliesAndHandles) {
  Counter counter = registry_.counter("t_reset_total");
  Gauge gauge = registry_.gauge("t_reset_gauge");
  Histogram histogram = registry_.histogram("t_reset_seconds");
  counter.add(5);
  gauge.set(3.5);
  histogram.observe(0.01);
  ASSERT_EQ(registry_.family_count(), 3u);

  registry_.reset();
  MetricsSnapshot snapshot = registry_.snapshot();
  EXPECT_EQ(snapshot.find_counter("t_reset_total")->value, 0u);
  EXPECT_EQ(snapshot.find_gauge("t_reset_gauge")->value, 0.0);
  EXPECT_EQ(snapshot.find_histogram("t_reset_seconds")->count, 0u);
  EXPECT_EQ(registry_.family_count(), 3u);

  // Handles issued before the reset still write to the live families.
  counter.inc();
  gauge.add(1.0);
  histogram.observe(0.02);
  snapshot = registry_.snapshot();
  EXPECT_EQ(snapshot.find_counter("t_reset_total")->value, 1u);
  EXPECT_EQ(snapshot.find_gauge("t_reset_gauge")->value, 1.0);
  EXPECT_EQ(snapshot.find_histogram("t_reset_seconds")->count, 1u);
}

TEST_F(ObsMetricsTest, RuntimeToggleSuppressesUpdates) {
  Counter counter = registry_.counter("t_toggle_total");
  counter.inc();
  set_enabled(false);
  counter.add(100);
  set_enabled(true);
  counter.inc();
  EXPECT_EQ(registry_.snapshot().find_counter("t_toggle_total")->value, 2u);
}

TEST_F(ObsMetricsTest, SnapshotIsSortedByName) {
  registry_.counter("t_b_total");
  registry_.counter("t_a_total");
  registry_.counter("t_c_total");
  const MetricsSnapshot snapshot = registry_.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "t_a_total");
  EXPECT_EQ(snapshot.counters[1].name, "t_b_total");
  EXPECT_EQ(snapshot.counters[2].name, "t_c_total");
}

TEST_F(ObsMetricsTest, DefaultBucketBoundsAreStrictlyIncreasing) {
  const std::vector<double> bounds = default_bucket_bounds();
  ASSERT_GE(bounds.size(), 2u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST_F(ObsMetricsTest, BucketKnobParsesAValidLadder) {
  ::setenv("FADEWICH_OBS_BUCKETS", "0.5,1,2.5e1", 1);
  const std::vector<double> bounds = default_bucket_bounds();
  ::unsetenv("FADEWICH_OBS_BUCKETS");
  EXPECT_EQ(bounds, (std::vector<double>{0.5, 1.0, 25.0}));
}

TEST_F(ObsMetricsTest, BucketKnobRejectsMalformedLaddersLoudly) {
  for (const char* bad : {"abc", "1,x", "1,,2", "1,2,", ",1", "2,1", "1,1",
                          "1, 2", "inf", "1,nan", "0x10"}) {
    ::setenv("FADEWICH_OBS_BUCKETS", bad, 1);
    try {
      (void)default_bucket_bounds();
      ADD_FAILURE() << bad << " did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("FADEWICH_OBS_BUCKETS"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("FADEWICH_OBS_BUCKETS");
}

}  // namespace
}  // namespace fadewich::obs
