#include "fadewich/core/stream_history.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fadewich/common/error.hpp"

namespace fadewich::core {
namespace {

TEST(StreamHistoryTest, RejectsInvalidConstruction) {
  EXPECT_THROW(StreamHistory(0, 4), ContractViolation);
  EXPECT_THROW(StreamHistory(2, 0), ContractViolation);
}

TEST(StreamHistoryTest, PushAndReadBack) {
  StreamHistory history(2, 8);
  history.push(std::vector<double>{-50.0, -60.0});
  history.push(std::vector<double>{-51.0, -61.0});
  EXPECT_EQ(history.ticks_stored(), 2);
  const auto w0 = history.window(0, 0, 1);
  ASSERT_EQ(w0.size(), 2u);
  EXPECT_DOUBLE_EQ(w0[0], -50.0);
  EXPECT_DOUBLE_EQ(w0[1], -51.0);
  const auto w1 = history.window(1, 1, 1);
  EXPECT_DOUBLE_EQ(w1[0], -61.0);
}

TEST(StreamHistoryTest, OldTicksEvictOnceFull) {
  StreamHistory history(1, 4);
  for (int t = 0; t < 10; ++t) {
    history.push(std::vector<double>{static_cast<double>(t)});
  }
  EXPECT_EQ(history.oldest_tick(), 6);
  const auto w = history.window(0, 6, 9);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 6.0);
  EXPECT_DOUBLE_EQ(w[3], 9.0);
  EXPECT_THROW(history.window(0, 5, 9), ContractViolation);
}

TEST(StreamHistoryTest, WindowRejectsFutureTicks) {
  StreamHistory history(1, 4);
  history.push(std::vector<double>{1.0});
  EXPECT_THROW(history.window(0, 0, 1), ContractViolation);
}

TEST(StreamHistoryTest, WindowsReturnsAllStreams) {
  StreamHistory history(3, 4);
  history.push(std::vector<double>{1.0, 2.0, 3.0});
  history.push(std::vector<double>{4.0, 5.0, 6.0});
  const auto windows = history.windows(0, 1);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_DOUBLE_EQ(windows[2][0], 3.0);
  EXPECT_DOUBLE_EQ(windows[2][1], 6.0);
}

TEST(StreamHistoryTest, PushRejectsWrongWidth) {
  StreamHistory history(2, 4);
  EXPECT_THROW(history.push(std::vector<double>{1.0}), ContractViolation);
}

TEST(StreamHistoryTest, OldestTickBeforeWrapIsZero) {
  StreamHistory history(1, 100);
  history.push(std::vector<double>{1.0});
  EXPECT_EQ(history.oldest_tick(), 0);
}

TEST(StreamHistoryTest, WrapsRepeatedlyAt72Streams) {
  // A full office row per tick, pushed past three wraps of the ring;
  // every retained tick of every stream must read back as pushed.
  constexpr std::size_t kStreams = 72;
  constexpr std::size_t kCapacity = 23;
  StreamHistory history(kStreams, kCapacity);
  const auto value = [](std::size_t tick, std::size_t stream) {
    return -40.0 - static_cast<double>(tick) -
           static_cast<double>(stream) / 100.0;
  };
  std::vector<double> row(kStreams);
  constexpr std::size_t kTicks = 3 * kCapacity + 5;
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < kStreams; ++s) row[s] = value(t, s);
    history.push(row);
  }
  const Tick end = static_cast<Tick>(kTicks) - 1;
  const Tick oldest = history.oldest_tick();
  ASSERT_EQ(oldest, static_cast<Tick>(kTicks - kCapacity));
  for (Tick begin = oldest; begin <= end; ++begin) {
    const auto all = history.windows(begin, end);
    ASSERT_EQ(all.size(), kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto w = history.window(s, begin, end);
      ASSERT_EQ(w, all[s]);
      ASSERT_EQ(w.size(), static_cast<std::size_t>(end - begin + 1));
      for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i], value(static_cast<std::size_t>(begin) + i, s))
            << "stream " << s << " tick " << begin + static_cast<Tick>(i);
      }
    }
  }
  EXPECT_THROW(history.window(0, oldest - 1, end), ContractViolation);
}

}  // namespace
}  // namespace fadewich::core
