#include "fadewich/common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/common/simd_kernels.hpp"

namespace fadewich {
namespace {

TEST(Crc32Test, MatchesTheIeeeCheckVector) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const std::string data = "123456789";
  EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  for (char c : data) crc.update(&c, 1);
  EXPECT_EQ(crc.value(), crc32(data.data(), data.size()));
}

TEST(Crc32Test, ResetStartsOver) {
  Crc32 crc;
  crc.update("garbage", 7);
  crc.reset();
  const std::string data = "123456789";
  crc.update(data.data(), data.size());
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32Test, SingleBitFlipChangesTheValue) {
  std::string data(64, '\x5a');
  const std::uint32_t clean = crc32(data.data(), data.size());
  data[17] ^= 0x01;
  EXPECT_NE(crc32(data.data(), data.size()), clean);
}

TEST(Crc32Test, DispatchedMatchesTableAtEveryLengthOffsetAndSplit) {
  // The widest table's entry (the CLMUL folding kernel on AVX2+PCLMUL
  // hosts) against the scalar table's slice-by-8 step: every length
  // across the 16/64-byte fold boundaries and the tail, every start
  // alignment, random register states.
  const simd::KernelTable& table = simd::kernel_table(simd::Isa::kScalar);
  const simd::KernelTable& best =
      simd::kernel_table(simd::best_supported_isa());
  Rng rng(2017);
  std::vector<unsigned char> buf(1100 + 16);
  for (auto& b : buf) {
    b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  }
  for (std::size_t len = 0; len <= 1100; ++len) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const auto state = static_cast<std::uint32_t>(
          rng.uniform_int(0, 0xFFFFFFFFll));
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(best.crc32_update(state, p, len),
                table.crc32_update(state, p, len))
          << "len " << len << " offset " << offset;
    }
  }

  // Random chunk splits through the accumulator agree with one shot.
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 1100));
    Crc32 crc;
    std::size_t pos = 0;
    while (pos < len) {
      const auto chunk = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(len - pos)));
      crc.update(buf.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(crc.value(), crc32(buf.data(), len)) << "len " << len;
  }
}

}  // namespace
}  // namespace fadewich
