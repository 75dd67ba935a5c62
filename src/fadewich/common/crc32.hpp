// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum guarding every
// wire frame, capture, state snapshot and recording file, and the
// determinism digest each fleet shard folds its released rows into.
// Incremental so writers can accumulate while streaming and readers can
// verify without buffering the whole payload.
//
// The byte loop is the kernel table's crc32_update entry
// (simd_kernels.hpp): a PCLMULQDQ folding kernel on AVX2+PCLMUL hosts,
// the portable slice-by-8 step everywhere else and under
// FADEWICH_SIMD=off.  Both produce the same value for any input split.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fadewich {

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  void update(const void* data, std::size_t size);
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a buffer.
std::uint32_t crc32(const void* data, std::size_t size);

}  // namespace fadewich
