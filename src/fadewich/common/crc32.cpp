#include "fadewich/common/crc32.hpp"

#include "fadewich/common/simd_kernels.hpp"

namespace fadewich {

void Crc32::update(const void* data, std::size_t size) {
  state_ = simd::active_kernels().crc32_update(
      state_, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32(const void* data, std::size_t size) {
  Crc32 crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace fadewich
