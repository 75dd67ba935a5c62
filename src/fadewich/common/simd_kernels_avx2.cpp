// AVX2 kernel table.  This translation unit is the only one compiled
// with -mavx2 -mpclmul (plus -ffp-contract=off); everything in the shared
// impl header has internal linkage, so no AVX2-encoded code can leak into
// other translation units through the linker.  The table is reached
// exclusively via kernel_table(), which consults cpuid (avx2 and pclmul)
// first.
#include "fadewich/common/simd_kernels.hpp"

#if !defined(__AVX2__) || !defined(__PCLMUL__)
#error "simd_kernels_avx2.cpp must be compiled with -mavx2 -mpclmul"
#endif

#include "fadewich/common/simd_kernels_impl.hpp"

namespace fadewich::simd {
namespace {

// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel 2009), in the bit-reflected domain of polynomial 0xEDB88320.
// The constants are the paper's (as zlib/Chromium's crc32_simd uses
// them): k1/k2 fold 512 bits ahead, k3/k4 fold 128 bits ahead, k5 folds
// 96 bits to 64, and poly holds P'(x) and the Barrett constant mu.  The
// 16-byte blocks go through the folds; a tail under 16 bytes, and any
// input shorter than one block, takes the slice-by-8 step.
std::uint32_t k_crc32_clmul(std::uint32_t crc, const unsigned char* bytes,
                            std::size_t n) {
  if (n < 16) return k_crc32_slice8(crc, bytes, n);
  const std::size_t tail = n & 15;
  n -= tail;
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // x * k folded onto the next block: lo*k_lo ^ hi*k_hi ^ next.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x1 = _mm_xor_si128(load(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  if (n >= 64) {
    // Four independent 128-bit accumulators while 64 bytes remain, then
    // collapse them into one.
    __m128i x2 = load(bytes + 16);
    __m128i x3 = load(bytes + 32);
    __m128i x4 = load(bytes + 48);
    bytes += 64;
    n -= 64;
    while (n >= 64) {
      x1 = fold(x1, k1k2, load(bytes));
      x2 = fold(x2, k1k2, load(bytes + 16));
      x3 = fold(x3, k1k2, load(bytes + 32));
      x4 = fold(x4, k1k2, load(bytes + 48));
      bytes += 64;
      n -= 64;
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
  } else {
    bytes += 16;
    n -= 16;
  }
  while (n >= 16) {
    x1 = fold(x1, k3k4, load(bytes));
    bytes += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  __m128i x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), x2);

  // Barrett reduction to 32 bits.
  x2 = _mm_and_si128(x1, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x10);
  x2 = _mm_and_si128(x2, low32);
  x2 = _mm_clmulepi64_si128(x2, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  crc = static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
  return k_crc32_slice8(crc, bytes, tail);
}

}  // namespace

namespace detail {

const KernelTable& avx2_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t = make_table<VAvx2>(Isa::kAvx2);
    t.crc32_update = &k_crc32_clmul;
    return t;
  }();
  return table;
}

}  // namespace detail
}  // namespace fadewich::simd
