// Baseline kernel tables: scalar everywhere, plus the widest ISA the
// compiler targets unconditionally (SSE2 on x86-64, NEON on aarch64).
// The AVX2 table lives in simd_kernels_avx2.cpp (-mavx2 -mpclmul)
// and is reached only through kernel_table() after the cpuid check in
// best_supported_isa().  Compiled with -ffp-contract=off (see
// CMakeLists.txt) so per-lane results never depend on contraction.
#include "fadewich/common/simd_kernels.hpp"

#include "fadewich/common/simd_kernels_impl.hpp"

namespace fadewich::simd {

#if defined(FADEWICH_SIMD_HAVE_AVX2)
namespace detail {
// Defined in simd_kernels_avx2.cpp; never called unless the CPU reports
// AVX2.
const KernelTable& avx2_kernel_table();
}  // namespace detail
#endif

double fast_exp(double x) { return vexp(VScalar{x}).v; }

const KernelTable& kernel_table(Isa isa) {
  static const KernelTable scalar = make_table<VScalar>(Isa::kScalar);
#if defined(FADEWICH_SIMD_HAVE_AVX2)
  if (isa == Isa::kAvx2 && best_supported_isa() == Isa::kAvx2) {
    return detail::avx2_kernel_table();
  }
#endif
#if defined(__x86_64__) || defined(_M_X64)
  static const KernelTable sse2 = make_table<VSse2>(Isa::kSse2);
  // kAvx2 on a build or host without it degrades to its SSE2 subset.
  if (isa == Isa::kSse2 || isa == Isa::kAvx2) return sse2;
#elif defined(__aarch64__)
  static const KernelTable neon = make_table<VNeon>(Isa::kNeon);
  if (isa == Isa::kNeon) return neon;
#endif
  (void)isa;
  return scalar;
}

const KernelTable& active_kernels() {
  static const KernelTable& table = kernel_table(active_isa());
  return table;
}

}  // namespace fadewich::simd
