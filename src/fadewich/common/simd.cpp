#include "fadewich/common/simd.hpp"

#include <cstdlib>
#include <string>

#include "fadewich/common/error.hpp"

namespace fadewich::simd {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kNeon:
      return "neon";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace {

Isa detect_best() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(FADEWICH_SIMD_HAVE_AVX2)
  // The AVX2 table's CRC-32 entry needs PCLMULQDQ as well.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kSse2;  // baseline on x86-64, always compiled in
#elif defined(__aarch64__) || defined(__ARM_NEON)
  return Isa::kNeon;  // baseline on aarch64
#else
  return Isa::kScalar;
#endif
}

}  // namespace

Isa resolve_isa(std::string_view env, Isa best) {
  if (env == "off" || env == "OFF" || env == "0" || env == "scalar") {
    return Isa::kScalar;
  }
  if (env.empty() || env == "on" || env == "ON" || env == "1" ||
      env == "auto" || env == "AUTO") {
    return best;
  }
  Isa requested = best;
  if (env == "sse2") {
    requested = Isa::kSse2;
  } else if (env == "neon") {
    requested = Isa::kNeon;
  } else if (env == "avx2") {
    requested = Isa::kAvx2;
  } else {
    // A typo'd override used to silently dispatch the widest table; on a
    // fleet-sized run that is an expensive way to not force scalar.
    throw Error("FADEWICH_SIMD=\"" + std::string(env) +
                "\": expected off|scalar|sse2|neon|avx2|auto|on");
  }
  // A named ISA is honoured only when this build and host provide it:
  // exactly the best one, or SSE2 as the x86-64 subset of AVX2.
  if (requested == best) return requested;
  if (requested == Isa::kSse2 && best == Isa::kAvx2) return requested;
  return best;
}

Isa best_supported_isa() {
  static const Isa best = detect_best();
  return best;
}

Isa active_isa() {
  // Meyers singleton: the env read and cpuid happen exactly once, on the
  // first kernel dispatch, never during static-init races.
  static const Isa active = [] {
    const char* env = std::getenv("FADEWICH_SIMD");
    return resolve_isa(env != nullptr ? env : "", best_supported_isa());
  }();
  return active;
}

}  // namespace fadewich::simd
