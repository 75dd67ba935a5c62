// Portable SIMD dispatch for the numeric hot kernels.
//
// The KDE exp-sums, SVM distance blocks, Welford window updates, feature
// reductions and channel shadowing pass all reduce to the same shape:
// independent double lanes walked in a fixed order.  This header names
// the instruction sets those kernels are compiled for and resolves, once
// per process, which one the running CPU gets.  The kernels themselves
// live behind a function-pointer table (simd_kernels.hpp): every ISA is
// an instantiation of the same width-generic template, so a lane computes
// the identical IEEE operation sequence whether it runs 1, 2 or 4 wide —
// which is what lets the equivalence suites demand bit-exact agreement
// between the scalar table and the widest one the host supports.
//
// Dispatch model: the baseline translation unit carries the scalar table
// plus the widest ISA the compiler targets unconditionally (SSE2 on
// x86-64, NEON on aarch64).  AVX2 kernels are compiled in a separate
// translation unit built with -mavx2 -mpclmul and reached only through
// the table, after a runtime cpuid check for both — nothing AVX2- or
// PCLMUL-encoded is ever inlined into code that may run on a host
// without them.
//
// Runtime knob: FADEWICH_SIMD ("off" / "0" / "scalar" forces the scalar
// table; "sse2" / "neon" / "avx2" requests a specific ISA and falls back
// to the best available one when the host or build lacks it; unset or
// anything else picks the best).  Read once, before the first kernel
// call, like FADEWICH_OBS.
#pragma once

#include <string_view>

namespace fadewich::simd {

/// Instruction sets a kernel table can be compiled for, best last.
enum class Isa {
  kScalar = 0,
  kSse2 = 1,
  kNeon = 2,
  kAvx2 = 3,
};

/// Lower-case name for stamps, gauges and logs.
const char* isa_name(Isa isa);

/// Widest ISA this build carries kernels for *and* the CPU supports.
/// Ignores FADEWICH_SIMD; computed once (cpuid on first call).
Isa best_supported_isa();

/// The ISA the kernel dispatch actually selected: best_supported_isa()
/// filtered through FADEWICH_SIMD.  Resolved once, on first use.
Isa active_isa();

/// False when FADEWICH_SIMD forced the scalar table.
inline bool simd_enabled() { return active_isa() != Isa::kScalar; }

/// Pure resolution rule, exposed for tests: `env` is the raw
/// FADEWICH_SIMD value ("" when unset), `best` the widest supported ISA.
/// "off"/"0"/"scalar" -> scalar; ""/"on"/"1"/"auto" -> `best`; a named
/// ISA -> that ISA when the build and host provide it, else `best`.
/// Anything else throws fadewich::Error — a typo'd override must not
/// silently dispatch the widest table.
Isa resolve_isa(std::string_view env, Isa best);

/// The shim's fast exponential for one lane: Cody-Waite reduction plus a
/// Pade ratio in the reduced argument (Cephes coefficients, ~2 ulp), the
/// exact sequence every vector width runs.  Results below the smallest
/// normal flush to zero; +-inf and NaN pass through.  Defined in the
/// kernel translation unit so its rounding never depends on the caller's
/// contraction flags.
double fast_exp(double x);

}  // namespace fadewich::simd
