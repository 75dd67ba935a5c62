// Shared JSON-report scaffolding for the BENCH_*.json trajectory files.
//
// Every bench report opens with the same stamp — schema version, git sha,
// thread count, hardware concurrency, whether FADEWICH_BENCH_FAST shrank
// the workloads, the SIMD ISA the kernel dispatch selected, and whether
// the build used FADEWICH_NATIVE — so diffing reports across PRs never
// requires guessing which build or machine produced them, and the perf
// gate can refuse cross-ISA comparisons instead of failing spuriously.
// The sha resolves from the FADEWICH_GIT_SHA environment variable first
// (CI sets it to the exact commit under test), then the sha baked in at
// configure time, then "unknown".
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "fadewich/common/env.hpp"
#include "fadewich/common/simd.hpp"

namespace fadewich::bench {

/// FADEWICH_BENCH_FAST, read strictly: "1"/"on"/"true" shrink the
/// workloads, unset or "0"/"off"/"false" run them in full, anything else
/// throws fadewich::Error.
inline bool fast_mode() {
  return common::env_flag("FADEWICH_BENCH_FAST").value_or(false);
}

inline std::string git_sha() {
  if (const char* env = std::getenv("FADEWICH_GIT_SHA")) {
    if (*env != '\0') return env;
  }
#ifdef FADEWICH_BUILD_GIT_SHA
  return FADEWICH_BUILD_GIT_SHA;
#else
  return "unknown";
#endif
}

/// The common stamp every BENCH_*.json starts with, as `"key": value`
/// lines indented two spaces, each line comma-terminated (the caller
/// continues the object).
inline std::string json_stamp(const std::string& schema,
                              std::size_t threads) {
  std::string out;
  out += "  \"schema\": \"" + schema + "\",\n";
  out += "  \"git_sha\": \"" + git_sha() + "\",\n";
  out += "  \"threads\": " + std::to_string(threads) + ",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += std::string("  \"fast_mode\": ") +
         (fast_mode() ? "true" : "false") + ",\n";
  out += std::string("  \"simd_isa\": \"") +
         simd::isa_name(simd::active_isa()) + "\",\n";
#ifdef FADEWICH_NATIVE_BUILD
  out += "  \"native\": true,\n";
#else
  out += "  \"native\": false,\n";
#endif
  return out;
}

/// The timed-leg rate pair every throughput block repeats — `"seconds"`
/// and `"<what>_per_sec"` — as four-space-indented, comma-terminated
/// lines.  One writer, so the zero-seconds guard and the field spelling
/// can't drift between legs.
inline std::string json_rate_fields(double seconds, std::uint64_t count,
                                    const std::string& what = "reports") {
  const double rate =
      seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
  return "    \"seconds\": " + std::to_string(seconds) + ",\n    \"" +
         what + "_per_sec\": " + std::to_string(rate) + ",\n";
}

}  // namespace fadewich::bench
