// perfbench: drive seeded campus traffic through the FADEWICH serving
// path and print every metric by name with its unit.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}.  Trace 0 reports the
// end-to-end metrics, trace 1 the per-layer ones.  The exit code is 0
// only when every output gate held.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "fadewich/obs/toggle.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <campus_replay|campus_live|"
               "fleet_lockstep> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  if (used != text.size() || text.front() == '-') {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return v;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena for every thread.  End to end runs on one thread,
  // yet with glibc's per-thread arenas peak_rss_mb of the same seed and
  // work moved about 10% between runs; with one arena, about 2%.
  ::mallopt(M_ARENA_MAX, 1);
#endif
  perfbench::Options options;
  // One core stays free for the OS and neighbours: with every core in the
  // pool, one preempted helper stalls a whole lockstep block.  A pool's
  // parallel_for runs on the caller plus every worker, so the smallest
  // parallel pool has 3 participants.
  const unsigned cores = std::thread::hardware_concurrency();
  options.threads = cores <= 3 ? 1 : cores - 1;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_count(flag, value));
      if (options.seconds < 1) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");

  // The deauth-latency histograms the shards fill are obs instruments.
  // Latencies are whole ticks (0.2 s); bucket bounds halfway between
  // ticks resolve every quantile to its tick before interpolation.  The
  // variable is read when a histogram family is created, so set it
  // before any exists.
  std::string bounds;
  for (int k = 0; k <= 150; ++k) {
    if (k > 0) bounds += ',';
    bounds += std::to_string(0.1 + 0.2 * k);
  }
  ::setenv("FADEWICH_OBS_BUCKETS", bounds.c_str(), 1);
  fadewich::obs::set_enabled(true);

  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const auto& m : result.metrics) {
    std::cout << m.name << " " << m.value << " " << m.unit << "\n";
  }
  for (const auto& f : result.gate_failures) {
    std::cout << "GATE FAILED: " << f << "\n";
  }
  const bool correct = result.gate_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
