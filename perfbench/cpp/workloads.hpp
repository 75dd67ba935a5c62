// The workloads and what one run of each reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  // parallel pool participants: 1 or >= 3
  std::string out_dir = ".bench_build/perfbench-out";  // spans, snapshots
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;  // empty when outputs are correct

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
};

/// Names of the workloads run_workload() accepts.
const std::vector<std::string>& workload_names();

/// End-to-end metrics (trace off) and per-layer metrics (trace on), in
/// the order BENCHMARK.json lists them.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// Run one workload.  Throws fadewich::Error on an unknown workload.
Result run_workload(const Options& options);

}  // namespace perfbench
