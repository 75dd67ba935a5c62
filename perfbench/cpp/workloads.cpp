#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "campus.hpp"
#include "fadewich/common/error.hpp"
#include "fadewich/fleet/fleet.hpp"
#include "fadewich/obs/metrics.hpp"
#include "generator.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fw = fadewich;
namespace fs = std::filesystem;

namespace {

constexpr int kSetups = 5;           // set-ups per run; setup_s is the median
constexpr Tick kBlock = 64;          // ticks per closed-loop replay call
constexpr double kWarmSeconds = 0.5; // run, then discard, before measuring

constexpr std::size_t kReplayOffices = 256;

// Every workload measures end to end on one thread.  On a shared VM the
// multi-thread figures follow the host, not the program: with three
// participants, replay throughput moved 460k..630k office-ticks/s across
// alternating runs that held 219k..229k on one thread, live p99 doubled
// whenever waking pool helpers for a 2 ms call took milliseconds, and
// fleet p99 spread 37% over ten runs.  The traced run adds the same job
// on the parallel pool.
constexpr std::size_t kEndToEndThreads = 1;

constexpr std::size_t kLiveOffices = 64;
constexpr double kLiveRate = 500.0;      // campus ticks offered per second
// The paper's office ticks at 5 Hz, so the live schedule runs time
// compressed by kLiveRate / 5.  An office-tick decided later than the
// paper's 4 s deauthentication budget (compressed: 40 ms) has spent that
// budget on the serving path alone: it fails.
constexpr double kLiveLimitMs = 4000.0 * 5.0 / kLiveRate;
// The repository's faulty-network benches: 5% drop and 2% duplicates
// (bench_obs's scrape sample), 5% delayed (bench_obs/bench_report's
// faulty station rounds; here by one tick).  They are per report there and
// per frame here.  The 1% bit-flip rate has no source; it only exercises
// the CRC rejection and resync path.
constexpr Impairment kLiveImpairment{0.05, 0.02, 0.05, 0.01};
constexpr std::int64_t kSpinNs = 2'000'000;  // busy-wait before a due call

constexpr std::size_t kFleetOffices = 16;
// peak_rss_mb is read once a run has stepped this many ticks past
// set-up, not when its timed window ends: resident memory grows with the
// ticks stepped (fleet_lockstep: about 0.5 MB per second of window), so a
// reading at the window's end followed throughput.  On a 4-vCPU VM both
// counts are reached in the first half of a 10-second window.
constexpr Tick kCampusRssTicks = 4096;
constexpr Tick kFleetRssTicks = 49152;
constexpr Tick kCheckpointPeriod = 500;
constexpr std::size_t kCheckCalls = 10;  // determinism check point, calls

const std::vector<std::pair<std::string, std::string>>& end_to_end_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},           {"office_ticks_per_s", "1/s"},
      {"decide_p50_ms", "ms"},    {"decide_p99_ms", "ms"},
      {"deauth_p90_s", "sim_s"},  {"peak_rss_mb", "MB"},
      {"decided_share", "ratio"},
  };
  return units;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"net.replay_wall_ns", "ns"},
      {"net.plane_ns", "ns"},
      {"net.rounds_per_call", "count"},
      {"net.backpressure_per_kreport", "count"},
      {"net.delivered_ratio", "ratio"},
      {"station.busy_ns", "ns"},
      {"station.release_wait_ms", "ms"},
      {"core.busy_ns", "ns"},
      {"core.deauths", "count/ktick"},
      {"core.spurious_deauths", "count/ktick"},
      {"core.alerts", "count/ktick"},
      {"exec.idle_ns", "ns"},
      {"exec.parallel_efficiency", "ratio"},
      {"exec.threads", "count"},
      {"fleet.bridge_rows_peak", "rows"},
      {"fleet.self_ns", "ns"},
      {"persist.snapshot_bytes", "B/ktick"},
      {"bench.other_ns", "ns"},
      {"trace.budget_ns", "ns"},
      {"trace.overhead_ns", "ns"},
  };
  return units;
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Peak resident memory of this program.  Not getrusage's ru_maxrss: on
/// Linux that keeps the peak of the process image exec replaced, so a
/// launcher's own footprint (run.py's Python) would be counted.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw fw::Error("no VmHWM in /proc/self/status");
}

/// peak_rss_mb() taken the first time a run passes a fixed tick.
class RssProbe {
 public:
  explicit RssProbe(Tick at) : at_(at) {}
  void after(Tick tick) {
    if (mb_ < 0.0 && tick >= at_) mb_ = peak_rss_mb();
  }
  bool taken() const { return mb_ >= 0.0; }
  double mb() const { return mb_; }

 private:
  Tick at_;
  double mb_ = -1.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The workload's pool and the 1-thread baseline's.  parallel_for runs
/// on the caller plus every worker (a 1-worker pool only on the caller),
/// so `threads` participants take threads - 1 workers.
struct Pools {
  explicit Pools(std::size_t threads)
      : n(threads <= 2 ? 1 : threads - 1), one(1) {}
  fw::exec::ThreadPool n;
  fw::exec::ThreadPool one;
};

/// Per-layer metrics, zero where a workload has no such layer.  Values
/// only campus_live produces (its impairment and generator counters) are
/// printed, not reported: no listed workload moves them.
class LayerSheet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void emit(Result& result) const {
    std::map<std::string, double> rest = values_;
    for (const auto& [name, unit] : per_layer_units()) {
      const auto it = rest.find(name);
      result.add(name, it == rest.end() ? 0.0 : it->second, unit);
      if (it != rest.end()) rest.erase(it);
    }
    for (const auto& [name, value] : rest) {
      std::cout << name << " " << value << "\n";
    }
  }

 private:
  std::map<std::string, double> values_;
};

/// What one fixed job (a number of replay calls) measured.
struct Job {
  std::int64_t wall_ns = 0;     // whole job, generation and waits included
  std::int64_t service_ns = 0;  // inside replay + step only
  std::uint64_t stepped = 0;    // office-ticks decided
  std::uint64_t calls = 0;
  std::vector<Sample> decided;  // report-to-decision
  std::vector<Sample> released; // report-to-row-release (traced only)
  std::vector<Sample> lag;      // generator lateness (live only)
  // Closed loop: service seconds.  Open loop: wall seconds from the end
  // of the call before the first to the end of the last.
  double seconds = 0.0;
};

/// End-to-end timings of a whole measured window.
struct Timings {
  double rate = 0.0;  // on-time office-ticks per second
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t on_time = 0;
  std::uint64_t samples = 0;
};

Timings window_timings(const std::vector<Sample>& decided, double seconds,
                       double limit_ms) {
  Timings out;
  for (const Sample& s : decided) {
    out.samples += s.weight;
    if (s.ms <= limit_ms) out.on_time += s.weight;
  }
  if (seconds > 0.0) out.rate = static_cast<double>(out.on_time) / seconds;
  out.p50 = quantile(decided, 0.50);
  out.p99 = quantile(decided, 0.99);
  return out;
}

/// The 1-thread pass's layer table: self time per span kind plus the
/// time no span covered, which sum to wall by construction.
void print_single_thread_budget(const std::vector<Span>& spans,
                                std::int64_t wall_ns, std::uint64_t ticks) {
  const std::vector<std::int64_t> self = self_by_kind(spans);
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const Span& s : spans) {
    if (s.parent == 0) roots.emplace_back(s.start_ns, s.end_ns);
  }
  const std::int64_t uncovered = wall_ns - union_ns(roots);
  const std::int64_t sum =
      std::accumulate(self.begin(), self.end(), std::int64_t{0}) + uncovered;
  const double per = ticks > 0 ? 1.0 / static_cast<double>(ticks) : 0.0;
  std::cerr << "1-thread layer budget (ns per office-tick):\n";
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    std::cerr << "  " << span_name(static_cast<SpanKind>(k)) << " self "
              << static_cast<double>(self[k]) * per << "\n";
  }
  std::cerr << "  bench (no span) " << static_cast<double>(uncovered) * per
            << "\n  sum " << static_cast<double>(sum) * per << " of wall "
            << static_cast<double>(wall_ns) * per << "\n";
}

void write_spans(const Tracer& tracer, const Options& options,
                 const std::string& pass) {
  fs::create_directories(options.out_dir);
  const std::string path =
      options.out_dir + "/" + options.workload + "-" + pass + ".spans.csv";
  if (!tracer.write_csv(path)) {
    throw fw::Error("cannot write spans to " + path);
  }
}

/// Per-layer rows of a traced campus pass on `threads` participants: the
/// budget participants x wall splits exactly into these rows.
void campus_layers(const std::vector<Span>& spans, const Job& job,
                   std::size_t threads, LayerSheet& sheet, Result& result) {
  const std::vector<std::int64_t> total = total_by_kind(spans);
  const auto P = static_cast<std::int64_t>(threads);
  const std::int64_t replay = total[static_cast<int>(SpanKind::kReplay)];
  const std::int64_t sink = total[static_cast<int>(SpanKind::kSink)];
  const std::int64_t loop = total[static_cast<int>(SpanKind::kParallelFor)];
  const std::int64_t run = total[static_cast<int>(SpanKind::kRunUntil)];
  const std::int64_t trim = total[static_cast<int>(SpanKind::kTrim)];
  const std::int64_t plane = P * replay - sink;
  const std::int64_t idle = P * loop - run - trim;
  const std::int64_t other = P * (job.wall_ns - replay - loop);
  result.gate(plane >= 0 && idle >= 0 && other >= 0,
              "span budget has a negative row (child outside its parent)");
  const double per = 1.0 / static_cast<double>(std::max<std::uint64_t>(
                               job.stepped, 1));
  sheet.set("net.replay_wall_ns", static_cast<double>(replay) * per);
  sheet.set("net.plane_ns", static_cast<double>(plane) * per);
  sheet.set("station.busy_ns", static_cast<double>(sink) * per);
  sheet.set("core.busy_ns", static_cast<double>(run) * per);
  sheet.set("fleet.self_ns", static_cast<double>(trim) * per);
  sheet.set("exec.idle_ns", static_cast<double>(idle) * per);
  sheet.set("bench.other_ns", static_cast<double>(other) * per);
  sheet.set("trace.budget_ns", static_cast<double>(P * job.wall_ns) * per);
  sheet.set("exec.threads", static_cast<double>(threads));
}

/// Counters every campus workload reports per layer, over the whole run.
void campus_counters(const Campus& campus, std::uint64_t online_ticks,
                     std::uint64_t reports_generated, LayerSheet& sheet) {
  const fw::net::PlaneCounters pc = campus.plane_counters();
  std::uint64_t imputed = 0, dup_rejected = 0, gaps = 0;
  std::uint64_t deauths = 0, spurious = 0, alerts = 0;
  for (std::size_t o = 0; o < campus.offices(); ++o) {
    const fw::net::StationHealth& h = campus.bridge().health(o);
    imputed += h.imputed_cells;
    dup_rejected += h.duplicates_rejected;
    gaps += campus.bridge().gap_rows(o);
    deauths += campus.shard(o).deauths();
    spurious += campus.shard(o).spurious_deauths();
    alerts += campus.shard(o).alerts();
  }
  std::uint64_t all_ticks = 0;
  for (std::size_t o = 0; o < campus.offices(); ++o) {
    all_ticks += static_cast<std::uint64_t>(campus.shard(o).tick());
  }
  const auto per_k = [](std::uint64_t n, std::uint64_t ticks) {
    return ticks == 0 ? 0.0
                      : 1000.0 * static_cast<double>(n) /
                            static_cast<double>(ticks);
  };
  sheet.set("net.rounds_per_call",
            static_cast<double>(pc.rounds) /
                static_cast<double>(std::max<std::uint64_t>(
                    campus.replay_calls(), 1)));
  sheet.set("net.backpressure_per_kreport",
            per_k(pc.ring_full_backpressure, pc.reports_delivered));
  sheet.set("net.delivered_ratio",
            static_cast<double>(pc.reports_delivered) /
                static_cast<double>(std::max<std::uint64_t>(
                    reports_generated, 1)));
  sheet.set("net.rejected_frames",
            static_cast<double>(pc.wire.rejected_frames()));
  sheet.set("net.resync_bytes", static_cast<double>(pc.wire.resync_bytes));
  sheet.set("station.imputed_cells", per_k(imputed, all_ticks));
  sheet.set("station.duplicates_rejected", per_k(dup_rejected, all_ticks));
  sheet.set("station.gap_rows", per_k(gaps, all_ticks));
  sheet.set("core.deauths", per_k(deauths, online_ticks));
  sheet.set("core.spurious_deauths", per_k(spurious, online_ticks));
  sheet.set("core.alerts", per_k(alerts, online_ticks));
  sheet.set("fleet.bridge_rows_peak",
            static_cast<double>(campus.bridge_rows_peak()));
}

std::uint64_t total_deauths(const Campus& campus) {
  std::uint64_t n = 0;
  for (std::size_t o = 0; o < campus.offices(); ++o) {
    n += campus.shard(o).deauths();
  }
  return n;
}

void end_to_end(Result& result, const std::vector<double>& setups,
                const Timings& timings, double deauth_p90,
                std::uint64_t deauths, const RssProbe& rss) {
  std::cout << "set-ups s:";
  for (const double s : setups) std::cout << " " << s;
  std::cout << "\ndecide samples: " << timings.samples
            << " office-ticks; deauth samples: " << deauths << "\n";
  result.failed = result.attempted - std::min(timings.on_time,
                                              result.attempted);
  const double values[] = {
      median(setups),
      timings.rate,
      timings.p50,
      timings.p99,
      deauth_p90,
      rss.mb(),
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted),
  };
  std::size_t i = 0;
  for (const auto& [name, unit] : end_to_end_units()) {
    result.add(name, values[i++], unit);
  }
}

// ---------------------------------------------------------------------
// campus_replay and campus_live share the plane -> bridge -> shard path.

class CampusRun {
 public:
  CampusRun(const Options& options, std::size_t offices,
            Impairment impairment)
      : pools_(options.threads),
        generator_(options.seed, offices, impairment),
        due_(generator_) {}

  const CampusGenerator& generator() const { return generator_; }
  Pools& pools() { return pools_; }
  Campus& campus() { return *campus_; }
  Tick tick() const { return tick_; }
  const WireLedger& ledger() const { return ledger_; }
  bool live() const { return generator_.impairment().drop > 0.0; }

  /// Build the serving path and replay the training prefix until every
  /// shard is online.  Returns the timed seconds (byte synthesis
  /// excluded).
  double set_up() {
    campus_.reset();
    ledger_ = WireLedger{};
    std::int64_t timed = 0;
    std::int64_t start = now_ns();
    campus_ = std::make_unique<Campus>(generator_, pools_.one);
    timed += now_ns() - start;
    tick_ = 0;
    while (!campus_->online()) {
      if (tick_ > 4 * training_ticks()) {
        throw fw::Error("campus never came online");
      }
      synthesize(tick_, kBlock, &pools_.n);
      start = now_ns();
      campus_->replay(bytes_);
      campus_->step();
      timed += now_ns() - start;
      tick_ += kBlock;
    }
    online_from_ = tick_;
    return seconds_of(timed);
  }

  /// Peak memory once kCampusRssTicks past the last set-up (untraced).
  const RssProbe& rss() const { return rss_; }

  /// One closed-loop call: kBlock ticks, due when the call starts.
  void closed_call(Job& job, Tick sample_from, Tick sample_to,
                   bool release) {
    const std::int64_t begin = now_ns();
    synthesize(tick_, kBlock, &pools_.n);
    const std::int64_t start = now_ns();
    // The capture is archived: its bytes are due when the plane can take
    // them, so synthesis time is not part of any tick's latency.
    due_.exclude(start - begin);
    for (Tick t = tick_; t < tick_ + kBlock; ++t) due_.set(t, start);
    serve(job, start, sample_from, sample_to, release);
    tick_ += kBlock;
    job.wall_ns += now_ns() - begin;
    rss_.after(tick_ - online_from_);
  }

  /// One open-loop call: one tick, due at `due_ns`.
  void open_call(Job& job, std::int64_t due_ns, Tick sample_from,
                 Tick sample_to, bool release) {
    const std::int64_t begin = now_ns();
    synthesize(tick_, 1, nullptr);
    due_.set(tick_, due_ns);
    // Sleep to just short of the due time, then spin: an idle vCPU that
    // halts takes milliseconds to wake on a busy host, which would show
    // up as generator lag that is the host's, not the program's.
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns - kSpinNs)));
    while (now_ns() < due_ns) {
    }
    const std::int64_t start = now_ns();
    if (tick_ >= sample_from && tick_ < sample_to) {
      job.lag.push_back({static_cast<double>(start - due_ns) / 1e6, 1});
    }
    serve(job, start, sample_from, sample_to, release);
    tick_ += 1;
    job.wall_ns += now_ns() - begin;
    rss_.after(tick_ - online_from_);
  }

  /// `calls` calls of the workload's kind, sampling ticks in
  /// [sample_from, sample_to).  With `release`, row-release samples too.
  Job run_calls(std::size_t calls, Tick sample_from, Tick sample_to,
                bool release) {
    Job job;
    if (release) {
      std::vector<Sample> skip;
      campus_->release_samples(due_, 0, sample_to, skip);  // sync the cursor
    }
    const auto period = static_cast<std::int64_t>(1e9 / kLiveRate);
    const std::int64_t start = now_ns() + 1'000'000;
    last_end_ = start - period;
    const std::int64_t first = last_end_;
    for (std::size_t c = 0; c < calls; ++c) {
      if (live()) {
        open_call(job, start + static_cast<std::int64_t>(c) * period,
                  sample_from, sample_to, release);
      } else {
        closed_call(job, sample_from, sample_to, release);
      }
    }
    if (live()) job.seconds = seconds_of(last_end_ - first);
    return job;
  }

  /// Calls for `seconds`: of schedule in the open loop, of service in
  /// the closed loop.  Samples ticks from `sample_from` on.
  Job run_for(double seconds, Tick sample_from) {
    const Tick none = std::numeric_limits<Tick>::max();
    if (live()) {
      return run_calls(static_cast<std::size_t>(seconds * kLiveRate),
                       sample_from, none, false);
    }
    Job job;
    while (seconds_of(job.service_ns) < seconds || job.calls < 4) {
      closed_call(job, sample_from, none, false);
    }
    return job;
  }

  void use_pool(fw::exec::ThreadPool& pool) { campus_->use_pool(pool); }


  std::uint64_t online_ticks() const {
    std::uint64_t n = 0;
    for (std::size_t o = 0; o < campus_->offices(); ++o) {
      n += static_cast<std::uint64_t>(
          std::max<Tick>(campus_->shard(o).tick() - online_from_, 0));
    }
    return n;
  }

  std::uint64_t reports_generated() const {
    if (live()) return ledger_.reports_generated;
    return static_cast<std::uint64_t>(tick_) * generator_.offices() *
           kStreams;
  }

 private:
  void synthesize(Tick from, Tick ticks, fw::exec::ThreadPool* pool) {
    if (live()) {
      bytes_.clear();
      for (Tick t = from; t < from + ticks; ++t) {
        generator_.impaired_call(t, bytes_, ledger_);
      }
    } else {
      generator_.clean_block(from, ticks, bytes_, pool);
    }
  }

  void serve(Job& job, std::int64_t start, Tick sample_from, Tick sample_to,
             bool release) {
    campus_->replay(bytes_);
    if (release) {
      campus_->release_samples(due_, now_ns(), sample_from, job.released);
    }
    job.stepped +=
        campus_->step(&due_, &job.decided, sample_from, sample_to);
    const std::int64_t service = now_ns() - start;
    job.service_ns += service;
    job.seconds += live() ? 0.0 : seconds_of(service);
    ++job.calls;
    last_end_ = now_ns();
  }

  Pools pools_;
  CampusGenerator generator_;
  DueClock due_;
  std::unique_ptr<Campus> campus_;
  std::vector<std::uint8_t> bytes_;
  WireLedger ledger_;
  Tick tick_ = 0;
  Tick online_from_ = 0;
  std::int64_t last_end_ = 0;  // end of the previous call (open loop)
  RssProbe rss_{kCampusRssTicks};
};

/// Output gates shared by the campus workloads.
void campus_gates(CampusRun& run, Result& result) {
  Campus& campus = run.campus();
  result.gate(!campus.any_faulted(), "a campus shard faulted");
  result.gate(total_deauths(campus) > 0, "core.deauths == 0");
  const CampusGenerator& gen = run.generator();
  fw::exec::ThreadPool& pool = run.pools().n;

  if (!run.live()) {
    // Sampled offices against a shard fed the generator's values
    // directly: the wire round trip must be bit-perfect.
    std::vector<std::size_t> sample;
    for (std::uint64_t k = 0; sample.size() < 4 && k < 64; ++k) {
      const std::size_t o = fw::exec::task_seed(gen.seed(), 1000 + k) %
                            gen.offices();
      if (std::find(sample.begin(), sample.end(), o) == sample.end()) {
        sample.push_back(o);
      }
    }
    std::vector<std::uint32_t> want(sample.size(), 0);
    pool.parallel_for(0, sample.size(), [&](std::size_t k) {
      const std::size_t o = sample[k];
      fw::fleet::OfficeShard shard(o, fw::exec::task_seed(gen.seed(), o),
                                   gen.office_config(o));
      shard.set_row_source(gen.direct_source(o));
      shard.run_until(campus.shard(o).tick());
      if (!shard.faulted()) want[k] = shard.digest();
    });
    for (std::size_t k = 0; k < sample.size(); ++k) {
      result.gate(want[k] == campus.shard(sample[k]).digest(),
                  "office " + std::to_string(sample[k]) +
                      ": bridged digest != direct RowSource digest");
    }
    return;
  }

  // Live: every generated frame is decoded, rejected, or kept off the
  // wire by the generator, and the damage counted is the damage done.
  const fw::net::PlaneCounters pc = campus.plane_counters();
  const WireLedger& ledger = run.ledger();
  result.gate(pc.wire.frames_ok + pc.wire.rejected_frames() ==
                  ledger.frames_emitted,
              "frames decoded + rejected != frames emitted");
  result.gate(pc.wire.rejected_frames() == ledger.flipped &&
                  pc.wire.bad_crc == ledger.flipped,
              "rejected frames != frames flipped");
  result.gate(pc.wire.resync_bytes == ledger.flipped * (kFrameBytes - 1),
              "resync bytes != flipped frames x (frame size - 1)");
  result.gate((pc.wire.frames_ok + ledger.flipped) * kFrameBytes ==
                  ledger.bytes,
              "bytes on the wire not accounted for");

  // A serial 1-lane pass over the same impaired bytes, in large chunks,
  // must reach bit-identical shards.
  Campus reference(gen, pool, /*serial=*/true);
  std::vector<Tick> cap(campus.offices());
  for (std::size_t o = 0; o < cap.size(); ++o) cap[o] = campus.shard(o).tick();
  reference.set_cap(cap);
  WireLedger scratch;
  std::vector<std::uint8_t> bytes;
  for (Tick t = 0; t < run.tick();) {
    bytes.clear();
    const Tick end = std::min<Tick>(t + 256, run.tick());
    for (; t < end; ++t) gen.impaired_call(t, bytes, scratch);
    reference.replay(bytes);
    reference.step();
  }
  std::size_t mismatched = 0;
  for (std::size_t o = 0; o < campus.offices(); ++o) {
    if (reference.shard(o).tick() != cap[o] ||
        reference.shard(o).digest() != campus.shard(o).digest()) {
      ++mismatched;
    }
  }
  result.gate(mismatched == 0,
              std::to_string(mismatched) +
                  " offices differ from the serial 1-lane pass");
}

Result campus_workload(const Options& options, std::size_t offices,
                       Impairment impairment) {
  Result result;
  CampusRun run(options, offices, impairment);
  std::vector<double> setups;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    setups.push_back(run.set_up());
  }
  Campus& campus = run.campus();
  const Tick none = std::numeric_limits<Tick>::max();
  run.run_for(kWarmSeconds, none);

  if (!options.trace) {
    // The measured window, then one closing call that releases the
    // window's last held row.  Only the window's ticks are attempted.
    const Tick from = run.tick();
    Job job = run.run_for(options.seconds, from);
    const Tick to = run.tick();
    const Job closing = run.run_calls(1, from, to, false);
    job.decided.insert(job.decided.end(), closing.decided.begin(),
                       closing.decided.end());
    const double deauth_p90 = campus.deauth_quantile(0.9);
    const std::uint64_t deauths = total_deauths(campus);
    // Untimed calls up to the memory reading, if the window ended first.
    while (!run.rss().taken()) run.run_calls(1, none, none, false);
    // Decided past the limit, never decided (a faulted shard), or left
    // undecided past the window: failed.
    result.attempted = static_cast<std::uint64_t>(to - from) * offices;
    end_to_end(result, setups,
               window_timings(job.decided, job.seconds,
                              run.live() ? kLiveLimitMs
                                         : std::numeric_limits<double>::max()),
               deauth_p90, deauths, run.rss());
    std::cout << "decide quantiles ms:";
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      std::cout << " p" << q * 100 << "=" << quantile(job.decided, q);
    }
    std::cout << "\n";
    if (run.live()) {
      std::cout << "generator lag p99 " << quantile(job.lag, 0.99)
                << " ms\n";
    }
    campus_gates(run, result);
    return result;
  }

  // Traced run: one job untraced, the same job traced (both on one
  // thread, as measured end to end), and untraced on the parallel pool.
  const Job untraced = run.run_for(options.seconds / 4, none);
  const std::size_t calls = untraced.calls;
  Tracer tracer;
  campus.set_tracer(&tracer);
  const Job traced = run.run_calls(calls, run.tick(), none, true);
  campus.set_tracer(nullptr);
  const std::vector<Span> spans = tracer.spans();
  write_spans(tracer, options, "1");
  run.use_pool(run.pools().n);
  const Job parallel = run.run_calls(calls, none, none, false);

  LayerSheet sheet;
  campus_layers(spans, traced, kEndToEndThreads, sheet, result);
  campus_counters(campus, run.online_ticks(), run.reports_generated(),
                  sheet);
  const double per = 1.0 / static_cast<double>(std::max<std::uint64_t>(
                               traced.stepped, 1));
  sheet.set("station.release_wait_ms", quantile(traced.released, 0.5));
  sheet.set("live.generator_lag_p99_ms", quantile(traced.lag, 0.99));
  sheet.set("trace.overhead_ns",
            static_cast<double>(traced.service_ns - untraced.service_ns) *
                per);
  sheet.set("exec.parallel_efficiency",
            static_cast<double>(untraced.service_ns) /
                (static_cast<double>(options.threads) *
                 static_cast<double>(parallel.service_ns)));
  print_single_thread_budget(spans, traced.wall_ns, traced.stepped);
  sheet.emit(result);
  result.attempted = traced.stepped;
  campus_gates(run, result);
  return result;
}

// ---------------------------------------------------------------------
// fleet_lockstep: a small supervised Fleet on its synthetic driver.

fw::fleet::FleetConfig fleet_config(const Options& options,
                                    const std::string& root) {
  fw::fleet::FleetConfig config;
  config.offices = kFleetOffices;
  config.seed = options.seed;
  config.shard = paper_office();
  config.snapshot_root = root;
  config.checkpoint_period = kCheckpointPeriod;
  return config;
}

double snapshot_bytes_per_ktick(const std::string& root) {
  std::uint64_t bytes = 0, files = 0;
  if (!fs::exists(root)) return 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
      ++files;
    }
  }
  if (files == 0) return 0.0;
  // Each shard writes one snapshot per checkpoint period.
  return static_cast<double>(bytes) / static_cast<double>(files) * 1000.0 /
         static_cast<double>(kCheckpointPeriod);
}

double fleet_deauth_quantile(double q) {
  const fw::obs::MetricsSnapshot snap =
      fw::obs::MetricsRegistry::global().snapshot();
  const fw::obs::HistogramSample* h =
      snap.find_histogram("fadewich_fleet_deauth_latency_seconds");
  return h == nullptr ? 0.0 : h->percentile(q);
}

Result fleet_workload(const Options& options) {
  Result result;
  Pools pools(options.threads);
  const std::string root =
      options.out_dir + "/snapshots-" + std::to_string(::getpid());
  struct Cleanup {
    std::string root;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(root, ec);
    }
  } cleanup{root};
  fs::remove_all(root);

  // End to end on one thread, like the campus workloads (see
  // kEndToEndThreads); the parallel pool runs the same fleet for the
  // determinism gate and, traced, for exec.parallel_efficiency.
  std::vector<double> setups;
  std::unique_ptr<fw::fleet::Fleet> fleet;
  const Tick train = training_ticks();
  const int n_setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < n_setups; ++i) {
    fleet.reset();
    const std::string dir = root + "/setup-" + std::to_string(i);
    fw::obs::MetricsRegistry::global().reset();
    const std::int64_t start = now_ns();
    fleet = std::make_unique<fw::fleet::Fleet>(fleet_config(options, dir),
                                               &pools.one);
    fleet->run_week(train);
    setups.push_back(seconds_of(now_ns() - start));
    for (std::size_t o = 0; o < fleet->offices(); ++o) {
      if (fleet->shard(o).training()) {
        throw fw::Error("fleet shard never came online");
      }
    }
    if (i + 1 < n_setups) fs::remove_all(dir);
  }
  const std::uint64_t per_call =
      kFleetOffices * static_cast<std::uint64_t>(kBlock);

  std::uint32_t check_digest = 0;
  Tick check_tick = 0;
  std::size_t calls_done = 0;
  RssProbe rss(train + kFleetRssTicks);
  const auto call = [&]() {
    const std::int64_t start = now_ns();
    fleet->run_week(kBlock);
    const std::int64_t ns = now_ns() - start;
    rss.after(fleet->tick());
    if (++calls_done == kCheckCalls) {
      check_digest = fleet->fleet_digest();
      check_tick = fleet->tick();
    }
    return ns;
  };
  // The same fleet on the parallel pool, run untimed to `at - ticks`,
  // then `ticks` in calls (their wall into *wall); its digest at `at`.
  const auto parallel_digest = [&](Tick at, Tick ticks,
                                   std::int64_t* wall) {
    fw::fleet::Fleet parallel(fleet_config(options, root + "/parallel"),
                              &pools.n);
    parallel.run_week(at - ticks);
    const std::int64_t start = now_ns();
    for (Tick t = 0; t < ticks; t += kBlock) parallel.run_week(kBlock);
    if (wall != nullptr) *wall = now_ns() - start;
    return parallel.fleet_digest();
  };

  if (!options.trace) {
    std::int64_t warm = 0;
    while (seconds_of(warm) < kWarmSeconds || calls_done < kCheckCalls) {
      warm += call();
    }
    std::vector<Sample> decided;
    std::int64_t service = 0;
    const Tick from = fleet->tick();
    while (seconds_of(service) < options.seconds) {
      const std::int64_t ns = call();
      service += ns;
      decided.push_back({static_cast<double>(ns) / 1e6, per_call});
    }
    const Tick to = fleet->tick();
    result.attempted = static_cast<std::uint64_t>(to - from) * kFleetOffices;
    Timings timings = window_timings(decided, seconds_of(service),
                                     std::numeric_limits<double>::max());
    // A shard the supervisor had to restore failed every window tick.
    for (std::size_t o = 0; o < fleet->offices(); ++o) {
      const auto& shard = fleet->shard(o);
      if (shard.faulted() || shard.restores() > 0) {
        timings.on_time -= std::min<std::uint64_t>(
            timings.on_time, static_cast<std::uint64_t>(to - from));
      }
    }
    const double deauth_p90 = fleet_deauth_quantile(0.9);
    const std::uint64_t deauths = fleet->total_deauths();
    // Untimed calls up to the memory reading, if the window ended first.
    while (!rss.taken()) call();
    end_to_end(result, setups, timings, deauth_p90, deauths, rss);
    std::cout << "decide quantiles ms:";
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      std::cout << " p" << q * 100 << "=" << quantile(decided, q);
    }
    std::cout << "\n";
    result.gate(fleet->total_deauths() > 0, "core.deauths == 0");
    result.gate(fleet->total_restarts() == 0, "a fleet shard was restarted");
    result.gate(parallel_digest(check_tick, 0, nullptr) == check_digest,
                "fleet digest differs between 1 thread and the parallel pool");
    return result;
  }

  // Traced: warm up, then one job untraced, the same job traced with a
  // bench-composed shadow lockstep of the same shards alternating with
  // it (for the core/exec split run_week hides), and on the parallel pool.
  for (std::int64_t warm = 0; seconds_of(warm) < kWarmSeconds;) {
    warm += call();
  }
  std::size_t calls = 0;
  std::int64_t wall_u = 0;
  while (seconds_of(wall_u) < options.seconds / 4 || calls < 4) {
    wall_u += call();
    ++calls;
  }
  const Tick job_ticks = static_cast<Tick>(calls) * kBlock;
  const Tick checked = fleet->tick();
  std::vector<std::uint32_t> shard_digests(fleet->offices());
  for (std::size_t o = 0; o < fleet->offices(); ++o) {
    shard_digests[o] = fleet->shard_digest(o);
  }
  const std::uint32_t fleet_digest = fleet->fleet_digest();

  Tracer tracer;
  std::vector<std::unique_ptr<fw::fleet::OfficeShard>> shadow(kFleetOffices);
  for (std::size_t o = 0; o < kFleetOffices; ++o) {
    shadow[o] = std::make_unique<fw::fleet::OfficeShard>(
        o, fw::exec::task_seed(options.seed, o), paper_office());
    fw::persist::RecoveryConfig recovery;
    recovery.directory = root + "/shadow/office-" + std::to_string(o);
    shadow[o]->enable_persistence(recovery, kCheckpointPeriod);
  }
  const auto lockstep = [&](Tick boundary, bool traced) {
    const std::uint64_t loop = traced ? tracer.next_id() : 0;
    const std::int64_t s = now_ns();
    pools.one.parallel_for(0, shadow.size(), [&](std::size_t o) {
      const std::int64_t rs = now_ns();
      shadow[o]->run_until(boundary);
      if (traced) {
        tracer.record(tracer.next_id(), loop, SpanKind::kRunUntil, rs,
                      now_ns());
      }
    });
    if (traced) tracer.record(loop, 0, SpanKind::kParallelFor, s, now_ns());
  };
  for (Tick t = kBlock; t <= checked - job_ticks; t += kBlock) {
    lockstep(t, false);
  }
  std::int64_t wall_t = 0;
  const std::int64_t job_start = now_ns();
  for (std::size_t c = 0; c < calls; ++c) {
    const std::int64_t s = now_ns();
    fleet->run_week(kBlock);
    const std::int64_t e = now_ns();
    tracer.record(tracer.next_id(), 0, SpanKind::kRunWeek, s, e);
    wall_t += e - s;
    lockstep(checked - job_ticks + static_cast<Tick>(c + 1) * kBlock, true);
  }
  const std::int64_t job_wall = now_ns() - job_start;
  std::size_t shadow_mismatch = 0;
  for (std::size_t o = 0; o < kFleetOffices; ++o) {
    if (shadow[o]->tick() != checked ||
        shadow[o]->digest() != shard_digests[o]) {
      ++shadow_mismatch;
    }
  }
  result.gate(shadow_mismatch == 0,
              "bench lockstep differs from Fleet::run_week");
  const std::uint64_t ticks =
      static_cast<std::uint64_t>(job_ticks) * kFleetOffices;
  const std::vector<Span> spans = tracer.spans();
  write_spans(tracer, options, "1");
  print_single_thread_budget(spans, job_wall, ticks);

  std::int64_t wall_n = 0;
  result.gate(parallel_digest(checked, job_ticks, &wall_n) == fleet_digest,
              "fleet digest differs between 1 thread and the parallel pool");

  LayerSheet sheet;
  const double per = 1.0 / static_cast<double>(ticks);
  const std::vector<std::int64_t> total = total_by_kind(spans);
  const std::int64_t run_ns = total[static_cast<int>(SpanKind::kRunUntil)];
  const std::int64_t loop_ns = total[static_cast<int>(SpanKind::kParallelFor)];
  // One participant: the shadow's stepping loop is run_until plus its
  // idle, and run_week's excess over that loop is the fleet's own work.
  sheet.set("core.busy_ns", static_cast<double>(run_ns) * per);
  sheet.set("exec.idle_ns", static_cast<double>(loop_ns - run_ns) * per);
  sheet.set("fleet.self_ns", static_cast<double>(wall_t - loop_ns) * per);
  sheet.set("trace.budget_ns", static_cast<double>(wall_t) * per);
  sheet.set("trace.overhead_ns",
            static_cast<double>(wall_t - wall_u) * per);
  sheet.set("exec.threads", 1.0);
  sheet.set("exec.parallel_efficiency",
            static_cast<double>(wall_u) /
                (static_cast<double>(options.threads) *
                 static_cast<double>(wall_n)));
  sheet.set("persist.snapshot_bytes",
            snapshot_bytes_per_ktick(root + "/setup-0"));
  std::uint64_t spurious = 0, alerts = 0;
  for (std::size_t o = 0; o < fleet->offices(); ++o) {
    spurious += fleet->shard(o).spurious_deauths();
    alerts += fleet->shard(o).alerts();
  }
  const double online = static_cast<double>(
      static_cast<std::uint64_t>(fleet->tick() - train) * kFleetOffices);
  sheet.set("core.deauths",
            1000.0 * static_cast<double>(fleet->total_deauths()) / online);
  sheet.set("core.spurious_deauths",
            1000.0 * static_cast<double>(spurious) / online);
  sheet.set("core.alerts", 1000.0 * static_cast<double>(alerts) / online);
  sheet.emit(result);
  result.attempted = ticks;
  result.gate(fleet->total_restarts() == 0, "a fleet shard was restarted");
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campus_replay", "campus_live", "fleet_lockstep"};
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, unit] : end_to_end_units()) n.push_back(name);
    return n;
  }();
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, unit] : per_layer_units()) n.push_back(name);
    return n;
  }();
  return names;
}

Result run_workload(const Options& options) {
  if (options.workload == "campus_replay") {
    return campus_workload(options, kReplayOffices, Impairment{});
  }
  if (options.workload == "campus_live") {
    return campus_workload(options, kLiveOffices, kLiveImpairment);
  }
  if (options.workload == "fleet_lockstep") return fleet_workload(options);
  throw fw::Error("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
