#include "campus.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace fw = fadewich;

namespace {

constexpr const char* kLatency = "perfbench_deauth_latency_seconds";

/// Append one office-tick's latency, merging runs of equal values (the
/// ticks of one office that one call decided share their due time).
void add(std::vector<Sample>& out, double ms) {
  if (!out.empty() && out.back().ms == ms) {
    ++out.back().weight;
  } else {
    out.push_back({ms, 1});
  }
}

}  // namespace

double quantile(std::vector<Sample> samples, double q) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.ms < b.ms; });
  std::uint64_t total = 0;
  for (const Sample& s : samples) total += s.weight;
  if (total == 0) return 0.0;
  // Nearest rank: the smallest value whose cumulative weight reaches
  // ceil(q * total).
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (const Sample& s : samples) {
    seen += s.weight;
    if (seen >= rank) return s.ms;
  }
  return samples.back().ms;
}

Campus::Campus(const CampusGenerator& generator, fw::exec::ThreadPool& pool,
               bool serial)
    : serial_(serial),
      pool_(&pool),
      bridge_([&] {
        fw::fleet::BridgeConfig config;
        config.offices = generator.offices();
        config.devices = kDevices;
        return config;
      }()) {
  const std::size_t offices = generator.offices();
  const fw::obs::Histogram latency =
      registry_.histogram(kLatency, "leave start to deauthentication");
  shards_.resize(offices);
  pool.parallel_for(0, offices, [&](std::size_t o) {
    auto shard = std::make_unique<fw::fleet::OfficeShard>(
        o, fw::exec::task_seed(generator.seed(), o),
        generator.office_config(o));
    fw::fleet::ShardMetrics metrics;
    metrics.deauth_latency = latency;
    shard->set_metrics(metrics);
    shards_[o] = std::move(shard);
  });
  for (std::size_t o = 0; o < offices; ++o) bridge_.attach(*shards_[o], o);
  ready_.assign(offices, 0);
  before_.assign(offices, 0);
  stepped_at_.assign(offices, 0);
  plane();
}

fw::net::IngestPlane& Campus::plane() {
  auto& slot = planes_[pool_];
  if (slot == nullptr) {
    // parallel_for runs on the caller plus every worker of a pool with
    // more than one.
    const std::size_t workers = pool_->thread_count();
    fw::net::PlaneConfig config;
    config.lanes = serial_ || workers <= 1 ? 1 : workers + 1;
    config.shards = shards_.size();
    config.serial = serial_;
    slot = std::make_unique<fw::net::IngestPlane>(config, pool_);
  }
  return *slot;
}

void Campus::use_pool(fw::exec::ThreadPool& pool) {
  pool_ = &pool;
  plane();
}

void Campus::replay(std::span<const std::uint8_t> bytes) {
  fw::net::IngestPlane& p = plane();
  ++replay_calls_;
  if (tracer_ == nullptr) {
    p.replay(bytes, bridge_.sink());
    return;
  }
  Tracer& tracer = *tracer_;
  const std::uint64_t id = tracer.next_id();
  const std::int64_t start = now_ns();
  p.replay(bytes, [this, &tracer, id](
                      std::size_t office,
                      std::span<const fw::net::Measurement> batch) {
    const std::int64_t s = now_ns();
    bridge_.ingest(office, batch);
    tracer.record(tracer.next_id(), id, SpanKind::kSink, s, now_ns());
  });
  tracer.record(id, 0, SpanKind::kReplay, start, now_ns());
  for (std::size_t o = 0; o < shards_.size(); ++o) {
    const Tick backlog = bridge_.rows_ready_through(o) - shards_[o]->tick();
    bridge_rows_peak_ =
        std::max(bridge_rows_peak_, static_cast<std::uint64_t>(backlog));
  }
}

void Campus::release_samples(const DueClock& due, std::int64_t released_ns,
                             Tick sample_from, std::vector<Sample>& out) {
  for (std::size_t o = 0; o < shards_.size(); ++o) {
    const Tick ready = bridge_.rows_ready_through(o);
    for (Tick t = std::max(ready_[o], sample_from); t < ready; ++t) {
      add(out, static_cast<double>(released_ns - due.due(o, t)) / 1e6);
    }
    ready_[o] = ready;
  }
}

std::uint64_t Campus::step(const DueClock* due, std::vector<Sample>* decided,
                           Tick sample_from, Tick sample_to) {
  const std::size_t n = shards_.size();
  for (std::size_t o = 0; o < n; ++o) before_[o] = shards_[o]->tick();
  const std::uint64_t loop = tracer_ != nullptr ? tracer_->next_id() : 0;
  const std::int64_t loop_start = tracer_ != nullptr ? now_ns() : 0;
  pool_->parallel_for(0, n, [&](std::size_t o) {
    fw::fleet::OfficeShard& shard = *shards_[o];
    Tick target = bridge_.rows_ready_through(o);
    if (!cap_.empty()) target = std::min(target, cap_[o]);
    if (tracer_ == nullptr) {
      shard.run_until(target);
      stepped_at_[o] = now_ns();
      bridge_.trim_before(o, shard.tick());
      return;
    }
    const std::int64_t s = now_ns();
    shard.run_until(target);
    const std::int64_t e = now_ns();
    stepped_at_[o] = e;
    tracer_->record(tracer_->next_id(), loop, SpanKind::kRunUntil, s, e);
    bridge_.trim_before(o, shard.tick());
    tracer_->record(tracer_->next_id(), loop, SpanKind::kTrim, e, now_ns());
  });
  if (tracer_ != nullptr) {
    tracer_->record(loop, 0, SpanKind::kParallelFor, loop_start, now_ns());
  }
  std::uint64_t stepped = 0;
  for (std::size_t o = 0; o < n; ++o) {
    const Tick after = shards_[o]->tick();
    stepped += static_cast<std::uint64_t>(after - before_[o]);
    if (due == nullptr || decided == nullptr) continue;
    for (Tick t = std::max(before_[o], sample_from);
         t < std::min(after, sample_to); ++t) {
      add(*decided,
          static_cast<double>(stepped_at_[o] - due->due(o, t)) / 1e6);
    }
  }
  return stepped;
}

bool Campus::online() const {
  return std::none_of(shards_.begin(), shards_.end(),
                      [](const auto& s) { return s->training(); });
}

bool Campus::any_faulted() const {
  return std::any_of(shards_.begin(), shards_.end(),
                     [](const auto& s) { return s->faulted(); });
}

fw::net::PlaneCounters Campus::plane_counters() const {
  fw::net::PlaneCounters sum;
  for (const auto& [pool, plane] : planes_) {
    const fw::net::PlaneCounters& c = plane->counters();
    sum.wire.frames_ok += c.wire.frames_ok;
    sum.wire.reports += c.wire.reports;
    sum.wire.bad_version += c.wire.bad_version;
    sum.wire.bad_length += c.wire.bad_length;
    sum.wire.bad_crc += c.wire.bad_crc;
    sum.wire.resync_bytes += c.wire.resync_bytes;
    sum.wire.truncated += c.wire.truncated;
    sum.rounds += c.rounds;
    sum.reports_delivered += c.reports_delivered;
    sum.ring_full_backpressure += c.ring_full_backpressure;
  }
  return sum;
}

double Campus::deauth_quantile(double q) const {
  const fw::obs::MetricsSnapshot snap = registry_.snapshot();
  const fw::obs::HistogramSample* h = snap.find_histogram(kLatency);
  return h == nullptr ? 0.0 : h->percentile(q);
}

}  // namespace perfbench
