#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kReplay: return "replay";
    case SpanKind::kSink: return "sink";
    case SpanKind::kParallelFor: return "parallel_for";
    case SpanKind::kRunUntil: return "run_until";
    case SpanKind::kTrim: return "trim";
    case SpanKind::kRunWeek: return "run_week";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> tracer_serials{0};
}  // namespace

Tracer::Tracer() : serial_(tracer_serials.fetch_add(1) + 1) {}

Tracer::Buffer& Tracer::local() {
  // One buffer per (thread, tracer); a thread keeps its slot for the
  // tracer's lifetime, so record() takes the lock once per thread.  The
  // key is a serial, not the address, so a later tracer at a reused
  // address never inherits a dead buffer.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != serial_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto fresh = std::make_unique<Buffer>();
    fresh->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer = fresh.get();
    owner = serial_;
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

void Tracer::record(std::uint64_t id, std::uint64_t parent, SpanKind kind,
                    std::int64_t start_ns, std::int64_t end_ns) {
  Buffer& b = local();
  b.spans.push_back({id, parent, b.thread, kind, start_ns, end_ns});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,thread,name,start_ns,end_ns\n";
  for (const Span& s : spans()) {
    out << s.id << ',' << s.parent << ',' << s.thread << ','
        << span_name(s.kind) << ',' << s.start_ns << ',' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

std::int64_t union_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > run_end) {
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (open) covered += run_end - run_start;
  return covered;
}

std::int64_t self_ns(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> clipped;
  clipped.reserve(children.size());
  for (const Span& c : children) {
    clipped.emplace_back(std::max(c.start_ns, parent.start_ns),
                         std::min(c.end_ns, parent.end_ns));
  }
  return parent.duration() - union_ns(std::move(clipped));
}

std::vector<std::int64_t> self_by_kind(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::vector<std::int64_t> self(kSpanKinds, 0);
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    self[static_cast<std::size_t>(s.kind)] +=
        self_ns(s, it == children.end() ? kNone : it->second);
  }
  return self;
}

std::vector<std::int64_t> total_by_kind(const std::vector<Span>& spans) {
  std::vector<std::int64_t> total(kSpanKinds, 0);
  for (const Span& s : spans) {
    total[static_cast<std::size_t>(s.kind)] += s.duration();
  }
  return total;
}

}  // namespace perfbench
