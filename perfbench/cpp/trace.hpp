// In-memory spans recorded around the calls the bench makes into each
// layer, plus the interval arithmetic that turns them into self times.
//
// A span is (id, parent, thread, kind, start, end).  Each thread appends
// to its own buffer, so recording takes no lock; the buffers are read
// only after the pool has joined the work that wrote them.  Spans are
// written out (CSV) when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kReplay,       // IngestPlane::replay
  kSink,         // IngestBridge::ingest (plane sink call)
  kParallelFor,  // the bench's per-block stepping parallel_for
  kRunUntil,     // OfficeShard::run_until
  kTrim,         // IngestBridge::trim_before
  kRunWeek,      // Fleet::run_week
};
inline constexpr std::size_t kSpanKinds = 6;

const char* span_name(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kReplay;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh span id (never 0).
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Append a finished span on the calling thread's buffer.
  void record(std::uint64_t id, std::uint64_t parent, SpanKind kind,
              std::int64_t start_ns, std::int64_t end_ns);

  /// Every span recorded so far, merged across threads.  Call only when
  /// no thread is recording.
  std::vector<Span> spans() const;

  /// Write spans() as CSV (id,parent,thread,name,start_ns,end_ns).
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  const std::uint64_t serial_;  // process-unique, keys thread buffers
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;  // guards buffers_ (the list, not contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Total length covered by the union of half-open [start, end) intervals
/// (they may overlap, e.g. children running on different threads).
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                          intervals);

/// A span's self time: its duration minus the part of [start, end) that
/// its children's intervals cover (children clipped to the parent).
std::int64_t self_ns(const Span& parent, const std::vector<Span>& children);

/// Self time summed per kind over a whole span set: each span's duration
/// minus the union of its own children.
std::vector<std::int64_t> self_by_kind(const std::vector<Span>& spans);

/// Duration summed per kind.
std::vector<std::int64_t> total_by_kind(const std::vector<Span>& spans);

}  // namespace perfbench
