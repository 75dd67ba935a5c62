// Short ring-buffered history of all streams, so the online system can
// fetch V^(i)_{t1, t1+t_delta} when a variation window reaches t_delta
// (t1 is at most t_delta + merge-gap ticks in the past).
//
// Tick-major layout: each slot holds one whole row, so push() — run on
// every tick — is one contiguous copy, and window()/windows() — run only
// on RE queries — gather one stream at a stride.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/time.hpp"

namespace fadewich::core {

class StreamHistory {
 public:
  /// Retains the most recent `capacity` ticks of `stream_count` streams.
  StreamHistory(std::size_t stream_count, std::size_t capacity)
      : stream_count_(stream_count),
        capacity_(capacity),
        data_(stream_count * capacity, 0.0) {
    FADEWICH_EXPECTS(stream_count >= 1);
    FADEWICH_EXPECTS(capacity >= 1);
  }

  std::size_t stream_count() const { return stream_count_; }
  std::size_t capacity() const { return capacity_; }
  Tick ticks_stored() const { return next_tick_; }

  /// Oldest tick still retained.
  Tick oldest_tick() const {
    const Tick cap = static_cast<Tick>(capacity_);
    return next_tick_ > cap ? next_tick_ - cap : 0;
  }

  /// Restart the history at an arbitrary tick clock with zeroed contents
  /// (used when restoring a persisted system: the pre-restart samples are
  /// gone, but the tick indexing must stay aligned with the detector).
  void reset(Tick next_tick) {
    FADEWICH_EXPECTS(next_tick >= 0);
    std::fill(data_.begin(), data_.end(), 0.0);
    next_tick_ = next_tick;
  }

  /// Append one tick (one value per stream).
  void push(std::span<const double> row) {
    FADEWICH_EXPECTS(row.size() == stream_count_);
    std::copy(row.begin(), row.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(
                                  slot_of(next_tick_) * stream_count_));
    ++next_tick_;
  }

  /// Samples of one stream over ticks [begin, end] inclusive.  Requires
  /// the range to be fully retained.
  std::vector<double> window(std::size_t stream, Tick begin,
                             Tick end) const {
    FADEWICH_EXPECTS(stream < stream_count_);
    FADEWICH_EXPECTS(begin >= oldest_tick());
    FADEWICH_EXPECTS(begin <= end);
    FADEWICH_EXPECTS(end < next_tick_);
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(end - begin + 1));
    for (Tick t = begin; t <= end; ++t) {
      out.push_back(data_[slot_of(t) * stream_count_ + stream]);
    }
    return out;
  }

  /// Windows for every stream over [begin, end].
  std::vector<std::vector<double>> windows(Tick begin, Tick end) const {
    std::vector<std::vector<double>> out;
    out.reserve(stream_count_);
    for (std::size_t s = 0; s < stream_count_; ++s) {
      out.push_back(window(s, begin, end));
    }
    return out;
  }

 private:
  std::size_t slot_of(Tick t) const {
    return static_cast<std::size_t>(t % static_cast<Tick>(capacity_));
  }

  std::size_t stream_count_;
  std::size_t capacity_;
  std::vector<double> data_;  // tick-major ring: data_[slot * streams + s]
  Tick next_tick_ = 0;
};

}  // namespace fadewich::core
