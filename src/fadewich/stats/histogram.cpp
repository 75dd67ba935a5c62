#include "fadewich/stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"
#include "fadewich/stats/descriptive.hpp"

namespace fadewich::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins,
                     OutlierPolicy policy)
    : lo_(lo),
      hi_(hi),
      interior_(bins),
      policy_(policy),
      counts_(policy == OutlierPolicy::kOutlierBins ? bins + 2 : bins, 0) {
  FADEWICH_EXPECTS(bins >= 1);
  FADEWICH_EXPECTS(lo < hi);
}

Histogram Histogram::from_data(std::span<const double> xs, std::size_t bins) {
  FADEWICH_EXPECTS(!xs.empty());
  double lo = min(xs);
  double hi = max(xs);
  if (lo == hi) {
    // Degenerate data: widen symmetrically so the single value maps to a
    // well-defined bin.
    lo -= 0.5;
    hi += 0.5;
  }
  Histogram h(lo, hi, bins);
  h.add_all(xs);
  return h;
}

void Histogram::add(double x) {
  if (x < lo_) ++underflow_;
  if (x > hi_) ++overflow_;
  ++counts_[bin_of(x)];
  ++total_;
}

void Histogram::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

std::size_t Histogram::count(std::size_t bin) const {
  FADEWICH_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

std::size_t Histogram::bin_of(double x) const {
  if (policy_ == OutlierPolicy::kOutlierBins) {
    if (x < lo_) return interior_;       // underflow bin
    if (x > hi_) return interior_ + 1;   // overflow bin
  }
  const double clamped = std::clamp(x, lo_, hi_);
  const double width = (hi_ - lo_) / static_cast<double>(interior_);
  auto bin = static_cast<std::size_t>((clamped - lo_) / width);
  return std::min(bin, interior_ - 1);
}

double Histogram::bin_center(std::size_t bin) const {
  FADEWICH_EXPECTS(bin < interior_);
  const double width = (hi_ - lo_) / static_cast<double>(interior_);
  return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

std::vector<double> Histogram::probabilities() const {
  FADEWICH_EXPECTS(total_ > 0);
  std::vector<double> p(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return p;
}

double Histogram::entropy() const {
  FADEWICH_EXPECTS(total_ > 0);
  double h = 0.0;
  for (std::size_t c : counts_) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total_);
    h -= p * std::log(p);
  }
  return h;
}

double value_entropy(std::span<const double> xs) {
  FADEWICH_EXPECTS(!xs.empty());
  // Sort a scratch copy and fold runs of equal values.  Runs come out in
  // ascending value order with `<` as the equivalence (so -0.0 and +0.0
  // are one outcome), the same outcomes and order a std::map<double,
  // count> walk gives, hence the same -p*log(p) sum bit for bit.
  auto& arena = common::ScratchArena::local();
  const auto scratch_frame = arena.frame();
  const std::span<double> sorted = arena.get<double>(xs.size());
  std::copy(xs.begin(), xs.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(xs.size());
  double h = 0.0;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    while (j < sorted.size() && !(sorted[i] < sorted[j])) ++j;
    const double p = static_cast<double>(j - i) / n;
    h -= p * std::log(p);
    i = j;
  }
  return h;
}

}  // namespace fadewich::stats
