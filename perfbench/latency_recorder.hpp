// Fine-resolution latency recorder for the OLIVE benchmark.
//
// A log-linear (HDR-style) histogram of nanosecond samples: values below
// 2^kSubBits are kept exactly; above that, every power-of-two range is split
// into 2^kSubBits linear sub-buckets.  A bucket [lo, lo + w) always has
// lo >= 2^kSubBits * w, and percentile() reports the bucket midpoint, so a
// reported percentile is within w/2 <= exact / 2^(kSubBits+1) of the exact
// nearest-rank value: 1/256 (0.39%) relative error at kSubBits = 7.  The
// library's own serve::LatencyHistogram has power-of-two buckets (up to 2x
// error), too coarse to resolve a sub-millisecond change.
//
// Recording is one bit_width, a shift and an increment; the bucket array is
// allocated once.  Recorders merge by adding counts.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace olive::perfbench {

class LatencyRecorder {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Relative error bound of percentile() against an exact sort.
  static constexpr double kRelativeError = 1.0 / static_cast<double>(2 * kSub);

  LatencyRecorder() : counts_(bucket_of(~std::uint64_t{0}) + 1, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++count_;
    sum_ += static_cast<double>(ns);
  }

  void merge(const LatencyRecorder& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return count_; }
  double sum_ns() const { return sum_; }
  double mean_ns() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Nearest-rank p-quantile (p in (0, 1]) in nanoseconds; 0 when empty.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= rank) return midpoint(b);
    }
    return midpoint(counts_.size() - 1);  // not reached: rank <= count_
  }

  /// The highest of p50, p90, p99, p99.9, ... that still has at least ten
  /// samples beyond it (0.5 when even p90 has fewer than ten).
  double tail_quantile() const {
    double q = 0.5;
    for (double next = 0.9; static_cast<double>(count_) * (1.0 - next) >= 10.0;
         next = 1.0 - (1.0 - next) / 10.0)
      q = next;
    return q;
  }

 private:
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - kSubBits - 1;
    return static_cast<std::size_t>((static_cast<std::uint64_t>(shift) + 1) * kSub +
                                    ((v >> shift) - kSub));
  }

  static double midpoint(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const std::uint64_t shift = b / kSub - 1;
    const std::uint64_t lo = (kSub + b % kSub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

}  // namespace olive::perfbench
