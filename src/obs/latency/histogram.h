// HDR-style log-linear latency histogram (~3 significant digits).
//
// The one histogram type: MetricsRegistry instruments and the SLO
// latency windows both record into it. Latency percentiles need
// sub-millisecond resolution across a nanoseconds-to-minutes range.
// This is the standard HdrHistogram layout: values are bucketed by their
// most-significant bit, and each power-of-two bucket is split into
// kSubBucketHalfCount linear sub-buckets, so every recorded value lands
// in a bucket whose width is at most value / 1024 — a guaranteed
// relative error below 0.1% (hence "~3 significant digits") at a fixed
// ~220 KiB of counts, no matter how many samples are recorded.
//
// Percentile(q) follows bucket-upper-bound semantics: it returns the
// highest value equivalent to the bucket holding the rank-⌈q·count⌉
// sample, so the result never under-reports (the exact sample is ≤ the
// returned value ≤ exact · (1 + 1/1024) + 1). Histograms recorded on
// different nodes or windows Merge() exactly (bucket-wise addition),
// which is what lets a per-window timeline and a whole-run summary
// share one recording path.
//
// Everything is integer arithmetic on simulated-time nanoseconds:
// byte-identical across same-seed runs by construction.
#pragma once

#include <cstdint>
#include <vector>

namespace cruz::obs {

class LatencyHistogram {
 public:
  // 2^10 linear sub-buckets per power-of-two bucket: values below 1024
  // are exact, larger values have relative bucket width <= 1/1024.
  static constexpr int kSubBucketBits = 10;
  static constexpr std::uint64_t kSubBucketCount = 1ull << kSubBucketBits;
  static constexpr std::uint64_t kSubBucketHalfCount = kSubBucketCount / 2;
  // Buckets cover the full u64 range: bucket 0 holds [0, 1024) exactly,
  // each further bucket doubles the range at half the sub-resolution.
  static constexpr int kBucketCount = 64 - kSubBucketBits + 1;

  LatencyHistogram();

  void Record(std::uint64_t value);
  // Bucket-wise addition; all summary statistics combine exactly.
  void Merge(const LatencyHistogram& other);
  void Clear();

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  // Value at quantile q (clamped to (0, 1]): the upper bound of the
  // bucket containing the sample of rank ceil(q * count), counted from
  // the smallest recorded value, capped at the exactly-tracked max (so
  // Percentile(1.0) == max()). 0 when empty.
  std::uint64_t Percentile(double q) const;

  // Index math: the linear counts index a value records into, and the
  // largest value mapping to that index (a bucket's `le` in exports).
  static std::size_t IndexFor(std::uint64_t value);
  static std::uint64_t UpperBoundFor(std::size_t index);

  // Per-index counts, for exporters.
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t index) const { return counts_[index]; }

  // Rebuild from an exported snapshot (no raw samples): Restore the
  // scalars, then RestoreCount each sparse bucket by its `le`. Returns
  // false, changing nothing, when `le` is not a bucket upper bound.
  void Restore(std::uint64_t count, std::uint64_t sum, std::uint64_t min_v,
               std::uint64_t max_v);
  bool RestoreCount(std::uint64_t le, std::uint64_t count);

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace cruz::obs
