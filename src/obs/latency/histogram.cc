#include "obs/latency/histogram.h"

namespace cruz::obs {

namespace {

int MsbIndex(std::uint64_t v) {
  int msb = 0;
  while (v >>= 1) ++msb;
  return msb;
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(kSubBucketCount +
              static_cast<std::size_t>(kBucketCount - 1) *
                  kSubBucketHalfCount) {}

std::size_t LatencyHistogram::IndexFor(std::uint64_t value) {
  if (value < kSubBucketCount) return static_cast<std::size_t>(value);
  // Values with most-significant bit m >= kSubBucketBits fall in bucket
  // b = m - (kSubBucketBits - 1); shifting by b yields a sub-bucket in
  // [kSubBucketHalfCount, kSubBucketCount).
  int b = MsbIndex(value) - (kSubBucketBits - 1);
  std::uint64_t sub = value >> b;
  return kSubBucketCount +
         static_cast<std::size_t>(b - 1) * kSubBucketHalfCount +
         static_cast<std::size_t>(sub - kSubBucketHalfCount);
}

std::uint64_t LatencyHistogram::UpperBoundFor(std::size_t index) {
  if (index < kSubBucketCount) return index;  // exact range
  std::size_t r = index - kSubBucketCount;
  int b = static_cast<int>(r / kSubBucketHalfCount) + 1;
  std::uint64_t sub = r % kSubBucketHalfCount + kSubBucketHalfCount;
  return ((sub + 1) << b) - 1;
}

void LatencyHistogram::Record(std::uint64_t value) {
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++counts_[IndexFor(value)];
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

void LatencyHistogram::Clear() {
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
  counts_.assign(counts_.size(), 0);
}

void LatencyHistogram::Restore(std::uint64_t count, std::uint64_t sum,
                               std::uint64_t min_v, std::uint64_t max_v) {
  count_ = count;
  sum_ = sum;
  min_ = count == 0 ? ~0ull : min_v;
  max_ = max_v;
}

bool LatencyHistogram::RestoreCount(std::uint64_t le, std::uint64_t count) {
  std::size_t index = IndexFor(le);
  if (UpperBoundFor(index) != le) return false;
  counts_[index] = count;
  return true;
}

std::uint64_t LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based from the smallest value.
  std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) {
      std::uint64_t upper = UpperBoundFor(i);
      // The bucket's upper bound can overshoot the true maximum (the
      // max is tracked exactly); never report past it.
      return upper < max_ ? upper : max_;
    }
  }
  return max_;
}

}  // namespace cruz::obs
