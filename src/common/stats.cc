#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace yieldhide {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const uint64_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / static_cast<double>(total);
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          static_cast<double>(total);
  count_ = total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

int LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);  // exact buckets for small values
  }
  // Values in [2^msb, 2^(msb+1)) map to group g = msb - kSubBucketBits + 1,
  // resolved into kSubBuckets buckets by dropping the low (g - 1) bits, so
  // relative quantization error is bounded by 1/kSubBuckets.
  const int msb = 63 - __builtin_clzll(value);
  const int group = msb - kSubBucketBits + 1;
  const int sub =
      static_cast<int>((value >> (group - 1)) - kSubBuckets);  // in [0, 32)
  return group * kSubBuckets + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(int index) {
  const int group = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (group == 0) {
    return static_cast<uint64_t>(sub);
  }
  const int shift = group - 1;
  return ((static_cast<uint64_t>(kSubBuckets + sub) + 1) << shift) - 1;
}

void LatencyHistogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  buckets_[BucketIndex(value)] += n;
  count_ += n;
  sum_ += value * n;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (const auto& [index, n] : other.buckets_) {
    buckets_[index] += n;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

uint64_t LatencyHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (const auto& [index, n] : buckets_) {  // map iterates in index order
    seen += n;
    if (seen >= target) {
      return std::min<uint64_t>(BucketUpperBound(index), max_);
    }
  }
  return max_;
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%llu p90=%llu p99=%llu p999=%llu max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(ValueAtQuantile(0.50)),
                static_cast<unsigned long long>(ValueAtQuantile(0.90)),
                static_cast<unsigned long long>(ValueAtQuantile(0.99)),
                static_cast<unsigned long long>(ValueAtQuantile(0.999)),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace yieldhide
