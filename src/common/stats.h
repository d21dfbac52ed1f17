// The latency histogram used by the simulator, the runtime's latency
// accounting, and the benchmark harnesses.
#ifndef YIELDHIDE_SRC_COMMON_STATS_H_
#define YIELDHIDE_SRC_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace yieldhide {

// Log-bucketed latency histogram (HDR-style): buckets grow geometrically so
// the relative error of any recorded value is bounded by 1/kSubBuckets.
// Values are non-negative integers (cycles or nanoseconds).
//
// The buckets live in a sorted sparse map. A per-site switch-cost
// distribution typically touches a handful of buckets; keeping thousands of
// such histograms dense (16 KiB each) would dominate the registry's
// footprint, while the sparse form costs O(distinct magnitudes).
//
// Quantiles return the upper bound of the bucket containing the quantile
// (clamped to the exact max), so p50 <= p95 <= p99 <= max() always holds and
// merging two histograms is exactly equivalent to recording the concatenated
// sample streams.
class LatencyHistogram {
 public:
  void Record(uint64_t value) { RecordN(value, 1); }
  void RecordN(uint64_t value, uint64_t n);
  void Merge(const LatencyHistogram& other);
  void Reset() { *this = LatencyHistogram(); }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1]; e.g. 0.99 for p99. Returns an upper bound
  // of the bucket containing the quantile (clamped to max()), 0 with no
  // samples.
  uint64_t ValueAtQuantile(double q) const;
  uint64_t P50() const { return ValueAtQuantile(0.50); }
  uint64_t P95() const { return ValueAtQuantile(0.95); }
  uint64_t P99() const { return ValueAtQuantile(0.99); }

  // Number of touched buckets (the sparse footprint).
  size_t bucket_count() const { return buckets_.size(); }

  // "n=... mean=... p50=... p90=... p99=... p999=... max=..." one-line rendering.
  std::string Summary() const;

  // Bucket geometry: exact buckets below kSubBuckets, then kSubBuckets
  // sub-buckets per power-of-two group. Exposed for the boundary-straddle
  // tests.
  static int BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(int index);

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  std::map<int32_t, uint64_t> buckets_;  // bucket index -> count
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

}  // namespace yieldhide

#endif  // YIELDHIDE_SRC_COMMON_STATS_H_
