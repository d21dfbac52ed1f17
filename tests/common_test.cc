#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace yieldhide {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad thing");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  // Compared as text: GCC 12 at -O2 reports a false -Wmaybe-uninitialized
  // on EXPECT_TRUE(result.status().ok()) here.
  EXPECT_EQ(result.status().ToString(), "OK");
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

Result<int> Doubler(Result<int> input) {
  YH_ASSIGN_OR_RETURN(const int v, input);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(InternalError("x")).status().code(), StatusCode::kInternal);
}

Status FailIfNegative(int v) {
  if (v < 0) {
    return InvalidArgumentError("negative");
  }
  return Status::Ok();
}

Status Chain(int v) {
  YH_RETURN_IF_ERROR(FailIfNegative(v));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_FALSE(Chain(-1).ok());
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(9);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++hits[rng.NextBelow(8)];
  }
  for (int count : hits) {
    EXPECT_GT(count, 700);  // roughly uniform: expect ~1000 each
    EXPECT_LT(count, 1300);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(11);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- LatencyHistogram ----------------------------------------------------------

TEST(LatencyHistogramTest, ExactForSmallValues) {
  LatencyHistogram hist;
  for (uint64_t v = 0; v < 32; ++v) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.count(), 32u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 31u);
  EXPECT_EQ(hist.ValueAtQuantile(1.0), 31u);
}

TEST(LatencyHistogramTest, QuantileBoundedRelativeError) {
  LatencyHistogram hist;
  Rng rng(23);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.NextBelow(1'000'000);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const uint64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    const uint64_t approx = hist.ValueAtQuantile(q);
    // Geometric buckets with 32 sub-buckets: <= ~6% relative error.
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.07 * static_cast<double>(exact) + 2.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MeanIsExact) {
  LatencyHistogram hist;
  hist.Record(10);
  hist.Record(20);
  hist.Record(30);
  EXPECT_DOUBLE_EQ(hist.mean(), 20.0);
}

TEST(LatencyHistogramTest, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.Record(100);
  b.Record(1'000'000);
  b.RecordN(7, 5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 7u);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 1'000'000u);
}

TEST(LatencyHistogramTest, QuantileNeverExceedsMax) {
  LatencyHistogram hist;
  hist.Record(1'000'003);
  EXPECT_EQ(hist.ValueAtQuantile(0.999), 1'000'003u);
  EXPECT_EQ(hist.ValueAtQuantile(1.0), 1'000'003u);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram hist;
  hist.Record(5);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.ValueAtQuantile(0.5), 0u);
}

TEST(LatencyHistogramTest, MergeAcrossDisjointMagnitudes) {
  // a holds only tiny values, b only huge ones: the merge must land b's
  // high-octave buckets correctly even though a never touched them.
  LatencyHistogram a, b;
  for (uint64_t v = 1; v <= 10; ++v) {
    a.Record(v);
  }
  b.Record(1ull << 40);
  b.Record((1ull << 40) + 12345);
  a.Merge(b);
  EXPECT_EQ(a.count(), 12u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), (1ull << 40) + 12345);
  EXPECT_EQ(a.ValueAtQuantile(1.0), (1ull << 40) + 12345);
  // The small population still dominates the median.
  EXPECT_LE(a.ValueAtQuantile(0.5), 10u);
}

TEST(LatencyHistogramTest, QuantileZeroIsSmallestRecorded) {
  LatencyHistogram hist;
  hist.Record(10);
  hist.Record(20);
  hist.Record(30);
  EXPECT_EQ(hist.ValueAtQuantile(0.0), 10u);
}

TEST(LatencyHistogramTest, QuantileOneIsExactMax) {
  LatencyHistogram hist;
  hist.Record(3);
  hist.Record(999'999'937);  // large prime: not a bucket boundary
  EXPECT_EQ(hist.ValueAtQuantile(1.0), 999'999'937u);
}

TEST(LatencyHistogramTest, EmptyQuantilesAreZero) {
  LatencyHistogram hist;
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(hist.ValueAtQuantile(q), 0u) << "q=" << q;
  }
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(LatencyHistogramTest, SummaryMentionsPercentiles) {
  LatencyHistogram hist;
  for (int i = 1; i <= 100; ++i) {
    hist.Record(i);
  }
  const std::string summary = hist.Summary();
  EXPECT_NE(summary.find("p50="), std::string::npos);
  EXPECT_NE(summary.find("p99="), std::string::npos);
}

// --- SparseHistogramTest: LatencyHistogram's sparse bucket map -------------

TEST(SparseHistogramTest, EmptyHistogramIsAllZeros) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.P50(), 0u);
  EXPECT_EQ(hist.P99(), 0u);
  EXPECT_EQ(hist.bucket_count(), 0u);
}

TEST(SparseHistogramTest, SingleSampleIsEveryQuantile) {
  LatencyHistogram hist;
  hist.Record(37);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 37u);
  EXPECT_EQ(hist.max(), 37u);
  // Quantiles clamp to the exact max, not the bucket's upper bound.
  EXPECT_EQ(hist.P50(), 37u);
  EXPECT_EQ(hist.P95(), 37u);
  EXPECT_EQ(hist.P99(), 37u);
  EXPECT_EQ(hist.bucket_count(), 1u);
}

TEST(SparseHistogramTest, BucketBoundaryStraddle) {
  // Two adjacent values straddling a bucket boundary must land in different
  // buckets; two values inside one bucket must share it.
  const uint64_t boundary = LatencyHistogram::BucketUpperBound(
      LatencyHistogram::BucketIndex(1000));
  LatencyHistogram split;
  split.Record(boundary);
  split.Record(boundary + 1);
  EXPECT_EQ(split.bucket_count(), 2u);
  EXPECT_NE(LatencyHistogram::BucketIndex(boundary),
            LatencyHistogram::BucketIndex(boundary + 1));
  // Below kSubBuckets the buckets are exact: every small value is its own
  // bucket and quantiles are exact, not quantized.
  LatencyHistogram small;
  small.Record(3);
  small.Record(4);
  EXPECT_EQ(small.bucket_count(), 2u);
  EXPECT_EQ(small.P50(), 3u);
  EXPECT_EQ(small.max(), 4u);
}

TEST(SparseHistogramTest, MergeEqualsConcatenatedStream) {
  LatencyHistogram a, b, both;
  const uint64_t stream_a[] = {1, 7, 7, 130, 4096, 70000};
  const uint64_t stream_b[] = {2, 7, 129, 131, 131, 9999999};
  for (uint64_t v : stream_a) {
    a.Record(v);
    both.Record(v);
  }
  for (uint64_t v : stream_b) {
    b.Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.bucket_count(), both.bucket_count());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(a.ValueAtQuantile(q), both.ValueAtQuantile(q)) << "q=" << q;
  }
}

TEST(SparseHistogramTest, QuantilesAreMonotone) {
  LatencyHistogram hist;
  // A spread of magnitudes, including repeats and a heavy tail.
  for (uint64_t v = 1; v <= 200; ++v) {
    hist.Record(v);
  }
  hist.RecordN(50000, 3);
  EXPECT_LE(hist.P50(), hist.P95());
  EXPECT_LE(hist.P95(), hist.P99());
  EXPECT_LE(hist.P99(), hist.max());
  EXPECT_GE(hist.P50(), hist.min());
  const std::string summary = hist.Summary();
  EXPECT_NE(summary.find("n=203"), std::string::npos);
  EXPECT_NE(summary.find("p99="), std::string::npos);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.P99(), 0u);
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitSkipsEmptyByDefault) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 2u);
}

TEST(StringsTest, SplitKeepsEmptyOnRequest) {
  auto parts = SplitString("a,,b,", ',', /*skip_empty=*/false);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(TrimString("  x \t"), "x");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("   "), "");
  EXPECT_EQ(TrimString("no-trim"), "no-trim");
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("0x10").value(), 16);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12abc").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringsTest, ParseUint64) {
  EXPECT_EQ(ParseUint64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(ParseUint64("-1").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_FALSE(ParseDouble("2.5x").ok());
  EXPECT_FALSE(ParseDouble("nan").ok());
  EXPECT_FALSE(ParseDouble("inf").ok());
  EXPECT_FALSE(ParseDouble("-inf").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(1000000000ull), "1,000,000,000");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

}  // namespace
}  // namespace yieldhide
