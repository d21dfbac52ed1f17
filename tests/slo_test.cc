// Tests for SLO burn-rate monitoring (src/obs/slo): config validation, the
// burn-rate arithmetic, the multi-window fire/clear hysteresis, rolling
// bucket trimming, modeled overhead, metrics publication, and the mirrored
// fire/clear trace events. All stamps are hand-picked so every burn rate
// below is computed on paper.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/slo/slo.h"
#include "src/obs/trace.h"

namespace yieldhide::obs {
namespace {

// objective 0.9 => error budget 0.1; burn = bad_fraction / 0.1.
SloConfig SmallSlo() {
  SloConfig config;
  config.latency_budget_cycles = 100;
  config.objective = 0.9;
  config.bucket_cycles = 1'000;
  config.fast_window_cycles = 1'000;
  config.slow_window_cycles = 4'000;
  config.fast_burn_threshold = 5.0;
  config.slow_burn_threshold = 2.0;
  return config;
}

TEST(SloConfigTest, ValidateNamesEachBadField) {
  EXPECT_TRUE(SloConfig{}.Validate().ok());
  SloConfig config;
  config.latency_budget_cycles = 0;
  EXPECT_NE(config.Validate().ToString().find("latency_budget"),
            std::string::npos);
  config = SloConfig{};
  config.objective = 1.0;
  EXPECT_NE(config.Validate().ToString().find("objective"), std::string::npos);
  config.objective = 0.0;
  EXPECT_NE(config.Validate().ToString().find("objective"), std::string::npos);
  config = SloConfig{};
  config.bucket_cycles = 0;
  EXPECT_NE(config.Validate().ToString().find("bucket_cycles"),
            std::string::npos);
  config = SloConfig{};
  config.fast_window_cycles = config.bucket_cycles - 1;
  EXPECT_NE(config.Validate().ToString().find("fast_window_cycles"),
            std::string::npos);
  config = SloConfig{};
  config.slow_window_cycles = config.fast_window_cycles - 1;
  EXPECT_NE(config.Validate().ToString().find("slow_window_cycles"),
            std::string::npos);
  config = SloConfig{};
  config.fast_burn_threshold = 0.0;
  EXPECT_NE(config.Validate().ToString().find("thresholds"), std::string::npos);
}

TEST(SloEvaluatorTest, BurnRateIsBadFractionOverErrorBudget)  {
  SloConfig config = SmallSlo();
  config.fast_burn_threshold = 100.0;  // keep the alert out of this test
  config.slow_burn_threshold = 100.0;
  SloEvaluator slo(config);
  for (int i = 0; i < 8; ++i) {
    slo.Record(/*now=*/500, /*latency_cycles=*/50);  // good
  }
  slo.Record(500, 101);  // bad: strictly over the budget
  slo.Record(500, 5'000);
  EXPECT_EQ(slo.total(), 10u);
  EXPECT_EQ(slo.bad(), 2u);
  // bad fraction 0.2 over a 0.1 budget = burning 2x the sustainable rate.
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 2.0);
  EXPECT_DOUBLE_EQ(slo.SlowBurnRate(), 2.0);
  EXPECT_FALSE(slo.alert_active());
  // Exactly at the budget is still good.
  slo.Record(500, 100);
  EXPECT_EQ(slo.bad(), 2u);
}

TEST(SloEvaluatorTest, AlertNeedsBothWindowsThenFiresOnceAndClears) {
  SloEvaluator slo(SmallSlo());
  TraceRecorder recorder;  // default mask includes kTraceSlo
  slo.SetTrace(&recorder, /*shard=*/2);

  // Healthy history: 10 good requests in bucket 0.
  for (int i = 0; i < 10; ++i) {
    slo.Record(/*now=*/i * 100ull, /*latency_cycles=*/10);
  }
  // Cliff at cycle 3000. The fast window (1000) sees only the bad bucket
  // (burn 10 >= 5 immediately), but the slow window (4000) still holds the
  // healthy history: slow burn is 10k/(10+k) for k bad requests, which
  // crosses the 2.0 threshold at k = 3 — the multi-window rule suppresses
  // the first two records a naive fast-only alert would have fired on.
  slo.Record(3'000, 1'000);
  EXPECT_GE(slo.FastBurnRate(), 5.0);
  EXPECT_FALSE(slo.alert_active());
  slo.Record(3'100, 1'000);
  EXPECT_FALSE(slo.alert_active());
  slo.Record(3'200, 1'000);
  EXPECT_TRUE(slo.alert_active());
  EXPECT_EQ(slo.alerts_fired(), 1u);
  // Still burning: the alert stays up without re-firing.
  slo.Record(3'300, 1'000);
  EXPECT_EQ(slo.alerts_fired(), 1u);
  EXPECT_EQ(slo.alerts_cleared(), 0u);

  // Recovery at cycle 8000: both old buckets have rolled out of the slow
  // window, burns drop to zero, and the alert clears exactly once.
  slo.Record(8'000, 10);
  EXPECT_FALSE(slo.alert_active());
  EXPECT_EQ(slo.alerts_cleared(), 1u);
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 0.0);
  EXPECT_DOUBLE_EQ(slo.SlowBurnRate(), 0.0);
  // Lifetime counters are cumulative, not windowed.
  EXPECT_EQ(slo.total(), 15u);
  EXPECT_EQ(slo.bad(), 4u);

  // Fire and clear were mirrored into the trace, tagged with the shard.
  const auto events = recorder.Events();
  size_t fires = 0;
  size_t clears = 0;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEventType::kSloAlertFire) {
      ++fires;
      EXPECT_EQ(event.ctx_id, 2);
      EXPECT_EQ(event.cycle, 3'200u);
    } else if (event.type == TraceEventType::kSloAlertClear) {
      ++clears;
      EXPECT_EQ(event.cycle, 8'000u);
    }
  }
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(clears, 1u);
}

TEST(SloConfigTest, WindowShorterThanOneBucketIsRejectedByName) {
  // Whole-bucket windowing cannot evaluate a window narrower than its own
  // quantum; Validate must refuse it with the field named, never silently
  // round the window up.
  SloConfig config = SmallSlo();
  config.fast_window_cycles = config.bucket_cycles - 1;
  const Status fast = config.Validate();
  EXPECT_FALSE(fast.ok());
  EXPECT_NE(fast.ToString().find("fast_window_cycles must be >= bucket_cycles"),
            std::string::npos)
      << fast.ToString();
  config = SmallSlo();
  config.slow_window_cycles = config.fast_window_cycles - 1;
  const Status slow = config.Validate();
  EXPECT_FALSE(slow.ok());
  EXPECT_NE(
      slow.ToString().find("slow_window_cycles must be >= fast_window_cycles"),
      std::string::npos)
      << slow.ToString();
}

TEST(SloEvaluatorTest, WholeBucketWindowEdgeIsExclusive) {
  // A bucket belongs to a window as long as any part of it overlaps
  // (whole-bucket accounting). With the fast window one bucket wide, the
  // bucket [0, 1000) contributes through now = 1999 and drops out exactly at
  // now = 2000, when the window's left edge reaches the bucket's end.
  SloConfig config = SmallSlo();
  config.fast_burn_threshold = 100.0;  // keep the alert out of this test
  config.slow_burn_threshold = 100.0;
  SloEvaluator slo(config);
  slo.Record(/*now=*/0, /*latency_cycles=*/1'000);  // bad bucket [0, 1000)
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 10.0);
  // One cycle before the edge: fast window [999, 1999] still overlaps the
  // bad bucket, so fast = (1 bad / 2 total) / 0.1 = 5.
  slo.Record(1'999, 10);
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 5.0);
  // Exactly at the edge: the window's left boundary is 1000 and the bucket
  // ends at 1000 — no overlap, the bad record vanishes from fast...
  slo.Record(2'000, 10);
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 0.0);
  // ...while the slow window (4000) still holds it: (1/3)/0.1.
  EXPECT_DOUBLE_EQ(slo.SlowBurnRate(), (1.0 / 3.0) / 0.1);
}

TEST(SloEvaluatorTest, AlertEvaluatedExactlyAtABucketEdge) {
  SloEvaluator slo(SmallSlo());
  // Healthy bucket [0, 1000).
  for (int i = 0; i < 10; ++i) {
    slo.Record(i * 100ull, 10);
  }
  // Bad records with `now` sitting exactly on the bucket boundary 2000. The
  // fast window's left edge lands on the healthy bucket's end, so it sees
  // only the bad bucket (burn 10 >= 5 immediately); the slow window still
  // holds the healthy history, crossing 2.0 at the third bad record:
  // (3/13)/0.1 = 2.31. The alert therefore fires with the evaluation stamp
  // exactly on the edge.
  slo.Record(2'000, 1'000);
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 10.0);
  EXPECT_FALSE(slo.alert_active());
  slo.Record(2'000, 1'000);
  EXPECT_FALSE(slo.alert_active());
  slo.Record(2'000, 1'000);
  EXPECT_TRUE(slo.alert_active());
  EXPECT_EQ(slo.alerts_fired(), 1u);
  EXPECT_DOUBLE_EQ(slo.SlowBurnRate(), (3.0 / 13.0) / 0.1);
}

TEST(SloEvaluatorTest, TrimDropsABucketExactlyAtTheSlowHorizon) {
  // The rolling store trims a bucket once it can no longer overlap the slow
  // window: front.start + bucket_cycles <= now - slow_window_cycles. At
  // now = 4999 the horizon is 999 and the bucket [0, 1000) survives (and
  // still counts); at now = 5000 the horizon reaches its end and it is
  // dropped in the same Record call that observes the edge.
  SloConfig config = SmallSlo();
  config.fast_burn_threshold = 100.0;
  config.slow_burn_threshold = 100.0;
  SloEvaluator slo(config);
  slo.Record(0, 1'000);  // bad bucket [0, 1000)
  slo.Record(4'999, 10);
  EXPECT_DOUBLE_EQ(slo.SlowBurnRate(), 5.0);  // (1/2)/0.1
  slo.Record(5'000, 10);
  EXPECT_DOUBLE_EQ(slo.SlowBurnRate(), 0.0);
  EXPECT_DOUBLE_EQ(slo.FastBurnRate(), 0.0);
  // Lifetime counters are unaffected by trimming.
  EXPECT_EQ(slo.total(), 3u);
  EXPECT_EQ(slo.bad(), 1u);
}

TEST(SloEvaluatorTest, FireThenImmediateClearOnTheVeryNextRecord) {
  SloEvaluator slo(SmallSlo());
  TraceRecorder recorder;  // default mask includes kTraceSlo
  slo.SetTrace(&recorder, /*shard=*/3);
  // A single all-bad bucket fires both windows at once: (1/1)/0.1 = 10.
  slo.Record(0, 1'000);
  ASSERT_TRUE(slo.alert_active());
  EXPECT_EQ(slo.alerts_fired(), 1u);
  // The very next record lands after the bad bucket has rolled out of even
  // the slow window (horizon 1200 >= bucket end 1000). There is no minimum
  // hold time in the hysteresis: fire and clear on consecutive records is
  // legal and must produce exactly one fire and one clear, in that order.
  slo.Record(5'200, 10);
  EXPECT_FALSE(slo.alert_active());
  EXPECT_EQ(slo.alerts_fired(), 1u);
  EXPECT_EQ(slo.alerts_cleared(), 1u);

  std::vector<TraceEventType> slo_events;
  for (const TraceEvent& event : recorder.Events()) {
    if (event.type == TraceEventType::kSloAlertFire ||
        event.type == TraceEventType::kSloAlertClear) {
      slo_events.push_back(event.type);
    }
  }
  ASSERT_EQ(slo_events.size(), 2u);
  EXPECT_EQ(slo_events[0], TraceEventType::kSloAlertFire);
  EXPECT_EQ(slo_events[1], TraceEventType::kSloAlertClear);
}

TEST(SloEvaluatorTest, ClearRequiresBothWindowsBelowThreshold) {
  SloConfig config = SmallSlo();
  config.objective = 0.5;  // budget 0.5
  config.fast_burn_threshold = 1.6;
  config.slow_burn_threshold = 1.0;
  SloEvaluator slo(config);

  // Bucket 0: all bad. fast = (10/10)/0.5 = 2.0 >= 1.6, slow likewise: fire.
  for (int i = 0; i < 10; ++i) {
    slo.Record(i * 50ull, 1'000);
  }
  ASSERT_TRUE(slo.alert_active());

  // Bucket 2000: good traffic. The fast window has rolled past the bad
  // bucket (fast burn 0), but the slow window still sees it: after one good
  // record slow = (10/11)/0.5 = 1.82 >= 1.0, so the alert must HOLD.
  slo.Record(2'000, 10);
  EXPECT_TRUE(slo.alert_active());
  EXPECT_EQ(slo.alerts_cleared(), 0u);
  // Slow drops below 1.0 once good outnumbers bad: at the 11th good record
  // slow = (10/21)/0.5 = 0.95. Only then does the alert clear.
  for (int i = 1; i < 11; ++i) {
    slo.Record(2'000 + i * 10ull, 10);
  }
  EXPECT_FALSE(slo.alert_active());
  EXPECT_EQ(slo.alerts_cleared(), 1u);
  EXPECT_EQ(slo.alerts_fired(), 1u);
}

TEST(SloEvaluatorTest, DisabledEvaluatorRecordsAndChargesNothing) {
  SloConfig config = SmallSlo();
  config.enabled = false;
  SloEvaluator slo(config);
  for (int i = 0; i < 100; ++i) {
    slo.Record(i * 10ull, 1'000'000);
  }
  EXPECT_EQ(slo.total(), 0u);
  EXPECT_EQ(slo.bad(), 0u);
  EXPECT_FALSE(slo.alert_active());
  EXPECT_EQ(slo.TakeUnchargedOverheadCycles(), 0u);
}

TEST(SloEvaluatorTest, OverheadIsPerRecordAndDrainsOnce) {
  SloEvaluator slo(SmallSlo());
  for (int i = 0; i < 5; ++i) {
    slo.Record(i * 10ull, 10);
  }
  EXPECT_EQ(slo.TakeUnchargedOverheadCycles(), 5 * kSloRecordCostCycles);
  EXPECT_EQ(slo.TakeUnchargedOverheadCycles(), 0u);
  slo.Record(100, 10);
  EXPECT_EQ(slo.TakeUnchargedOverheadCycles(), kSloRecordCostCycles);
}

TEST(SloEvaluatorTest, PublishMetricsExportsTheSloFamily) {
  SloEvaluator slo(SmallSlo());
  MetricsRegistry metrics;
  const Labels labels{{"shard", "1"}};
  slo.SetMetrics(&metrics, labels);
  for (int i = 0; i < 8; ++i) {
    slo.Record(i * 100ull, 10);
  }
  slo.Record(900, 1'000);
  slo.PublishMetrics();
  EXPECT_EQ(metrics.GetCounter("yh_slo_requests_total", labels)->value(), 9u);
  EXPECT_EQ(metrics.GetCounter("yh_slo_bad_total", labels)->value(), 1u);
  EXPECT_GT(metrics.GetGauge("yh_slo_burn_rate_fast", labels)->value(), 0.0);
  EXPECT_EQ(metrics.GetGauge("yh_slo_alert_active", labels)->value(), 0.0);
  EXPECT_EQ(metrics.GetCounter("yh_slo_alerts_fired_total", labels)->value(),
            0u);
}

TEST(SloEvaluatorTest, SummaryNamesTheStateHumanly) {
  SloEvaluator slo(SmallSlo());
  slo.Record(100, 1'000);
  const std::string summary = slo.Summary();
  EXPECT_NE(summary.find("1/1 bad"), std::string::npos) << summary;
  EXPECT_NE(summary.find("burn"), std::string::npos);
}

}  // namespace
}  // namespace yieldhide::obs
