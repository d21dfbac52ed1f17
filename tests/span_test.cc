// Tests for request-scoped span attribution (src/obs/span): the exact-sum
// invariant on hand-driven hook sequences, freeze-window re-attribution,
// requeue bookkeeping, scavenger context reuse, anomaly detection, overhead
// modeling, and the three exports (`yhc spans --top|--json|--perfetto`).
//
// The end-to-end front-end/scheduler wiring is covered by bench_o3_spans and
// the CLI tests; here the hooks are driven directly so every attributed
// cycle is computed by hand.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/snapshot.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"

namespace yieldhide::obs {
namespace {

size_t Idx(SpanClass cls) { return static_cast<size_t>(cls); }

// Runs one request down the primary path with hand-picked stamps; every
// class total below is derived on paper from the hook contract.
void DrivePrimaryRequest(SpanCollector& spans, uint64_t id) {
  spans.OnAdmit(id, /*arrival=*/0, /*ingress_begin=*/10, /*ingress_end=*/25);
  spans.OnDispatchPrimary(id, /*now=*/40);
  spans.OnPrimaryTaskStart(/*now=*/60);
  spans.OnPrimaryStep(/*issue_cycles=*/30, /*wait_cycles=*/50);
  spans.OnPrimarySwitch(/*cost_cycles=*/5);
  spans.OnPrimaryBurst(/*duration_cycles=*/40, /*useful=*/true);
  spans.OnPrimaryBurst(/*duration_cycles=*/12, /*useful=*/false);
  spans.OnPrimaryTaskEnd(/*now=*/220);
  spans.OnHarvest(id, /*egress_begin=*/240, /*egress_end=*/260);
}

TEST(SpanCollectorTest, PrimaryPathAttributesEveryCycleExactly) {
  SpanCollector spans;
  DrivePrimaryRequest(spans, /*id=*/42);

  ASSERT_EQ(spans.completed_count(), 1u);
  ASSERT_EQ(spans.active_count(), 0u);
  const RequestSpan& s = spans.completed()[0];
  EXPECT_EQ(s.id, 42u);
  EXPECT_EQ(s.latency(), 260u);
  EXPECT_FALSE(s.scavenged);
  EXPECT_EQ(s.requeues, 0u);

  EXPECT_EQ(s.classes[Idx(SpanClass::kIngressWait)], 10u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kIngress)], 15u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kQueueWait)], 15u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kDispatchWait)], 20u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kExecPrimary)], 30u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kStallExposed)], 50u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kSwitch)], 5u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kStallHidden)], 40u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kBurstBlown)], 12u);
  // The execution segment spans 60..220 = 160 cycles; the counters claim
  // 137, so 23 cycles of in-task bookkeeping fall to the residue class.
  EXPECT_EQ(s.classes[Idx(SpanClass::kSchedResidue)], 23u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kHarvestWait)], 20u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kEgress)], 20u);

  EXPECT_EQ(s.ClassSum(), s.latency());
  EXPECT_EQ(s.DominantClass(), SpanClass::kStallExposed);
  EXPECT_TRUE(spans.VerifyExactness().ok()) << spans.VerifyExactness();
}

TEST(SpanCollectorTest, ControlWindowReattributesWaitToFreeze) {
  SpanCollector spans;
  spans.OnAdmit(1, 0, 0, 0);
  // The window [10, 30) overlaps the queue wait [0, 50): those 20 cycles are
  // the control plane's fault, not the queue's.
  spans.BeginControlWindow(10);
  spans.EndControlWindow(30);
  spans.OnDispatchPrimary(1, 50);
  spans.OnPrimaryTaskStart(50);
  spans.OnPrimaryTaskEnd(50);
  spans.OnHarvest(1, 50, 50);

  ASSERT_EQ(spans.completed_count(), 1u);
  const RequestSpan& s = spans.completed()[0];
  EXPECT_EQ(s.classes[Idx(SpanClass::kQueueWait)], 30u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kFreeze)], 20u);
  EXPECT_EQ(s.ClassSum(), 50u);
  EXPECT_TRUE(spans.VerifyExactness().ok());
}

TEST(SpanCollectorTest, OpenControlWindowFreezesUntilObserved) {
  SpanCollector spans;
  spans.OnAdmit(1, 0, 0, 0);
  spans.BeginControlWindow(10);  // never closed
  spans.OnDispatchPrimary(1, 50);
  spans.OnPrimaryTaskStart(50);
  spans.OnPrimaryTaskEnd(50);
  spans.OnHarvest(1, 50, 50);

  const RequestSpan& s = spans.completed()[0];
  EXPECT_EQ(s.classes[Idx(SpanClass::kQueueWait)], 10u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kFreeze)], 40u);
  EXPECT_TRUE(spans.VerifyExactness().ok());
}

TEST(SpanCollectorTest, RequeuedScavengerRequestStaysExact) {
  SpanCollector spans;
  spans.OnAdmit(7, 0, 0, 0);
  spans.OnScavengerBind(/*ctx=*/3, 7, /*now=*/10);
  spans.OnScavengerStep(3, /*issue=*/4, /*wait=*/6);
  // A swap retires the scavenger mid-flight; the request goes back to the
  // queue and is later served by a different context.
  spans.OnRequeue(3, /*now=*/40);
  spans.OnScavengerBind(/*ctx=*/2, 7, /*now=*/70);
  spans.OnScavengerStep(2, 5, 5);
  spans.OnScavengerDone(2, /*now=*/90);
  spans.OnHarvest(7, 100, 110);

  ASSERT_EQ(spans.completed_count(), 1u);
  const RequestSpan& s = spans.completed()[0];
  EXPECT_TRUE(s.scavenged);
  EXPECT_EQ(s.requeues, 1u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kQueueWait)], 10u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kScavExec)], 9u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kScavStall)], 11u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kScavengerWait)], 30u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kRequeue)], 30u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kHarvestWait)], 10u);
  EXPECT_EQ(s.classes[Idx(SpanClass::kEgress)], 10u);
  EXPECT_EQ(s.ClassSum(), s.latency());
  EXPECT_TRUE(spans.VerifyExactness().ok()) << spans.VerifyExactness();
}

TEST(SpanCollectorTest, ScavengerContextReuseKeepsRequestsSeparate) {
  SpanCollector spans;
  spans.OnAdmit(1, 0, 0, 0);
  spans.OnAdmit(2, 0, 0, 0);
  // Context 5 serves request 1, completes, and is reused for request 2; the
  // per-ctx fast path must not bleed steps across the rebind.
  spans.OnScavengerBind(5, 1, 10);
  spans.OnScavengerStep(5, 8, 2);
  spans.OnScavengerDone(5, 20);
  spans.OnScavengerBind(5, 2, 30);
  spans.OnScavengerStep(5, 3, 7);
  spans.OnScavengerDone(5, 40);
  // Steps on a context nothing is bound to are ignored, not misattributed.
  spans.OnScavengerStep(9, 100, 100);
  spans.OnHarvest(1, 50, 50);
  spans.OnHarvest(2, 60, 60);

  ASSERT_EQ(spans.completed_count(), 2u);
  const RequestSpan& first = spans.completed()[0];
  const RequestSpan& second = spans.completed()[1];
  EXPECT_EQ(first.classes[Idx(SpanClass::kScavExec)], 8u);
  EXPECT_EQ(first.classes[Idx(SpanClass::kScavStall)], 2u);
  EXPECT_EQ(second.classes[Idx(SpanClass::kScavExec)], 3u);
  EXPECT_EQ(second.classes[Idx(SpanClass::kScavStall)], 7u);
  EXPECT_TRUE(spans.VerifyExactness().ok()) << spans.VerifyExactness();
}

TEST(SpanCollectorTest, StepSumsAboveFourBillionCyclesKeepEveryCycle) {
  // A run between yields hands over its summed cycles at once; a scavenger
  // that runs 2^32 cycles without yielding must not wrap them.
  constexpr uint64_t kIssue = (uint64_t{1} << 32) + 7;
  constexpr uint64_t kWait = (uint64_t{1} << 33) + 3;
  SpanCollector spans;
  spans.OnAdmit(1, 0, 0, 0);
  spans.OnScavengerBind(/*ctx=*/4, 1, /*now=*/0);
  spans.OnScavengerStep(4, kIssue, kWait);
  spans.OnScavengerDone(4, /*now=*/kIssue + kWait);
  spans.OnHarvest(1, kIssue + kWait, kIssue + kWait);
  spans.OnAdmit(2, 0, 0, 0);
  spans.OnDispatchPrimary(2, 0);
  spans.OnPrimaryTaskStart(0);
  spans.OnPrimaryStep(kIssue, kWait);
  spans.OnPrimaryTaskEnd(kIssue + kWait);
  spans.OnHarvest(2, kIssue + kWait, kIssue + kWait);

  ASSERT_EQ(spans.completed_count(), 2u);
  const uint64_t* totals = spans.class_totals();
  EXPECT_EQ(totals[Idx(SpanClass::kScavExec)], kIssue);
  EXPECT_EQ(totals[Idx(SpanClass::kScavStall)], kWait);
  EXPECT_EQ(totals[Idx(SpanClass::kExecPrimary)], kIssue);
  EXPECT_EQ(totals[Idx(SpanClass::kStallExposed)], kWait);
  EXPECT_TRUE(spans.VerifyExactness().ok()) << spans.VerifyExactness();
}

TEST(SpanCollectorTest, CounterOvershootIsAnAnomalyNotASilentLie) {
  SpanCollector spans;
  spans.OnAdmit(9, 0, 0, 0);
  spans.OnDispatchPrimary(9, 0);
  spans.OnPrimaryTaskStart(0);
  // The hooks claim 100 issue cycles inside a 10-cycle segment: exactness is
  // broken and must be reported, never papered over.
  spans.OnPrimaryStep(100, 0);
  spans.OnPrimaryTaskEnd(10);
  const Status exact = spans.VerifyExactness();
  EXPECT_FALSE(exact.ok());
  EXPECT_NE(exact.ToString().find("anomal"), std::string::npos)
      << exact.ToString();
}

TEST(SpanCollectorTest, DisabledCollectorRecordsAndChargesNothing) {
  SpanCollectorConfig config;
  config.enabled = false;
  SpanCollector spans(config);
  DrivePrimaryRequest(spans, 1);
  spans.BeginControlWindow(5);
  EXPECT_EQ(spans.completed_count(), 0u);
  EXPECT_EQ(spans.active_count(), 0u);
  EXPECT_EQ(spans.TakeUnchargedOverheadCycles(), 0u);
}

TEST(SpanCollectorTest, OverheadIsPerTransitionAndDrainsOnce) {
  SpanCollector spans;
  // Primary path: admit, dispatch, task start, task end, harvest = 5
  // transitions. Per-step hooks never count.
  DrivePrimaryRequest(spans, 1);
  EXPECT_EQ(spans.TakeUnchargedOverheadCycles(), 5u * kSpanEventCostCycles);
  EXPECT_EQ(spans.TakeUnchargedOverheadCycles(), 0u);
}

TEST(SpanCollectorTest, AggregateTotalsFoldInFlightCounters) {
  SpanCollector spans;
  spans.OnAdmit(1, 0, 0, 0);
  spans.OnDispatchPrimary(1, 10);
  spans.OnPrimaryTaskStart(20);
  spans.OnPrimaryStep(30, 50);  // still executing: segment is open

  uint64_t closed[kNumSpanClasses];
  spans.AggregateTotals(closed, /*include_active=*/false);
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    EXPECT_EQ(closed[i], 0u) << SpanClassName(static_cast<SpanClass>(i));
  }
  uint64_t live[kNumSpanClasses];
  spans.AggregateTotals(live, /*include_active=*/true);
  EXPECT_EQ(live[Idx(SpanClass::kQueueWait)], 10u);
  EXPECT_EQ(live[Idx(SpanClass::kDispatchWait)], 10u);
  EXPECT_EQ(live[Idx(SpanClass::kExecPrimary)], 30u);
  EXPECT_EQ(live[Idx(SpanClass::kStallExposed)], 50u);
  EXPECT_EQ(spans.active_count(), 1u);
}

TEST(SpanCollectorTest, CompletedRetentionCapsRecordsNotAggregates) {
  SpanCollectorConfig config;
  config.max_records = 1;
  SpanCollector spans(config);
  DrivePrimaryRequest(spans, 1);
  DrivePrimaryRequest(spans, 2);
  EXPECT_EQ(spans.completed().size(), 1u);
  EXPECT_EQ(spans.completed_count(), 2u);
  uint64_t totals[kNumSpanClasses];
  spans.AggregateTotals(totals, /*include_active=*/false);
  EXPECT_EQ(totals[Idx(SpanClass::kExecPrimary)], 2u * 30u);
}

// --- exports ----------------------------------------------------------------

TEST(SpanExportTest, TopTableAndJsonCarryTheBreakdown) {
  SpanCollector spans;
  DrivePrimaryRequest(spans, 42);
  const std::vector<const SpanCollector*> shards = {&spans};

  const std::string table = ToSpanTopTable(shards, 10);
  EXPECT_NE(table.find("1 completed requests"), std::string::npos) << table;
  EXPECT_NE(table.find("stall_exposed"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);

  const std::string json = ToSpanJson(shards);
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"latency\": 260"), std::string::npos);
  EXPECT_NE(json.find("\"exec_primary\": 30"), std::string::npos);
  EXPECT_NE(json.find("\"completed\": 1"), std::string::npos);
}

TEST(SpanExportTest, PerfettoRendersMirroredPhaseStreamAsTracks) {
  TraceRecorder recorder;  // default mask includes kTraceSpan
  SpanCollector spans;
  spans.SetTrace(&recorder);
  DrivePrimaryRequest(spans, 42);

  const std::string json = ToPerfettoSpanJson(recorder.Events(),
                                              /*cycles_per_ns=*/1.0);
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
  // Phase slices close each other: queue_wait -> exec_primary ->
  // harvest_wait, then the completion instant.
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"exec_primary\""), std::string::npos);
  EXPECT_NE(json.find("\"harvest_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 1"), std::string::npos);
}

TEST(SpanExportTest, ClassNamesAreUniqueAndCoverTheEnum) {
  std::vector<std::string> names;
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    names.emplace_back(SpanClassName(static_cast<SpanClass>(i)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_NE(names[i], "unknown") << i;
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace yieldhide::obs
