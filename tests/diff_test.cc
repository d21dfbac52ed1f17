// Tests for differential attribution (src/obs/diff): epoch-set parsing and
// its named errors, window validation, the window-over-window delta
// arithmetic, site ranking with the dominant-class annotation, the
// CounterPoint-style cause classification (control-plane action vs. workload
// drift vs. the honest "unattributed"), the exemplar join, and the two
// renderers.
//
// The end-to-end pipeline (serving run -> `yhc why`) is covered by
// bench_o4_diagnosis and the CLI tests; here every slice is hand-built so
// each per-epoch delta is computed on paper.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/diff/diff.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/snapshot.h"
#include "src/obs/span/span.h"

namespace yieldhide::obs {
namespace {

Result<EpochSet> Parse(const std::string& spec) { return ParseEpochSet(spec); }

TEST(ParseEpochSetTest, ParsesSinglesRangesAndListsDeduped) {
  EXPECT_EQ(Parse("4").value().epochs, (std::vector<size_t>{4}));
  EXPECT_EQ(Parse("0-3").value().epochs, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(Parse("2,5-7").value().epochs, (std::vector<size_t>{2, 5, 6, 7}));
  // Overlaps collapse: windows are SETS of epochs, not multisets.
  EXPECT_EQ(Parse("1-3,2").value().epochs, (std::vector<size_t>{1, 2, 3}));
}

TEST(ParseEpochSetTest, NamesEachMalformedSpec) {
  EXPECT_NE(Parse("").status().ToString().find("empty epoch range"),
            std::string::npos);
  EXPECT_NE(Parse("1,,3").status().ToString().find("empty epoch range"),
            std::string::npos);
  EXPECT_NE(Parse("x").status().ToString().find("expected N or LO-HI"),
            std::string::npos);
  EXPECT_NE(Parse("1-").status().ToString().find("expected N or LO-HI"),
            std::string::npos);
  EXPECT_NE(Parse("5-2").status().ToString().find("reversed epoch range"),
            std::string::npos);
}

TEST(EpochSetTest, ToStringCollapsesRunsAndContainsIsExact) {
  EpochSet set;
  set.epochs = {0, 1, 2, 4};
  EXPECT_EQ(set.ToString(), "0-2,4");
  EXPECT_TRUE(set.Contains(2));
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(EpochSet{}.ToString(), "(empty)");
}

// Profiler config with the per-site epoch snapshots toggled; the diff
// engine's site ranking needs them, its class ranking does not.
CycleProfilerConfig SnapshotConfig(bool site_snapshots) {
  CycleProfilerConfig config;
  config.epoch_site_snapshots = site_snapshots;
  return config;
}

// Drives four epoch slices into `profiler`: 10 issue cycles per epoch, plus
// (epochs 2-3 only) 100 exposed-stall cycles — the planted regression. No
// binary is bound, so every hook lands on the kExternalSite residue record;
// with site snapshots on, that residue site is the rankable culprit.
void DriveRegression(CycleProfiler& profiler) {
  profiler.OnRunBegin(0);
  for (uint64_t epoch = 0; epoch < 4; ++epoch) {
    profiler.OnStep(/*ip=*/0, /*issue_cycles=*/10,
                    /*wait_cycles=*/epoch >= 2 ? 100 : 0);
    profiler.SnapshotEpoch(epoch, (epoch + 1) * 1'000);
  }
}

TEST(DiffEngineTest, WindowValidationNamesEmptyAndOutOfRange) {
  CycleProfiler profiler(SnapshotConfig(true));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  ASSERT_EQ(engine.epoch_count(), 4u);

  EpochSet empty;
  EpochSet ok = ParseEpochSet("0-1").value();
  EXPECT_NE(engine.Diff(empty, ok).status().ToString().find(
                "baseline window is empty"),
            std::string::npos);
  EXPECT_NE(engine.Diff(ok, empty).status().ToString().find(
                "current window is empty"),
            std::string::npos);
  EpochSet beyond = ParseEpochSet("9").value();
  const Status range = engine.Diff(ok, beyond).status();
  EXPECT_NE(range.ToString().find("epoch 9 out of range"), std::string::npos)
      << range.ToString();
  EXPECT_NE(range.ToString().find("4 epochs"), std::string::npos);
}

TEST(DiffEngineTest, EpochForCycleMapsStampsToCoveringSlices) {
  CycleProfiler profiler(SnapshotConfig(false));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  EXPECT_EQ(engine.EpochForCycle(0, 500).value(), 0u);
  EXPECT_EQ(engine.EpochForCycle(0, 1'000).value(), 0u);  // inclusive end
  EXPECT_EQ(engine.EpochForCycle(0, 1'001).value(), 1u);
  // Beyond the last slice clamps to the last epoch.
  EXPECT_EQ(engine.EpochForCycle(0, 9'999).value(), 3u);
  // A shard with no slices is a named error, not an index crash.
  EXPECT_NE(engine.EpochForCycle(7, 0).status().ToString().find(
                "shard 7 has no epoch slices"),
            std::string::npos);
}

TEST(DiffEngineTest, RanksTheRegressingSiteWithItsDominantClass) {
  CycleProfiler profiler(SnapshotConfig(/*site_snapshots=*/true));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  const DiffReport report = engine.Diff(ParseEpochSet("0-1").value(),
                                        ParseEpochSet("2-3").value())
                                .value();
  // Baseline epochs each accrue 10 issue cycles; current epochs add 100
  // stall cycles on top. Per-epoch totals: 10 vs 110, delta +100.
  EXPECT_DOUBLE_EQ(report.baseline_total_per_epoch, 10.0);
  EXPECT_DOUBLE_EQ(report.current_total_per_epoch, 110.0);
  ASSERT_EQ(report.sites.size(), 1u);
  EXPECT_EQ(report.sites[0].site, kExternalSite);
  EXPECT_DOUBLE_EQ(report.sites[0].delta_per_epoch, 100.0);
  EXPECT_EQ(report.sites[0].dominant, CycleClass::kStallExposed);
  EXPECT_DOUBLE_EQ(report.sites[0].dominant_delta_per_epoch, 100.0);
  // Class ranking mirrors it: stall_exposed on top with the same delta.
  ASSERT_FALSE(report.cycle_classes.empty());
  EXPECT_EQ(report.cycle_classes[0].name, "stall_exposed");
  EXPECT_DOUBLE_EQ(report.cycle_classes[0].delta_per_epoch, 100.0);
  // No control activity and a culprit over the floor: workload drift.
  EXPECT_EQ(report.cause, RegressionCause::kWorkloadDrift);
  EXPECT_TRUE(report.joined.empty());
}

TEST(DiffEngineTest, ClassMovementAloneNamesDriftWhenSiteSnapshotsAreOff) {
  // Default profiler config keeps per-site epoch snapshots off; the diff
  // then has no sites to rank but must still classify the class-level
  // regression as drift instead of shrugging "unattributed".
  CycleProfiler profiler(SnapshotConfig(/*site_snapshots=*/false));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  const DiffReport report = engine.Diff(ParseEpochSet("0-1").value(),
                                        ParseEpochSet("2-3").value())
                                .value();
  EXPECT_TRUE(report.sites.empty());
  EXPECT_EQ(report.cycle_classes[0].name, "stall_exposed");
  EXPECT_EQ(report.cause, RegressionCause::kWorkloadDrift);
}

TEST(DiffEngineTest, ControlPlaneActionInWindowOverridesDrift) {
  CycleProfiler profiler(SnapshotConfig(true));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  ControlEvent rollback;
  rollback.kind = ControlEvent::Kind::kCanaryRollback;
  rollback.epoch = 2;
  rollback.generation_id = 5;
  engine.AddControlEvent(rollback);
  ControlEvent outside;  // falls in the BASELINE window: must not join
  outside.kind = ControlEvent::Kind::kCanaryBegin;
  outside.epoch = 0;
  engine.AddControlEvent(outside);

  const DiffReport report = engine.Diff(ParseEpochSet("0-1").value(),
                                        ParseEpochSet("2-3").value())
                                .value();
  ASSERT_EQ(report.joined.size(), 1u);
  EXPECT_EQ(report.joined[0].kind, ControlEvent::Kind::kCanaryRollback);
  // A guard ACTION inside the current window is self-inflicted interference;
  // it overrides the (also present) site-level drift signal.
  EXPECT_EQ(report.cause, RegressionCause::kControlPlane);
}

TEST(DiffEngineTest, SloAlertsJoinAsSymptomsWithoutFlippingTheCause) {
  CycleProfiler profiler(SnapshotConfig(true));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  ControlEvent alert;
  alert.kind = ControlEvent::Kind::kSloAlertFire;
  alert.epoch = 3;
  engine.AddControlEvent(alert);
  const DiffReport report = engine.Diff(ParseEpochSet("0-1").value(),
                                        ParseEpochSet("2-3").value())
                                .value();
  // The alert appears in the join (it is evidence)...
  ASSERT_EQ(report.joined.size(), 1u);
  EXPECT_EQ(report.joined[0].kind, ControlEvent::Kind::kSloAlertFire);
  EXPECT_FALSE(IsControlPlaneAction(report.joined[0].kind));
  // ...but a symptom cannot make the regression "control-plane-induced".
  EXPECT_EQ(report.cause, RegressionCause::kWorkloadDrift);
}

TEST(DiffEngineTest, FlatWindowsAreHonestlyUnattributed) {
  CycleProfiler profiler(SnapshotConfig(true));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  // Epochs 0 and 1 are identical (10 issue cycles each): nothing regressed,
  // nothing to blame.
  const DiffReport report =
      engine.Diff(ParseEpochSet("0").value(), ParseEpochSet("1").value())
          .value();
  EXPECT_TRUE(report.sites.empty());
  EXPECT_EQ(report.cause, RegressionCause::kUnattributed);
}

TEST(DiffEngineTest, SpanFeedRanksRequestClassesPerEpoch) {
  // Span-only shard (no profiler): the diff still ranks the 17 request
  // classes window-over-window from the collector's cumulative slices.
  SpanCollector spans;
  spans.OnAdmit(1, 0, 0, 0);
  spans.OnDispatchPrimary(1, 0);
  spans.OnPrimaryTaskStart(0);
  spans.OnPrimaryTaskEnd(100);  // 100 cycles of scheduler residue
  spans.OnHarvest(1, 100, 100);
  spans.SnapshotEpoch(0, 100);
  spans.OnAdmit(2, 100, 100, 100);
  spans.OnDispatchPrimary(2, 100);
  spans.OnPrimaryTaskStart(100);
  spans.OnPrimaryStep(/*issue_cycles=*/0, /*wait_cycles=*/300);
  spans.OnPrimaryTaskEnd(400);
  spans.OnHarvest(2, 400, 400);
  spans.SnapshotEpoch(1, 400);

  DiffEngine engine;
  engine.AddShard(nullptr, &spans);
  EXPECT_EQ(engine.epoch_count(), 2u);
  const DiffReport report =
      engine.Diff(ParseEpochSet("0").value(), ParseEpochSet("1").value())
          .value();
  ASSERT_FALSE(report.span_classes.empty());
  EXPECT_EQ(report.span_classes[0].name, "stall_exposed");
  EXPECT_DOUBLE_EQ(report.span_classes[0].delta_per_epoch, 300.0);
}

TEST(DiffEngineTest, SupportingExemplarsFilterByWindowAndRankByLatency) {
  ExemplarReservoir reservoir;
  auto offer = [&reservoir](uint64_t id, uint64_t latency, uint64_t epoch) {
    RequestSpan span;
    span.id = id;
    span.arrival_cycle = 0;
    span.complete_cycle = latency;
    span.classes[static_cast<size_t>(SpanClass::kExecPrimary)] = latency;
    reservoir.SetContext(/*generation_id=*/1, epoch, /*quarantined=*/false);
    reservoir.Offer(span);
  };
  offer(1, 100, /*epoch=*/1);
  offer(2, 300, /*epoch=*/2);
  offer(3, 200, /*epoch=*/2);
  offer(4, 900, /*epoch=*/5);  // outside the current window

  const EpochSet current = ParseEpochSet("1-2").value();
  const std::vector<const ExemplarReservoir*> shards = {&reservoir};
  std::vector<Exemplar> supporting =
      SupportingExemplars(shards, current, /*max_exemplars=*/10);
  ASSERT_EQ(supporting.size(), 3u);
  EXPECT_EQ(supporting[0].span.id, 2u);  // 300
  EXPECT_EQ(supporting[1].span.id, 3u);  // 200
  EXPECT_EQ(supporting[2].span.id, 1u);  // 100
  // The cap keeps the slowest, not the first found.
  supporting = SupportingExemplars(shards, current, /*max_exemplars=*/1);
  ASSERT_EQ(supporting.size(), 1u);
  EXPECT_EQ(supporting[0].span.id, 2u);
}

TEST(DiffRenderTest, TextAndJsonCarryTheDiagnosis) {
  CycleProfiler profiler(SnapshotConfig(true));
  DriveRegression(profiler);
  DiffEngine engine;
  engine.AddShard(&profiler, nullptr);
  ControlEvent rollback;
  rollback.kind = ControlEvent::Kind::kCanaryRollback;
  rollback.epoch = 3;
  rollback.generation_id = 2;
  engine.AddControlEvent(rollback);
  const DiffReport report = engine.Diff(ParseEpochSet("0-1").value(),
                                        ParseEpochSet("2-3").value())
                                .value();

  const std::string text = ToDiffText(report, {});
  EXPECT_NE(text.find("cause: control-plane-induced"), std::string::npos)
      << text;
  EXPECT_NE(text.find("baseline epochs 0-1"), std::string::npos);
  EXPECT_NE(text.find("external"), std::string::npos);
  EXPECT_NE(text.find("canary_rollback"), std::string::npos);
  EXPECT_NE(text.find("(generation 2)"), std::string::npos);
  EXPECT_NE(text.find("supporting exemplars: none"), std::string::npos);

  const std::string json = ToDiffJson(report, {});
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"cause\": \"control-plane-induced\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\": \"canary_rollback\""), std::string::npos);
  EXPECT_NE(json.find("\"site\": \"external\""), std::string::npos);
}

TEST(DiffNamesTest, CauseAndEventKindNamesAreStable) {
  EXPECT_STREQ(RegressionCauseName(RegressionCause::kControlPlane),
               "control-plane-induced");
  EXPECT_STREQ(RegressionCauseName(RegressionCause::kWorkloadDrift),
               "workload-drift");
  EXPECT_STREQ(RegressionCauseName(RegressionCause::kUnattributed),
               "unattributed");
  EXPECT_STREQ(ControlEventKindName(ControlEvent::Kind::kCanaryRollback),
               "canary_rollback");
  EXPECT_STREQ(ControlEventKindName(ControlEvent::Kind::kSloAlertClear),
               "slo_alert_clear");
  EXPECT_TRUE(IsControlPlaneAction(ControlEvent::Kind::kWatchdogFire));
  EXPECT_FALSE(IsControlPlaneAction(ControlEvent::Kind::kSloAlertFire));
}

}  // namespace
}  // namespace yieldhide::obs
