#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/exemplar/exemplar.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"

namespace yieldhide::obs {
namespace {

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorderTest, RecordsInOrder) {
  TraceRecorder recorder;
  recorder.Record(TraceEventType::kYieldHidden, 100, 0, 0x2a, 0);
  recorder.Record(TraceEventType::kYieldBlown, 250, 1, 0x30, 0);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kYieldHidden);
  EXPECT_EQ(events[0].cycle, 100u);
  EXPECT_EQ(events[0].ip, 0x2au);
  EXPECT_EQ(events[1].type, TraceEventType::kYieldBlown);
  EXPECT_EQ(events[1].ctx_id, 1);
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.overwritten(), 0u);
}

TEST(TraceRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  TraceConfig config;
  config.capacity = 100;
  TraceRecorder recorder(config);
  EXPECT_EQ(recorder.capacity(), 128u);
}

TEST(TraceRecorderTest, RingKeepsNewestEvents) {
  TraceConfig config;
  config.capacity = 4;
  TraceRecorder recorder(config);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(TraceEventType::kCoroSwitch, i, 0, 0, i);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first suffix of the stream: args 6, 7, 8, 9.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 6 + i);
  }
}

TEST(TraceRecorderTest, MaskGatesShouldRecord) {
  TraceConfig config;
  config.mask = kTraceYield | kTraceSwap;
  TraceRecorder recorder(config);
  EXPECT_TRUE(recorder.ShouldRecord(kTraceYield));
  EXPECT_TRUE(recorder.ShouldRecord(kTraceSwap));
  EXPECT_FALSE(recorder.ShouldRecord(kTracePmu));
  EXPECT_FALSE(recorder.ShouldRecord(kTraceSched));
}

TEST(TraceRecorderTest, EmitGatesOnTheTypesCategory) {
  for (size_t i = 0; i < kTraceEventTypeCount; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    SCOPED_TRACE(TraceEventTypeName(type));
    const TraceCategory category = TraceEventCategory(type);
    TraceConfig only;
    only.mask = category;
    TraceRecorder with(only);
    TraceEmit(&with, type, 100, 1, 0x2a, 7);
    const auto events = with.Events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, type);
    EXPECT_EQ(events[0].cycle, 100u);
    EXPECT_EQ(events[0].ctx_id, 1);
    EXPECT_EQ(events[0].ip, 0x2au);
    EXPECT_EQ(events[0].arg, 7u);
    TraceConfig lacking;
    lacking.mask = kTraceAllCategories & ~category;
    TraceRecorder without(lacking);
    TraceEmit(&without, type, 100, 1, 0x2a, 7);
    EXPECT_EQ(without.recorded(), 0u);
    TraceEmit(nullptr, type, 100, 1, 0x2a, 7);  // no recorder: a no-op
  }
  // The default mask records yields but not per-sample PMU events.
  TraceRecorder defaults;
  TraceEmit(&defaults, TraceEventType::kYieldHidden, 1, 0, 0, 0);
  TraceEmit(&defaults, TraceEventType::kPmuSample, 2, 0, 0, 0);
  ASSERT_EQ(defaults.recorded(), 1u);
  EXPECT_EQ(defaults.Events()[0].type, TraceEventType::kYieldHidden);
}

TEST(TraceRecorderTest, OverheadChargedOnce) {
  TraceRecorder recorder(TraceConfig{});
  recorder.Record(TraceEventType::kCoroSwitch, 1, 0, 0, 0);
  recorder.Record(TraceEventType::kCoroSwitch, 2, 0, 0, 0);
  EXPECT_EQ(recorder.TotalOverheadCycles(), 2 * kTraceRecordCostCycles);
  EXPECT_EQ(recorder.TakeUnchargedOverheadCycles(), 2 * kTraceRecordCostCycles);
  // Already taken: nothing new to charge.
  EXPECT_EQ(recorder.TakeUnchargedOverheadCycles(), 0u);
  recorder.Record(TraceEventType::kCoroSwitch, 3, 0, 0, 0);
  EXPECT_EQ(recorder.TakeUnchargedOverheadCycles(), kTraceRecordCostCycles);
}

TEST(TraceRecorderTest, EventCategoriesMatchTypes) {
  EXPECT_EQ(TraceEventCategory(TraceEventType::kYieldHidden), kTraceYield);
  EXPECT_EQ(TraceEventCategory(TraceEventType::kYieldBlown), kTraceYield);
  EXPECT_EQ(TraceEventCategory(TraceEventType::kSwapCommit), kTraceSwap);
  EXPECT_EQ(TraceEventCategory(TraceEventType::kPmuSample), kTracePmu);
  EXPECT_EQ(TraceEventCategory(TraceEventType::kQuarantineEnter),
            kTraceQuarantine);
}

TEST(ChromeTraceTest, ExportIsValidJsonWithEvents) {
  TraceRecorder recorder;
  recorder.Record(TraceEventType::kCoroSwitch, 100, 0, 0, 12);
  recorder.Record(TraceEventType::kYieldHidden, 200, 0, 0x2a, 300);
  recorder.Record(TraceEventType::kDriftUpdate, 300, 0, 0, 250'000);
  recorder.Record(TraceEventType::kSwapCommit, 400, 0, 0, 1);
  const std::string json = ToChromeTraceJson(recorder, 2.0);
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("yield_hidden"), std::string::npos);
  EXPECT_NE(json.find("swap_commit"), std::string::npos);
}

TEST(ChromeTraceTest, EmptyRecorderStillValid) {
  TraceRecorder recorder;
  const std::string json = ToChromeTraceJson(recorder, 2.0);
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
}

// --- Chrome trace-event exports: the canary track ------------------------------

// A guard timeline with both canary verdicts, a watchdog fire, and span, sched
// and drift events in between, for the byte-exact export tests below.
std::vector<TraceEvent> CanaryStream() {
  auto event = [](TraceEventType type, uint64_t cycle, int32_t ctx_id,
                  uint64_t ip, uint64_t arg) {
    TraceEvent e;
    e.type = type;
    e.cycle = cycle;
    e.ctx_id = ctx_id;
    e.ip = ip;
    e.arg = arg;
    return e;
  };
  return {
      event(TraceEventType::kSpanBegin, 500, 0, 7, 2),
      event(TraceEventType::kCanaryBegin, 1000, 1, 0, 2),
      event(TraceEventType::kCoroSwitch, 1500, 0, 0x2a, 24),
      event(TraceEventType::kSpanBegin, 2000, 0, 7, 4),
      event(TraceEventType::kCanaryPromote, 3000, 1, 0, 2),
      event(TraceEventType::kSpanEnd, 3500, 0, 7, 3000),
      event(TraceEventType::kCanaryBegin, 4000, 0, 0, 3),
      event(TraceEventType::kDriftUpdate, 4500, 0, 0, 250000),
      event(TraceEventType::kCanaryRollback, 6000, 0, 0, 3),
      event(TraceEventType::kWatchdogFire, 7000, 1, 0, 0),
  };
}

TEST(TraceExportTest, ChromeTraceRendersCanaryWindows) {
  TraceConfig config;
  config.mask = kTraceAllCategories;
  TraceRecorder recorder(config);
  for (const TraceEvent& e : CanaryStream()) {
    recorder.Record(e.type, e.cycle, e.ctx_id, e.ip, e.arg);
  }
  EXPECT_EQ(ToChromeTraceJson(recorder, 2.0),
            R"json({"displayTimeUnit": "ns", "traceEvents": [
  {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "yieldhide"}},
  {"ph": "M", "pid": 0, "tid": 2147483647, "name": "thread_name", "args": {"name": "control-plane"}},
  {"ph": "i", "s": "t", "name": "span_begin", "cat": "span", "ts": 0.250, "pid": 0, "tid": 0, "args": {"site": 7, "arg": 2, "cycle": 500}},
  {"ph": "i", "s": "t", "name": "canary_begin", "cat": "guard", "ts": 0.500, "pid": 0, "tid": 1, "args": {"site": 0, "arg": 2, "cycle": 1000}},
  {"ph": "X", "name": "coro_switch", "cat": "sched", "ts": 0.750, "dur": 0.012, "pid": 0, "tid": 0, "args": {"site": 42, "cycle": 1500}},
  {"ph": "i", "s": "t", "name": "span_begin", "cat": "span", "ts": 1.000, "pid": 0, "tid": 0, "args": {"site": 7, "arg": 4, "cycle": 2000}},
  {"ph": "X", "name": "canary gen 2 (promote)", "cat": "guard", "ts": 0.500, "dur": 1.000, "pid": 0, "tid": 2147483647, "args": {"generation": 2, "verdict": "promote"}},
  {"ph": "i", "s": "t", "name": "canary_promote", "cat": "guard", "ts": 1.500, "pid": 0, "tid": 1, "args": {"site": 0, "arg": 2, "cycle": 3000}},
  {"ph": "i", "s": "t", "name": "span_end", "cat": "span", "ts": 1.750, "pid": 0, "tid": 0, "args": {"site": 7, "arg": 3000, "cycle": 3500}},
  {"ph": "i", "s": "t", "name": "canary_begin", "cat": "guard", "ts": 2.000, "pid": 0, "tid": 0, "args": {"site": 0, "arg": 3, "cycle": 4000}},
  {"ph": "C", "name": "drift_score", "cat": "drift", "ts": 2.250, "pid": 0, "args": {"score": 0.250000}},
  {"ph": "X", "name": "canary gen 3 (rollback)", "cat": "guard", "ts": 2.000, "dur": 1.000, "pid": 0, "tid": 2147483647, "args": {"generation": 3, "verdict": "rollback"}},
  {"ph": "i", "s": "t", "name": "canary_rollback", "cat": "guard", "ts": 3.000, "pid": 0, "tid": 0, "args": {"site": 0, "arg": 3, "cycle": 6000}},
  {"ph": "i", "s": "t", "name": "watchdog_fire", "cat": "guard", "ts": 3.500, "pid": 0, "tid": 1, "args": {"site": 0, "arg": 0, "cycle": 7000}}
], "otherData": {"recorded": 10, "overwritten": 0}}
)json");
}

TEST(TraceExportTest, PerfettoSpansRenderCanaryWindowsAndGuardInstants) {
  EXPECT_EQ(ToPerfettoSpanJson(CanaryStream(), 2.0),
            R"json({"displayTimeUnit": "ns", "traceEvents": [
  {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "yieldhide spans"}},
  {"ph": "M", "pid": 0, "tid": 2147483647, "name": "thread_name", "args": {"name": "control-plane"}},
  {"ph": "X", "name": "queue_wait", "cat": "span", "ts": 0.250, "dur": 0.750, "pid": 0, "tid": 7, "args": {"req": 7, "cycle": 500}},
  {"ph": "X", "name": "canary gen 2 (promote)", "cat": "guard", "ts": 0.500, "dur": 1.000, "pid": 0, "tid": 2147483647, "args": {"generation": 2, "verdict": "promote"}},
  {"ph": "X", "name": "exec_primary", "cat": "span", "ts": 1.000, "dur": 0.750, "pid": 0, "tid": 7, "args": {"req": 7, "cycle": 2000}},
  {"ph": "i", "s": "t", "name": "complete", "cat": "span", "ts": 1.750, "pid": 0, "tid": 7, "args": {"req": 7, "latency": 3000}},
  {"ph": "X", "name": "canary gen 3 (rollback)", "cat": "guard", "ts": 2.000, "dur": 1.000, "pid": 0, "tid": 2147483647, "args": {"generation": 3, "verdict": "rollback"}},
  {"ph": "i", "s": "g", "name": "rollback", "cat": "guard", "ts": 3.000, "pid": 0, "tid": 2147483647, "args": {"generation": 3}},
  {"ph": "i", "s": "g", "name": "watchdog", "cat": "guard", "ts": 3.500, "pid": 0, "tid": 2147483647, "args": {"shard": 1}}
], "otherData": {"requests": 1}}
)json");
}

RequestSpan ExemplarSpan(uint64_t id, uint64_t arrival, uint64_t exec,
                         uint64_t wait) {
  RequestSpan span;
  span.id = id;
  span.arrival_cycle = arrival;
  span.complete_cycle = arrival + exec + wait;
  span.classes[static_cast<size_t>(SpanClass::kQueueWait)] = wait;
  span.classes[static_cast<size_t>(SpanClass::kExecPrimary)] = exec;
  return span;
}

TEST(TraceExportTest, PerfettoExemplarsLayOutTwoShards) {
  ExemplarReservoir first;
  ExemplarReservoir second;
  first.SetContext(1, 4, false);
  first.Offer(ExemplarSpan(0x100000005ull, 100, 300, 50));
  first.Offer(ExemplarSpan(3, 200, 120, 0));
  second.SetContext(2, 5, true);
  second.Offer(ExemplarSpan(0x200000009ull, 1000, 80, 400));
  EXPECT_EQ(ToPerfettoExemplarJson({&first, &second}, 2.0),
            R"json({"displayTimeUnit": "ns", "traceEvents": [
  {"ph": "M", "pid": 0, "name": "process_name", "args": {"name": "yieldhide tail exemplars"}},
  {"ph": "X", "name": "queue_wait", "cat": "exemplar", "ts": 0.050, "dur": 0.025, "pid": 0, "tid": 4, "args": {"req": 4294967301, "window": 0, "generation": 1, "epoch": 4}},
  {"ph": "X", "name": "exec_primary", "cat": "exemplar", "ts": 0.075, "dur": 0.150, "pid": 0, "tid": 4, "args": {"req": 4294967301, "window": 0, "generation": 1, "epoch": 4}},
  {"ph": "X", "name": "exec_primary", "cat": "exemplar", "ts": 0.100, "dur": 0.060, "pid": 0, "tid": 3, "args": {"req": 3, "window": 0, "generation": 1, "epoch": 4}},
  {"ph": "X", "name": "queue_wait", "cat": "exemplar", "ts": 0.500, "dur": 0.200, "pid": 0, "tid": 11, "args": {"req": 8589934601, "window": 0, "generation": 2, "epoch": 5}},
  {"ph": "X", "name": "exec_primary", "cat": "exemplar", "ts": 0.700, "dur": 0.040, "pid": 0, "tid": 11, "args": {"req": 8589934601, "window": 0, "generation": 2, "epoch": 5}}
], "otherData": {"exemplars": 3}}
)json");
}

// --- TraceRecorder streaming drain -------------------------------------------

TEST(TraceSinkTest, DeliversEveryEventExactlyOnceAcrossWraps) {
  TraceConfig config;
  config.capacity = 8;
  TraceRecorder recorder(config);
  std::vector<uint64_t> seen;
  recorder.SetSink([&seen](const TraceEvent& event) { seen.push_back(event.arg); });
  ASSERT_TRUE(recorder.has_sink());
  // 4x the ring: at least three full wraparounds, each event tagged with its
  // sequence number so ordering and exactly-once are both checkable.
  const uint64_t total = 4 * recorder.capacity();
  for (uint64_t i = 0; i < total; ++i) {
    recorder.Record(TraceEventType::kCoroSwitch, i, 0, 0x10, i);
  }
  recorder.DrainToSink();
  EXPECT_EQ(recorder.drained(), total);
  EXPECT_EQ(recorder.overwritten(), 0u) << "sink must beat overwrite";
  ASSERT_EQ(seen.size(), total);
  for (uint64_t i = 0; i < total; ++i) {
    EXPECT_EQ(seen[i], i) << "event " << i << " lost, duplicated, or reordered";
  }
}

TEST(TraceSinkTest, FlushOnHalfFullByDefault) {
  TraceConfig config;
  config.capacity = 8;
  TraceRecorder recorder(config);
  uint64_t delivered = 0;
  recorder.SetSink([&delivered](const TraceEvent&) { ++delivered; });
  for (int i = 0; i < 3; ++i) {  // below capacity/2: nothing flushes yet
    recorder.Record(TraceEventType::kCoroSwitch, i, 0, 0, 0);
  }
  EXPECT_EQ(delivered, 0u);
  recorder.Record(TraceEventType::kCoroSwitch, 3, 0, 0, 0);  // backlog hits 4
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(recorder.drained(), 4u);
}

TEST(TraceSinkTest, PostDrainExportContainsOnlyUndrainedEvents) {
  TraceConfig config;
  config.capacity = 16;
  TraceRecorder recorder(config);
  uint64_t delivered = 0;
  // Explicit threshold larger than the test's writes: only manual drains.
  recorder.SetSink([&delivered](const TraceEvent&) { ++delivered; }, 16);
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Record(TraceEventType::kYieldHidden, i, 0, 0x2a, i);
  }
  recorder.DrainToSink();
  EXPECT_EQ(delivered, 5u);
  EXPECT_TRUE(recorder.Events().empty()) << "drained events must not re-export";
  recorder.Record(TraceEventType::kYieldBlown, 10, 0, 0x30, 100);
  recorder.Record(TraceEventType::kYieldBlown, 11, 0, 0x30, 101);
  const auto events = recorder.Events();
  ASSERT_EQ(events.size(), 2u) << "export = undrained tail only, no duplicates";
  EXPECT_EQ(events[0].arg, 100u);
  EXPECT_EQ(events[1].arg, 101u);
  // The Chrome export goes through Events() too, so it must also dedupe.
  const std::string chrome = ToChromeTraceJson(recorder, 1.0);
  EXPECT_EQ(chrome.find("yield_hidden"), std::string::npos);
  EXPECT_NE(chrome.find("yield_blown"), std::string::npos);
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CreateOnFirstUseAndStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("yh_test_total");
  c->Add(3);
  EXPECT_EQ(registry.GetCounter("yh_test_total"), c);
  EXPECT_EQ(registry.GetCounter("yh_test_total")->value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsDistinguishSeries) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("yh_site_total", {{"site", "0x1"}});
  Counter* b = registry.GetCounter("yh_site_total", {{"site", "0x2"}});
  EXPECT_NE(a, b);
  a->Increment();
  EXPECT_EQ(registry.FindCounter("yh_site_total", {{"site", "0x1"}})->value(), 1u);
  EXPECT_EQ(registry.FindCounter("yh_site_total", {{"site", "0x2"}})->value(), 0u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter(
      "yh_x_total", {{"outcome", "hidden"}, {"site", "0x2a"}});
  Counter* b = registry.GetCounter(
      "yh_x_total", {{"site", "0x2a"}, {"outcome", "hidden"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindGauge("absent"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsRegistryTest, JsonSnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("yh_a_total")->Set(7);
  registry.GetGauge("yh_b", {{"class", "primary"}})->Set(0.5);
  LatencyHistogram* hist = registry.GetHistogram("yh_lat_cycles");
  hist->Record(100);
  hist->Record(200);

  const std::string json = registry.ToJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << ValidateJson(json).ToString();
  auto flat = ParseMetricsSnapshot(json);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(flat->at("yh_a_total{}"), 7.0);
  EXPECT_EQ(flat->at("yh_b{class=primary}"), 0.5);
  EXPECT_EQ(flat->at("yh_lat_cycles{}:count"), 2.0);
  EXPECT_EQ(flat->at("yh_lat_cycles{}:mean"), 150.0);
  EXPECT_EQ(flat->at("yh_lat_cycles{}:max"), 200.0);
}

TEST(MetricsRegistryTest, PrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("yh_a_total", {{"site", "0x2a"}})->Set(4);
  registry.GetGauge("yh_b")->Set(1.5);
  registry.GetHistogram("yh_lat")->Record(10);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# TYPE yh_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("yh_a_total{site=\"0x2a\"} 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE yh_b gauge"), std::string::npos);
  EXPECT_NE(text.find("yh_lat_count"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusHelpAndLabelEscaping) {
  MetricsRegistry registry;
  registry.GetCounter("yh_serve_shed_total")->Set(2);
  registry.GetGauge("yh_slo_burn_rate_fast")->Set(3.5);
  // Label values must escape backslash, quote, and line-feed — a raw newline
  // in a value would split the exposition line in two.
  registry.GetCounter("yh_a_total", {{"path", "a\\b\"c\nd"}})->Set(1);
  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# HELP yh_serve_shed_total Requests rejected because "
                      "the queue was full.\n"
                      "# TYPE yh_serve_shed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP yh_slo_burn_rate_fast"), std::string::npos);
  EXPECT_NE(text.find("yh_a_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos);
  // Families without registered help text still get their TYPE line.
  EXPECT_NE(text.find("# TYPE yh_a_total counter"), std::string::npos);
  EXPECT_EQ(text.find("# HELP yh_a_total"), std::string::npos);
}

// --- ValidateJson ------------------------------------------------------------

TEST(ValidateJsonTest, AcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "null", "true", "-12.5e3", "\"s\\u00e9\"",
        "{\"a\": [1, 2, {\"b\": null}], \"c\": \"x\\n\"}", "  [1]  "}) {
    EXPECT_TRUE(ValidateJson(doc).ok()) << doc;
  }
}

TEST(ValidateJsonTest, RejectsInvalidDocuments) {
  for (const char* doc :
       {"", "{", "[1,]", "{\"a\":}", "{a: 1}", "01", "\"unterminated",
        "[1] trailing", "{\"a\": 1,}", "nul", "\"bad\\x\""}) {
    EXPECT_FALSE(ValidateJson(doc).ok()) << doc;
  }
}

// --- DiffSnapshots -----------------------------------------------------------

TEST(DiffSnapshotsTest, MarksNewGoneAndChanged) {
  std::map<std::string, double> a{{"same{}", 1.0}, {"gone{}", 2.0},
                                  {"up{}", 10.0}};
  std::map<std::string, double> b{{"same{}", 1.0}, {"new{}", 3.0},
                                  {"up{}", 15.0}};
  const std::string diff = DiffSnapshots(a, b);
  EXPECT_NE(diff.find("new{}"), std::string::npos);
  EXPECT_NE(diff.find("(new)"), std::string::npos);
  EXPECT_NE(diff.find("gone{}"), std::string::npos);
  EXPECT_NE(diff.find("(gone)"), std::string::npos);
  EXPECT_NE(diff.find("up{}"), std::string::npos);
  // Unchanged keys are skipped unless asked for.
  EXPECT_EQ(diff.find("same{}"), std::string::npos);
  const std::string full = DiffSnapshots(a, b, /*include_equal=*/true);
  EXPECT_NE(full.find("same{}"), std::string::npos);
}

}  // namespace
}  // namespace yieldhide::obs
