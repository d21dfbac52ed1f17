// O3 — request-scoped span attribution: exactness, reconciliation against
// the cycle profiler, and the price of watching (docs/OBSERVABILITY.md).
//
// O2 proved the CYCLE taxonomy is a partition of elapsed time; this bench
// proves the REQUEST taxonomy is a partition of every request's latency and
// that the two accountings agree to the cycle. An open-loop ServerGroup
// (two shards, seeded Poisson arrivals, scavengers serving queued requests)
// runs a load sweep with a SpanCollector, SloEvaluator, and CycleProfiler
// attached per shard; a mid-sweep point turns on adaptation + the guard and
// injects a kRegression serving fault, so the spans are verified THROUGH a
// canary rollback — requeues, freeze windows, and a reinstalled generation
// included.
//
// Gates:
//   * exact: at every sweep point, every completed request's span classes
//     sum to its measured end-to-end latency (SpanCollector::VerifyExactness,
//     zero attribution anomalies), and the front-end conservation ledger
//     holds;
//   * reconcile: per shard, span kExecPrimary equals the profiler's
//     issue_useful + prefetch_overhead + quarantine_loss, and span
//     kStallExposed equals the profiler's stall_exposed — same stream, two
//     taxonomies, equal to the cycle;
//   * partition: the profiler classifies every elapsed cycle (the O2
//     identity, re-proven here across a rollback), its per-epoch slices are
//     cumulative-monotone (a reinstalled generation must not double-count or
//     reset), and the epoch deltas telescope back to the slice totals;
//   * rollback: the fault-injected point actually arms a canary and rolls it
//     back — the exactness gates above are meaningless if the control plane
//     never interfered;
//   * overhead: watching is priced, not free — enabled spans+SLO+trace cost
//     <= 1.05x the bare run in simulated cycles, attached-but-disabled
//     <= 1.01x;
//   * determinism: rerunning the rollback point reproduces every span class
//     total, profiler class total, SLO counter, and latency quantile exactly.
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/adapt/server_group.h"
#include "src/faultinject/serving_faults.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/slo/slo.h"
#include "src/obs/span/span.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kShards = 2;
constexpr int kTasksPerEpoch = 8;
constexpr uint64_t kChaseNodes = 1 << 16;
constexpr uint64_t kChaseSteps = 300;
constexpr uint64_t kSeed = 11;
constexpr uint64_t kQueueCapacity = 32;
constexpr double kEnabledCeiling = 1.05;
constexpr double kDisabledCeiling = 1.01;

// What observability rides along: the profiler is ALWAYS attached (it is the
// reconciliation reference and its overhead was gated by O1), the mode varies
// only what this layer adds — spans + SLO + their trace stream.
enum class SpanMode { kNone, kDisabled, kEnabled };

struct PointSpec {
  double rate = 0.02;           // arrivals per kcycle, per shard
  uint64_t duration = 1'000'000;  // arrival horizon, cycles
  bool adapt = false;           // adaptation + guard + kRegression fault
};

struct PointOutcome {
  serve::Deployment deployment;
  adapt::GroupReport report;
  uint64_t span_events = 0;  // kSpanBegin/kSpanEnd/kSlo* drained via sink
  // Per-shard machine clocks at drain, summed.
  uint64_t total_cycles() const {
    uint64_t t = 0;
    for (size_t s = 0; s < kShards; ++s) {
      t += deployment.machine(s).now();
    }
    return t;
  }
};

Result<PointOutcome> RunPoint(const workloads::PhasedChase& chase,
                              const core::PipelineArtifacts& artifacts,
                              const core::PipelineConfig& pipeline,
                              const PointSpec& spec, SpanMode mode) {
  serve::DeploymentSpec deploy;
  adapt::ServerGroupConfig& config = deploy.group;
  config.shards = kShards;
  config.shard = ShardConfig(pipeline, kTasksPerEpoch);
  config.shard.adapt_enabled = spec.adapt;
  config.shard.scale_pool = spec.adapt;
  if (spec.adapt) {
    config.guard.enabled = true;
    config.guard.confirmation_window = 2;
    config.guard.consult_slo = true;
    faultinject::FaultSpec fault;
    fault.fault = faultinject::FaultClass::kRegression;
    fault.severity = 1.0;
    YH_ASSIGN_OR_RETURN(
        config.fault_hooks,
        faultinject::MakeServingFaultHooks(
            {fault}, static_cast<isa::Addr>(chase.program().size())));
  }
  serve::FrontEndConfig& fe = deploy.front_end;
  fe.arrival.kind = serve::ArrivalConfig::Kind::kPoisson;
  fe.arrival.rate_per_kcycle = spec.rate;
  fe.arrival.horizon_cycles = spec.duration;
  fe.arrival.seed = kSeed;
  fe.queue_capacity = kQueueCapacity;
  fe.scavengers_serve = true;
  deploy.profiler.emplace();

  // Small ring + sink, the same flush-on-half-full streaming path `yhc spans
  // --perfetto` renders; the bench only counts what flows through it.
  obs::TraceConfig trace_config;
  trace_config.capacity = 1 << 12;
  trace_config.mask = obs::kTraceSpan | obs::kTraceSlo;
  obs::TraceRecorder recorder(trace_config);
  uint64_t span_events = 0;
  recorder.SetSink([&span_events](const obs::TraceEvent&) { ++span_events; });
  if (mode != SpanMode::kNone) {
    deploy.trace = &recorder;
    deploy.spans.emplace().enabled = mode == SpanMode::kEnabled;
    deploy.slo.emplace().enabled = mode == SpanMode::kEnabled;
  }

  YH_ASSIGN_OR_RETURN(serve::Deployment deployment,
                      serve::Deployment::Build(chase, artifacts, deploy));
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, deployment.Run());
  return PointOutcome{std::move(deployment), std::move(report), span_events};
}

uint64_t SpanTotal(const obs::SpanCollector& spans, obs::SpanClass cls) {
  uint64_t totals[obs::kNumSpanClasses];
  spans.AggregateTotals(totals, /*include_active=*/true);
  return totals[static_cast<size_t>(cls)];
}

// Gate 2 per shard: the span view and the profiler view of the SAME primary
// execution stream must agree exactly.
bool Reconciles(const obs::SpanCollector& spans,
                const obs::CycleProfiler& profiler, std::string* detail) {
  const auto ct = profiler.class_totals();
  const uint64_t prof_exec =
      ct[static_cast<size_t>(obs::CycleClass::kIssueUseful)] +
      ct[static_cast<size_t>(obs::CycleClass::kPrefetchOverhead)] +
      ct[static_cast<size_t>(obs::CycleClass::kQuarantineLoss)];
  const uint64_t prof_stall =
      ct[static_cast<size_t>(obs::CycleClass::kStallExposed)];
  const uint64_t span_exec = SpanTotal(spans, obs::SpanClass::kExecPrimary);
  const uint64_t span_stall = SpanTotal(spans, obs::SpanClass::kStallExposed);
  *detail = StrFormat("exec %s==%s stall %s==%s",
                      WithCommas(span_exec).c_str(),
                      WithCommas(prof_exec).c_str(),
                      WithCommas(span_stall).c_str(),
                      WithCommas(prof_stall).c_str());
  return span_exec == prof_exec && span_stall == prof_stall;
}

// Gate 3 per shard: the profiler's taxonomy partitions every cycle from its
// BeginRun anchor to the shard's final clock (the O2 identity — the front
// end's pre-run idle advance is the only time outside the anchor) and its
// epoch slices are consistent cumulative snapshots of it.
bool PartitionHolds(const obs::CycleProfiler& profiler, uint64_t run_cycles,
                    bool expect_epochs, std::string* detail) {
  const auto ct = profiler.class_totals();
  uint64_t classified = 0;
  for (const uint64_t c : ct) {
    classified += c;
  }
  bool ok = classified == profiler.classified_cycles() &&
            profiler.classified_cycles() == run_cycles;
  const auto& slices = profiler.epoch_slices();
  if (expect_epochs && slices.size() < 2) {
    ok = false;
  }
  std::array<uint64_t, obs::kNumCycleClasses> delta_sum{};
  for (size_t i = 0; i < slices.size(); ++i) {
    const auto delta = profiler.EpochDelta(i);
    for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
      delta_sum[c] += delta[c];
      if (i > 0 &&
          slices[i].class_totals[c] < slices[i - 1].class_totals[c]) {
        ok = false;  // a reinstall reset or double-counted a class
      }
    }
  }
  for (size_t c = 0; c < obs::kNumCycleClasses && !slices.empty(); ++c) {
    if (delta_sum[c] != slices.back().class_totals[c]) {
      ok = false;  // epoch deltas must telescope back to the totals
    }
    if (slices.back().class_totals[c] > ct[c]) {
      ok = false;  // a snapshot can never exceed the final total
    }
  }
  *detail = StrFormat("classified %s of %s over %zu epoch slices",
                      WithCommas(profiler.classified_cycles()).c_str(),
                      WithCommas(run_cycles).c_str(), slices.size());
  return ok;
}

bool SameOutcome(const PointOutcome& a, const PointOutcome& b) {
  if (a.report.rollbacks != b.report.rollbacks ||
      a.report.canaries != b.report.canaries ||
      a.span_events != b.span_events) {
    return false;
  }
  for (size_t s = 0; s < kShards; ++s) {
    const serve::Deployment& da = a.deployment;
    const serve::Deployment& db = b.deployment;
    uint64_t ta[obs::kNumSpanClasses], tb[obs::kNumSpanClasses];
    da.spans(s)->AggregateTotals(ta, true);
    db.spans(s)->AggregateTotals(tb, true);
    for (size_t c = 0; c < obs::kNumSpanClasses; ++c) {
      if (ta[c] != tb[c]) {
        return false;
      }
    }
    const serve::FrontEndReport fa = da.front_end(s).report();
    const serve::FrontEndReport fb = db.front_end(s).report();
    if (da.spans(s)->completed_count() != db.spans(s)->completed_count() ||
        da.profiler(s)->class_totals() != db.profiler(s)->class_totals() ||
        da.slo(s)->total() != db.slo(s)->total() ||
        da.slo(s)->bad() != db.slo(s)->bad() ||
        da.slo(s)->alerts_fired() != db.slo(s)->alerts_fired() ||
        fa.counters.offered != fb.counters.offered ||
        fa.counters.shed != fb.counters.shed ||
        fa.counters.completed != fb.counters.completed ||
        fa.latency.P50() != fb.latency.P50() ||
        fa.latency.P99() != fb.latency.P99() ||
        fa.latency.ValueAtQuantile(0.999) !=
            fb.latency.ValueAtQuantile(0.999) ||
        da.machine(s).now() != db.machine(s).now()) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("O3", "span exactness, profiler reconciliation, and the price of watching");
  JsonWriter json("O3", argc, argv);
  bool all_pass = true;

  // One binary for the whole sweep: yesterday's phase-A profile serving
  // today's drifted service — the adapt point has a real reason to rebuild,
  // the steady points just serve it as-is.
  workloads::PhasedChase::Config yesterday;
  yesterday.num_nodes = kChaseNodes;
  yesterday.steps_per_task = kChaseSteps;
  yesterday.severity = 0.0;
  auto chase_yesterday = workloads::PhasedChase::Make(yesterday).value();
  const auto pipeline = BenchPipeline();
  auto stale = core::BuildInstrumentedForWorkload(chase_yesterday, pipeline);
  if (!stale.ok()) {
    std::fprintf(stderr, "instrumentation failed: %s\n",
                 stale.status().ToString().c_str());
    return 2;
  }
  workloads::PhasedChase::Config today = yesterday;
  today.severity = 1.0;
  today.flip_task_index = 0;
  auto chase = workloads::PhasedChase::Make(today).value();

  // ---------- load sweep, rollback mid-sweep ------------------------------
  const std::vector<PointSpec> sweep = {
      {/*rate=*/0.01, /*duration=*/1'000'000, /*adapt=*/false},
      {/*rate=*/0.02, /*duration=*/5'000'000, /*adapt=*/true},
      {/*rate=*/0.04, /*duration=*/1'000'000, /*adapt=*/false},
  };
  Table table({"rate", "adapt", "completed", "exact", "reconcile", "partition",
               "ledger", "verdict"});
  table.PrintHeader();
  std::unique_ptr<PointOutcome> rollback_point;
  for (const PointSpec& spec : sweep) {
    auto run = RunPoint(chase, *stale, pipeline, spec, SpanMode::kEnabled);
    // VerifyExactness failures surface here: exactness is a Status, not a
    // score, so a broken point is a failed run, not a degraded row.
    if (!run.ok()) {
      std::fprintf(stderr, "sweep point rate=%.3f failed: %s\n", spec.rate,
                   run.status().ToString().c_str());
      table.PrintRow({Fmt("%.3f", spec.rate), spec.adapt ? "guard" : "-", "-",
                      "BROKEN", "-", "-", "-", "FAIL"});
      all_pass = false;
      continue;
    }
    uint64_t completed = 0;
    bool ledger_ok = true, reconcile_ok = true, partition_ok = true;
    std::string reconcile_detail, partition_detail;
    const serve::Deployment& deployment = run->deployment;
    for (size_t s = 0; s < kShards; ++s) {
      const obs::CycleProfiler& profiler = *deployment.profiler(s);
      completed += deployment.spans(s)->completed_count();
      ledger_ok =
          ledger_ok && deployment.front_end(s).report().ConservationHolds();
      reconcile_ok = reconcile_ok && Reconciles(*deployment.spans(s), profiler,
                                                &reconcile_detail);
      const uint64_t run_cycles =
          deployment.machine(s).now() - profiler.run_begin_cycle();
      partition_ok = partition_ok &&
                     PartitionHolds(profiler, run_cycles,
                                    /*expect_epochs=*/spec.adapt,
                                    &partition_detail);
    }
    bool point_ok = ledger_ok && reconcile_ok && partition_ok;
    if (spec.adapt) {
      constexpr obs::SpanClass kRequeue = obs::SpanClass::kRequeue;
      constexpr obs::SpanClass kFreeze = obs::SpanClass::kFreeze;
      const bool rolled = run->report.rollbacks >= 1 && run->report.canaries >= 1;
      point_ok = point_ok && rolled;
      std::printf("  rollback point: canaries=%d rollbacks=%d slo_vetoes=%d "
                  "requeued_span_cycles=%s freeze_span_cycles=%s\n",
                  run->report.canaries, run->report.rollbacks,
                  run->report.slo_vetoes,
                  WithCommas(SpanTotal(*deployment.spans(0), kRequeue) +
                             SpanTotal(*deployment.spans(1), kRequeue))
                      .c_str(),
                  WithCommas(SpanTotal(*deployment.spans(0), kFreeze) +
                             SpanTotal(*deployment.spans(1), kFreeze))
                      .c_str());
      if (!rolled) {
        std::printf("  rollback point: no rollback observed (FAIL)\n");
      }
    }
    std::printf("  shard%zu %s; %s\n", kShards - 1, reconcile_detail.c_str(),
                partition_detail.c_str());
    table.PrintRow({Fmt("%.3f", spec.rate), spec.adapt ? "guard" : "-",
                    std::to_string(completed), "ok",
                    reconcile_ok ? "ok" : "BROKEN",
                    partition_ok ? "ok" : "BROKEN",
                    ledger_ok ? "ok" : "BROKEN", point_ok ? "pass" : "FAIL"});
    json.Add(StrFormat("sweep_r%.3f", spec.rate),
             {{"rate", spec.rate},
              {"adapt", spec.adapt ? 1.0 : 0.0},
              {"completed", static_cast<double>(completed)},
              {"rollbacks", static_cast<double>(run->report.rollbacks)},
              {"reconcile", reconcile_ok ? 1.0 : 0.0},
              {"partition", partition_ok ? 1.0 : 0.0},
              {"ledger", ledger_ok ? 1.0 : 0.0},
              {"pass", point_ok ? 1.0 : 0.0}});
    all_pass = all_pass && point_ok;
    if (spec.adapt) {
      rollback_point =
          std::make_unique<PointOutcome>(std::move(run).value());
    }
  }

  // ---------- the price of watching ---------------------------------------
  // Same point, three builds of the observability stack; the ratio is over
  // SIMULATED cycles, so the modeled span/SLO/trace costs are what is priced.
  const PointSpec price_spec{/*rate=*/0.02, /*duration=*/1'000'000, false};
  auto bare = RunPoint(chase, *stale, pipeline, price_spec, SpanMode::kNone);
  auto off = RunPoint(chase, *stale, pipeline, price_spec, SpanMode::kDisabled);
  auto on = RunPoint(chase, *stale, pipeline, price_spec, SpanMode::kEnabled);
  if (!bare.ok() || !off.ok() || !on.ok()) {
    std::fprintf(stderr, "overhead runs failed\n");
    return 2;
  }
  const double enabled_ratio = static_cast<double>(on->total_cycles()) /
                               static_cast<double>(bare->total_cycles());
  const double disabled_ratio = static_cast<double>(off->total_cycles()) /
                                static_cast<double>(bare->total_cycles());
  const bool overhead_ok = enabled_ratio <= kEnabledCeiling &&
                           disabled_ratio <= kDisabledCeiling;
  all_pass = all_pass && overhead_ok;
  std::printf("\n  overhead: bare=%s cycles, disabled=%.4fx (<= %.2fx), "
              "enabled=%.4fx (<= %.2fx), %s span events -> %s\n",
              WithCommas(bare->total_cycles()).c_str(), disabled_ratio,
              kDisabledCeiling, enabled_ratio, kEnabledCeiling,
              WithCommas(on->span_events).c_str(),
              overhead_ok ? "pass" : "FAIL");
  json.Add("overhead", {{"bare_cycles", static_cast<double>(bare->total_cycles())},
                        {"disabled_ratio", disabled_ratio},
                        {"enabled_ratio", enabled_ratio},
                        {"span_events", static_cast<double>(on->span_events)},
                        {"pass", overhead_ok ? 1.0 : 0.0}});

  // ---------- determinism -------------------------------------------------
  // The HARD point to reproduce: rerun the rollback run and require every
  // span class total, profiler class total, SLO counter, latency quantile,
  // and the drained event count to come back bit-identical.
  bool deterministic = false;
  if (rollback_point != nullptr) {
    auto rerun = RunPoint(chase, *stale, pipeline, sweep[1], SpanMode::kEnabled);
    if (rerun.ok()) {
      deterministic = SameOutcome(*rollback_point, rerun.value());
    } else {
      std::fprintf(stderr, "determinism rerun failed: %s\n",
                   rerun.status().ToString().c_str());
    }
  }
  all_pass = all_pass && deterministic;
  std::printf("  determinism: rollback-point rerun %s\n",
              deterministic ? "bit-identical (pass)" : "DIVERGED (FAIL)");
  json.Add("gates", {{"overhead", overhead_ok ? 1.0 : 0.0},
                     {"deterministic", deterministic ? 1.0 : 0.0}});

  std::printf(
      "\nReading: every request's latency is partitioned into named spans —\n"
      "queue wait, primary issue, exposed vs hidden stall, scavenger slots,\n"
      "control-plane freezes — and the partition is exact per request AND\n"
      "equal, class by class, to the cycle profiler's independent accounting,\n"
      "even through a canary rollback. The watching itself is on the same\n"
      "clock: enabled costs show up in the ratio and stay under the ceiling.\n");
  json.Flush();
  if (!all_pass) {
    std::printf("\nO3: GATE VIOLATED\n");
    return 1;
  }
  std::printf("\nO3: all gates pass\n");
  return 0;
}
