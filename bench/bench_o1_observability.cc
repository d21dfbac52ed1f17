// O1 — observability gate: watching the system must be cheap, and every
// window into it must tell the same story.
//
// Scenario: the A1-style adaptation run (drifting PhasedChase served from a
// stale binary by a one-shard deployment, scavengers running the same
// service binary, drift-aware sampling on) executed three ways on identical
// machines:
//   seed     — no recorder, no registry attached: the pre-observability clock;
//   disabled — recorder attached with runtime mask 0: the always-compiled-in
//              cost when nobody is watching;
//   enabled  — recorder at kDefaultTraceMask + metrics registry: full
//              production observability, modeled capture cost charged to the
//              same simulated clock as every other cost.
//
// Gates (exit non-zero on violation):
//   * overhead: disabled <= 1.01x seed cycles; enabled <= 1.05x;
//   * the enabled run hot-swaps at least once (severity 1.0 drift), so the
//     reconciliation below spans a swap — the case where three bookkeeping
//     domains (trace ring, metrics registry, scheduler RunReport) can drift
//     apart if any of them keys by the wrong address space;
//   * exact reconciliation, per ORIGINAL-binary site: hidden/blown tallies
//     from the trace ring == the yh_sched_site_yields_total counters ==
//     the final report's YieldSiteStats (for sites surviving in the final
//     binary), plus scheduler totals (yields, tasks, swaps);
//   * the ring never overwrote (capacity sized for the run), so the trace
//     tally is complete rather than a suffix;
//   * both exports are valid: Chrome trace-event JSON and the registry's
//     JSON snapshot pass the strict RFC 8259 checker, the Prometheus text
//     carries `# TYPE` headers;
//   * the drift-aware sampling telemetry (satellite of this PR) is present:
//     yh_adapt_sampling_rate_scale and per-event yh_adapt_sampling_period
//     gauges exist in the registry.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr int kTasks = 24;
constexpr int kTasksPerEpoch = 6;
constexpr uint64_t kNodes = 1 << 16;
constexpr uint64_t kSteps = 300;
constexpr double kDisabledBound = 1.01;
constexpr double kEnabledBound = 1.05;

struct ScenarioResult {
  bool ok = false;
  adapt::AdaptReport report;
  // Original load site -> covering primary-yield address in the FINAL binary.
  std::map<isa::Addr, isa::Addr> site_index;
};

ScenarioResult RunScenario(const workloads::PhasedChase& chase,
                           const core::PipelineArtifacts& stale,
                           const core::PipelineConfig& pipeline,
                           obs::TraceRecorder* trace,
                           obs::MetricsRegistry* metrics) {
  serve::DeploymentSpec spec;
  spec.group.shard = ShardConfig(pipeline, kTasksPerEpoch);
  spec.group.shard.drift_aware_sampling = true;
  spec.closed_loop.emplace().tasks_per_shard = kTasks;
  spec.trace = trace;
  spec.metrics = metrics;
  ScenarioResult result;
  auto server = serve::Deployment::Build(chase, stale, spec);
  auto report = server.ok() ? server->Run() : server.status();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    return result;
  }
  result.ok = true;
  result.report = std::move(report.value().shards[0]);
  result.site_index = server->controller().site_index();
  return result;
}

std::string SiteKey(uint64_t site, const char* outcome) {
  return StrFormat("yh_sched_site_yields_total{outcome=%s,site=0x%llx}", outcome,
                   static_cast<unsigned long long>(site));
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("O1", "observability: overhead bounds + trace/metrics/report reconciliation");
  JsonWriter json("O1", argc, argv);

  // The stale binary: profiled on yesterday's all-phase-A twin, served against
  // today's fully drifted stream (severity 1.0) — guarantees a hot swap.
  workloads::PhasedChase::Config today;
  today.num_nodes = kNodes;
  today.steps_per_task = kSteps;
  today.severity = 1.0;
  today.flip_task_index = 0;
  const auto pipeline = BenchPipeline();
  const auto drift = serve::DriftScenario::Make(today, pipeline).value();
  const core::PipelineArtifacts& stale = drift.stale;
  const workloads::PhasedChase& chase = drift.chase;
  std::printf("stale pipeline (phase-A profile): %s\n", stale.Summary().c_str());

  Gates gate("O1");

  // --- the three runs -------------------------------------------------------
  const ScenarioResult seed = RunScenario(chase, stale, pipeline, nullptr, nullptr);

  obs::TraceConfig off_config;
  off_config.mask = 0;  // compiled in, runtime-disabled
  obs::TraceRecorder off_recorder(off_config);
  const ScenarioResult disabled =
      RunScenario(chase, stale, pipeline, &off_recorder, nullptr);

  obs::TraceConfig on_config;
  on_config.capacity = 1 << 18;  // sized so this run never overwrites
  obs::TraceRecorder recorder(on_config);
  obs::MetricsRegistry registry;
  const ScenarioResult enabled =
      RunScenario(chase, stale, pipeline, &recorder, &registry);
  if (!seed.ok || !disabled.ok || !enabled.ok) {
    return 2;
  }

  const double seed_cycles = static_cast<double>(seed.report.run.run.total_cycles);
  const double disabled_x = disabled.report.run.run.total_cycles / seed_cycles;
  const double enabled_x = enabled.report.run.run.total_cycles / seed_cycles;

  Table table({"run", "cycles", "vs_seed", "swaps", "events", "overwritten"});
  table.PrintHeader();
  table.PrintRow({"seed", FmtU(seed.report.run.run.total_cycles), "1.000",
                  StrFormat("%d", seed.report.swaps), "-", "-"});
  table.PrintRow({"disabled", FmtU(disabled.report.run.run.total_cycles),
                  Fmt("%.3f", disabled_x), StrFormat("%d", disabled.report.swaps),
                  FmtU(off_recorder.recorded()), FmtU(off_recorder.overwritten())});
  table.PrintRow({"enabled", FmtU(enabled.report.run.run.total_cycles),
                  Fmt("%.3f", enabled_x), StrFormat("%d", enabled.report.swaps),
                  FmtU(recorder.recorded()), FmtU(recorder.overwritten())});
  std::printf("\n");

  // --- overhead + coverage gates -------------------------------------------
  gate(disabled_x <= kDisabledBound, "disabled tracing <= 1.01x seed cycles");
  gate(enabled_x <= kEnabledBound, "enabled tracing+metrics <= 1.05x seed cycles");
  gate(off_recorder.recorded() == 0, "mask 0 records nothing");
  gate(enabled.report.swaps >= 1, "enabled run hot-swapped (spans a swap)");
  gate(recorder.overwritten() == 0, "trace ring held the whole run");
  gate(recorder.recorded() > 0, "enabled run recorded events");

  // --- trace-side tallies (keyed by original-binary site) ------------------
  std::map<uint64_t, uint64_t> trace_hidden, trace_blown;
  uint64_t trace_swaps = 0;
  for (const obs::TraceEvent& event : recorder.Events()) {
    switch (event.type) {
      case obs::TraceEventType::kYieldHidden:
        ++trace_hidden[event.ip];
        break;
      case obs::TraceEventType::kYieldBlown:
        ++trace_blown[event.ip];
        break;
      case obs::TraceEventType::kSwapCommit:
        ++trace_swaps;
        break;
      default:
        break;
    }
  }

  // --- metrics-side snapshot ------------------------------------------------
  const std::string metrics_json = registry.ToJson();
  auto parsed = obs::ParseMetricsSnapshot(metrics_json);
  if (!parsed.ok()) {
    std::fprintf(stderr, "snapshot parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const std::map<std::string, double>& flat = parsed.value();
  auto metric = [&](const std::string& key) -> double {
    auto it = flat.find(key);
    return it != flat.end() ? it->second : -1.0;
  };

  // Totals: one number, three domains.
  gate(metric("yh_sched_yields_total{}") ==
           static_cast<double>(enabled.report.run.run.yields),
       "yields_total == RunReport.yields");
  gate(metric("yh_sched_tasks_completed_total{}") ==
           static_cast<double>(enabled.report.run.run.completions.size()),
       "tasks_completed_total == completions");
  gate(metric("yh_sched_binary_swaps_total{}") ==
           static_cast<double>(enabled.report.run.binary_swaps),
       "binary_swaps_total == RunReport.binary_swaps");
  gate(trace_swaps == enabled.report.run.binary_swaps,
       "trace kSwapCommit count == RunReport.binary_swaps");

  // Per-site, trace vs metrics, BOTH directions. Sites the swap dropped are
  // frozen in the registry at their last published value; their trace stream
  // stopped at the same safe point, so equality must still be exact.
  bool site_metrics_exact = true;
  size_t metric_sites = 0;
  for (const auto& [key, value] : flat) {
    for (const char* outcome : {"hidden", "blown"}) {
      const std::string prefix =
          StrFormat("yh_sched_site_yields_total{outcome=%s,site=", outcome);
      if (key.rfind(prefix, 0) != 0) {
        continue;
      }
      ++metric_sites;
      const uint64_t site =
          std::strtoull(key.c_str() + prefix.size(), nullptr, 16);
      const auto& tally =
          std::string(outcome) == "hidden" ? trace_hidden : trace_blown;
      auto it = tally.find(site);
      const uint64_t traced = it != tally.end() ? it->second : 0;
      if (static_cast<double>(traced) != value) {
        std::printf("  site 0x%llx %s: metrics=%.0f trace=%llu\n",
                    static_cast<unsigned long long>(site), outcome, value,
                    static_cast<unsigned long long>(traced));
        site_metrics_exact = false;
      }
    }
  }
  for (const auto& [site, count] : trace_hidden) {
    if (metric(SiteKey(site, "hidden")) != static_cast<double>(count)) {
      site_metrics_exact = false;
    }
  }
  for (const auto& [site, count] : trace_blown) {
    if (metric(SiteKey(site, "blown")) != static_cast<double>(count)) {
      site_metrics_exact = false;
    }
  }
  gate(site_metrics_exact, "per-site trace tallies == metrics counters");
  gate(metric_sites > 0, "per-site counters present in snapshot");

  // RunReport vs metrics for sites alive in the FINAL binary: the controller's
  // site index maps original site -> current yield address, and the carried
  // YieldSiteStats must match the whole-run metric stream exactly.
  bool report_exact = true;
  size_t surviving = 0;
  for (const auto& [orig_site, yield_addr] : enabled.site_index) {
    auto stats = enabled.report.run.site_stats.find(yield_addr);
    if (stats == enabled.report.run.site_stats.end()) {
      continue;  // instrumented but never visited
    }
    ++surviving;
    const double hidden = metric(SiteKey(orig_site, "hidden"));
    const double blown = metric(SiteKey(orig_site, "blown"));
    if (hidden != static_cast<double>(stats->second.useful) ||
        blown != static_cast<double>(stats->second.visits - stats->second.useful)) {
      std::printf("  site 0x%llx: report useful=%llu visits=%llu vs "
                  "metrics hidden=%.0f blown=%.0f\n",
                  static_cast<unsigned long long>(orig_site),
                  static_cast<unsigned long long>(stats->second.useful),
                  static_cast<unsigned long long>(stats->second.visits), hidden,
                  blown);
      report_exact = false;
    }
  }
  gate(report_exact, "RunReport site stats == metrics (surviving sites)");
  gate(surviving > 0, "post-swap binary has visited sites");

  // --- export validity ------------------------------------------------------
  const std::string chrome =
      obs::ToChromeTraceJson(recorder, pipeline.machine.cycles_per_ns);
  gate(obs::ValidateJson(chrome).ok(), "Chrome trace export is valid JSON");
  gate(obs::ValidateJson(metrics_json).ok(), "metrics snapshot is valid JSON");
  gate(registry.ToPrometheus().find("# TYPE") != std::string::npos,
       "Prometheus text has # TYPE headers");

  // --- drift-aware sampling telemetry (satellite) ---------------------------
  gate(registry.FindGauge("yh_adapt_sampling_rate_scale") != nullptr,
       "yh_adapt_sampling_rate_scale gauge present");
  gate(registry.FindGauge("yh_adapt_sampling_period", {{"event", "l2_miss"}}) !=
           nullptr,
       "yh_adapt_sampling_period{event=l2_miss} present");

  json.Add("overhead", {{"seed_cycles", seed_cycles},
                        {"disabled_x", disabled_x},
                        {"enabled_x", enabled_x},
                        {"events", static_cast<double>(recorder.recorded())},
                        {"overwritten", static_cast<double>(recorder.overwritten())}});
  json.Add("reconcile", {{"swaps", static_cast<double>(enabled.report.swaps)},
                         {"metric_sites", static_cast<double>(metric_sites)},
                         {"surviving_sites", static_cast<double>(surviving)},
                         {"trace_hidden_sites",
                          static_cast<double>(trace_hidden.size())},
                         {"pass", gate.all_pass() ? 1.0 : 0.0}});

  std::printf(
      "\nReading: the disabled row is the cost of SHIPPING the recorder (a\n"
      "null/mask check per would-be event); the enabled row adds the modeled\n"
      "2-cycle capture per event, charged to the same simulated clock the\n"
      "scheduler bills switches to. Reconciliation is exact because all three\n"
      "domains key yield accounting by ORIGINAL-binary site and metrics are\n"
      "published at the same safe points swaps happen at.\n");
  json.Flush();
  return gate.Finish();
}
