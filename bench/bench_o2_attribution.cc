// O2 — cycle-attribution gate: the profiler's taxonomy must partition the
// run EXACTLY, cost almost nothing, and tell the same story as the
// scheduler's own books — across a hot swap, from both of its feeds.
//
// Scenario matrix (all on identical machines):
//   seed      — A1-style adaptation run (drifting PhasedChase served from a
//               stale binary, severity 1.0, guaranteeing a hot swap), nothing
//               attached: the pre-profiler clock;
//   disabled  — same run, CycleProfiler attached with enabled=false: the
//               always-compiled-in hook cost when nobody is profiling;
//   enabled   — same run, profiler on: full attribution, modeled per-visit
//               accounting cost charged to the same simulated clock;
//   stream    — profiler on PLUS a deliberately small trace ring (1<<12) with
//               the profiler's sink attached: the streaming drain feed, forced
//               through several ring wraparounds;
//   calm      — severity 0.0 adaptation run (no swap pressure), profiler on;
//   ring      — the stale binary round-robin on its profiling-time twin,
//               profiler on: the symmetric runtime's hook path.
//
// Gates (exit non-zero on violation):
//   * exact sum: classified_cycles == RunReport::total_cycles for EVERY
//     profiled run (enabled, stream, calm, ring) — the taxonomy is a
//     partition of elapsed cycles, not an estimate; per-site records also
//     re-sum to the same total (partition by site);
//   * overhead: disabled <= 1.01x seed cycles, enabled <= 1.05x;
//   * the enabled run hot-swaps at least once, and for every ORIGINAL site
//     surviving in the final binary the profiler's visit/useful/switch books
//     equal the scheduler's carried YieldSiteStats exactly — same useful
//     fraction, same switch cycles, spanning the swap;
//   * the streaming feed agrees with the inline feed: per-site hidden/blown/
//     switch-cycle tallies rebuilt from drained trace events match the inline
//     hooks in BOTH directions, the sink kept pace (nothing overwritten, all
//     events drained exactly once across >= 3 wraparounds);
//   * taxonomy sanity: the adaptation run hides stalls (stall_hidden > 0);
//     the scavenger-free round-robin run attributes NO scavenger or hidden
//     cycles; per-site useful-burst histogram counts never exceed useful
//     visits;
//   * exports hold: the pprof-style JSON passes the strict RFC 8259 checker,
//     the folded-stack export is non-empty and every line is
//     "all;site;class <count>".
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/adapt/server_group.h"
#include "src/obs/profiler/export.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr int kTasks = 24;
constexpr int kTasksPerEpoch = 6;
constexpr uint64_t kNodes = 1 << 16;
constexpr uint64_t kSteps = 300;
constexpr double kDisabledBound = 1.01;
constexpr double kEnabledBound = 1.05;
constexpr size_t kStreamRing = 1 << 12;  // small on purpose: force wraps

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
                           obs::CycleProfiler* profiler) {
  sim::Machine machine(pipeline.machine);
  chase.InitMemory(machine.memory());
  adapt::ServerGroupConfig config;
  config.shard = ShardConfig(pipeline, kTasksPerEpoch);
  config.shard.drift_aware_sampling = true;
  adapt::ServerGroup server(&chase.program(), stale, {&machine}, config);
  server.SetObservability(trace, nullptr);
  server.SetProfiler(0, profiler);
  for (int i = 0; i < kTasks; ++i) {
    server.AddTask(0, chase.SetupFor(i));
  }
  int extra = kTasks;
  server.SetScavengerFactory(
      0, [&chase, extra]() mutable
             -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        return chase.SetupFor(extra++);
      });
  ScenarioResult result;
  auto report = server.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    return result;
  }
  result.ok = true;
  result.report = std::move(report.value().shards[0]);
  result.site_index = server.controller().site_index();
  return result;
}

uint64_t ClassTotal(const obs::CycleProfiler& profiler, obs::CycleClass cls) {
  return profiler.class_totals()[static_cast<size_t>(cls)];
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("O2", "cycle attribution: exact taxonomy + overhead + dual-feed reconciliation");
  JsonWriter json("O2", argc, argv);

  workloads::PhasedChase::Config yesterday;
  yesterday.num_nodes = kNodes;
  yesterday.steps_per_task = kSteps;
  yesterday.severity = 0.0;
  auto twin = workloads::PhasedChase::Make(yesterday).value();
  auto pipeline = BenchPipeline();
  auto stale = core::BuildInstrumentedForWorkload(twin, pipeline).value();
  std::printf("stale pipeline (phase-A profile): %s\n", stale.Summary().c_str());

  workloads::PhasedChase::Config today = yesterday;
  today.severity = 1.0;
  today.flip_task_index = 0;
  auto chase = workloads::PhasedChase::Make(today).value();

  bool all_pass = true;
  auto gate = [&](bool pass, const char* what) {
    std::printf("  gate %-52s %s\n", what, pass ? "pass" : "FAIL");
    all_pass = all_pass && pass;
    return pass;
  };

  // --- the scenario matrix --------------------------------------------------
  const ScenarioResult seed = RunScenario(chase, stale, pipeline, nullptr, nullptr);

  obs::CycleProfilerConfig off_config;
  off_config.enabled = false;
  obs::CycleProfiler off_profiler(off_config);
  const ScenarioResult disabled =
      RunScenario(chase, stale, pipeline, nullptr, &off_profiler);

  obs::CycleProfiler profiler;
  const ScenarioResult enabled =
      RunScenario(chase, stale, pipeline, nullptr, &profiler);

  obs::TraceConfig ring_config;
  ring_config.capacity = kStreamRing;
  obs::TraceRecorder recorder(ring_config);
  obs::CycleProfiler stream_profiler;
  recorder.SetSink(stream_profiler.MakeTraceSink());
  const ScenarioResult stream =
      RunScenario(chase, stale, pipeline, &recorder, &stream_profiler);
  recorder.DrainToSink();

  obs::CycleProfiler calm_profiler;
  const ScenarioResult calm =
      RunScenario(twin, stale, pipeline, nullptr, &calm_profiler);

  // Symmetric runtime: the stale binary round-robin on its own twin, no
  // scavengers anywhere near it.
  obs::CycleProfiler rr_profiler;
  runtime::RunReport rr_report;
  {
    sim::Machine machine(pipeline.machine);
    twin.InitMemory(machine.memory());
    runtime::RoundRobinScheduler sched(&stale.binary, &machine);
    for (int i = 0; i < 8; ++i) {
      sched.AddCoroutine(twin.SetupFor(i));
    }
    sched.SetProfiler(&rr_profiler);
    auto report = sched.Run(2'000'000'000ull);
    if (!report.ok()) {
      std::fprintf(stderr, "round-robin run failed: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    rr_report = std::move(report).value();
  }

  if (!seed.ok || !disabled.ok || !enabled.ok || !stream.ok || !calm.ok) {
    return 2;
  }

  const double seed_cycles = static_cast<double>(seed.report.run.run.total_cycles);
  const double disabled_x = disabled.report.run.run.total_cycles / seed_cycles;
  const double enabled_x = enabled.report.run.run.total_cycles / seed_cycles;

  Table table({"run", "cycles", "vs_seed", "swaps", "classified"});
  table.PrintHeader();
  table.PrintRow({"seed", FmtU(seed.report.run.run.total_cycles), "1.000",
                  StrFormat("%d", seed.report.swaps), "-"});
  table.PrintRow({"disabled", FmtU(disabled.report.run.run.total_cycles),
                  Fmt("%.3f", disabled_x), StrFormat("%d", disabled.report.swaps),
                  FmtU(off_profiler.classified_cycles())});
  table.PrintRow({"enabled", FmtU(enabled.report.run.run.total_cycles),
                  Fmt("%.3f", enabled_x), StrFormat("%d", enabled.report.swaps),
                  FmtU(profiler.classified_cycles())});
  table.PrintRow({"stream", FmtU(stream.report.run.run.total_cycles), "-",
                  StrFormat("%d", stream.report.swaps),
                  FmtU(stream_profiler.classified_cycles())});
  table.PrintRow({"calm", FmtU(calm.report.run.run.total_cycles), "-",
                  StrFormat("%d", calm.report.swaps),
                  FmtU(calm_profiler.classified_cycles())});
  table.PrintRow({"ring", FmtU(rr_report.total_cycles), "-", "0",
                  FmtU(rr_profiler.classified_cycles())});
  std::printf("\n");

  // Where the enabled run's cycles went, for the record.
  {
    const auto totals = profiler.class_totals();
    const double denom = static_cast<double>(profiler.classified_cycles());
    Table classes({"class", "cycles", "share"}, 20);
    classes.PrintHeader();
    for (size_t i = 0; i < obs::kNumCycleClasses; ++i) {
      classes.PrintRow({obs::CycleClassName(static_cast<obs::CycleClass>(i)),
                        FmtU(totals[i]),
                        Fmt("%.2f%%", denom > 0 ? 100.0 * totals[i] / denom : 0)});
    }
    std::printf("\n");
  }

  // --- gate 1: exact sum ----------------------------------------------------
  gate(profiler.classified_cycles() == enabled.report.run.run.total_cycles,
       "enabled: taxonomy sums to total_cycles EXACTLY");
  gate(stream_profiler.classified_cycles() == stream.report.run.run.total_cycles,
       "stream: taxonomy sums to total_cycles EXACTLY");
  gate(calm_profiler.classified_cycles() == calm.report.run.run.total_cycles,
       "calm: taxonomy sums to total_cycles EXACTLY");
  gate(rr_profiler.classified_cycles() == rr_report.total_cycles,
       "round-robin: taxonomy sums to total_cycles EXACTLY");
  uint64_t site_sum = 0;
  for (const auto& [site, record] : profiler.sites()) {
    site_sum += record.total();
  }
  gate(site_sum == profiler.classified_cycles(),
       "per-site records re-sum to classified_cycles");
  gate(off_profiler.classified_cycles() == 0, "disabled profiler classifies nothing");

  // --- gate 2: overhead -----------------------------------------------------
  gate(disabled_x <= kDisabledBound, "disabled profiler <= 1.01x seed cycles");
  gate(enabled_x <= kEnabledBound, "enabled profiler <= 1.05x seed cycles");

  // --- gate 3: inline feed vs scheduler books, across the swap --------------
  gate(enabled.report.swaps >= 1, "enabled run hot-swapped (spans a swap)");
  bool books_exact = true;
  size_t surviving = 0;
  for (const auto& [orig_site, yield_addr] : enabled.site_index) {
    auto stats = enabled.report.run.site_stats.find(yield_addr);
    if (stats == enabled.report.run.site_stats.end()) {
      continue;  // instrumented but never visited
    }
    auto record = profiler.sites().find(orig_site);
    if (record == profiler.sites().end()) {
      books_exact = false;
      continue;
    }
    ++surviving;
    const obs::SiteCycles& p = record->second;
    if (p.yield_visits != stats->second.visits ||
        p.useful_visits != stats->second.useful ||
        p.switch_cost.count() != stats->second.visits ||
        p.switch_cost.sum() != stats->second.switch_cycles_paid) {
      std::printf("  site 0x%llx: profiler visits=%llu useful=%llu switch=%llu "
                  "vs report visits=%llu useful=%llu switch=%llu\n",
                  static_cast<unsigned long long>(orig_site),
                  static_cast<unsigned long long>(p.yield_visits),
                  static_cast<unsigned long long>(p.useful_visits),
                  static_cast<unsigned long long>(p.switch_cost.sum()),
                  static_cast<unsigned long long>(stats->second.visits),
                  static_cast<unsigned long long>(stats->second.useful),
                  static_cast<unsigned long long>(stats->second.switch_cycles_paid));
      books_exact = false;
    }
  }
  gate(books_exact, "profiler books == YieldSiteStats (surviving sites)");
  gate(surviving > 0, "post-swap binary has visited sites");

  // --- gate 4: streaming feed vs inline feed --------------------------------
  gate(recorder.recorded() >= 3 * kStreamRing,
       "trace stream spans >= 3 ring wraparounds");
  gate(recorder.overwritten() == 0, "sink kept pace: nothing overwritten");
  gate(recorder.drained() == recorder.recorded(),
       "every event drained exactly once");
  gate(recorder.Events().empty(), "no undrained events after final drain");
  bool feeds_agree = !stream_profiler.stream_sites().empty();
  for (const auto& [site, counts] : stream_profiler.stream_sites()) {
    auto record = stream_profiler.sites().find(site);
    if (record == stream_profiler.sites().end() ||
        counts.hidden != record->second.useful_visits ||
        counts.hidden + counts.blown != record->second.yield_visits ||
        counts.switch_cycles != record->second.switch_cost.sum()) {
      std::printf("  stream site 0x%llx: hidden=%llu blown=%llu disagree with inline\n",
                  static_cast<unsigned long long>(site),
                  static_cast<unsigned long long>(counts.hidden),
                  static_cast<unsigned long long>(counts.blown));
      feeds_agree = false;
    }
  }
  for (const auto& [site, record] : stream_profiler.sites()) {
    if (record.yield_visits == 0) {
      continue;
    }
    auto counts = stream_profiler.stream_sites().find(site);
    if (counts == stream_profiler.stream_sites().end() ||
        counts->second.hidden + counts->second.blown != record.yield_visits) {
      feeds_agree = false;
    }
  }
  gate(feeds_agree, "drained stream tallies == inline hooks (both ways)");

  // --- gate 5: taxonomy sanity ----------------------------------------------
  gate(ClassTotal(profiler, obs::CycleClass::kStallHidden) > 0,
       "adaptation run hides stalls (stall_hidden > 0)");
  gate(ClassTotal(profiler, obs::CycleClass::kSwitchOverhead) > 0 &&
           ClassTotal(profiler, obs::CycleClass::kIssueUseful) > 0,
       "switch_overhead and issue_useful present");
  gate(ClassTotal(rr_profiler, obs::CycleClass::kStallHidden) == 0 &&
           ClassTotal(rr_profiler, obs::CycleClass::kScavengerUseful) == 0 &&
           ClassTotal(rr_profiler, obs::CycleClass::kScavengerWaste) == 0,
       "scavenger-free ring attributes no scavenger cycles");
  bool hist_sane = true;
  for (const auto& [site, record] : profiler.sites()) {
    if (record.hidden_latency.count() > record.useful_visits) {
      hist_sane = false;
    }
  }
  gate(hist_sane, "useful-burst histogram count <= useful visits");

  // --- gate 6: exports ------------------------------------------------------
  const std::string profile_json = obs::ToProfileJson(profiler);
  gate(obs::ValidateJson(profile_json).ok(), "profile JSON export is valid JSON");
  const std::string folded = obs::ToFoldedStacks(profiler);
  bool folded_ok = !folded.empty();
  size_t folded_lines = 0;
  for (size_t pos = 0; pos < folded.size();) {
    size_t eol = folded.find('\n', pos);
    if (eol == std::string::npos) {
      eol = folded.size();
    }
    const std::string line = folded.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    ++folded_lines;
    const size_t space = line.rfind(' ');
    if (line.rfind("all;", 0) != 0 || space == std::string::npos ||
        space + 1 >= line.size() ||
        line.find_first_not_of("0123456789", space + 1) != std::string::npos) {
      folded_ok = false;
    }
  }
  gate(folded_ok && folded_lines > 0, "folded-stack lines are 'all;... <count>'");

  json.Add("overhead", {{"seed_cycles", seed_cycles},
                        {"disabled_x", disabled_x},
                        {"enabled_x", enabled_x}});
  json.Add("exact", {{"enabled_classified",
                      static_cast<double>(profiler.classified_cycles())},
                     {"enabled_total",
                      static_cast<double>(enabled.report.run.run.total_cycles)},
                     {"ring_classified",
                      static_cast<double>(rr_profiler.classified_cycles())},
                     {"ring_total", static_cast<double>(rr_report.total_cycles)}});
  json.Add("reconcile", {{"swaps", static_cast<double>(enabled.report.swaps)},
                         {"surviving_sites", static_cast<double>(surviving)},
                         {"stream_events", static_cast<double>(recorder.recorded())},
                         {"stream_sites",
                          static_cast<double>(stream_profiler.stream_sites().size())},
                         {"pass", all_pass ? 1.0 : 0.0}});

  std::printf(
      "\nReading: exact sums are the point — every class is a claim about\n"
      "where cycles went, and a taxonomy that only approximately partitions\n"
      "the clock can hide its own overhead. The profiler's two feeds (inline\n"
      "hooks, drained trace stream) are independent paths to the same books,\n"
      "keyed by ORIGINAL-binary site so a hot swap cannot split a series.\n");
  json.Flush();
  if (!all_pass) {
    std::printf("\nO2: GATE VIOLATED\n");
    return 1;
  }
  std::printf("\nO2: all gates pass\n");
  return 0;
}
