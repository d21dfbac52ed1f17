// yhc — the yieldhide command-line tool.
//
// Drives the whole toolchain from the shell, the way a user would drive
// perf + BOLT in the deployment the paper describes:
//
//   yhc asm chase.s chase.yh                     # assemble
//   yhc dis chase.yh                             # disassemble
//   yhc cfg chase.yh > chase.dot                 # CFG as graphviz
//   yhc interval chase.yh                        # worst-case inter-yield gap
//   yhc run chase.yh --ring 0x100000,4096,1021 --reg 1=0x100000 --reg 2=1000
//   yhc profile chase.yh --out chase.prof --ring 0x100000,4096,1021 ...
//   yhc instrument chase.yh --profile chase.prof --out chase.instr.yh
//   yhc run chase.instr.yh --group 16 --ring ... --reg ...   # interleaved
//   yhc adapt --severity 1.0 --tasks 32          # online adaptation demo
//   yhc serve --shards 4 --severity 1.0          # sharded multi-core serving
//
// Instrumented binaries carry their yield side-table in a "<out>.yields"
// sidecar and their original<->instrumented address map in "<out>.map" (the
// input the online adaptation loop needs to back-map production samples);
// `yhc run` picks the yield table up automatically when present.
//
// All flag parsing goes through cli::Options (src/cli/options.h): declarative
// typed accessors, named "bad --flag" errors, exit 2 on usage problems.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/analysis/cfg.h"
#include "src/cli/options.h"
#include "src/common/strings.h"
#include "src/core/pipeline.h"
#include "src/faultinject/drift.h"
#include "src/faultinject/fault.h"
#include "src/faultinject/profile_faults.h"
#include "src/faultinject/serving_faults.h"
#include "src/instrument/side_table_io.h"
#include "src/isa/assembler.h"
#include "src/obs/diff/diff.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/export.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/snapshot.h"
#include "src/obs/trace.h"
#include "src/isa/program_io.h"
#include "src/profile/profile_io.h"
#include "src/runtime/annotate.h"
#include "src/serve/deployment.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::tools {
namespace {

using cli::Options;

int CmdAsm(Options& options) {
  options.RejectUnknownFlags("asm", {});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 2) {
    std::fprintf(stderr, "usage: yhc asm <in.s> <out.yh>\n");
    return 2;
  }
  std::ifstream in(options.positional()[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", options.positional()[0].c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();
  auto program = isa::Assemble(source.str(), options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "assembly failed: %s\n", program.status().ToString().c_str());
    return 1;
  }
  const Status saved = isa::SaveProgram(*program, options.positional()[1]);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("assembled %zu instructions -> %s\n", program->size(),
              options.positional()[1].c_str());
  return 0;
}

int CmdDis(Options& options) {
  options.RejectUnknownFlags("dis", {});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1) {
    std::fprintf(stderr, "usage: yhc dis <in.yh>\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  std::fputs(program->Disassemble().c_str(), stdout);
  return 0;
}

int CmdCfg(Options& options) {
  options.RejectUnknownFlags("cfg", {});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1) {
    std::fprintf(stderr, "usage: yhc cfg <in.yh>\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  auto cfg = analysis::ControlFlowGraph::Build(*program);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    return 1;
  }
  std::fputs(cfg->ToDot().c_str(), stdout);
  return 0;
}

int CmdInterval(Options& options) {
  options.RejectUnknownFlags("interval", {});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1) {
    std::fprintf(stderr, "usage: yhc interval <in.yh>\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  const sim::MachineConfig machine = sim::MachineConfig::SkylakeLike();
  const uint32_t cap = 1 << 20;
  const uint32_t worst = instrument::WorstCaseInterval(*program, machine.cost, cap);
  if (worst >= cap) {
    std::printf("worst-case inter-yield interval: unbounded (yield-free cycle)\n");
  } else {
    std::printf("worst-case inter-yield interval: %u cycles (%.1f ns at %.1f GHz)\n",
                worst, worst / machine.cycles_per_ns, machine.cycles_per_ns);
  }
  return 0;
}

int CmdRun(Options& options) {
  options.RejectUnknownFlags("run", {"group", "max-insns"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1) {
    std::fprintf(stderr, "usage: yhc run <in.yh> [--group N] [--reg N=V] "
                         "[--ring base,lines,stride] [--max-insns N]\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  const uint64_t group = options.PositiveU64("group", 1);
  const uint64_t max_insns = options.U64("max-insns", 100'000'000);
  if (!options.ok()) {
    return options.UsageError();
  }

  sim::Machine machine(sim::MachineConfig::SkylakeLike());
  const Status rings = options.ApplyRings(machine);
  if (!rings.ok()) {
    std::fprintf(stderr, "%s\n", rings.ToString().c_str());
    return 1;
  }

  instrument::InstrumentedProgram binary =
      runtime::AnnotateManualYields(*program, machine.config().cost);
  auto sidecar = instrument::LoadYieldTable(options.positional()[0] + ".yields");
  if (sidecar.ok()) {
    binary.yields = std::move(sidecar).value();
    std::printf("(loaded yield side-table: %zu entries)\n", binary.yields.size());
  }

  runtime::RoundRobinScheduler sched(&binary, &machine);
  for (uint64_t i = 0; i < group; ++i) {
    sched.AddCoroutine(options.MakeSetup(static_cast<int>(i)));
  }
  auto report = sched.Run(max_insns);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report->Summary().c_str());
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    std::printf("r%-2d=%llu%s", r, (unsigned long long)sched.context(0).regs[r],
                r % 4 == 3 ? "\n" : "  ");
  }
  return 0;
}

// Defined after RunObservedAdaptScenario: cycle-attribution mode of
// `yhc profile` (--folded / --top / --json).
int CmdProfileAttribution(Options& options);

int CmdProfile(Options& options) {
  if (options.Has("folded") || options.Has("top") || options.Has("json")) {
    return CmdProfileAttribution(options);
  }
  options.RejectUnknownFlags("profile", {"out", "period"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1 || !options.Has("out")) {
    std::fprintf(stderr,
                 "usage: yhc profile <in.yh> --out <prof> [--period N] "
                 "[--reg N=V] [--ring ...]\n"
                 "       yhc profile --folded|--top[=N]|--json [--out <path>] "
                 "[--tasks N] [--epoch N]\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  sim::Machine machine(sim::MachineConfig::SkylakeLike());
  const Status rings = options.ApplyRings(machine);
  if (!rings.ok()) {
    std::fprintf(stderr, "%s\n", rings.ToString().c_str());
    return 1;
  }
  profile::CollectorConfig config;
  const uint64_t period = options.PositiveU64("period", 29);
  if (!options.ok()) {
    return options.UsageError();
  }
  config.l2_miss_period = period;
  config.stall_cycles_period = period * 7;
  config.retired_period = period * 2 + 1;
  config.period_jitter = 0.1;
  auto result =
      profile::CollectProfile(*program, machine, options.MakeSetup(0), config);
  if (!result.ok()) {
    std::fprintf(stderr, "profiling failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const std::string out = options.Str("out", "");
  const Status saved = profile::SaveProfileData(result->profile, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("profiled %s cycles (%s instructions), overhead %.2f%% -> %s\n",
              WithCommas(result->run_cycles).c_str(),
              WithCommas(result->run_instructions).c_str(),
              100 * result->sampling_overhead_fraction, out.c_str());
  return 0;
}

int CmdInstrument(Options& options) {
  options.RejectUnknownFlags("instrument",
                             {"profile", "out", "interval", "threshold"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1 || !options.Has("profile") ||
      !options.Has("out")) {
    std::fprintf(stderr,
                 "usage: yhc instrument <in.yh> --profile <prof> --out <out.yh> "
                 "[--interval N] [--threshold X]\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  auto profile = profile::LoadProfileData(options.Str("profile", ""));
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }

  core::PipelineConfig config;
  config.machine = sim::MachineConfig::SkylakeLike();
  const uint64_t interval = options.PositiveU64("interval", 300);
  const double threshold = options.Double("threshold", -1.0);
  if (!options.ok()) {
    return options.UsageError();
  }
  config.scavenger.target_interval_cycles = static_cast<uint32_t>(interval);
  if (options.Has("threshold")) {
    config.primary.policy = instrument::PrimaryPolicy::kMissThreshold;
    config.primary.miss_probability_threshold = threshold;
  }
  config.Finalize();

  auto primary = instrument::RunPrimaryPass(*program, profile->loads, config.primary);
  if (!primary.ok()) {
    std::fprintf(stderr, "primary pass failed: %s\n",
                 primary.status().ToString().c_str());
    return 1;
  }
  const instrument::AddrMap& map = primary->instrumented.addr_map;
  const profile::BlockLatencyProfile translated = profile->blocks.Translated(
      [&map](isa::Addr addr) {
        return addr < map.old_size() ? map.Translate(addr) : addr;
      });
  auto scavenger = instrument::RunScavengerPass(primary->instrumented, &translated,
                                                config.scavenger);
  if (!scavenger.ok()) {
    std::fprintf(stderr, "scavenger pass failed: %s\n",
                 scavenger.status().ToString().c_str());
    return 1;
  }
  instrument::VerifyOptions verify;
  verify.machine_cost = config.machine.cost;
  const Status verdict =
      instrument::VerifyInstrumentation(*program, scavenger->instrumented, verify);
  if (!verdict.ok()) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s\n", verdict.ToString().c_str());
    return 1;
  }

  const std::string out = options.Str("out", "");
  Status saved = isa::SaveProgram(scavenger->instrumented.program, out);
  if (saved.ok()) {
    saved = instrument::SaveYieldTable(scavenger->instrumented.yields, out + ".yields");
  }
  if (saved.ok()) {
    saved = instrument::SaveAddrMap(scavenger->instrumented.addr_map, out + ".map");
  }
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("%s\n%s\nverified; wrote %s (+.yields, +.map)\n",
              primary->report.ToString().c_str(),
              scavenger->report.ToString().c_str(), out.c_str());
  return 0;
}

// Chaos harness: collect a clean profile, inject the requested faults (stale
// drifts the binary out from under the profile; the rest corrupt the profile
// itself), re-instrument, and compare a dual-mode run against the
// uninstrumented baseline. Demonstrates every graceful-degradation layer from
// the shell: sanitize drops, confidence-gate quarantine, verification
// fallback, and the runtime site quarantine.
int CmdChaos(Options& options) {
  options.RejectUnknownFlags("chaos",
                             {"fault", "group", "period", "seed", "quarantine"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() != 1 || !options.Has("fault")) {
    std::fprintf(stderr,
                 "usage: yhc chaos <in.yh> --fault=<class:sev>[,...] [--group N] "
                 "[--period N] [--seed S] [--quarantine 0|1] [--reg N=V] "
                 "[--ring base,lines,stride]\n"
                 "fault classes: ip_alias, skid, drop, period_alias, stale\n");
    return 2;
  }
  auto program = isa::LoadProgram(options.positional()[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  auto faults = faultinject::ParseFaultList(options.Str("fault", ""));
  if (!faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.status().ToString().c_str());
    return 1;
  }
  const uint64_t group = options.PositiveU64("group", 8);
  const uint64_t period = options.PositiveU64("period", 29);
  const uint64_t seed = options.U64("seed", 1);
  const uint64_t quarantine = options.U64("quarantine", 1);
  if (!options.ok()) {
    return options.UsageError();
  }

  // --- step 1: clean profile of the original binary ------------------------
  sim::Machine profile_machine(sim::MachineConfig::SkylakeLike());
  Status rings = options.ApplyRings(profile_machine);
  if (!rings.ok()) {
    std::fprintf(stderr, "%s\n", rings.ToString().c_str());
    return 1;
  }
  profile::CollectorConfig collector;
  collector.l2_miss_period = period;
  collector.stall_cycles_period = period * 7;
  collector.retired_period = period * 2 + 1;
  collector.period_jitter = 0.1;
  auto collected = profile::CollectProfile(*program, profile_machine,
                                           options.MakeSetup(0), collector);
  if (!collected.ok()) {
    std::fprintf(stderr, "profiling failed: %s\n",
                 collected.status().ToString().c_str());
    return 1;
  }
  std::printf("clean profile: %s cycles, %zu load sites\n",
              WithCommas(collected->run_cycles).c_str(),
              collected->profile.loads.sites().size());

  // --- step 2: inject the faults -------------------------------------------
  isa::Program target = *program;  // what "production" will actually run
  profile::ProfileData profile = std::move(collected->profile);
  for (const faultinject::FaultSpec& spec : *faults) {
    faultinject::FaultSpec seeded = spec;
    seeded.seed = seed;
    if (spec.fault == faultinject::FaultClass::kStaleBinary) {
      faultinject::DriftConfig drift;
      drift.severity = spec.severity;
      drift.seed = seed;
      auto drifted = faultinject::DriftProgram(target, drift);
      if (!drifted.ok()) {
        std::fprintf(stderr, "drift failed: %s\n",
                     drifted.status().ToString().c_str());
        return 1;
      }
      std::printf("inject stale:%.2f -> %s\n", spec.severity,
                  drifted->report.ToString().c_str());
      target = std::move(drifted->program);
    } else {
      profile = faultinject::CorruptProfile(
          profile, seeded, static_cast<isa::Addr>(target.size()));
      std::printf("inject %s:%.2f on profile\n",
                  faultinject::FaultClassName(spec.fault), spec.severity);
    }
  }

  // --- step 3: sanitize + instrument with graceful fallback ----------------
  const profile::ProfileSanitizeReport sanitized =
      profile::SanitizeProfileData(profile, static_cast<isa::Addr>(target.size()));
  std::printf("%s\n", sanitized.ToString().c_str());

  core::PipelineConfig config;
  config.machine = sim::MachineConfig::SkylakeLike();
  config.Finalize();
  instrument::InstrumentedProgram binary;
  bool instrumented_ok = false;
  auto primary = instrument::RunPrimaryPass(target, profile.loads, config.primary);
  if (!primary.ok()) {
    std::printf("primary pass failed (%s); running uninstrumented\n",
                primary.status().ToString().c_str());
  } else {
    std::printf("%s\n", primary->report.ToString().c_str());
    const instrument::AddrMap& map = primary->instrumented.addr_map;
    const profile::BlockLatencyProfile translated = profile.blocks.Translated(
        [&map](isa::Addr addr) {
          return addr < map.old_size() ? map.Translate(addr) : addr;
        });
    auto scavenger = instrument::RunScavengerPass(primary->instrumented,
                                                  &translated, config.scavenger);
    if (!scavenger.ok()) {
      std::printf("scavenger pass failed (%s); running uninstrumented\n",
                  scavenger.status().ToString().c_str());
    } else {
      instrument::VerifyOptions verify;
      verify.machine_cost = config.machine.cost;
      const Status verdict =
          instrument::VerifyInstrumentation(target, scavenger->instrumented, verify);
      if (!verdict.ok()) {
        std::printf("VERIFICATION FAILED (%s); running uninstrumented\n",
                    verdict.ToString().c_str());
      } else {
        binary = std::move(scavenger->instrumented);
        instrumented_ok = true;
      }
    }
  }
  if (!instrumented_ok) {
    binary = runtime::AnnotateManualYields(target, config.machine.cost);
  }

  // --- step 4: dual-mode run vs uninstrumented baseline --------------------
  auto dual_run = [&](const instrument::InstrumentedProgram& bin,
                      bool enable_quarantine,
                      bool with_scavengers) -> Result<runtime::DualModeReport> {
    sim::Machine machine(sim::MachineConfig::SkylakeLike());
    YH_RETURN_IF_ERROR(options.ApplyRings(machine));
    runtime::DualModeConfig dm;
    dm.site_quarantine = enable_quarantine;
    runtime::DualModeScheduler sched(&bin, &bin, &machine, dm);
    for (uint64_t i = 0; i < group; ++i) {
      sched.AddPrimaryTask(options.MakeSetup(static_cast<int>(i)));
    }
    if (with_scavengers) {
      int task = static_cast<int>(group);
      sched.SetScavengerFactory([&options, task]() mutable
                                    -> std::optional<std::function<void(sim::CpuContext&)>> {
        return options.MakeSetup(task++);
      });
    }
    return sched.Run();
  };

  const instrument::InstrumentedProgram baseline_binary =
      runtime::AnnotateManualYields(target, config.machine.cost);
  auto baseline = dual_run(baseline_binary, false, false);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline run failed: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  auto chaos = dual_run(binary, quarantine != 0, true);
  if (!chaos.ok()) {
    std::fprintf(stderr, "chaos run failed: %s\n",
                 chaos.status().ToString().c_str());
    return 1;
  }

  std::printf("baseline: %s\n", baseline->Summary().c_str());
  std::printf("faulted : %s\n", chaos->Summary().c_str());
  const double slowdown =
      baseline->run.total_cycles == 0
          ? 0.0
          : static_cast<double>(chaos->run.total_cycles) /
                static_cast<double>(baseline->run.total_cycles);
  std::printf("total cycles: baseline=%s faulted=%s -> %.3fx %s\n",
              WithCommas(baseline->run.total_cycles).c_str(),
              WithCommas(chaos->run.total_cycles).c_str(), slowdown,
              slowdown <= 1.15 ? "(within 1.15x bound)" : "(EXCEEDS 1.15x bound)");
  return slowdown <= 1.15 ? 0 : 1;
}

// Shared by every serving command: the drifting-PhasedChase scenario — a
// stale binary built from a severity-0 twin, today's traffic drawing phase B
// with P = severity from task `flip_task_index` on. `metrics`, when set,
// receives the telemetry of the stale build and of every online rebuild.
struct AdaptScenario {
  core::PipelineConfig pipeline;
  core::PipelineArtifacts stale;
  workloads::PhasedChase twin;   // yesterday's traffic, which `stale` fits
  workloads::PhasedChase chase;  // today's traffic
};

Result<AdaptScenario> BuildAdaptScenario(
    uint64_t nodes, uint64_t steps, double severity, int flip_task_index,
    obs::MetricsRegistry* metrics = nullptr) {
  core::PipelineConfig pipeline;
  pipeline.machine = sim::MachineConfig::SkylakeLike();
  pipeline.collector.l2_miss_period = 29;
  pipeline.collector.stall_cycles_period = 199;
  pipeline.collector.retired_period = 61;
  pipeline.collector.period_jitter = 0.1;
  pipeline.metrics = metrics;
  pipeline.Finalize();

  workloads::PhasedChase::Config yesterday;
  yesterday.num_nodes = nodes;
  yesterday.steps_per_task = steps;
  yesterday.severity = 0.0;
  YH_ASSIGN_OR_RETURN(workloads::PhasedChase twin,
                      workloads::PhasedChase::Make(yesterday));
  YH_ASSIGN_OR_RETURN(core::PipelineArtifacts stale,
                      core::BuildInstrumentedForWorkload(twin, pipeline));

  workloads::PhasedChase::Config today = yesterday;
  today.severity = severity;
  today.flip_task_index = flip_task_index;
  YH_ASSIGN_OR_RETURN(workloads::PhasedChase chase,
                      workloads::PhasedChase::Make(today));
  return AdaptScenario{std::move(pipeline), std::move(stale), std::move(twin),
                       std::move(chase)};
}

// The group every serving command runs the scenario on: rebuilds go through
// the scenario's pipeline, and four scavenger slots hide 300-cycle windows.
adapt::ServerGroupConfig ScenarioGroup(const AdaptScenario& scenario,
                                       uint64_t shards, uint64_t epoch,
                                       bool adapting, double threshold) {
  adapt::ServerGroupConfig config;
  config.shards = shards;
  config.shard.controller.pipeline = scenario.pipeline;
  config.shard.controller.drift_threshold = threshold;
  config.shard.tasks_per_epoch = static_cast<int>(epoch);
  config.shard.adapt_enabled = adapting;
  config.shard.scale_pool = adapting;
  config.shard.dual.max_scavengers = 4;
  config.shard.dual.hide_window_cycles = 300;
  return config;
}

// Serving-layer chaos (docs/ROBUSTNESS.md): --fault takes the serving fault
// classes (rebuild_fail, backmap, regress, stall, store_corrupt); the
// pipeline classes belong to `yhc chaos`. Installs the hooks in `config` and
// returns the parsed specs, or prints the named error and returns nullopt
// (a usage error).
std::optional<std::vector<faultinject::FaultSpec>> ApplyServingFaults(
    const std::string& fault_list, const AdaptScenario& scenario,
    const char* command, adapt::ServerGroupConfig* config) {
  if (fault_list.empty()) {
    return std::vector<faultinject::FaultSpec>{};
  }
  auto specs = faultinject::ParseFaultList(fault_list);
  if (!specs.ok()) {
    std::fprintf(stderr, "yhc %s: %s\n", command,
                 specs.status().ToString().c_str());
    return std::nullopt;
  }
  auto hooks = faultinject::MakeServingFaultHooks(
      *specs, static_cast<isa::Addr>(scenario.chase.program().size()));
  if (!hooks.ok()) {
    std::fprintf(stderr, "yhc %s: %s\n", command,
                 hooks.status().ToString().c_str());
    return std::nullopt;
  }
  config->fault_hooks = std::move(hooks).value();
  return std::move(specs).value();
}

// Closed-loop serving of the scenario: shard s serves chase tasks
// [s*tasks, (s+1)*tasks) on its own machine, and its scavengers serve extra
// chase requests from a range no task reaches — shared-binary mode, so they
// are swapped together with the primary binary. Every task's result is then
// checked on its shard's memory image.
struct ClosedLoopRun {
  adapt::GroupReport report;
  int wrong = 0;  // tasks whose chase result is wrong
};

Result<ClosedLoopRun> ServeClosedLoop(const AdaptScenario& scenario,
                                      const adapt::ServerGroupConfig& config,
                                      int tasks,
                                      obs::TraceRecorder* trace = nullptr,
                                      obs::MetricsRegistry* metrics = nullptr,
                                      obs::CycleProfiler* profiler = nullptr) {
  const workloads::PhasedChase& chase = scenario.chase;
  const int shards = static_cast<int>(config.shards);
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Machine*> machine_ptrs;
  for (int s = 0; s < shards; ++s) {
    machines.push_back(
        std::make_unique<sim::Machine>(scenario.pipeline.machine));
    chase.InitMemory(machines.back()->memory());
    machine_ptrs.push_back(machines.back().get());
  }
  adapt::ServerGroup group(&chase.program(), scenario.stale, machine_ptrs,
                           config);
  group.SetObservability(trace, metrics);
  group.SetProfiler(0, profiler);
  for (int s = 0; s < shards; ++s) {
    for (int i = 0; i < tasks; ++i) {
      group.AddTask(s, chase.SetupFor(s * tasks + i));
    }
    int extra = shards * tasks + s * 100000;
    group.SetScavengerFactory(
        s, [&chase, extra]() mutable
               -> std::optional<runtime::DualModeScheduler::ContextSetup> {
          return chase.SetupFor(extra++);
        });
  }
  ClosedLoopRun run;
  YH_ASSIGN_OR_RETURN(run.report, group.Run());
  for (int s = 0; s < shards; ++s) {
    for (int i = 0; i < tasks; ++i) {
      const int index = s * tasks + i;
      if (chase.ReadResult(machines[s]->memory(), index) !=
          chase.ExpectedResult(index)) {
        ++run.wrong;
      }
    }
  }
  return run;
}

// Online adaptation demo (docs/ONLINE.md), end to end from the shell: serve a
// drifting PhasedChase request stream from a STALE binary and let the adapt
// subsystem repair it live on one core (a ServerGroup with one shard).
// Yesterday's instrumentation comes from a severity-0 twin (all traffic
// phase A, same rings, same program); today's mix draws phase B with
// P = --severity, whose loads the stale binary never covers. The shard keeps
// a low-period sampling session attached, scores drift each --epoch tasks,
// and past --threshold re-instruments the original binary and hot-swaps it
// at a task boundary. --adapt 0 demotes the controller to a monitor-only
// control run (scores drift, never acts).
int CmdAdapt(Options& options) {
  const uint64_t tasks = options.PositiveU64("tasks", 32);
  const uint64_t epoch = options.PositiveU64("epoch", 8);
  const uint64_t flip = options.U64("flip", 0);
  const uint64_t nodes = options.PositiveU64("nodes", 1 << 18);
  const uint64_t steps = options.PositiveU64("steps", 400);
  const uint64_t adapt_on = options.U64("adapt", 1);
  const double severity = options.UnitDouble("severity", 1.0);
  const double threshold = options.Double("threshold", 0.25);
  options.RejectUnknownFlags("adapt", {"tasks", "epoch", "flip", "nodes",
                                       "steps", "adapt", "severity",
                                       "threshold"});
  if (!options.ok()) {
    return options.UsageError();
  }

  auto scenario = BuildAdaptScenario(nodes, steps, severity,
                                     static_cast<int>(flip));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("stale instrumentation (phase-A profile): %s\n",
              scenario->stale.Summary().c_str());
  const adapt::ServerGroupConfig config =
      ScenarioGroup(*scenario, 1, epoch, adapt_on != 0, threshold);
  const Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  const int n = static_cast<int>(tasks);
  auto run = ServeClosedLoop(*scenario, config, n);
  if (!run.ok()) {
    std::fprintf(stderr, "adaptive run failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const adapt::AdaptReport& report = run->report.shards[0];
  std::printf("%-6s %-6s %-11s %-6s %-6s %-4s %-5s %s\n", "epoch", "tasks",
              "cycles", "eff", "drift", "cap", "occ", "swap");
  for (const adapt::EpochTelemetry& e : report.epochs) {
    std::printf("%-6zu %-6zu %-11s %-6.3f %-6.3f %-4zu %-5.2f %s\n", e.epoch,
                e.tasks_completed, WithCommas(e.cycles).c_str(), e.efficiency,
                e.drift, e.pool_cap, e.burst_occupancy, e.swapped ? "SWAP" : "-");
  }
  std::printf("%s\n", report.Summary().c_str());

  // Correctness across any number of mid-run hot swaps: every request must
  // still produce the phase-correct chase result.
  if (run->wrong != 0) {
    std::fprintf(stderr, "%d/%d results WRONG after adaptation\n", run->wrong,
                 n);
    return 1;
  }
  std::printf("%d/%d results correct; swaps=%d\n", n, n, report.swaps);
  return 0;
}

// Open-loop serving (docs/SERVING.md): requests ARRIVE on their own clock —
// a seeded Poisson or bursty (MMPP) ArrivalProcess per shard — instead of
// being pre-loaded, flow through the staged connection pipeline into a
// bounded queue (overload sheds), and are handled on the shard's primary
// coroutine group while queued requests behind the head ride the scavenger
// slots. Reports the conservation ledger and end-to-end latency tails.
int CmdServeOpenLoop(Options& options) {
  const uint64_t shards = options.PositiveU64("shards", 1);
  const uint64_t epoch = options.PositiveU64("epoch", 8);
  const uint64_t nodes = options.PositiveU64("nodes", 1 << 16);
  const uint64_t steps = options.PositiveU64("steps", 300);
  const uint64_t adapt_on = options.U64("adapt", 1);
  const double severity = options.UnitDouble("severity", 0.0);
  const double threshold = options.Double("threshold", 0.25);
  const uint64_t guard_on = options.U64("guard", 0);
  const uint64_t guard_window = options.PositiveU64("guard-window", 3);
  const double guard_ratio = options.Double("guard-ratio", 2.5);
  const std::string arrival =
      options.Choice("arrival", "poisson", {"poisson", "burst"});
  const double rate = options.PositiveDouble("rate", 0.02);
  const uint64_t duration = options.PositiveU64("duration", 2'000'000);
  const uint64_t seed = options.PositiveU64("seed", 1);
  const uint64_t queue_cap = options.PositiveU64("queue-cap", 32);
  const uint64_t scavenge = options.U64("scavenge", 1);
  const std::vector<std::string> tenant_flags = options.StrList("tenant");
  const double tenant_drift = options.Double("tenant-drift", 0.0);
  const std::string fault_list = options.Str("fault", "");
  options.RejectUnknownFlags(
      "serve", {"shards", "epoch", "nodes", "steps", "adapt", "severity",
                "threshold", "guard", "guard-window", "guard-ratio", "arrival",
                "rate", "duration", "seed", "queue-cap", "scavenge", "tenant",
                "tenant-drift", "fault"});
  if (!options.ok()) {
    return options.UsageError();
  }

  // Repeatable --tenant name:class:share[:budget]; per-spec field errors and
  // set-level errors (duplicate names, shares summing past 1.0, checked when
  // the deployment is built) are named and exit 2 like any other usage
  // problem. No --tenant = the implicit single foreground tenant — existing
  // invocations are unchanged bit for bit.
  serve::DeploymentSpec spec;
  serve::FrontEndConfig& fe = spec.front_end;
  for (const std::string& tenant : tenant_flags) {
    auto parsed = serve::ParseTenantSpec(tenant);
    if (!parsed.ok()) {
      std::fprintf(stderr, "yhc serve: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    fe.tenants.push_back(std::move(parsed).value());
  }

  auto scenario = BuildAdaptScenario(nodes, steps, severity, /*flip=*/0);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  spec.group =
      ScenarioGroup(*scenario, shards, epoch, adapt_on != 0, threshold);
  spec.group.guard.enabled = guard_on != 0;
  spec.group.guard.confirmation_window = static_cast<int>(guard_window);
  spec.group.guard.regression_ratio = guard_ratio;
  spec.group.tenant_drift_threshold = tenant_drift;
  if (!ApplyServingFaults(fault_list, *scenario, "serve", &spec.group)) {
    return 2;
  }
  fe.arrival.kind = arrival == "burst" ? serve::ArrivalConfig::Kind::kBurst
                                       : serve::ArrivalConfig::Kind::kPoisson;
  fe.arrival.rate_per_kcycle = rate;
  fe.arrival.horizon_cycles = duration;
  fe.arrival.seed = seed;
  fe.queue_capacity = queue_cap;
  fe.scavengers_serve = scavenge != 0;
  // Multi-tenant noisy-neighbor shape: FOREGROUND tenants serve the stable
  // severity-0 twin (the workload the stale binary was built for) while
  // BACKGROUND tenants serve the drifting stream — `--tenant victim:fg:...
  // --tenant antagonist:bg:... --severity X` reproduces the Q1 antagonist
  // scenario from the shell.
  if (fe.tenants.size() > 1) {
    spec.stable = &scenario->twin;
  }
  obs::MetricsRegistry metrics;
  spec.metrics = &metrics;
  spec.tenant_slos = true;
  auto deployment =
      serve::Deployment::Build(scenario->chase, scenario->stale, spec);
  if (!deployment.ok()) {
    std::fprintf(stderr, "yhc serve: %s\n",
                 deployment.status().ToString().c_str());
    return 2;
  }
  auto report = deployment->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "open-loop serve failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("arrival=%s rate=%.4g/kcycle duration=%s seed=%llu shards=%llu "
              "queue-cap=%llu scavenge=%llu\n",
              arrival.c_str(), rate, WithCommas(duration).c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(shards),
              static_cast<unsigned long long>(queue_cap),
              static_cast<unsigned long long>(scavenge));
  std::printf("%-6s %-8s %-9s %-6s %-10s %-9s %-9s %-9s %s\n", "shard",
              "offered", "admitted", "shed", "completed", "p50", "p99",
              "p999", "ledger");
  bool conserved = true;
  for (uint64_t s = 0; s < shards; ++s) {
    const serve::FrontEndReport fr = deployment->front_end(s).report();
    const bool ok = fr.ConservationHolds() && fr.TenantLedgersConsistent();
    conserved = conserved && ok;
    std::printf("%-6llu %-8llu %-9llu %-6llu %-10llu %-9llu %-9llu %-9llu %s\n",
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(fr.counters.offered),
                static_cast<unsigned long long>(fr.counters.admitted),
                static_cast<unsigned long long>(fr.counters.shed),
                static_cast<unsigned long long>(fr.counters.completed),
                static_cast<unsigned long long>(fr.latency.P50()),
                static_cast<unsigned long long>(fr.latency.P99()),
                static_cast<unsigned long long>(
                    fr.latency.ValueAtQuantile(0.999)),
                ok ? "ok" : "BROKEN");
    std::printf("       %s\n", fr.Summary().c_str());
  }
  if (!conserved) {
    std::fprintf(stderr, "request conservation VIOLATED\n");
    return 1;
  }
  std::printf("%s\n", report->Summary().c_str());
  std::printf("conservation ok across %llu shard(s)\n",
              static_cast<unsigned long long>(shards));
  return 0;
}

// Sharded serving (docs/ONLINE.md): the CmdAdapt scenario on a ServerGroup —
// N simulated cores serve independent slices of the drifting request stream,
// evidence merges in the SharedProfileStore, and swaps stagger so no two
// shards rebuild in the same epoch. --store <path> persists the merged
// profile across runs (the next invocation warm-starts from it).
// With --arrival the command switches to the OPEN-LOOP front end
// (CmdServeOpenLoop, docs/SERVING.md).
int CmdServe(Options& options) {
  if (options.Has("arrival")) {
    return CmdServeOpenLoop(options);
  }
  const uint64_t shards = options.PositiveU64("shards", 4);
  const uint64_t tasks = options.PositiveU64("tasks", 32);  // per shard
  const uint64_t epoch = options.PositiveU64("epoch", 8);
  const uint64_t flip = options.U64("flip", 0);
  const uint64_t nodes = options.PositiveU64("nodes", 1 << 18);
  const uint64_t steps = options.PositiveU64("steps", 400);
  const uint64_t adapt_on = options.U64("adapt", 1);
  const uint64_t warm = options.U64("warm-start", 1);
  const double severity = options.UnitDouble("severity", 1.0);
  const double threshold = options.Double("threshold", 0.25);
  const std::string store_path = options.Str("store", "");
  const uint64_t guard_on = options.U64("guard", 0);
  const uint64_t guard_window = options.PositiveU64("guard-window", 3);
  // The adapt scenario's single hot loop prices hiding at roughly 2x wall
  // cycles per op (every primary load yields), so the canary threshold sits
  // above that; sharded production workloads tune it per deployment.
  const double guard_ratio = options.Double("guard-ratio", 2.5);
  const std::string fault_list = options.Str("fault", "");
  options.RejectUnknownFlags(
      "serve", {"shards", "tasks", "epoch", "flip", "nodes", "steps", "adapt",
                "warm-start", "severity", "threshold", "store", "guard",
                "guard-window", "guard-ratio", "fault"});
  if (!options.ok()) {
    return options.UsageError();
  }

  auto scenario = BuildAdaptScenario(nodes, steps, severity,
                                     static_cast<int>(flip));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("stale instrumentation (phase-A profile): %s\n",
              scenario->stale.Summary().c_str());

  adapt::ServerGroupConfig config =
      ScenarioGroup(*scenario, shards, epoch, adapt_on != 0, threshold);
  config.profile_path = store_path;
  config.warm_start = warm != 0;
  config.guard.enabled = guard_on != 0;
  config.guard.confirmation_window = static_cast<int>(guard_window);
  config.guard.regression_ratio = guard_ratio;
  const Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  const auto faults =
      ApplyServingFaults(fault_list, *scenario, "serve", &config);
  if (!faults.has_value()) {
    return 2;
  }
  for (const faultinject::FaultSpec& spec : *faults) {
    if (spec.fault == faultinject::FaultClass::kStoreCorrupt &&
        !store_path.empty()) {
      // Rot the persisted store before the warm start reads it; a missing
      // file just means there is nothing to corrupt yet.
      const Status rotted = faultinject::CorruptStoreFile(store_path, spec);
      if (rotted.ok()) {
        std::printf("store file %s corrupted (severity %.2f)\n",
                    store_path.c_str(), spec.severity);
      }
    }
  }

  const int n = static_cast<int>(tasks);
  auto run = ServeClosedLoop(*scenario, config, n);
  if (!run.ok()) {
    std::fprintf(stderr, "sharded run failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const adapt::GroupReport& report = run->report;

  std::printf("%-6s %-7s %-6s %-7s %-7s %s\n", "shard", "epochs", "swaps",
              "drift", "eff", "last epochs (drift)");
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const adapt::AdaptReport& r = report.shards[s];
    std::string tail;
    const size_t shown = r.epochs.size() < 4 ? r.epochs.size() : 4;
    for (size_t e = r.epochs.size() - shown; e < r.epochs.size(); ++e) {
      tail += StrFormat("%.2f%s ", r.epochs[e].drift,
                        r.epochs[e].swapped ? "*" : "");
    }
    std::printf("%-6zu %-7zu %-6d %-7.3f %-7.1f %s\n", s, r.epochs.size(),
                r.swaps, r.final_drift, 100.0 * r.run.CpuEfficiency(),
                tail.c_str());
  }
  for (const auto& [swap_epoch, shard] : report.swap_log) {
    std::printf("swap: epoch %zu shard %zu\n", swap_epoch, shard);
  }

  // The stagger invariant, verified from the audit trail: no two installs
  // share a group epoch.
  std::set<size_t> swap_epochs;
  for (const auto& [swap_epoch, shard] : report.swap_log) {
    if (!swap_epochs.insert(swap_epoch).second) {
      std::fprintf(stderr, "stagger VIOLATED: two swaps in epoch %zu\n",
                   swap_epoch);
      return 1;
    }
  }

  // Correctness on every shard's own memory image.
  if (run->wrong != 0) {
    std::fprintf(stderr, "%d/%d results WRONG after sharded adaptation\n",
                 run->wrong, static_cast<int>(shards) * n);
    return 1;
  }
  for (const adapt::GuardEvent& event : report.guard_log) {
    std::printf("guard: %s\n", event.ToString().c_str());
  }
  std::printf("%s\n", report.Summary().c_str());
  std::printf("%d/%d results correct; stagger ok (%zu installs, %d rebuilds)\n",
              static_cast<int>(shards) * n, static_cast<int>(shards) * n,
              report.swap_log.size(), report.rebuilds);
  if (!store_path.empty()) {
    std::printf("profile store saved to %s (warm_started=%s)\n",
                store_path.c_str(), report.warm_started ? "yes" : "no");
  }
  return 0;
}

// Shared by `yhc trace` / `yhc metrics` / `yhc profile`: the CmdAdapt
// scenario — serve a drifting PhasedChase stream from a stale binary with
// online adaptation on — with observability attached and smaller defaults, so
// one command produces a trace/metrics snapshot covering profile, instrument,
// run, and adapt. Prints progress to stderr only; stdout belongs to the
// caller's export.
int RunObservedAdaptScenario(Options& options, obs::TraceRecorder* trace,
                             obs::MetricsRegistry* metrics,
                             double* cycles_per_ns_out,
                             obs::CycleProfiler* profiler = nullptr) {
  const uint64_t tasks = options.PositiveU64("tasks", 24);
  const uint64_t epoch = options.PositiveU64("epoch", 6);
  const uint64_t nodes = options.PositiveU64("nodes", 1 << 16);
  const uint64_t steps = options.PositiveU64("steps", 300);
  const double severity = options.UnitDouble("severity", 1.0);
  if (!options.ok()) {
    return options.UsageError();
  }

  // Traffic may drift from task 8 on, the PhasedChase default.
  auto scenario =
      BuildAdaptScenario(nodes, steps, severity, /*flip=*/8, metrics);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  if (cycles_per_ns_out != nullptr) {
    *cycles_per_ns_out = scenario->pipeline.machine.cycles_per_ns;
  }
  adapt::ServerGroupConfig config = ScenarioGroup(
      *scenario, 1, epoch, /*adapting=*/true, /*threshold=*/0.25);
  config.shard.drift_aware_sampling = true;
  auto run = ServeClosedLoop(*scenario, config, static_cast<int>(tasks), trace,
                             metrics, profiler);
  if (!run.ok()) {
    std::fprintf(stderr, "adaptive run failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s\n", run->report.shards[0].Summary().c_str());
  return 0;
}

// Writes `text` to --out if given, else stdout.
int EmitDocument(const Options& options, const std::string& text) {
  if (!options.Has("out")) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  const std::string path = options.Str("out", "");
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  out << text;
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(), text.size());
  return 0;
}

// Cycle attribution: run the adaptation scenario with a CycleProfiler on the
// scheduler (inline hooks) AND fed from the trace recorder's streaming drain,
// then render where every cycle went — folded stacks for a flamegraph, a
// pprof-style top table, or JSON (docs/PROFILER.md).
int CmdProfileAttribution(Options& options) {
  // A typoed flag must not silently run the default scenario and look like
  // success: the attribution mode takes a closed flag set.
  options.RejectUnknownFlags("profile", {"folded", "top", "json", "out",
                                         "tasks", "epoch", "nodes", "steps",
                                         "severity"});
  if (!options.ok()) {
    return options.UsageError();
  }
  const int modes = (options.Has("folded") ? 1 : 0) +
                    (options.Has("top") ? 1 : 0) +
                    (options.Has("json") ? 1 : 0);
  if (modes != 1 || !options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: yhc profile --folded|--top[=N]|--json [--out <path>] "
                 "[--tasks N] [--epoch N] [--nodes N] [--steps N] "
                 "[--severity X]\n");
    return 2;
  }
  const size_t top_n = options.TopN(10);
  if (!options.ok()) {
    return options.UsageError();
  }

  obs::CycleProfiler profiler;
  // Small ring so the scenario wraps: the profiler's stream-side tallies come
  // from the flush-on-half-full drain, not a post-run snapshot.
  obs::TraceConfig trace_config;
  trace_config.capacity = 1 << 12;
  obs::TraceRecorder recorder(trace_config);
  recorder.SetSink(profiler.MakeTraceSink());

  const int run = RunObservedAdaptScenario(options, &recorder, nullptr,
                                           nullptr, &profiler);
  if (run != 0) {
    return run;
  }
  recorder.DrainToSink();
  std::fprintf(stderr, "profile: %s cycles classified across %zu sites\n",
               WithCommas(profiler.classified_cycles()).c_str(),
               profiler.sites().size());

  std::string doc;
  if (options.Has("folded")) {
    doc = obs::ToFoldedStacks(profiler);
  } else if (options.Has("top")) {
    doc = obs::ToTopTable(profiler, top_n);
  } else {
    doc = obs::ToProfileJson(profiler);
    const Status valid = obs::ValidateJson(doc);
    if (!valid.ok()) {
      std::fprintf(stderr, "internal error: profile is not valid JSON: %s\n",
                   valid.ToString().c_str());
      return 1;
    }
  }
  return EmitDocument(options, doc);
}

// Shared by `yhc spans` / `yhc slo` / `yhc why`: the open-loop serving
// scenario (CmdServeOpenLoop's shape, smaller defaults) with a SpanCollector
// and an SloEvaluator per shard — the front end feeds admission/harvest
// transitions and SLO records, the scheduler feeds the execution interior.
// Span/SLO/guard trace events stream through a small-ring TraceRecorder's
// sink (flush-on-half-full) into `events`, which --perfetto renders.
//
// `diagnose` is `yhc why`: a planted mid-stream workload flip (--severity/
// --flip) and, optionally, adaptation + the guard + injected serving faults
// (--adapt/--guard/--fault), so the diagnosis has both failure modes to tell
// apart. Every diagnostic feed rides along per shard: a CycleProfiler with
// per-site epoch snapshots, span slices, and a tail ExemplarReservoir.
struct ObservedServe {
  std::optional<serve::Deployment> deployment;
  adapt::GroupReport report;
  std::vector<obs::TraceEvent> events;  // drained span/SLO/guard stream
  double cycles_per_ns = 1.0;
};

int RunObservedServe(Options& options, const char* command,
                     const obs::SloConfig& slo, bool diagnose,
                     ObservedServe* out) {
  const uint64_t shards = options.PositiveU64("shards", 1);
  const uint64_t epoch = options.PositiveU64("epoch", 8);
  const uint64_t nodes = options.PositiveU64("nodes", 1 << 16);
  const uint64_t steps = options.PositiveU64("steps", 300);
  const std::string arrival =
      options.Choice("arrival", "poisson", {"poisson", "burst"});
  const double rate = options.PositiveDouble("rate", 0.02);
  const uint64_t duration =
      options.PositiveU64("duration", diagnose ? 4'000'000 : 1'000'000);
  const uint64_t seed = options.PositiveU64("seed", 1);
  const uint64_t queue_cap = options.PositiveU64("queue-cap", 32);
  // Only `yhc why` accepts these; spans and slo reject them as unknown.
  const double severity = options.UnitDouble("severity", diagnose ? 1.0 : 0.0);
  const uint64_t flip = options.U64("flip", diagnose ? 40 : 0);
  const uint64_t adapt_on = options.U64("adapt", 0);
  const uint64_t guard_on = options.U64("guard", 0);
  const double threshold = options.Double("threshold", 0.25);
  const std::string fault_list = options.Str("fault", "");
  if (!options.ok()) {
    return options.UsageError();
  }

  auto scenario =
      BuildAdaptScenario(nodes, steps, severity, static_cast<int>(flip));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  out->cycles_per_ns = scenario->pipeline.machine.cycles_per_ns;

  serve::DeploymentSpec spec;
  spec.group =
      ScenarioGroup(*scenario, shards, epoch, adapt_on != 0, threshold);
  if (guard_on != 0) {
    spec.group.guard.enabled = true;
    spec.group.guard.confirmation_window = 2;
    spec.group.guard.consult_slo = true;
  }
  if (!ApplyServingFaults(fault_list, *scenario, command, &spec.group)) {
    return 2;
  }
  spec.front_end.arrival.kind = arrival == "burst"
                                    ? serve::ArrivalConfig::Kind::kBurst
                                    : serve::ArrivalConfig::Kind::kPoisson;
  spec.front_end.arrival.rate_per_kcycle = rate;
  spec.front_end.arrival.horizon_cycles = duration;
  spec.front_end.arrival.seed = seed;
  spec.front_end.queue_capacity = queue_cap;

  // Small ring + sink: the exported stream comes from the flush-on-half-full
  // drain, not a post-run snapshot — same machinery `yhc profile` exercises.
  // Guard rides along so `--perfetto` renders canary confirmation windows as
  // control-plane track slices over the request timelines (trace.cc / span.cc
  // share the state machine); with adaptation off the category is just empty.
  obs::TraceConfig trace_config;
  trace_config.capacity = 1 << 12;
  trace_config.mask = obs::kTraceSpan | obs::kTraceSlo | obs::kTraceGuard;
  obs::TraceRecorder recorder(trace_config);
  recorder.SetSink([out](const obs::TraceEvent& event) {
    out->events.push_back(event);
  });
  spec.trace = &recorder;
  spec.spans.emplace();
  spec.slo = slo;
  if (diagnose) {
    // Per-site deltas need per-site epoch slices.
    spec.profiler.emplace().epoch_site_snapshots = true;
    spec.exemplars.emplace();
  }
  auto deployment =
      serve::Deployment::Build(scenario->chase, scenario->stale, spec);
  if (!deployment.ok()) {
    std::fprintf(stderr, "yhc %s: %s\n", command,
                 deployment.status().ToString().c_str());
    return 2;
  }
  auto report = deployment->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s scenario failed: %s\n", command,
                 report.status().ToString().c_str());
    return 1;
  }
  uint64_t completed = 0;
  for (size_t s = 0; s < deployment->shards(); ++s) {
    completed += deployment->spans(s)->completed_count();
  }
  std::fprintf(stderr,
               "spans: %llu request span trees closed across %llu shard(s), "
               "exact to the cycle\n",
               static_cast<unsigned long long>(completed),
               static_cast<unsigned long long>(shards));
  out->report = std::move(report).value();
  out->deployment.emplace(std::move(deployment).value());
  return 0;
}

// Request-scoped span attribution over the open-loop serving scenario:
// where did each request's latency go (docs/OBSERVABILITY.md)?
int CmdSpans(Options& options) {
  options.RejectUnknownFlags(
      "spans", {"top", "json", "perfetto", "out", "shards", "epoch", "nodes",
                "steps", "arrival", "rate", "duration", "seed", "queue-cap"});
  if (!options.ok()) {
    return options.UsageError();
  }
  const int modes = (options.Has("top") ? 1 : 0) +
                    (options.Has("json") ? 1 : 0) +
                    (options.Has("perfetto") ? 1 : 0);
  if (modes != 1 || !options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: yhc spans --top[=N]|--json|--perfetto [--out <path>] "
                 "[--shards N] [--arrival poisson|burst] [--rate R] "
                 "[--duration E] [--seed N] [--queue-cap N]\n");
    return 2;
  }
  const size_t top_n = options.TopN(10);
  if (!options.ok()) {
    return options.UsageError();
  }

  ObservedServe result;
  const int run = RunObservedServe(options, "spans", obs::SloConfig{},
                                   /*diagnose=*/false, &result);
  if (run != 0) {
    return run;
  }
  std::vector<const obs::SpanCollector*> shards;
  for (size_t s = 0; s < result.deployment->shards(); ++s) {
    shards.push_back(result.deployment->spans(s));
  }
  std::string doc;
  if (options.Has("top")) {
    doc = obs::ToSpanTopTable(shards, top_n);
  } else if (options.Has("json")) {
    doc = obs::ToSpanJson(shards);
  } else {
    doc = obs::ToPerfettoSpanJson(result.events, result.cycles_per_ns);
  }
  if (!options.Has("top")) {
    const Status valid = obs::ValidateJson(doc);
    if (!valid.ok()) {
      std::fprintf(stderr, "internal error: span export is not valid JSON: %s\n",
                   valid.ToString().c_str());
      return 1;
    }
  }
  return EmitDocument(options, doc);
}

// SLO burn-rate monitoring over the same scenario: rolling multi-window
// burn rates, fire/clear transitions, per-shard compliance.
int CmdSlo(Options& options) {
  obs::SloConfig slo;
  slo.latency_budget_cycles =
      options.PositiveU64("budget", slo.latency_budget_cycles);
  slo.objective = options.UnitDouble("objective", slo.objective);
  slo.slow_window_cycles =
      options.PositiveU64("window", slo.slow_window_cycles);
  slo.fast_window_cycles =
      options.PositiveU64("fast-window", slo.fast_window_cycles);
  slo.fast_burn_threshold =
      options.PositiveDouble("fast-burn", slo.fast_burn_threshold);
  slo.slow_burn_threshold =
      options.PositiveDouble("slow-burn", slo.slow_burn_threshold);
  slo.bucket_cycles = options.PositiveU64("bucket", slo.bucket_cycles);
  options.RejectUnknownFlags(
      "slo", {"budget", "objective", "window", "fast-window", "fast-burn",
              "slow-burn", "bucket", "json", "out", "shards", "epoch",
              "nodes", "steps", "arrival", "rate", "duration", "seed",
              "queue-cap"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (!options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: yhc slo [--budget N] [--objective X] [--window N] "
                 "[--fast-window N] [--fast-burn X] [--slow-burn X] "
                 "[--bucket N] [--json] [--out <path>] "
                 "[serve scenario flags]\n");
    return 2;
  }

  // An inconsistent SloConfig is a named usage error from the deployment.
  ObservedServe result;
  const int run =
      RunObservedServe(options, "slo", slo, /*diagnose=*/false, &result);
  if (run != 0) {
    return run;
  }
  const serve::Deployment& deployment = *result.deployment;
  if (options.Has("json")) {
    // Machine-readable compliance report (RFC 8259, gated by ValidateJson
    // like every other --json export).
    std::string json = StrFormat(
        "{\"slo\": {\"budget_cycles\": %llu, \"objective\": %.6f, "
        "\"fast_window_cycles\": %llu, \"slow_window_cycles\": %llu, "
        "\"fast_burn_threshold\": %.3f, \"slow_burn_threshold\": %.3f}, "
        "\"shards\": [\n",
        static_cast<unsigned long long>(slo.latency_budget_cycles),
        slo.objective,
        static_cast<unsigned long long>(slo.fast_window_cycles),
        static_cast<unsigned long long>(slo.slow_window_cycles),
        slo.fast_burn_threshold, slo.slow_burn_threshold);
    for (size_t s = 0; s < deployment.shards(); ++s) {
      const obs::SloEvaluator& eval = *deployment.slo(s);
      json += StrFormat(
          "  {\"shard\": %zu, \"total\": %llu, \"bad\": %llu, "
          "\"fast_burn\": %.6f, \"slow_burn\": %.6f, "
          "\"alert_active\": %s, \"alerts_fired\": %u, "
          "\"alerts_cleared\": %u}%s\n",
          s, static_cast<unsigned long long>(eval.total()),
          static_cast<unsigned long long>(eval.bad()), eval.FastBurnRate(),
          eval.SlowBurnRate(), eval.alert_active() ? "true" : "false",
          eval.alerts_fired(), eval.alerts_cleared(),
          s + 1 < deployment.shards() ? "," : "");
    }
    json += "]}\n";
    const Status valid_json = obs::ValidateJson(json);
    if (!valid_json.ok()) {
      std::fprintf(stderr, "internal error: slo export is not valid JSON: %s\n",
                   valid_json.ToString().c_str());
      return 1;
    }
    return EmitDocument(options, json);
  }
  std::string doc = StrFormat(
      "budget=%s cycles objective=%.4f windows fast=%s slow=%s "
      "thresholds fast=%.1f slow=%.1f\n",
      WithCommas(slo.latency_budget_cycles).c_str(), slo.objective,
      WithCommas(slo.fast_window_cycles).c_str(),
      WithCommas(slo.slow_window_cycles).c_str(), slo.fast_burn_threshold,
      slo.slow_burn_threshold);
  for (size_t s = 0; s < deployment.shards(); ++s) {
    doc += StrFormat("shard %zu: %s\n", s, deployment.slo(s)->Summary().c_str());
  }
  return EmitDocument(options, doc);
}

// Automated "why is p99 up?" diagnosis (docs/OBSERVABILITY.md): diff the
// per-epoch cycle/span taxonomies between two windows, rank the regressing
// original-binary sites and classes, join control-plane events, and classify
// the regression as workload-drift / control-plane-induced / unattributed,
// with the retained tail exemplars from the current window as evidence.
int CmdWhy(Options& options) {
  const std::string window_spec = options.Str("window", "");
  const std::string generation_spec = options.Str("generation", "");
  options.RejectUnknownFlags(
      "why", {"window", "generation", "json", "out", "shards", "epoch",
              "nodes", "steps", "arrival", "rate", "duration", "seed",
              "queue-cap", "severity", "flip", "adapt", "guard", "threshold",
              "fault"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (!options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: yhc why [--window LO-HI,LO-HI | --generation G1,G2] "
                 "[--json] [--out <path>] [serve scenario flags]\n");
    return 2;
  }
  if (!window_spec.empty() && !generation_spec.empty()) {
    std::fprintf(stderr,
                 "yhc why: --window and --generation are mutually exclusive\n");
    return 2;
  }

  // Parse --window before paying for the run: two epoch sets split on the
  // LAST comma, so each side can itself be a range ("0-3,8-11").
  obs::EpochSet baseline, current;
  bool windows_from_flag = false;
  if (!window_spec.empty()) {
    const size_t comma = window_spec.rfind(',');
    if (comma == std::string::npos || comma == 0 ||
        comma + 1 >= window_spec.size()) {
      std::fprintf(stderr,
                   "yhc why: --window expects two epoch windows "
                   "'LO-HI,LO-HI', got '%s'\n",
                   window_spec.c_str());
      return 2;
    }
    auto base = obs::ParseEpochSet(window_spec.substr(0, comma));
    if (!base.ok()) {
      std::fprintf(stderr, "yhc why: %s\n", base.status().ToString().c_str());
      return 2;
    }
    auto cur = obs::ParseEpochSet(window_spec.substr(comma + 1));
    if (!cur.ok()) {
      std::fprintf(stderr, "yhc why: %s\n", cur.status().ToString().c_str());
      return 2;
    }
    baseline = std::move(base).value();
    current = std::move(cur).value();
    windows_from_flag = true;
  }
  int gen_baseline = -1, gen_current = -1;
  if (!generation_spec.empty()) {
    char extra = '\0';
    if (std::sscanf(generation_spec.c_str(), "%d,%d%c", &gen_baseline,
                    &gen_current, &extra) != 2) {
      std::fprintf(stderr,
                   "yhc why: --generation expects two generation ids "
                   "'G1,G2', got '%s'\n",
                   generation_spec.c_str());
      return 2;
    }
  }

  ObservedServe result;
  const int run = RunObservedServe(options, "why", obs::SloConfig{},
                                   /*diagnose=*/true, &result);
  if (run != 0) {
    return run;
  }

  obs::DiffEngine engine =
      serve::BuildDiffEngine(*result.deployment, result.report, result.events);
  const size_t epochs = engine.epoch_count();
  if (epochs < 2) {
    std::fprintf(stderr,
                 "yhc why: run produced %zu epoch slice(s); need at least 2 "
                 "to diff (raise --duration or --rate)\n",
                 epochs);
    return 1;
  }

  if (!generation_spec.empty()) {
    // A generation's window is every epoch any shard spent serving it.
    auto epochs_of = [&result](int generation) {
      obs::EpochSet set;
      for (const adapt::AdaptReport& shard : result.report.shards) {
        for (const adapt::EpochTelemetry& epoch : shard.epochs) {
          if (epoch.generation_id == generation) {
            set.epochs.push_back(epoch.epoch);
          }
        }
      }
      std::sort(set.epochs.begin(), set.epochs.end());
      set.epochs.erase(std::unique(set.epochs.begin(), set.epochs.end()),
                       set.epochs.end());
      return set;
    };
    baseline = epochs_of(gen_baseline);
    current = epochs_of(gen_current);
    std::set<int> served;
    for (const adapt::AdaptReport& shard : result.report.shards) {
      for (const adapt::EpochTelemetry& epoch : shard.epochs) {
        served.insert(epoch.generation_id);
      }
    }
    std::string known;
    for (const int generation : served) {
      if (!known.empty()) {
        known += ",";
      }
      known += std::to_string(generation);
    }
    if (baseline.epochs.empty()) {
      std::fprintf(stderr,
                   "yhc why: unknown generation %d (run served generations "
                   "%s)\n",
                   gen_baseline, known.c_str());
      return 2;
    }
    if (current.epochs.empty()) {
      std::fprintf(stderr,
                   "yhc why: unknown generation %d (run served generations "
                   "%s)\n",
                   gen_current, known.c_str());
      return 2;
    }
  } else if (!windows_from_flag) {
    // Default: first half vs second half of the run — "it was fine this
    // morning" as an epoch split.
    for (size_t e = 0; e < epochs / 2; ++e) {
      baseline.epochs.push_back(e);
    }
    for (size_t e = epochs / 2; e < epochs; ++e) {
      current.epochs.push_back(e);
    }
  }

  auto report = engine.Diff(baseline, current);
  if (!report.ok()) {
    std::fprintf(stderr, "yhc why: %s\n", report.status().ToString().c_str());
    return 2;
  }
  std::vector<const obs::ExemplarReservoir*> reservoirs;
  for (size_t s = 0; s < result.deployment->shards(); ++s) {
    reservoirs.push_back(result.deployment->exemplars(s));
  }
  const std::vector<obs::Exemplar> supporting =
      obs::SupportingExemplars(reservoirs, report->current,
                               /*max_exemplars=*/3);
  std::string doc;
  if (options.Has("json")) {
    doc = obs::ToDiffJson(*report, supporting);
    const Status valid_json = obs::ValidateJson(doc);
    if (!valid_json.ok()) {
      std::fprintf(stderr, "internal error: diagnosis is not valid JSON: %s\n",
                   valid_json.ToString().c_str());
      return 1;
    }
  } else {
    doc = obs::ToDiffText(*report, supporting);
  }
  return EmitDocument(options, doc);
}

// Cycle-domain flight recording: run the adaptation scenario with a
// TraceRecorder attached and export Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
int CmdTrace(Options& options) {
  obs::TraceConfig trace_config;
  const uint64_t capacity =
      options.PositiveU64("capacity", trace_config.capacity);
  const uint64_t mask = options.U64("mask", obs::kDefaultTraceMask);
  options.RejectUnknownFlags("trace", {"capacity", "mask", "out", "tasks",
                                       "epoch", "nodes", "steps", "severity"});
  if (!options.ok()) {
    return options.UsageError();
  }
  trace_config.capacity = capacity;
  trace_config.mask = static_cast<uint32_t>(mask);
  obs::TraceRecorder recorder(trace_config);

  double cycles_per_ns = 1.0;
  const int run = RunObservedAdaptScenario(options, &recorder, nullptr,
                                           &cycles_per_ns);
  if (run != 0) {
    return run;
  }
  std::fprintf(stderr,
               "trace: %llu events recorded, %llu overwritten (mask 0x%x)\n",
               static_cast<unsigned long long>(recorder.recorded()),
               static_cast<unsigned long long>(recorder.overwritten()),
               recorder.mask());
  const std::string json = obs::ToChromeTraceJson(recorder, cycles_per_ns);
  const Status valid = obs::ValidateJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "internal error: exported trace is not valid JSON: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  return EmitDocument(options, json);
}

// Metrics snapshots: run the adaptation scenario with a MetricsRegistry
// attached and print it as JSON and/or Prometheus text — or, with two
// positional snapshot files, diff them without running anything.
int CmdMetrics(Options& options) {
  options.RejectUnknownFlags("metrics", {"format", "out", "tasks", "epoch",
                                         "nodes", "steps", "severity"});
  if (!options.ok()) {
    return options.UsageError();
  }
  if (options.positional().size() == 2) {
    // Diff mode: yhc metrics <a.json> <b.json>
    std::map<std::string, double> parsed[2];
    for (int i = 0; i < 2; ++i) {
      std::ifstream in(options.positional()[i]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", options.positional()[i].c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      auto snapshot = obs::ParseMetricsSnapshot(text.str());
      if (!snapshot.ok()) {
        std::fprintf(stderr, "%s: %s\n", options.positional()[i].c_str(),
                     snapshot.status().ToString().c_str());
        return 1;
      }
      parsed[i] = std::move(snapshot).value();
    }
    std::fputs(obs::DiffSnapshots(parsed[0], parsed[1]).c_str(), stdout);
    return 0;
  }
  if (!options.positional().empty()) {
    std::fprintf(stderr,
                 "usage: yhc metrics [--format json|prom|both] [--out <path>]\n"
                 "       yhc metrics <a.json> <b.json>   (diff two snapshots)\n");
    return 2;
  }
  const std::string format =
      options.Choice("format", "both", {"json", "prom", "both"});
  if (!options.ok()) {
    return options.UsageError();
  }

  obs::MetricsRegistry registry;
  const int run = RunObservedAdaptScenario(options, nullptr, &registry, nullptr);
  if (run != 0) {
    return run;
  }
  std::string out;
  if (format == "json" || format == "both") {
    const std::string json = registry.ToJson();
    const Status valid = obs::ValidateJson(json);
    if (!valid.ok()) {
      std::fprintf(stderr,
                   "internal error: metrics snapshot is not valid JSON: %s\n",
                   valid.ToString().c_str());
      return 1;
    }
    out += json;
  }
  if (format == "prom" || format == "both") {
    out += registry.ToPrometheus();
  }
  return EmitDocument(options, out);
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "yhc — yieldhide toolchain\n"
               "commands:\n"
               "  asm <in.s> <out.yh>                 assemble\n"
               "  dis <in.yh>                         disassemble\n"
               "  cfg <in.yh>                         CFG as graphviz dot\n"
               "  interval <in.yh>                    worst-case inter-yield gap\n"
               "  run <in.yh> [--group N] [...]       execute on the simulator\n"
               "  profile <in.yh> --out <prof> [...]  sample-based profiling\n"
               "  profile --folded|--top[=N]|--json [--out <path>] [--tasks N]\n"
               "        cycle attribution for the adapt scenario: classify\n"
               "        every cycle per original-binary site and render\n"
               "        folded stacks / a top-N table / JSON (docs/PROFILER.md)\n"
               "  instrument <in.yh> --profile <prof> --out <out.yh>\n"
               "  chaos <in.yh> --fault=<class:sev>[,...] [--quarantine 0|1]\n"
               "        fault-inject the pipeline and bound the damage\n"
               "  adapt [--severity X] [--tasks N] [--epoch N] [--flip N]\n"
               "        [--adapt 0|1] [--threshold X]\n"
               "        serve a drifting workload from a stale binary and\n"
               "        hot-swap re-instrumentation online (docs/ONLINE.md)\n"
               "  serve [--shards N] [--tasks N] [--epoch N] [--severity X]\n"
               "        [--store <path>] [--warm-start 0|1] [--threshold X]\n"
               "        [--guard 0|1] [--guard-window N] [--guard-ratio X]\n"
               "        [--fault <class:sev>[,...]]\n"
               "        sharded multi-core serving: N cores, one shared\n"
               "        profile store, staggered hot-swaps (docs/ONLINE.md);\n"
               "        --guard canaries fresh generations with rollback, and\n"
               "        --fault injects serving faults: rebuild_fail, backmap,\n"
               "        regress, stall, store_corrupt (docs/ROBUSTNESS.md)\n"
               "  serve --arrival poisson|burst [--rate R] [--duration E]\n"
               "        [--seed N] [--queue-cap N] [--scavenge 0|1]\n"
               "        [--shards N] [--epoch N] [--guard 0|1]\n"
               "        [--tenant name:fg|bg:share[:budget]]... \n"
               "        [--tenant-drift X] [--fault <class:sev>[,...]]\n"
               "        OPEN-LOOP serving: seeded arrivals (R requests per\n"
               "        kilocycle until cycle E) through the staged connection\n"
               "        pipeline into a bounded queue; queued requests ride\n"
               "        the scavenger slots during the head request's miss\n"
               "        windows; prints the shed/completed ledger and p50/p99/\n"
               "        p999 end-to-end latency (docs/SERVING.md). Repeatable\n"
               "        --tenant multiplexes per-tenant arrivals with weighted\n"
               "        admission; background tenants serve the drifting\n"
               "        stream and --tenant-drift quarantines their evidence\n"
               "        past the threshold (multi-tenant QoS)\n"
               "  trace [--out <path>] [--mask M] [--capacity N] [--tasks N]\n"
               "        run the adapt scenario with the cycle-domain flight\n"
               "        recorder on; emit Chrome/Perfetto trace-event JSON\n"
               "        (docs/OBSERVABILITY.md)\n"
               "  metrics [--format json|prom|both] [--out <path>] [--tasks N]\n"
               "  metrics <a.json> <b.json>           diff two snapshots\n"
               "  spans --top[=N]|--json|--perfetto [--out <path>] [--shards N]\n"
               "        [--arrival poisson|burst] [--rate R] [--duration E]\n"
               "        request-scoped span attribution over the open-loop\n"
               "        serving scenario: per-request latency decomposed into\n"
               "        queue/pipeline/scheduler/control-plane spans with an\n"
               "        exact-sum invariant; --perfetto emits per-request\n"
               "        tracks from the streamed kSpanBegin/kSpanEnd events\n"
               "        (docs/OBSERVABILITY.md)\n"
               "  slo [--budget N] [--objective X] [--window N] [--fast-window N]\n"
               "        [--fast-burn X] [--slow-burn X] [--json] [--out <path>]\n"
               "        SLO burn-rate monitoring over the same scenario:\n"
               "        multi-window burn rates, alert fire/clear counts,\n"
               "        per-shard compliance; --json emits the machine-\n"
               "        readable compliance report (docs/OBSERVABILITY.md)\n"
               "  why [--window LO-HI,LO-HI | --generation G1,G2] [--json]\n"
               "        [--out <path>] [--severity X] [--flip N] [--adapt 0|1]\n"
               "        [--guard 0|1] [--fault <class:sev>] [serve flags]\n"
               "        automated \"why is p99 up?\" diagnosis: diff the\n"
               "        per-epoch cycle/span taxonomies between two windows,\n"
               "        rank regressing sites and classes, join control-plane\n"
               "        events, and classify the regression as workload-drift\n"
               "        / control-plane-induced / unattributed, with tail\n"
               "        exemplars as evidence (docs/OBSERVABILITY.md)\n"
               "  help [command]                      this text\n"
               "common flags: --reg N=V, --ring base,lines,stride, --max-insns N\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

int CmdHelp(Options& options) {
  static const char* kCommands[] = {"asm",        "dis",   "cfg",     "interval",
                                    "run",        "profile", "instrument",
                                    "chaos",      "adapt", "serve",   "trace",
                                    "metrics",    "spans", "slo",     "why",
                                    "help"};
  if (!options.positional().empty()) {
    const std::string& topic = options.positional().front();
    bool known = false;
    for (const char* command : kCommands) {
      known = known || topic == command;
    }
    if (!known) {
      // Named error on stderr, non-zero exit: scripts probing for a command
      // must not read the usage dump as success.
      std::fprintf(stderr, "yhc: unknown help topic '%s'\n", topic.c_str());
      return Usage();
    }
  }
  PrintUsage(stdout);
  return 0;
}

}  // namespace
}  // namespace yieldhide::tools

int main(int argc, char** argv) {
  using namespace yieldhide::tools;
  if (argc < 2) {
    return Usage();
  }
  auto options = yieldhide::cli::Options::Parse(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  const std::string command = argv[1];
  if (command == "asm") {
    return CmdAsm(*options);
  }
  if (command == "dis") {
    return CmdDis(*options);
  }
  if (command == "cfg") {
    return CmdCfg(*options);
  }
  if (command == "interval") {
    return CmdInterval(*options);
  }
  if (command == "run") {
    return CmdRun(*options);
  }
  if (command == "profile") {
    return CmdProfile(*options);
  }
  if (command == "instrument") {
    return CmdInstrument(*options);
  }
  if (command == "chaos") {
    return CmdChaos(*options);
  }
  if (command == "adapt") {
    return CmdAdapt(*options);
  }
  if (command == "serve") {
    return CmdServe(*options);
  }
  if (command == "trace") {
    return CmdTrace(*options);
  }
  if (command == "metrics") {
    return CmdMetrics(*options);
  }
  if (command == "spans") {
    return CmdSpans(*options);
  }
  if (command == "slo") {
    return CmdSlo(*options);
  }
  if (command == "why") {
    return CmdWhy(*options);
  }
  if (command == "help" || command == "--help" || command == "-h") {
    return CmdHelp(*options);
  }
  std::fprintf(stderr, "yhc: unknown command '%s'\n", command.c_str());
  return Usage();
}
