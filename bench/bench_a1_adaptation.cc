// A1 — online adaptation: drift detection + hot-swap re-instrumentation
// recovers the efficiency win a stale profile loses.
//
// Scenario: a PhasedChase service (two disjoint pointer-chase rings with
// distinct load IPs) was profiled YESTERDAY, when every request ran phase A.
// Today's request mix draws phase B with probability `severity` (the drift):
// phase B's loads miss just as hard, but the stale instrumentation covers
// phase A's IPs only, so every drifted request stalls uninstrumented. The
// service is colocated with a compute-heavy batch scavenger pool (the R1/C5
// setup), so lost hide opportunities are lost CPU efficiency.
//
// Per severity in {0.0, 0.5, 1.0} we serve the same 64-request stream four
// ways on identical memory:
//   baseline — uninstrumented original, primary alone (the cost floor);
//   control  — stale binary, adaptation OFF (samples + scores drift, never
//              acts): what production looks like without this subsystem;
//   fresh    — binary re-profiled offline on TODAY'S mix (eight profile
//              tasks of the drifted stream): the oracle the online loop is
//              trying to reach without a maintenance window;
//   adapt    — stale binary served by a one-shard ServerGroup: online
//              re-profiling at low sampling periods, drift scoring each
//              8-task epoch, rebuild + hot-swap at a safe point,
//              occupancy-driven pool scaling.
//
// Gates (exit non-zero on violation):
//   * severity 0.0: the adapting run must NOT swap (no false positives) —
//     drift scoring must not mistake hidden misses for divergence;
//   * severity >= 0.5: at least one hot swap; steady-state (post-swap)
//     efficiency recovers >= 90% of the fresh-profile win over baseline,
//     while the control stays degraded (<= 70% of the win);
//   * every adapting epoch, including mid-adaptation ones, stays within
//     1.15x of the same epoch of the uninstrumented baseline — adaptation
//     must never cost more than the robustness bound R1 already enforces.
#include <algorithm>

#include "bench/bench_util.h"
#include "src/adapt/server_group.h"
#include "src/runtime/dual_mode.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr int kRequests = 64;
constexpr int kTasksPerEpoch = 8;
constexpr uint64_t kChaseSteps = 400;
constexpr double kSlowdownBound = 1.15;
constexpr double kRecoveryFloor = 0.90;
constexpr double kControlCeiling = 0.70;

struct BaselineOutcome {
  bool ok = false;
  uint64_t total_cycles = 0;
  double efficiency = 0.0;
  std::vector<uint64_t> epoch_cycles;
};

// Uninstrumented original, primary alone, with the same 8-task epoch
// partition so per-epoch overhead ratios are apples to apples.
BaselineOutcome RunBaseline(const workloads::PhasedChase& chase,
                            const sim::MachineConfig& machine_config) {
  sim::Machine machine(machine_config);
  chase.InitMemory(machine.memory());
  const auto binary = runtime::AnnotateManualYields(chase.program(), machine_config.cost);
  runtime::DualModeConfig dm;
  dm.hide_window_cycles = 300;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  for (int i = 0; i < kRequests; ++i) {
    sched.AddPrimaryTask(chase.SetupFor(i));
  }
  BaselineOutcome out;
  uint64_t epoch_start = machine.now();
  sched.SetTaskBoundaryHook([&](size_t tasks_done) {
    if (tasks_done % kTasksPerEpoch == 0) {
      out.epoch_cycles.push_back(machine.now() - epoch_start);
      epoch_start = machine.now();
    }
  });
  auto report = sched.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "baseline run failed: %s\n", report.status().ToString().c_str());
    return out;
  }
  out.ok = true;
  out.total_cycles = report->run.total_cycles;
  out.efficiency = report->CpuEfficiency();
  return out;
}

// One single-core serving run (a ServerGroup with one shard) over the request
// stream. `adapting` false = control mode (drift is still scored for the
// table, nothing acts on it).
Result<adapt::AdaptReport> RunServer(const workloads::PhasedChase& chase,
                                     const core::PipelineArtifacts& artifacts,
                                     const instrument::InstrumentedProgram& batch,
                                     const sim::MachineConfig& machine_config,
                                     const core::PipelineConfig& rebuild_pipeline,
                                     bool adapting) {
  sim::Machine machine(machine_config);
  chase.InitMemory(machine.memory());
  adapt::ServerGroupConfig config;
  config.shard = ShardConfig(rebuild_pipeline, kTasksPerEpoch);
  config.shard.adapt_enabled = adapting;
  config.shard.scale_pool = adapting;
  config.shard.charge_sampling_overhead = adapting;
  adapt::ServerGroup server(&chase.program(), artifacts, {&machine}, config);
  server.SetScavengerBinary(0, &batch);  // unrelated batch job: never swapped
  server.SetScavengerFactory(0, BatchFactory());
  for (int i = 0; i < kRequests; ++i) {
    server.AddTask(0, chase.SetupFor(i));
  }
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, server.Run());
  return std::move(report.shards[0]);
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("A1", "online adaptation under workload drift");
  JsonWriter json("A1", argc, argv);
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  const auto batch = MakeScavengedBatch(machine_config);

  // The stale profile comes from yesterday's all-phase-A traffic: a
  // severity-0 twin (same seed, same rings, same program) profiled on its
  // first tasks.
  workloads::PhasedChase::Config yesterday;
  yesterday.num_nodes = 1 << 18;  // 16 MiB per ring, 2x the L3: every payload
  yesterday.steps_per_task = kChaseSteps;  // load misses, today and yesterday
  yesterday.severity = 0.0;
  auto chase_yesterday = workloads::PhasedChase::Make(yesterday).value();
  auto stale_pipeline = BenchPipeline();
  auto stale = core::BuildInstrumentedForWorkload(chase_yesterday, stale_pipeline).value();
  std::printf("stale pipeline (phase-A profile): %s\n", stale.Summary().c_str());

  Table table({"severity", "run", "cycles_x", "eff", "drift", "swaps", "epoch_max_x",
               "recovery", "verdict"});
  table.PrintHeader();
  bool all_pass = true;

  for (const double severity : {0.0, 0.5, 1.0}) {
    // Today's traffic: phase B with P = severity from the very first request
    // (the service was instrumented before the mix changed).
    workloads::PhasedChase::Config today = yesterday;
    today.severity = severity;
    today.flip_task_index = 0;
    auto chase = workloads::PhasedChase::Make(today).value();

    const BaselineOutcome baseline = RunBaseline(chase, machine_config);
    if (!baseline.ok) {
      return 2;
    }

    // The offline oracle: re-profile on today's mix. Eight profile tasks so a
    // mixed stream exposes both phases to the collector.
    auto fresh_pipeline = BenchPipeline();
    fresh_pipeline.profile_tasks = 8;
    auto fresh_artifacts = core::BuildInstrumentedForWorkload(chase, fresh_pipeline);
    if (!fresh_artifacts.ok()) {
      std::fprintf(stderr, "fresh pipeline failed: %s\n",
                   fresh_artifacts.status().ToString().c_str());
      return 2;
    }

    auto control = RunServer(chase, stale, batch, machine_config, stale_pipeline,
                             /*adapting=*/false);
    auto fresh = RunServer(chase, fresh_artifacts.value(), batch, machine_config,
                           stale_pipeline, /*adapting=*/false);
    auto adapting = RunServer(chase, stale, batch, machine_config, stale_pipeline,
                              /*adapting=*/true);
    if (!control.ok() || !fresh.ok() || !adapting.ok()) {
      std::fprintf(stderr, "severity %.1f: run failed: %s\n", severity,
                   (!control.ok()    ? control.status()
                    : !fresh.ok()    ? fresh.status()
                                     : adapting.status())
                       .ToString()
                       .c_str());
      return 2;
    }

    const double eff_base = baseline.efficiency;
    const double eff_control = control->run.CpuEfficiency();
    const double eff_fresh = fresh->run.CpuEfficiency();
    const double eff_adapt = adapting->run.CpuEfficiency();
    const double eff_steady = SteadyStateEfficiency(adapting.value());
    const double win_fresh = eff_fresh - eff_base;
    const double recovery = win_fresh > 0.0 ? (eff_steady - eff_base) / win_fresh : 0.0;
    const double control_frac = win_fresh > 0.0 ? (eff_control - eff_base) / win_fresh : 0.0;

    // Per-epoch overhead vs the identically-partitioned baseline: the
    // adapting run may never exceed the robustness bound, even while stale or
    // mid-swap.
    double epoch_max_x = 0.0;
    const size_t epochs =
        std::min(adapting->epochs.size(), baseline.epoch_cycles.size());
    for (size_t i = 0; i < epochs; ++i) {
      if (baseline.epoch_cycles[i] > 0) {
        epoch_max_x = std::max(epoch_max_x,
                               static_cast<double>(adapting->epochs[i].cycles) /
                                   static_cast<double>(baseline.epoch_cycles[i]));
      }
    }

    const int swaps = adapting->swaps;
    bool pass = epoch_max_x <= kSlowdownBound;
    if (severity == 0.0) {
      pass = pass && swaps == 0;  // no false-positive swaps on a clean stream
    } else {
      pass = pass && swaps >= 1 && recovery >= kRecoveryFloor &&
             control_frac <= kControlCeiling;
    }
    all_pass = all_pass && pass;

    auto row = [&](const char* name, uint64_t cycles, double eff, double drift,
                   int row_swaps, const std::string& max_x,
                   const std::string& rec, const char* verdict) {
      table.PrintRow({Fmt("%.1f", severity), name,
                      Fmt("%.3f", static_cast<double>(cycles) / baseline.total_cycles),
                      Fmt("%.3f", eff), Fmt("%.3f", drift),
                      std::to_string(row_swaps), max_x, rec, verdict});
    };
    row("baseline", baseline.total_cycles, eff_base, 0.0, 0, "-", "-", "-");
    row("control", control->run.run.total_cycles, eff_control,
        control->final_drift, 0, "-", Fmt("%.2f", control_frac), "-");
    row("fresh", fresh->run.run.total_cycles, eff_fresh, fresh->final_drift, 0,
        "-", "1.00", "-");
    row("adapt", adapting->run.run.total_cycles, eff_adapt,
        adapting->final_drift, swaps, Fmt("%.3f", epoch_max_x),
        Fmt("%.2f", recovery), pass ? "pass" : "FAIL");
    for (size_t i = 0; i < epochs; ++i) {
      const auto& e = adapting->epochs[i];
      std::printf(
          "    epoch %zu: adapt=%8llu base=%8llu (%.3fx) eff=%.3f drift=%.3f "
          "cap=%zu occ=%.2f%s\n",
          i, (unsigned long long)e.cycles,
          (unsigned long long)baseline.epoch_cycles[i],
          static_cast<double>(e.cycles) /
              static_cast<double>(baseline.epoch_cycles[i]),
          e.efficiency, e.drift, e.pool_cap, e.burst_occupancy,
          e.swapped ? " SWAP" : "");
    }

    json.Add(StrFormat("severity:%.1f", severity),
             {{"eff_baseline", eff_base},
              {"eff_control", eff_control},
              {"eff_fresh", eff_fresh},
              {"eff_adapt", eff_adapt},
              {"eff_steady", eff_steady},
              {"recovery", recovery},
              {"control_frac", control_frac},
              {"swaps", static_cast<double>(swaps)},
              {"epoch_max_x", epoch_max_x},
              {"final_drift", adapting->final_drift},
              {"sampling_overhead_cycles",
               static_cast<double>(adapting->sampling_overhead_cycles)},
              {"pass", pass ? 1.0 : 0.0}});
    std::printf("  [%.1f] adapt: %s\n", severity, adapting->Summary().c_str());
  }

  std::printf(
      "\nReading: cycles_x = total cycles vs the uninstrumented baseline for\n"
      "the same request stream. recovery = (steady-state adapt efficiency -\n"
      "baseline) / (fresh-profile efficiency - baseline); the adapting run\n"
      "must reach %.0f%%%% of the oracle's win once it has swapped, while the\n"
      "non-adapting control stays degraded. epoch_max_x = worst per-epoch\n"
      "slowdown vs baseline, bounded by %.2fx even mid-adaptation.\n",
      100.0 * kRecoveryFloor, kSlowdownBound);
  json.Flush();
  if (!all_pass) {
    std::printf("\nA1: GATE VIOLATED\n");
    return 1;
  }
  std::printf("\nA1: all gates pass\n");
  return 0;
}
