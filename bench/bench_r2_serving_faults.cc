// R2 — guarded serving under the full serving-fault matrix: canary +
// rollback, bounded rebuild retry, epoch watchdog, and store durability keep
// a sharded group serving (and recovering) through control-plane outages.
//
// Scaffolding mirrors A2 scenario 1: a 4-shard deployment serves the
// drifting PhasedChase service from yesterday's stale phase-A profile, and
// recovery = (steady-state efficiency - uninstrumented baseline) /
// (fresh-profile oracle - baseline), averaged over shards. R0 is the
// fault-free GUARDED run — the guard itself must not tax recovery — and
// every fault row is measured against it.
//
// Fault rows: each serving fault class at severities 0.6 and 1.0, injected
// as a bounded outage over the first ceil(severity * 6) group epochs (see
// serving_faults.h). Row gates:
//   * the run completes (zero crash paths) and every result is correct;
//   * mean recovery >= 90% of the fault-free R0 recovery;
//   * canary exposure is bounded: every canary reaches a verdict within the
//     confirmation window, no other shard installs anything while a canary
//     is in flight, and a rollback's reinstall is the only install in its
//     verdict epoch — a regressed generation never serves beyond one shard
//     for one window;
//   * the class-specific guard signal fired (retry/backoff for rebuild_fail,
//     rollback + quarantine for regress, watchdog for stall, load fallback
//     for store_corrupt).
// The store_corrupt rows corrupt R0's persisted store on disk and warm-start
// from it: the load must be rejected (cold start, warm_started=false,
// store_fallbacks=1) with recovery intact.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/faultinject/serving_faults.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kShards = 4;
// 20 group epochs per shard: enough room for the worst recovery schedule
// (rebuild attempts at epochs 0 and 3 fail inside a severity-1.0 outage, the
// epoch-8 attempt succeeds, the canary window closes at 10, and the three
// peers reuse-install by 13) to still leave steady-state epochs to measure.
constexpr int kRequestsPerShard = 80;
constexpr int kTasksPerEpoch = 4;
constexpr uint64_t kChaseSteps = 400;
constexpr int kGuardWindow = 2;
constexpr double kRecoveryFloor = 0.90;      // R0 vs the A1/A2 bar
constexpr double kFaultRecoveryShare = 0.90;  // fault rows vs R0

// The fresh-profile oracle: one non-adapting shard serving on a binary built
// from today's profile — the recovery target.
Result<double> FreshEfficiency(const workloads::PhasedChase& chase,
                               const core::PipelineArtifacts& fresh,
                               const instrument::InstrumentedProgram& batch,
                               const core::PipelineConfig& pipeline) {
  serve::DeploymentSpec spec;
  spec.group.shard = ShardConfig(pipeline, kTasksPerEpoch);
  spec.group.shard.adapt_enabled = false;
  spec.closed_loop = BatchLoop(batch, kRequestsPerShard);
  YH_ASSIGN_OR_RETURN(serve::Deployment server,
                      serve::Deployment::Build(chase, fresh, spec));
  YH_ASSIGN_OR_RETURN(const adapt::GroupReport report, server.Run());
  return report.shards[0].run.CpuEfficiency();
}

struct GroupOutcome {
  adapt::GroupReport report;
  int quarantined = 0;
};

// One guarded group run with the given serving faults injected, every result
// checked.
Result<GroupOutcome> RunGuarded(const workloads::PhasedChase& chase,
                                const core::PipelineArtifacts& artifacts,
                                const instrument::InstrumentedProgram& batch,
                                const core::PipelineConfig& pipeline,
                                const std::vector<faultinject::FaultSpec>& faults,
                                const std::string& store_path) {
  serve::DeploymentSpec spec;
  adapt::ServerGroupConfig& config = spec.group;
  config.shards = kShards;
  config.shard = ShardConfig(pipeline, kTasksPerEpoch);
  config.profile_path = store_path;
  config.guard.enabled = true;
  config.guard.confirmation_window = kGuardWindow;
  if (!faults.empty()) {
    YH_ASSIGN_OR_RETURN(
        config.fault_hooks,
        faultinject::MakeServingFaultHooks(
            faults, static_cast<isa::Addr>(chase.program().size())));
  }
  spec.closed_loop = BatchLoop(batch, kRequestsPerShard);
  YH_ASSIGN_OR_RETURN(serve::Deployment group,
                      serve::Deployment::Build(chase, artifacts, spec));
  GroupOutcome out;
  YH_ASSIGN_OR_RETURN(out.report, group.Run());
  out.quarantined = group.controller().quarantined_generations();
  return out;
}

// Mean recovery fraction across shards.
double MeanRecovery(const adapt::GroupReport& report, double eff_base,
                    double win_fresh) {
  if (win_fresh <= 0.0 || report.shards.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const adapt::AdaptReport& shard : report.shards) {
    sum += (SteadyStateEfficiency(shard) - eff_base) / win_fresh;
  }
  return sum / static_cast<double>(report.shards.size());
}

// The exposure bound, checked from the audit trails: every canary reaches a
// verdict within `window` epochs of its begin, the swap lane stays frozen
// strictly between begin and verdict, and when the verdict is a rollback the
// canary shard's reinstall is the only install in the verdict epoch.
bool ExposureBounded(const adapt::GroupReport& report, int window) {
  const auto& log = report.guard_log;
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind != adapt::GuardEventKind::kCanaryBegin) {
      continue;
    }
    const adapt::GuardEvent& begin = log[i];
    const adapt::GuardEvent* verdict = nullptr;
    for (size_t j = i + 1; j < log.size(); ++j) {
      if (log[j].generation_id == begin.generation_id &&
          (log[j].kind == adapt::GuardEventKind::kPromote ||
           log[j].kind == adapt::GuardEventKind::kRollback)) {
        verdict = &log[j];
        break;
      }
    }
    if (verdict == nullptr ||
        verdict->epoch - begin.epoch > static_cast<size_t>(window)) {
      return false;
    }
    const bool rolled_back = verdict->kind == adapt::GuardEventKind::kRollback;
    for (const auto& [epoch, shard] : report.swap_log) {
      if (epoch > begin.epoch && epoch < verdict->epoch) {
        return false;  // swap lane must freeze while the canary is in flight
      }
      if (rolled_back && epoch == verdict->epoch && shard != begin.shard) {
        return false;  // only the rollback reinstall may land that epoch
      }
    }
  }
  return true;
}

struct RowResult {
  std::string name;
  bool ran = false;
  bool exposure = false;
  bool signal = false;
  double recovery = 0.0;
  bool pass = false;
};

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("R2", "guarded serving under the serving-fault matrix");
  JsonWriter json("R2", argc, argv);
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  const auto batch = MakeScavengedBatch(machine_config);
  Gates gate("R2");

  // Yesterday's stale phase-A twin and today's drifted service (A2 sc. 1).
  workloads::PhasedChase::Config today;
  today.num_nodes = 1 << 18;
  today.steps_per_task = kChaseSteps;
  today.severity = 1.0;
  today.flip_task_index = 0;
  const auto pipeline = BenchPipeline();
  const auto drift = serve::DriftScenario::Make(today, pipeline).value();
  const core::PipelineArtifacts& stale = drift.stale;
  const workloads::PhasedChase& chase = drift.chase;

  auto eff_base = BaselineEfficiency(chase, machine_config, kRequestsPerShard);
  auto fresh_pipeline = BenchPipeline();
  fresh_pipeline.profile_tasks = 8;
  auto fresh_artifacts = core::BuildInstrumentedForWorkload(chase, fresh_pipeline);
  if (!eff_base.ok() || !fresh_artifacts.ok()) {
    std::fprintf(stderr, "scaffolding failed\n");
    return 2;
  }
  auto eff_fresh = FreshEfficiency(chase, fresh_artifacts.value(), batch, pipeline);
  if (!eff_fresh.ok()) {
    std::fprintf(stderr, "fresh oracle failed: %s\n",
                 eff_fresh.status().ToString().c_str());
    return 2;
  }
  const double win_fresh = *eff_fresh - *eff_base;
  std::printf("baseline_eff=%.3f fresh_eff=%.3f (win %.3f)\n\n", *eff_base,
              *eff_fresh, win_fresh);

  // ---------- R0: fault-free guarded run -----------------------------------
  const TempPath store_file("r2_store");
  const std::string& store_path = store_file.str();
  auto r0 = RunGuarded(chase, stale, batch, pipeline, /*faults=*/{}, store_path);
  if (!r0.ok()) {
    std::fprintf(stderr, "R0 run failed: %s\n", r0.status().ToString().c_str());
    return 2;
  }
  const double recovery_r0 = MeanRecovery(r0->report, *eff_base, win_fresh);
  const bool r0_pass =
      recovery_r0 >= kRecoveryFloor && OverlappingSwapEpochs(r0->report) == 0 &&
      ExposureBounded(r0->report, kGuardWindow) && r0->report.rollbacks == 0;
  std::printf(
      "[R0] fault-free guarded: recovery=%.2f canaries=%d promotes=%d "
      "results=all %zu correct -> %s\n\n",
      recovery_r0, r0->report.canaries, r0->report.promotes,
      kShards * kRequestsPerShard, gate.Record(r0_pass));
  json.Add("r0", {{"recovery", recovery_r0},
                  {"canaries", static_cast<double>(r0->report.canaries)},
                  {"pass", r0_pass ? 1.0 : 0.0}});

  // ---------- fault matrix -------------------------------------------------
  const double kSeverities[] = {0.6, 1.0};
  const faultinject::FaultClass kClasses[] = {
      faultinject::FaultClass::kRebuildFail,
      faultinject::FaultClass::kBackmapCorrupt,
      faultinject::FaultClass::kRegression,
      faultinject::FaultClass::kShardStall,
      faultinject::FaultClass::kStoreCorrupt,
  };
  const double recovery_bar = kFaultRecoveryShare * recovery_r0;

  Table table({"fault", "sev", "recovery", "canary", "rollbk", "signal",
               "exposure", "verdict"});
  table.PrintHeader();
  std::vector<RowResult> rows;
  for (const faultinject::FaultClass fault : kClasses) {
    for (const double severity : kSeverities) {
      faultinject::FaultSpec spec;
      spec.fault = fault;
      spec.severity = severity;
      RowResult row;
      row.name = std::string(faultinject::FaultClassName(fault)) + ":" +
                 Fmt("%.1f", severity);

      Result<GroupOutcome> run = [&]() -> Result<GroupOutcome> {
        if (fault == faultinject::FaultClass::kStoreCorrupt) {
          // File-level: corrupt a copy of R0's persisted store, then
          // warm-start from the rotten file.
          const TempPath rotten("r2_store_rotten");
          YH_ASSIGN_OR_RETURN(const profile::ProfileData data,
                              adapt::LoadStoreFile(store_path));
          YH_RETURN_IF_ERROR(adapt::SaveStoreFile(data, rotten.str()));
          YH_RETURN_IF_ERROR(faultinject::CorruptStoreFile(rotten.str(), spec));
          return RunGuarded(chase, stale, batch, pipeline, {spec}, rotten.str());
        }
        return RunGuarded(chase, stale, batch, pipeline, {spec},
                          /*store_path=*/"");
      }();

      const std::string label = faultinject::FaultClassName(fault);
      if (!run.ok()) {
        std::fprintf(stderr, "  %s run failed: %s\n", row.name.c_str(),
                     run.status().ToString().c_str());
        rows.push_back(row);
        gate.Record(false);
        table.PrintRow({label, Fmt("%.1f", severity), "-", "-", "-", "-",
                        "-", "CRASH"});
        continue;
      }
      const adapt::GroupReport& report = run->report;
      row.ran = true;
      row.exposure = ExposureBounded(report, kGuardWindow) &&
                     OverlappingSwapEpochs(report) == 0;
      row.recovery = MeanRecovery(report, *eff_base, win_fresh);
      switch (fault) {
        case faultinject::FaultClass::kRebuildFail:
          row.signal = report.rebuild_retries >= 1;
          break;
        case faultinject::FaultClass::kBackmapCorrupt:
          row.signal = report.canaries >= 1;
          break;
        case faultinject::FaultClass::kRegression:
          row.signal = report.rollbacks >= 1 && run->quarantined >= 1;
          break;
        case faultinject::FaultClass::kShardStall:
          row.signal = report.watchdog_fires >= 1;
          break;
        case faultinject::FaultClass::kStoreCorrupt:
          row.signal = report.store_fallbacks == 1 && !report.warm_started;
          break;
        default:
          break;
      }
      row.pass = row.ran && row.exposure && row.signal &&
                 row.recovery >= recovery_bar;
      if (!row.pass) {
        for (const adapt::GuardEvent& ev : report.guard_log) {
          std::printf("    guard: %s\n", ev.ToString().c_str());
        }
      }
      table.PrintRow({label, Fmt("%.1f", severity), Fmt("%.2f", row.recovery),
                      std::to_string(report.canaries),
                      std::to_string(report.rollbacks),
                      row.signal ? "yes" : "NO", row.exposure ? "ok" : "BROKEN",
                      gate.Record(row.pass)});
      json.Add(row.name,
               {{"recovery", row.recovery},
                {"canaries", static_cast<double>(report.canaries)},
                {"rollbacks", static_cast<double>(report.rollbacks)},
                {"rebuild_retries", static_cast<double>(report.rebuild_retries)},
                {"watchdog_fires", static_cast<double>(report.watchdog_fires)},
                {"store_fallbacks", static_cast<double>(report.store_fallbacks)},
                {"poison_blocked", static_cast<double>(report.poison_blocked)},
                {"exposure_ok", row.exposure ? 1.0 : 0.0},
                {"pass", row.pass ? 1.0 : 0.0}});
      rows.push_back(row);
    }
  }

  std::printf(
      "\nReading: every row rides out a bounded outage (first ceil(sev*6)\n"
      "group epochs) of its fault class. recovery is the shard-mean fraction\n"
      "of the fresh-profile win, and must stay >= %.0f%% of the fault-free\n"
      "guarded run's %.2f. 'exposure ok' certifies from the guard/swap logs\n"
      "that no generation ever served unvetted beyond one canary shard for\n"
      "one confirmation window.\n",
      kFaultRecoveryShare * 100.0, recovery_r0);
  json.Flush();
  return gate.Finish();
}
