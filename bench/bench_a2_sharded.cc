// A2 — sharded serving: ServerGroup recovers every shard from drift with one
// shared profile store and staggered hot-swaps.
//
// Three scenarios, all on the A1 drifting-PhasedChase service colocated with
// the compute-heavy batch scavenger pool:
//
//   1. IP drift on 4 shards — yesterday's phase-A profile, today all traffic
//      is phase B. Each shard serves its own slice of the request stream on
//      its own simulated core; evidence merges in the SharedProfileStore and
//      the StaggerPolicy spreads the resulting hot-swaps so at most one shard
//      rebuilds per group epoch (a rebuilt generation is reused by the rest).
//      Gates: every shard's steady-state recovery clears the single-core A1
//      bar (>= 90% of the fresh-profile win); the swap log contains zero
//      same-epoch overlaps; the group needs FEWER rebuilds than four
//      independent single-shard servers do for the same streams.
//
//   2. Zipf-mix drift — the same IPs, shifted key skew: drifted tasks keep
//      running loop A but chase a small cache-resident hot segment, so the
//      installed yields fire and hide nothing. No new IPs ever appear, so
//      the APPEARANCE term stays ~0 and only DIVERGENCE (yields that stopped
//      earning their keep vs the promised miss rate) carries the signal.
//      Gates: appearance stays ~0 in every epoch, divergence crosses the
//      threshold, every shard still swaps, and every result stays correct.
//
//   3. Cross-run persistence — scenario 1 serialized its merged store at
//      shutdown; a second cold-identical run warm-starts from it, rebuilds
//      BEFORE serving, and must skip the first degraded epoch (its epoch-0
//      efficiency beats the cold run's epoch-0).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "src/adapt/server_group.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kShards = 4;
constexpr int kRequestsPerShard = 32;
constexpr int kTasksPerEpoch = 4;
constexpr uint64_t kChaseSteps = 400;
constexpr double kRecoveryFloor = 0.90;  // the A1 bar, per shard
constexpr double kAppearanceCeiling = 0.05;

adapt::AdaptiveServerConfig ShardConfig(const core::PipelineConfig& pipeline) {
  adapt::AdaptiveServerConfig config;
  config.controller.pipeline = pipeline;
  config.tasks_per_epoch = kTasksPerEpoch;
  config.dual.max_scavengers = 4;
  config.dual.hide_window_cycles = 300;
  return config;
}

// Uninstrumented original, primary alone: the efficiency floor every
// recovery fraction is measured from.
Result<double> BaselineEfficiency(const workloads::PhasedChase& chase,
                                  const sim::MachineConfig& machine_config) {
  sim::Machine machine(machine_config);
  chase.InitMemory(machine.memory());
  const auto binary =
      runtime::AnnotateManualYields(chase.program(), machine_config.cost);
  runtime::DualModeConfig dm;
  dm.hide_window_cycles = 300;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  for (int i = 0; i < kRequestsPerShard; ++i) {
    sched.AddPrimaryTask(chase.SetupFor(i));
  }
  YH_ASSIGN_OR_RETURN(const runtime::DualModeReport report, sched.Run());
  return report.CpuEfficiency();
}

// One single-shard ServerGroup run over task indices [first, first+n):
// the independent-profiles baseline the shared store must beat, and the
// fresh-profile oracle runner.
Result<adapt::AdaptReport> RunIndependent(
    const workloads::PhasedChase& chase,
    const core::PipelineArtifacts& artifacts,
    const instrument::InstrumentedProgram& batch,
    const core::PipelineConfig& pipeline, int first, bool adapting) {
  sim::Machine machine(pipeline.machine);
  chase.InitMemory(machine.memory());
  adapt::ServerGroupConfig config;
  config.shard = ShardConfig(pipeline);
  config.shard.adapt_enabled = adapting;
  config.shard.scale_pool = adapting;
  adapt::ServerGroup server(&chase.program(), artifacts, {&machine}, config);
  server.SetScavengerBinary(0, &batch);
  server.SetScavengerFactory(0, BatchFactory());
  for (int i = 0; i < kRequestsPerShard; ++i) {
    server.AddTask(0, chase.SetupFor(first + i));
  }
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, server.Run());
  return std::move(report.shards[0]);
}

struct GroupOutcome {
  adapt::GroupReport report;
  std::vector<std::unique_ptr<sim::Machine>> machines;
};

// One ServerGroup run: shard s serves task indices [s*n, (s+1)*n) on its own
// machine; the merged store is persisted to `store_path` when non-empty.
Result<GroupOutcome> RunGroup(const workloads::PhasedChase& chase,
                              const core::PipelineArtifacts& artifacts,
                              const instrument::InstrumentedProgram& batch,
                              const core::PipelineConfig& pipeline,
                              size_t shards, const std::string& store_path) {
  GroupOutcome out;
  std::vector<sim::Machine*> machine_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    out.machines.push_back(std::make_unique<sim::Machine>(pipeline.machine));
    chase.InitMemory(out.machines.back()->memory());
    machine_ptrs.push_back(out.machines.back().get());
  }
  adapt::ServerGroupConfig config;
  config.shards = shards;
  config.shard = ShardConfig(pipeline);
  config.profile_path = store_path;
  adapt::ServerGroup group(&chase.program(), artifacts, machine_ptrs, config);
  for (size_t s = 0; s < shards; ++s) {
    for (int i = 0; i < kRequestsPerShard; ++i) {
      group.AddTask(s, chase.SetupFor(static_cast<int>(s) * kRequestsPerShard + i));
    }
    group.SetScavengerBinary(s, &batch);
    group.SetScavengerFactory(s, BatchFactory());
  }
  YH_ASSIGN_OR_RETURN(out.report, group.Run());
  return out;
}

size_t OverlappingSwapEpochs(const adapt::GroupReport& report) {
  std::set<size_t> seen;
  size_t overlaps = 0;
  for (const auto& [epoch, shard] : report.swap_log) {
    if (!seen.insert(epoch).second) {
      ++overlaps;
    }
  }
  return overlaps;
}

double MeanFirstEpochEfficiency(const adapt::GroupReport& report) {
  double sum = 0.0;
  size_t counted = 0;
  for (const adapt::AdaptReport& shard : report.shards) {
    if (!shard.epochs.empty()) {
      sum += shard.epochs.front().efficiency;
      ++counted;
    }
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

int CountCorrect(const workloads::PhasedChase& chase,
                 const GroupOutcome& outcome, size_t shards) {
  int correct = 0;
  for (size_t s = 0; s < shards; ++s) {
    for (int i = 0; i < kRequestsPerShard; ++i) {
      const int index = static_cast<int>(s) * kRequestsPerShard + i;
      if (chase.ReadResult(outcome.machines[s]->memory(), index) ==
          chase.ExpectedResult(index)) {
        ++correct;
      }
    }
  }
  return correct;
}

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("A2", "sharded serving: shared store, staggered swaps, persistence");
  JsonWriter json("A2", argc, argv);
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  const auto batch = MakeScavengedBatch(machine_config);
  bool all_pass = true;

  // Shared scaffolding: yesterday's all-phase-A twin provides the stale
  // instrumentation every scenario starts from.
  workloads::PhasedChase::Config yesterday;
  yesterday.num_nodes = 1 << 18;  // 16 MiB per ring: payload loads miss
  yesterday.steps_per_task = kChaseSteps;
  yesterday.severity = 0.0;
  auto chase_yesterday = workloads::PhasedChase::Make(yesterday).value();
  auto pipeline = BenchPipeline();
  auto stale = core::BuildInstrumentedForWorkload(chase_yesterday, pipeline).value();
  std::printf("stale pipeline (phase-A profile): %s\n\n", stale.Summary().c_str());

  // ---------- scenario 1: IP drift across 4 shards -------------------------
  std::printf("[scenario 1] phase-B IP drift on %zu shards\n", kShards);
  workloads::PhasedChase::Config today = yesterday;
  today.severity = 1.0;
  today.flip_task_index = 0;
  auto chase = workloads::PhasedChase::Make(today).value();

  auto eff_base = BaselineEfficiency(chase, machine_config);
  auto fresh_pipeline = BenchPipeline();
  fresh_pipeline.profile_tasks = 8;
  auto fresh_artifacts = core::BuildInstrumentedForWorkload(chase, fresh_pipeline);
  if (!eff_base.ok() || !fresh_artifacts.ok()) {
    std::fprintf(stderr, "scenario 1 scaffolding failed\n");
    return 2;
  }
  auto fresh = RunIndependent(chase, fresh_artifacts.value(), batch, pipeline,
                              /*first=*/0, /*adapting=*/false);
  if (!fresh.ok()) {
    std::fprintf(stderr, "fresh run failed: %s\n",
                 fresh.status().ToString().c_str());
    return 2;
  }
  const double eff_fresh = fresh->run.CpuEfficiency();
  const double win_fresh = eff_fresh - *eff_base;

  // The independent-profiles baseline: four separate single-shard servers,
  // each maintaining its own online profile and rebuilding on its own.
  int independent_rebuilds = 0;
  for (size_t s = 0; s < kShards; ++s) {
    auto solo = RunIndependent(chase, stale, batch, pipeline,
                               static_cast<int>(s) * kRequestsPerShard,
                               /*adapting=*/true);
    if (!solo.ok()) {
      std::fprintf(stderr, "independent run %zu failed: %s\n", s,
                   solo.status().ToString().c_str());
      return 2;
    }
    independent_rebuilds += solo->swaps;
  }

  const TempPath store_file("a2_store.json");
  const std::string& store_path = store_file.str();
  auto cold = RunGroup(chase, stale, batch, pipeline, kShards, store_path);
  if (!cold.ok()) {
    std::fprintf(stderr, "group run failed: %s\n", cold.status().ToString().c_str());
    return 2;
  }
  const adapt::GroupReport& group = cold->report;

  Table table({"shard", "epochs", "swaps", "steady_eff", "recovery", "verdict"});
  table.PrintHeader();
  double min_recovery = 2.0;
  for (size_t s = 0; s < group.shards.size(); ++s) {
    const adapt::AdaptReport& shard = group.shards[s];
    const double steady = SteadyStateEfficiency(shard);
    const double recovery =
        win_fresh > 0.0 ? (steady - *eff_base) / win_fresh : 0.0;
    min_recovery = std::min(min_recovery, recovery);
    const bool shard_pass = shard.swaps >= 1 && recovery >= kRecoveryFloor;
    table.PrintRow({std::to_string(s), std::to_string(shard.epochs.size()),
                    std::to_string(shard.swaps), Fmt("%.3f", steady),
                    Fmt("%.2f", recovery), shard_pass ? "pass" : "FAIL"});
    all_pass = all_pass && shard_pass;
  }
  const size_t overlaps = OverlappingSwapEpochs(group);
  const bool converges = group.rebuilds < independent_rebuilds;
  all_pass = all_pass && overlaps == 0 && converges;
  for (const auto& [epoch, shard] : group.swap_log) {
    std::printf("    swap: group epoch %zu -> shard %zu\n", epoch, shard);
  }
  std::printf(
      "  group: %d rebuilds for %d installs (%d reused); independent shards "
      "needed %d rebuilds -> %s\n",
      group.rebuilds, group.installs, group.reuse_installs,
      independent_rebuilds, converges ? "shared store converges faster" : "FAIL");
  std::printf("  swap overlaps: %zu (%s)\n", overlaps,
              overlaps == 0 ? "stagger holds" : "FAIL");
  const int correct1 = CountCorrect(chase, cold.value(), kShards);
  all_pass = all_pass && correct1 == static_cast<int>(kShards) * kRequestsPerShard;
  std::printf("  results: %d/%d correct\n\n", correct1,
              static_cast<int>(kShards) * kRequestsPerShard);
  json.Add("scenario1",
           {{"eff_baseline", *eff_base},
            {"eff_fresh", eff_fresh},
            {"min_recovery", min_recovery},
            {"group_rebuilds", static_cast<double>(group.rebuilds)},
            {"group_installs", static_cast<double>(group.installs)},
            {"reuse_installs", static_cast<double>(group.reuse_installs)},
            {"independent_rebuilds", static_cast<double>(independent_rebuilds)},
            {"swap_overlaps", static_cast<double>(overlaps)}});

  // ---------- scenario 2: Zipf-mix drift (divergence-only signal) ----------
  std::printf("[scenario 2] zipf-mix drift: same IPs, shifted key skew\n");
  workloads::PhasedChase::Config zipf_config = yesterday;
  zipf_config.severity = 1.0;
  zipf_config.flip_task_index = 0;
  zipf_config.zipf_mix = true;
  auto zipf_chase = workloads::PhasedChase::Make(zipf_config).value();
  auto zipf = RunGroup(zipf_chase, stale, batch, pipeline, /*shards=*/2,
                       /*store_path=*/"");
  if (!zipf.ok()) {
    std::fprintf(stderr, "zipf group run failed: %s\n",
                 zipf.status().ToString().c_str());
    return 2;
  }
  double max_appearance = 0.0, max_divergence = 0.0;
  int zipf_swaps = 0;
  bool zipf_all_swapped = true;
  for (const adapt::AdaptReport& shard : zipf->report.shards) {
    zipf_swaps += shard.swaps;
    zipf_all_swapped = zipf_all_swapped && shard.swaps >= 1;
    for (const adapt::EpochTelemetry& e : shard.epochs) {
      max_appearance = std::max(max_appearance, e.drift_appearance);
      max_divergence = std::max(max_divergence, e.drift_divergence);
    }
  }
  const int correct2 = CountCorrect(zipf_chase, zipf.value(), 2);
  const bool zipf_pass = zipf_all_swapped &&
                         max_appearance <= kAppearanceCeiling &&
                         max_divergence > 0.0 &&
                         correct2 == 2 * kRequestsPerShard;
  all_pass = all_pass && zipf_pass;
  std::printf(
      "  swaps=%d max_appearance=%.3f (ceiling %.2f) max_divergence=%.3f "
      "results=%d/%d -> %s\n\n",
      zipf_swaps, max_appearance, kAppearanceCeiling, max_divergence, correct2,
      2 * kRequestsPerShard, zipf_pass ? "pass" : "FAIL");
  json.Add("scenario2", {{"swaps", static_cast<double>(zipf_swaps)},
                         {"max_appearance", max_appearance},
                         {"max_divergence", max_divergence},
                         {"pass", zipf_pass ? 1.0 : 0.0}});

  // ---------- scenario 3: cross-run persistence ----------------------------
  std::printf("[scenario 3] warm start from scenario 1's persisted store\n");
  auto warm = RunGroup(chase, stale, batch, pipeline, kShards, store_path);
  if (!warm.ok()) {
    std::fprintf(stderr, "warm group run failed: %s\n",
                 warm.status().ToString().c_str());
    return 2;
  }
  const double cold_epoch0 = MeanFirstEpochEfficiency(group);
  const double warm_epoch0 = MeanFirstEpochEfficiency(warm->report);
  const bool warm_pass = warm->report.warm_started && warm_epoch0 > cold_epoch0;
  all_pass = all_pass && warm_pass;
  std::printf(
      "  warm_started=%s epoch0_eff cold=%.3f warm=%.3f -> %s\n",
      warm->report.warm_started ? "yes" : "no", cold_epoch0, warm_epoch0,
      warm_pass ? "warm start skips the degraded epoch" : "FAIL");
  json.Add("scenario3", {{"warm_started", warm->report.warm_started ? 1.0 : 0.0},
                         {"cold_epoch0_eff", cold_epoch0},
                         {"warm_epoch0_eff", warm_epoch0},
                         {"pass", warm_pass ? 1.0 : 0.0}});

  std::printf(
      "\nReading: recovery per shard = (steady-state efficiency - baseline) /\n"
      "(fresh-profile efficiency - baseline), measured against one shared\n"
      "baseline/oracle pair (all shards serve the same severity-1.0 mix).\n"
      "The group must beat four independent servers on rebuild count because\n"
      "one generation built from the SHARED store is reused by later shards.\n");
  json.Flush();
  if (!all_pass) {
    std::printf("\nA2: GATE VIOLATED\n");
    return 1;
  }
  std::printf("\nA2: all gates pass\n");
  return 0;
}
