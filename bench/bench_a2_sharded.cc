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
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/deployment.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::bench {
namespace {

constexpr size_t kShards = 4;
constexpr int kRequestsPerShard = 32;
constexpr int kTasksPerEpoch = 4;
constexpr uint64_t kChaseSteps = 400;
constexpr double kRecoveryFloor = 0.90;  // the A1 bar, per shard
constexpr double kAppearanceCeiling = 0.05;

// One single-shard deployment over task indices [first, first+n): the
// independent-profiles baseline the shared store must beat, and the
// fresh-profile oracle runner.
Result<adapt::AdaptReport> RunIndependent(
    const workloads::PhasedChase& chase,
    const core::PipelineArtifacts& artifacts,
    const instrument::InstrumentedProgram& batch,
    const core::PipelineConfig& pipeline, int first, bool adapting) {
  serve::DeploymentSpec spec;
  spec.group.shard = ShardConfig(pipeline, kTasksPerEpoch);
  spec.group.shard.adapt_enabled = adapting;
  spec.group.shard.scale_pool = adapting;
  spec.closed_loop = BatchLoop(batch, kRequestsPerShard, first);
  YH_ASSIGN_OR_RETURN(serve::Deployment server,
                      serve::Deployment::Build(chase, artifacts, spec));
  YH_ASSIGN_OR_RETURN(adapt::GroupReport report, server.Run());
  return std::move(report.shards[0]);
}

// One group run: shard s serves task indices [s*n, (s+1)*n) on its own
// machine, every result checked; the merged store is persisted to
// `store_path` when non-empty.
Result<adapt::GroupReport> RunGroup(const workloads::PhasedChase& chase,
                                    const core::PipelineArtifacts& artifacts,
                                    const instrument::InstrumentedProgram& batch,
                                    const core::PipelineConfig& pipeline,
                                    size_t shards,
                                    const std::string& store_path) {
  serve::DeploymentSpec spec;
  spec.group.shards = shards;
  spec.group.shard = ShardConfig(pipeline, kTasksPerEpoch);
  spec.group.profile_path = store_path;
  spec.closed_loop = BatchLoop(batch, kRequestsPerShard);
  YH_ASSIGN_OR_RETURN(serve::Deployment group,
                      serve::Deployment::Build(chase, artifacts, spec));
  return group.Run();
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

}  // namespace
}  // namespace yieldhide::bench

int main(int argc, char** argv) {
  using namespace yieldhide;
  using namespace yieldhide::bench;

  Banner("A2", "sharded serving: shared store, staggered swaps, persistence");
  JsonWriter json("A2", argc, argv);
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  const auto batch = MakeScavengedBatch(machine_config);
  Gates gate("A2");

  // Shared scaffolding: yesterday's all-phase-A twin provides the stale
  // instrumentation every scenario starts from; today all traffic is phase B.
  workloads::PhasedChase::Config today;
  today.num_nodes = 1 << 18;  // 16 MiB per ring: payload loads miss
  today.steps_per_task = kChaseSteps;
  today.severity = 1.0;
  today.flip_task_index = 0;
  const auto pipeline = BenchPipeline();
  const auto drift = serve::DriftScenario::Make(today, pipeline).value();
  const core::PipelineArtifacts& stale = drift.stale;
  const workloads::PhasedChase& chase = drift.chase;
  std::printf("stale pipeline (phase-A profile): %s\n\n", stale.Summary().c_str());

  // ---------- scenario 1: IP drift across 4 shards -------------------------
  std::printf("[scenario 1] phase-B IP drift on %zu shards\n", kShards);

  auto eff_base = BaselineEfficiency(chase, machine_config, kRequestsPerShard);
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
  const adapt::GroupReport& group = *cold;

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
                    Fmt("%.2f", recovery), gate.Record(shard_pass)});
  }
  const size_t overlaps = OverlappingSwapEpochs(group);
  const bool converges = group.rebuilds < independent_rebuilds;
  gate.Record(overlaps == 0 && converges);
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
  std::printf("  results: all %zu correct\n\n", kShards * kRequestsPerShard);
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
  // zipf_mix lays ring A out differently, so this chase is not the stale
  // build's twin at any severity.
  workloads::PhasedChase::Config zipf_config = today;
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
  for (const adapt::AdaptReport& shard : zipf->shards) {
    zipf_swaps += shard.swaps;
    zipf_all_swapped = zipf_all_swapped && shard.swaps >= 1;
    for (const adapt::EpochTelemetry& e : shard.epochs) {
      max_appearance = std::max(max_appearance, e.drift_appearance);
      max_divergence = std::max(max_divergence, e.drift_divergence);
    }
  }
  const bool zipf_pass = zipf_all_swapped &&
                         max_appearance <= kAppearanceCeiling &&
                         max_divergence > 0.0;
  std::printf(
      "  swaps=%d max_appearance=%.3f (ceiling %.2f) max_divergence=%.3f "
      "results=all %d correct -> %s\n\n",
      zipf_swaps, max_appearance, kAppearanceCeiling, max_divergence,
      2 * kRequestsPerShard, gate.Record(zipf_pass));
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
  const double warm_epoch0 = MeanFirstEpochEfficiency(*warm);
  const bool warm_pass = warm->warm_started && warm_epoch0 > cold_epoch0;
  gate.Record(warm_pass);
  std::printf(
      "  warm_started=%s epoch0_eff cold=%.3f warm=%.3f -> %s\n",
      warm->warm_started ? "yes" : "no", cold_epoch0, warm_epoch0,
      warm_pass ? "warm start skips the degraded epoch" : "FAIL");
  json.Add("scenario3", {{"warm_started", warm->warm_started ? 1.0 : 0.0},
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
  return gate.Finish();
}
