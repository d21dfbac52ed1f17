// Tests for the guarded-deployment layer (src/adapt/guard, the serving-class
// fault injectors in src/faultinject/serving_faults, and ServerGroup's use of
// both): config validation, the canary health scorer, evidence fingerprints,
// the poison/quarantine bookkeeping, and end-to-end guarded serving under
// injected rebuild failures, regressions, shard stalls, and store rot.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/adapt/controller.h"
#include "src/adapt/guard.h"
#include "src/adapt/profile_store.h"
#include "src/adapt/server_group.h"
#include "src/core/pipeline.h"
#include "src/faultinject/fault.h"
#include "src/faultinject/serving_faults.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/serve/front_end.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::adapt {
namespace {

core::PipelineConfig SmallPipeline() {
  core::PipelineConfig config;
  config.machine = sim::MachineConfig::SmallTest();
  config.profile_tasks = 2;
  config.collector.l2_miss_period = 13;
  config.collector.stall_cycles_period = 101;
  config.collector.retired_period = 29;
  config.Finalize();
  return config;
}

// 256 KiB per ring > SmallTest L3, so payload loads are true misses.
workloads::PhasedChase SmallPhased(double severity, int flip = 8) {
  workloads::PhasedChase::Config wc;
  wc.num_nodes = 4096;
  wc.steps_per_task = 300;
  wc.severity = severity;
  wc.flip_task_index = flip;
  return workloads::PhasedChase::Make(wc).value();
}

core::PipelineArtifacts StaleArtifacts(const workloads::PhasedChase& twin,
                                       const core::PipelineConfig& config) {
  auto artifacts = core::BuildInstrumentedForWorkload(twin, config);
  EXPECT_TRUE(artifacts.ok()) << artifacts.status();
  return std::move(artifacts).value();
}

adapt::AdaptiveServerConfig ServerConfig(const core::PipelineConfig& pipeline,
                                         bool adapting) {
  adapt::AdaptiveServerConfig config;
  config.controller.pipeline = pipeline;
  config.tasks_per_epoch = 4;
  config.adapt_enabled = adapting;
  config.scale_pool = adapting;
  config.dual.max_scavengers = 3;
  return config;
}

// Guarded group with a confirmation window short enough for small scenarios
// and a regression ratio generous enough that a HEALTHY fresh generation
// (which legitimately trades primary-lane cycles for harvested slots) is
// never condemned on the SmallTest machine.
ServerGroupConfig GuardedGroupConfig(const core::PipelineConfig& pipeline,
                                     size_t shards) {
  ServerGroupConfig config;
  config.shards = shards;
  config.shard = ServerConfig(pipeline, /*adapting=*/true);
  config.guard.enabled = true;
  config.guard.confirmation_window = 2;
  config.guard.regression_ratio = 3.0;
  return config;
}

profile::SiteProfile Site(double execs, double l2, double stall) {
  profile::SiteProfile site;
  site.est_executions = execs;
  site.est_l2_misses = l2;
  site.est_stall_cycles = stall;
  return site;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "yh_guard_test_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- GuardConfig ------------------------------------------------------------------

TEST(GuardConfigTest, ValidateNamesEachBadField) {
  EXPECT_TRUE(GuardConfig{}.Validate().ok());

  struct Case {
    const char* fragment;
    void (*mutate)(GuardConfig&);
  };
  const Case cases[] = {
      {"confirmation_window", [](GuardConfig& g) { g.confirmation_window = 0; }},
      {"regression_ratio", [](GuardConfig& g) { g.regression_ratio = 0.9; }},
  };
  for (const Case& c : cases) {
    GuardConfig config;
    c.mutate(config);
    const Status status = config.Validate();
    EXPECT_FALSE(status.ok()) << c.fragment;
    EXPECT_NE(status.message().find(c.fragment), std::string::npos)
        << status.message();
  }
}

TEST(GuardConfigTest, EventToStringCarriesRatioOnlyForVerdicts) {
  GuardEvent begin;
  begin.epoch = 3;
  begin.shard = 0;
  begin.generation_id = 2;
  begin.kind = GuardEventKind::kCanaryBegin;
  EXPECT_EQ(begin.ToString().find("cpo_ratio"), std::string::npos);

  GuardEvent verdict = begin;
  verdict.kind = GuardEventKind::kRollback;
  verdict.ratio = 2.5;
  const std::string text = verdict.ToString();
  EXPECT_NE(text.find("rollback"), std::string::npos);
  EXPECT_NE(text.find("cpo_ratio=2.50"), std::string::npos);
}

// --- FingerprintLoads -------------------------------------------------------------

profile::LoadProfile RankedLoads(double scale) {
  profile::LoadProfile loads;
  for (int i = 0; i < 20; ++i) {
    loads.AccumulateSite(static_cast<isa::Addr>(100 + i),
                         Site(scale * 100, scale * 50,
                              scale * (2000.0 - 10.0 * i)));
  }
  return loads;
}

TEST(FingerprintLoadsTest, StableUnderDecayAndSmallSiteChurn) {
  const uint64_t fp = FingerprintLoads(RankedLoads(1.0));
  // Uniform decay scales every site's mass but keeps the same top set.
  EXPECT_EQ(FingerprintLoads(RankedLoads(0.25)), fp);
  // A negligible new site never displaces the top-K.
  profile::LoadProfile churned = RankedLoads(1.0);
  churned.AccumulateSite(999, Site(0.1, 0.0, 0.001));
  EXPECT_EQ(FingerprintLoads(churned), fp);
}

TEST(FingerprintLoadsTest, ChangesWhenTopSitesMove) {
  const uint64_t fp = FingerprintLoads(RankedLoads(1.0));
  // Genuinely new evidence: the hottest site lives at a different address
  // (a phase change, or a repaired backmap).
  profile::LoadProfile moved;
  for (int i = 0; i < 20; ++i) {
    moved.AccumulateSite(static_cast<isa::Addr>(500 + i),
                         Site(100, 50, 2000.0 - 10.0 * i));
  }
  EXPECT_NE(FingerprintLoads(moved), fp);
}

// --- GenerationHealth -------------------------------------------------------------

TEST(GenerationHealthTest, PromotesHealthyCanaryAgainstPeers) {
  GuardConfig config;
  config.confirmation_window = 2;
  config.regression_ratio = 1.3;
  GenerationHealth health(config);
  health.Arm(/*fallback=*/0.0);
  for (int epoch = 0; epoch < 2; ++epoch) {
    health.ObserveCanaryEpoch(/*cycles=*/110, /*tasks=*/10);
    health.ObservePeerEpoch(/*cycles=*/100, /*tasks=*/10);
  }
  ASSERT_TRUE(health.window_complete());
  const auto verdict = health.Judge();
  EXPECT_TRUE(verdict.promote);
  EXPECT_NEAR(verdict.canary_cycles_per_op, 11.0, 1e-9);
  EXPECT_NEAR(verdict.baseline_cycles_per_op, 10.0, 1e-9);
}

TEST(GenerationHealthTest, FlagsCyclesPerOpRegression) {
  GuardConfig config;
  config.confirmation_window = 1;
  config.regression_ratio = 1.3;
  GenerationHealth health(config);
  health.Arm(0.0);
  health.ObserveCanaryEpoch(300, 10);
  health.ObservePeerEpoch(100, 10);
  const auto verdict = health.Judge();
  EXPECT_FALSE(verdict.promote);
  EXPECT_NE(std::string(verdict.reason).find("cycles/op"), std::string::npos);
}

TEST(GenerationHealthTest, UsesFallbackBaselineWithoutPeers) {
  GuardConfig config;
  config.confirmation_window = 1;
  config.regression_ratio = 1.3;
  GenerationHealth health(config);
  // A 1-shard group has no serving peer: the shard's own trailing
  // cycles/op before the install is the baseline.
  health.Arm(/*fallback=*/10.0);
  health.ObserveCanaryEpoch(200, 10);
  const auto verdict = health.Judge();
  EXPECT_FALSE(verdict.promote);
  EXPECT_NEAR(verdict.baseline_cycles_per_op, 10.0, 1e-9);
}

TEST(GenerationHealthTest, NoCanaryEvidencePromotes) {
  GenerationHealth health(GuardConfig{});
  health.Arm(10.0);
  const auto verdict = health.Judge();
  EXPECT_TRUE(verdict.promote);
  EXPECT_NE(std::string(verdict.reason).find("no canary evidence"),
            std::string::npos);
}

TEST(GenerationHealthTest, FlagsHiddenLatencyP99Regression) {
  GuardConfig config;
  config.confirmation_window = 1;
  GenerationHealth health(config);
  health.Arm(0.0);
  // Cycles/op identical — only the tail regressed.
  health.ObserveCanaryEpoch(100, 10);
  health.ObservePeerEpoch(100, 10);
  health.SetHiddenLatencyP99(/*canary=*/200, /*peer=*/100);
  const auto verdict = health.Judge();
  EXPECT_FALSE(verdict.promote);
  EXPECT_NEAR(verdict.latency_ratio, 2.0, 1e-9);
  EXPECT_NE(std::string(verdict.reason).find("p99"), std::string::npos);
}

// --- serving-class fault injectors ------------------------------------------------

TEST(ServingFaultsTest, OutageEpochsScaleWithSeverity) {
  using faultinject::ServingOutageEpochs;
  EXPECT_EQ(ServingOutageEpochs(-1.0), 0);
  EXPECT_EQ(ServingOutageEpochs(0.0), 0);
  EXPECT_EQ(ServingOutageEpochs(0.5), 3);
  EXPECT_EQ(ServingOutageEpochs(0.6), 4);
  EXPECT_EQ(ServingOutageEpochs(1.0), 6);
  EXPECT_EQ(ServingOutageEpochs(2.0), 6);
}

TEST(ServingFaultsTest, HooksRejectPipelineFaultClasses) {
  faultinject::FaultSpec spec;
  spec.fault = faultinject::FaultClass::kIpAlias;
  const auto hooks = faultinject::MakeServingFaultHooks({spec}, 64);
  ASSERT_FALSE(hooks.ok());
  EXPECT_NE(hooks.status().message().find("not a serving-layer fault"),
            std::string::npos);
}

TEST(ServingFaultsTest, RebuildFailHookActiveOnlyDuringOutage) {
  faultinject::FaultSpec spec;
  spec.fault = faultinject::FaultClass::kRebuildFail;
  spec.severity = 0.5;  // 3-epoch outage
  const auto hooks = faultinject::MakeServingFaultHooks({spec}, 64);
  ASSERT_TRUE(hooks.ok()) << hooks.status();
  ASSERT_TRUE(hooks->fail_rebuild != nullptr);
  EXPECT_TRUE(hooks->any());
  EXPECT_TRUE(hooks->fail_rebuild(0));
  EXPECT_TRUE(hooks->fail_rebuild(2));
  EXPECT_FALSE(hooks->fail_rebuild(3));
  EXPECT_EQ(hooks->cursed_penalty, 0.0);
}

TEST(ServingFaultsTest, RegressionSetsCursedPenaltyForTheOutage) {
  faultinject::FaultSpec spec;
  spec.fault = faultinject::FaultClass::kRegression;
  spec.severity = 0.75;  // ceil(0.75 * 6) = 5-epoch outage
  const auto hooks = faultinject::MakeServingFaultHooks({spec}, 64);
  ASSERT_TRUE(hooks.ok()) << hooks.status();
  ASSERT_TRUE(hooks->degrade_build != nullptr);
  EXPECT_TRUE(hooks->degrade_build(4));
  EXPECT_FALSE(hooks->degrade_build(5));
  EXPECT_NEAR(hooks->cursed_penalty, 0.75, 1e-9);
}

TEST(ServingFaultsTest, StoreCorruptAloneHasNoRuntimeHooks) {
  faultinject::FaultSpec spec;
  spec.fault = faultinject::FaultClass::kStoreCorrupt;
  const auto hooks = faultinject::MakeServingFaultHooks({spec}, 64);
  ASSERT_TRUE(hooks.ok()) << hooks.status();
  // File-level fault: applied with CorruptStoreFile, not via the epoch hooks.
  EXPECT_FALSE(hooks->any());
  EXPECT_EQ(hooks->cursed_penalty, 0.0);
}

TEST(ServingFaultsTest, StallHitsOnlyTheVictimShardDuringOutage) {
  faultinject::FaultSpec spec;
  spec.fault = faultinject::FaultClass::kShardStall;
  spec.severity = 1.0;
  spec.seed = 2;  // victim = seed % 4
  const auto hooks = faultinject::MakeServingFaultHooks({spec}, 64);
  ASSERT_TRUE(hooks.ok()) << hooks.status();
  ASSERT_TRUE(hooks->stall_cycles != nullptr);
  EXPECT_EQ(hooks->stall_cycles(2, 0, 1000), 8000u);
  EXPECT_EQ(hooks->stall_cycles(0, 0, 1000), 0u);
  EXPECT_EQ(hooks->stall_cycles(1, 0, 1000), 0u);
  // The outage clears after ceil(1.0 * 6) epochs.
  EXPECT_EQ(hooks->stall_cycles(2, 6, 1000), 0u);
}

TEST(ServingFaultsTest, InvertLoadsSaturatesFastSitesAndDropsStallSites) {
  profile::LoadProfile loads;
  loads.AccumulateSite(10, Site(100, 60, 4000));  // true stall site
  loads.AccumulateSite(20, Site(100, 2, 10));     // fast load
  const auto inverted = faultinject::InvertLoads(loads, /*seed=*/0);
  // The real stall site's misses go uncovered...
  EXPECT_FALSE(inverted.HasIp(10));
  // ...while the fast load gets saturated evidence the instrumenter will act
  // on (and whose planted yield will then blow on every visit).
  ASSERT_TRUE(inverted.HasIp(20));
  EXPECT_GE(inverted.ForIp(20).L2MissProbability(), 0.8);
  EXPECT_GT(inverted.ForIp(20).est_stall_cycles, 1000.0);
}

TEST(ServingFaultsTest, InvertLoadsRekeysDegenerateAllStallInputs) {
  profile::LoadProfile loads;
  loads.AccumulateSite(10, Site(100, 60, 4000));
  loads.AccumulateSite(11, Site(100, 90, 6000));
  const auto inverted = faultinject::InvertLoads(loads, /*seed=*/0);
  // Every site genuinely misses: the whole profile shifts one slot over, so
  // yields land on the wrong instructions instead of vanishing.
  ASSERT_EQ(inverted.sites().size(), 2u);
  EXPECT_TRUE(inverted.HasIp(11));
  EXPECT_TRUE(inverted.HasIp(12));
}

TEST(ServingFaultsTest, CorruptStoreFileIsDeterministicAndRejectedAtLoad) {
  SharedProfileStore store;
  profile::LoadProfile evidence;
  evidence.AccumulateSite(11, Site(100, 60, 4000));
  evidence.AccumulateSite(23, Site(50, 2, 10));
  store.BeginEpoch();
  store.Contribute(evidence);

  const std::string a = TempPath("rot_a.profile");
  const std::string b = TempPath("rot_b.profile");
  ASSERT_TRUE(store.SaveMergedWith({}, 0.5, a).ok());
  WriteFileBytes(b, ReadFileBytes(a));

  faultinject::FaultSpec spec;
  spec.fault = faultinject::FaultClass::kStoreCorrupt;
  spec.severity = 1.0;
  spec.seed = 7;
  ASSERT_TRUE(faultinject::CorruptStoreFile(a, spec).ok());
  ASSERT_TRUE(faultinject::CorruptStoreFile(b, spec).ok());
  // Same bytes + same spec => same rot.
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));
  // The container rejects the rotten file instead of half-loading it.
  EXPECT_FALSE(LoadStoreFile(a).ok());
  SharedProfileStore reloaded;
  EXPECT_FALSE(reloaded.WarmStartFrom(a).ok());
  EXPECT_FALSE(reloaded.warm_started());

  EXPECT_EQ(faultinject::CorruptStoreFile(TempPath("missing.profile"), spec)
                .code(),
            StatusCode::kNotFound);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- AdaptController quarantine ---------------------------------------------------

TEST(ControllerQuarantineTest, RevertsReferenceToNewestHealthyGeneration) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  AdaptControllerConfig controller_config;
  controller_config.pipeline = config;
  AdaptController controller(&twin.program(), StaleArtifacts(twin, config),
                             controller_config);
  ASSERT_EQ(controller.current_generation().id, 0);

  // Push generation 1 by rebuilding from the reference evidence itself.
  auto plan = controller.RebuildFromLoads(controller.reference_loads(), {},
                                          controller.site_index(),
                                          /*built_epoch=*/0);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(controller.current_generation().id, 1);

  controller.QuarantineGeneration(1);
  // The reference reverts to the newest healthy generation.
  EXPECT_EQ(controller.current_generation().id, 0);
  EXPECT_TRUE(controller.generation(1).quarantined);
  EXPECT_EQ(controller.quarantined_generations(), 1);

  // Quarantining the same generation again is not a second incident.
  controller.QuarantineGeneration(1);
  EXPECT_EQ(controller.quarantined_generations(), 1);
}

// --- guarded ServerGroup end-to-end -----------------------------------------------

TEST(GuardedServerGroupTest, DriftedWorkloadPromotesFreshGeneration) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine m0(config.machine);
  sim::Machine m1(config.machine);
  drifted.InitMemory(m0.memory());
  drifted.InitMemory(m1.memory());

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/2);
  ServerGroup group(&drifted.program(), stale, {&m0, &m1}, group_config);
  obs::MetricsRegistry metrics;
  group.SetObservability(nullptr, &metrics);
  constexpr int kTasksPerShard = 24;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kTasksPerShard; ++i) {
      group.AddTask(static_cast<size_t>(s),
                    drifted.SetupFor(s * kTasksPerShard + i));
    }
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The fresh generation canaried on one shard, was promoted, and spread.
  EXPECT_GE(report->canaries, 1);
  EXPECT_GE(report->promotes, 1);
  EXPECT_EQ(report->rollbacks, 0);
  EXPECT_GE(report->installs, 2);
  EXPECT_EQ(group.controller().quarantined_generations(), 0);
  // While the canary was in flight no other shard installed anything: the
  // begin->verdict interval contains no second swap.
  size_t begin_epoch = 0;
  bool in_canary = false;
  for (const GuardEvent& event : report->guard_log) {
    if (event.kind == GuardEventKind::kCanaryBegin) {
      begin_epoch = event.epoch;
      in_canary = true;
    } else if (event.kind == GuardEventKind::kPromote && in_canary) {
      for (const auto& [epoch, shard] : report->swap_log) {
        EXPECT_FALSE(epoch > begin_epoch && epoch < event.epoch)
            << "swap during canary window at epoch " << epoch;
      }
      in_canary = false;
    }
  }
  // Guard activity is published as metrics.
  EXPECT_GE(metrics.GetCounter("yh_guard_canary_total")->value(), 1u);
  EXPECT_GE(metrics.GetCounter("yh_guard_promote_total")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("yh_guard_rollback_total")->value(), 0u);
  // Swap safety survives the guard layer: every request is exact.
  for (int i = 0; i < kTasksPerShard; ++i) {
    EXPECT_EQ(drifted.ReadResult(m0.memory(), i), drifted.ExpectedResult(i))
        << "shard 0 task " << i;
    EXPECT_EQ(drifted.ReadResult(m1.memory(), kTasksPerShard + i),
              drifted.ExpectedResult(kTasksPerShard + i))
        << "shard 1 task " << kTasksPerShard + i;
  }
}

TEST(GuardedServerGroupTest, RegressingGenerationRollsBackAndQuarantines) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine m0(config.machine);
  sim::Machine m1(config.machine);
  drifted.InitMemory(m0.memory());
  drifted.InitMemory(m1.memory());

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/2);
  // Builds attempted in the first epochs consume inverted evidence, and the
  // resulting generation serves far past the regression threshold.
  group_config.fault_hooks.degrade_build = [](size_t epoch) {
    return epoch < 2;
  };
  group_config.fault_hooks.cursed_penalty = 8.0;
  ServerGroup group(&drifted.program(), stale, {&m0, &m1}, group_config);
  constexpr int kTasksPerShard = 24;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kTasksPerShard; ++i) {
      group.AddTask(static_cast<size_t>(s),
                    drifted.SetupFor(s * kTasksPerShard + i));
    }
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The cursed generation was caught on the canary shard and rolled back.
  EXPECT_GE(report->rollbacks, 1);
  EXPECT_GE(group.controller().quarantined_generations(), 1);
  // Exposure bound: a rolled-back generation never installed on a second
  // shard — its id appears in the swap log at most for the canary install
  // plus the rollback reinstall on the SAME shard.
  for (const GuardEvent& event : report->guard_log) {
    if (event.kind != GuardEventKind::kRollback) {
      continue;
    }
    std::set<size_t> shards_serving_bad;
    for (const GuardEvent& other : report->guard_log) {
      if (other.generation_id == event.generation_id &&
          other.kind == GuardEventKind::kCanaryBegin) {
        shards_serving_bad.insert(other.shard);
      }
    }
    EXPECT_LE(shards_serving_bad.size(), 1u)
        << "rolled-back generation " << event.generation_id
        << " canaried on more than one shard";
  }
  // Rollback is not an outage: every request still computed the exact chase.
  for (int i = 0; i < kTasksPerShard; ++i) {
    EXPECT_EQ(drifted.ReadResult(m0.memory(), i), drifted.ExpectedResult(i))
        << "shard 0 task " << i;
    EXPECT_EQ(drifted.ReadResult(m1.memory(), kTasksPerShard + i),
              drifted.ExpectedResult(kTasksPerShard + i))
        << "shard 1 task " << kTasksPerShard + i;
  }
}

TEST(GuardedServerGroupTest, ProfilerEpochSlicesSurviveCanaryRollback) {
  // The rollback path re-binds the profiler to the PREVIOUS binary
  // (scheduler swap -> OnBinary): the per-epoch attribution slices must
  // stay cumulative-monotone across that reinstall — a reset would break
  // monotonicity, a double-count would break the telescoping sum.
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine m0(config.machine);
  sim::Machine m1(config.machine);
  drifted.InitMemory(m0.memory());
  drifted.InitMemory(m1.memory());

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/2);
  group_config.fault_hooks.degrade_build = [](size_t epoch) {
    return epoch < 2;
  };
  group_config.fault_hooks.cursed_penalty = 8.0;
  ServerGroup group(&drifted.program(), stale, {&m0, &m1}, group_config);
  std::vector<std::unique_ptr<obs::CycleProfiler>> profilers;
  for (size_t s = 0; s < 2; ++s) {
    profilers.push_back(std::make_unique<obs::CycleProfiler>());
    profilers.back()->OnBinary(&stale.binary);
    group.SetObservers(s, {.profiler = profilers.back().get()});
  }
  constexpr int kTasksPerShard = 24;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kTasksPerShard; ++i) {
      group.AddTask(static_cast<size_t>(s),
                    drifted.SetupFor(s * kTasksPerShard + i));
    }
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GE(report->rollbacks, 1);

  for (size_t s = 0; s < 2; ++s) {
    const obs::CycleProfiler& profiler = *profilers[s];
    const auto& slices = profiler.epoch_slices();
    ASSERT_GE(slices.size(), 2u) << "shard " << s;
    // Cumulative totals never regress, even across the epoch whose boundary
    // carried the cursed install and the one carrying its rollback.
    for (size_t i = 1; i < slices.size(); ++i) {
      EXPECT_GE(slices[i].end_cycle, slices[i - 1].end_cycle);
      for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
        EXPECT_GE(slices[i].class_totals[c], slices[i - 1].class_totals[c])
            << "shard " << s << " slice " << i << " class " << c;
      }
    }
    // The per-epoch deltas telescope back to the final cumulative slice:
    // nothing double-counted by the reinstall, nothing dropped.
    std::array<uint64_t, obs::kNumCycleClasses> summed{};
    for (size_t i = 0; i < slices.size(); ++i) {
      const auto delta = profiler.EpochDelta(i);
      for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
        summed[c] += delta[c];
      }
    }
    uint64_t classified_in_slices = 0;
    for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
      EXPECT_EQ(summed[c], slices.back().class_totals[c])
          << "shard " << s << " class " << c;
      // The run may classify a little more after the last boundary, never
      // less than the last snapshot.
      EXPECT_LE(slices.back().class_totals[c], profiler.class_totals()[c])
          << "shard " << s << " class " << c;
      classified_in_slices += slices.back().class_totals[c];
    }
    EXPECT_LE(classified_in_slices, profiler.classified_cycles());
  }
}

TEST(CycleProfilerRebindTest, OnBinaryKeepsCumulativeTotalsAndSites) {
  // Unit-level version of the rollback property: re-binding the SAME binary
  // (what a rollback reinstall does) must neither reset nor double the
  // accumulated attribution, and site records must persist by original
  // address.
  auto twin = SmallPhased(0.0);
  auto stale = StaleArtifacts(twin, SmallPipeline());

  obs::CycleProfiler profiler;
  profiler.OnBinary(&stale.binary);
  profiler.OnRunBegin(0);
  profiler.OnStep(/*ip=*/0, /*issue_cycles=*/40, /*wait_cycles=*/60);
  profiler.SyncToClock(100);
  profiler.SnapshotEpoch(/*epoch=*/0, /*now_cycles=*/100);
  const size_t sites_before = profiler.sites().size();

  profiler.OnBinary(&stale.binary);  // rollback reinstall
  profiler.OnStep(0, 30, 20);
  profiler.SyncToClock(150);
  profiler.SnapshotEpoch(1, 150);

  EXPECT_EQ(profiler.classified_cycles(), 150u);
  EXPECT_EQ(profiler.sites().size(), sites_before);
  const auto& slices = profiler.epoch_slices();
  ASSERT_EQ(slices.size(), 2u);
  const size_t exposed = static_cast<size_t>(obs::CycleClass::kStallExposed);
  EXPECT_GE(slices[1].class_totals[exposed], slices[0].class_totals[exposed]);
  const auto second = profiler.EpochDelta(1);
  EXPECT_EQ(second[exposed], 20u);
}

TEST(GuardedServerGroupTest, RebuildFailureBacksOffAndRecovers) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine machine(config.machine);
  drifted.InitMemory(machine.memory());

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/1);
  group_config.fault_hooks.fail_rebuild = [](size_t epoch) {
    return epoch < 2;
  };
  ServerGroup group(&drifted.program(), stale, {&machine}, group_config);
  constexpr int kTasks = 32;
  for (int i = 0; i < kTasks; ++i) {
    group.AddTask(0, drifted.SetupFor(i));
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The early attempts failed and scheduled backoff; a later attempt landed.
  EXPECT_GE(report->rebuild_retries, 1);
  EXPECT_GE(report->installs, 1);
  EXPECT_GE(report->promotes, 1);
  // Keep-serving-last-good: the failed rebuilds never interrupted service.
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(drifted.ReadResult(machine.memory(), i),
              drifted.ExpectedResult(i))
        << "task " << i;
  }
}

TEST(GuardedServerGroupTest, WatchdogShedsStalledShardsSwapSlot) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);

  sim::Machine m0(config.machine);
  sim::Machine m1(config.machine);
  sim::Machine m2(config.machine);
  twin.InitMemory(m0.memory());
  twin.InitMemory(m1.memory());
  twin.InitMemory(m2.memory());

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/3);
  // Shard 2 burns 20 epochs' worth of extra wall clock every epoch.
  group_config.fault_hooks.stall_cycles =
      [](size_t shard, size_t epoch, uint64_t epoch_cycles) -> uint64_t {
    return shard == 2 ? 20 * epoch_cycles : 0;
  };
  ServerGroup group(&twin.program(), stale, {&m0, &m1, &m2}, group_config);
  constexpr int kTasksPerShard = 12;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < kTasksPerShard; ++i) {
      group.AddTask(static_cast<size_t>(s),
                    twin.SetupFor(s * kTasksPerShard + i));
    }
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_GE(report->watchdog_fires, 1);
  bool logged = false;
  for (const GuardEvent& event : report->guard_log) {
    if (event.kind == GuardEventKind::kWatchdogFire) {
      EXPECT_EQ(event.shard, 2u);
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
  // The stalled shard still serves correctly — it only loses its swap slot.
  for (int s = 0; s < 3; ++s) {
    sim::Machine& machine = s == 0 ? m0 : (s == 1 ? m1 : m2);
    for (int i = 0; i < kTasksPerShard; ++i) {
      const int task = s * kTasksPerShard + i;
      EXPECT_EQ(twin.ReadResult(machine.memory(), task),
                twin.ExpectedResult(task))
          << "shard " << s << " task " << task;
    }
  }
}

TEST(GuardedServerGroupTest, CorruptStoreFallsBackToColdStartAndCountsIt) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);

  sim::Machine machine(config.machine);
  twin.InitMemory(machine.memory());

  const std::string path = TempPath("rotten_store.profile");
  WriteFileBytes(path, "yhstore v1 len=9999\nnot a store at all");

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/1);
  group_config.profile_path = path;
  ServerGroup group(&twin.program(), stale, {&machine}, group_config);
  obs::MetricsRegistry metrics;
  group.SetObservability(nullptr, &metrics);
  constexpr int kTasks = 8;
  for (int i = 0; i < kTasks; ++i) {
    group.AddTask(0, twin.SetupFor(i));
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The rotten file was rejected, counted, and the run cold-started.
  EXPECT_FALSE(report->warm_started);
  EXPECT_EQ(report->store_fallbacks, 1);
  bool logged = false;
  for (const GuardEvent& event : report->guard_log) {
    logged |= event.kind == GuardEventKind::kStoreFallback;
  }
  EXPECT_TRUE(logged);
  EXPECT_EQ(metrics.GetCounter("yh_store_load_fallback_total")->value(), 1u);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(twin.ReadResult(machine.memory(), i), twin.ExpectedResult(i))
        << "task " << i;
  }
  std::remove(path.c_str());
}

// --- guard x open-loop serving interplay ------------------------------------------

// A canary rollback in the middle of an open-loop load sweep must neither
// lose nor double-count in-flight requests: the front end's conservation
// ledger (offered == admitted + shed, admitted == completed + in_flight)
// has to balance across the swap, and any request yanked off a retiring
// scavenger has to be requeued, not dropped.
TEST(GuardedServerGroupTest, RollbackMidServingConservesInFlightRequests) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine m0(config.machine);
  sim::Machine m1(config.machine);
  drifted.InitMemory(m0.memory());
  drifted.InitMemory(m1.memory());

  ServerGroupConfig group_config = GuardedGroupConfig(config, /*shards=*/2);
  // Early builds consume inverted evidence: the canary generation regresses
  // hard and the guard rolls it back while requests are still arriving.
  group_config.fault_hooks.degrade_build = [](size_t epoch) {
    return epoch < 2;
  };
  group_config.fault_hooks.cursed_penalty = 8.0;
  ServerGroup group(&drifted.program(), stale, {&m0, &m1}, group_config);
  obs::MetricsRegistry metrics;
  group.SetObservability(nullptr, &metrics);

  std::vector<std::unique_ptr<serve::ShardFrontEnd>> fronts;
  for (size_t s = 0; s < 2; ++s) {
    serve::FrontEndConfig fe;
    fe.arrival.rate_per_kcycle = 0.08;
    fe.arrival.horizon_cycles = 900'000;
    fe.arrival.seed = 11 + s;
    fe.queue_capacity = 8;
    fronts.push_back(std::make_unique<serve::ShardFrontEnd>(
        fe,
        [&drifted](uint64_t id) {
          return drifted.SetupFor(static_cast<int>(id));
        },
        nullptr, &metrics,
        obs::Labels{{"shard", std::to_string(s)}}));
    group.SetRequestSource(s, fronts.back().get());
    group.SetScavengerFactory(s, fronts.back()->MakeScavengerFactory());
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The cursed canary was rolled back mid-sweep...
  EXPECT_GE(report->rollbacks, 1);
  EXPECT_GE(group.controller().quarantined_generations(), 1);
  // ...and the request ledger still balances on every shard: nothing lost,
  // nothing double-counted, nothing stranded in flight at the end.
  uint64_t completed_total = 0;
  for (size_t s = 0; s < 2; ++s) {
    const serve::FrontEndReport fr = fronts[s]->report();
    EXPECT_TRUE(fr.ConservationHolds())
        << "shard " << s << ": " << fr.Summary();
    EXPECT_EQ(fr.counters.in_flight, 0u) << "shard " << s;
    EXPECT_GT(fr.counters.completed, 0u) << "shard " << s;
    // One latency sample per completion, exactly.
    EXPECT_EQ(fr.latency.count(), fr.counters.completed) << "shard " << s;
    EXPECT_TRUE(fronts[s]->status().ok()) << fronts[s]->status();
    completed_total += fr.counters.completed;
  }
  EXPECT_GT(completed_total, 0u);
}

}  // namespace
}  // namespace yieldhide::adapt
