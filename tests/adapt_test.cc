// Tests for the online adaptation subsystem (src/adapt): IP back-mapping,
// the decayed online profile, drift scoring, the controller's rebuild +
// quarantine translation, safe-point hot swaps, the adaptive server
// end-to-end on a drifting workload, the stagger policy, the shared profile
// store (including cross-run persistence), and the sharded server group.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "src/adapt/controller.h"
#include "src/adapt/drift_score.h"
#include "src/adapt/online_profile.h"
#include "src/adapt/profile_store.h"
#include "src/adapt/server_group.h"
#include "src/core/pipeline.h"
#include "src/instrument/backmap.h"
#include "src/runtime/annotate.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::adapt {
namespace {

using instrument::PrimaryYieldsByOriginalSite;
using instrument::ReverseAddrMap;

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

// The stale starting point of every adaptation scenario: instrumentation
// profiled on all-phase-A traffic (the severity-0 twin shares seed, rings and
// program with any drifted sibling).
core::PipelineArtifacts StaleArtifacts(const workloads::PhasedChase& twin,
                                       const core::PipelineConfig& config) {
  auto artifacts = core::BuildInstrumentedForWorkload(twin, config);
  EXPECT_TRUE(artifacts.ok()) << artifacts.status();
  return std::move(artifacts).value();
}

// --- ReverseAddrMap ---------------------------------------------------------------

TEST(BackmapTest, InsertedInstructionsAttributeToNextOriginal) {
  // Original 0,1,2,3 land at 0,2,5,6: inserts at new 1 (before old 1) and at
  // new 3,4 (before old 2).
  ReverseAddrMap backmap(instrument::AddrMap({0, 2, 5, 6}), 7);
  EXPECT_EQ(backmap.ToOriginal(0), 0u);
  EXPECT_EQ(backmap.ToOriginal(1), 1u);  // inserted -> the load it covers
  EXPECT_EQ(backmap.ToOriginal(2), 1u);
  EXPECT_EQ(backmap.ToOriginal(3), 2u);
  EXPECT_EQ(backmap.ToOriginal(4), 2u);
  EXPECT_EQ(backmap.ToOriginal(5), 2u);
  EXPECT_EQ(backmap.ToOriginal(6), 3u);
  EXPECT_EQ(backmap.original_size(), 4u);
  EXPECT_EQ(backmap.instrumented_size(), 7u);
}

TEST(BackmapTest, OutOfRangeAndTailAreInvalid) {
  ReverseAddrMap backmap(instrument::AddrMap({0, 2}), 5);
  // New addresses 3,4 lie past the last original instruction's image: they
  // belong to no original instruction (e.g. pass-appended epilogue).
  EXPECT_EQ(backmap.ToOriginal(3), isa::kInvalidAddr);
  EXPECT_EQ(backmap.ToOriginal(4), isa::kInvalidAddr);
  EXPECT_EQ(backmap.ToOriginal(99), isa::kInvalidAddr);
}

// The reference for the site rule, as the scheduler and the profiler each
// computed it before they shared ReverseAddrMap: an instrumented address
// belongs to the first original instruction whose image is at or after it
// (lower_bound over the forward map), and to itself when the map is empty or
// no original instruction follows it.
isa::Addr LowerBoundSite(const std::vector<isa::Addr>& forward, isa::Addr addr) {
  if (forward.empty()) {
    return addr;
  }
  auto it = std::lower_bound(forward.begin(), forward.end(), addr);
  return it == forward.end() ? addr : static_cast<isa::Addr>(it - forward.begin());
}

TEST(BackmapTest, SiteRuleMatchesLowerBoundOnRandomInsertionMaps) {
  std::mt19937_64 rng(19);
  for (int trial = 0; trial < 500; ++trial) {
    // Trial 0 has an empty map; the others insert 0-2 instructions before
    // each original one and append 0-3 past the last.
    const size_t originals = trial == 0 ? 0 : 1 + rng() % 40;
    std::vector<isa::Addr> forward;
    isa::Addr next = 0;
    for (size_t old_addr = 0; old_addr < originals; ++old_addr) {
      next += static_cast<isa::Addr>(rng() % 3);
      forward.push_back(next++);
    }
    const size_t size = next + 1 + rng() % 4;
    const ReverseAddrMap backmap(instrument::AddrMap(forward), size);
    for (isa::Addr addr = 0; addr < size; ++addr) {
      ASSERT_EQ(backmap.SiteOf(addr), LowerBoundSite(forward, addr))
          << "trial " << trial << ", address " << addr;
    }
  }
}

TEST(BackmapTest, RealBinaryRoundTripsSitesAndYields) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto artifacts = StaleArtifacts(twin, config);

  const auto sites = PrimaryYieldsByOriginalSite(artifacts.binary);
  ASSERT_FALSE(sites.empty());
  ReverseAddrMap backmap(artifacts.binary.addr_map,
                         artifacts.binary.program.size());
  for (const auto& [original_site, yield_addr] : sites) {
    // The yield is an inserted instruction placed before the load it covers,
    // so it back-maps onto that load's original address.
    EXPECT_EQ(artifacts.binary.yields.at(yield_addr).kind,
              instrument::YieldKind::kPrimary);
    EXPECT_EQ(backmap.ToOriginal(yield_addr), original_site);
    // And the surviving original instruction round-trips exactly.
    EXPECT_EQ(backmap.ToOriginal(artifacts.binary.addr_map.Translate(original_site)),
              original_site);
  }
  // The phase-A payload load is among the instrumented sites.
  EXPECT_TRUE(sites.count(twin.miss_load_a()));
}

// --- OnlineProfile ----------------------------------------------------------------

ReverseAddrMap IdentityBackmap(size_t size) {
  std::vector<isa::Addr> forward(size);
  for (size_t i = 0; i < size; ++i) {
    forward[i] = static_cast<isa::Addr>(i);
  }
  return ReverseAddrMap(instrument::AddrMap(std::move(forward)), size);
}

pmu::PebsSample Sample(pmu::HwEvent event, isa::Addr ip, int ctx_id = 0) {
  pmu::PebsSample sample;
  sample.event = event;
  sample.ip = ip;
  sample.ctx_id = ctx_id;
  return sample;
}

TEST(OnlineProfileTest, FiltersScavengersAndOutOfRange) {
  OnlineProfile online;
  const auto backmap = IdentityBackmap(16);
  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  periods.retired = 1;

  online.ObserveSamples(
      {Sample(pmu::HwEvent::kRetiredInstructions, 5),
       Sample(pmu::HwEvent::kLoadsL2Miss, 5),
       // A scavenger's miss must not steer adaptation of the primary.
       Sample(pmu::HwEvent::kLoadsL2Miss, 5, runtime::kScavengerCtxIdBase + 3),
       // An IP past the instrumented image back-maps nowhere.
       Sample(pmu::HwEvent::kLoadsL2Miss, 200)},
      periods, backmap);

  EXPECT_EQ(online.samples_accepted(), 2u);
  EXPECT_EQ(online.samples_dropped(), 2u);
  EXPECT_EQ(online.scavenger_samples(), 1u);
  EXPECT_TRUE(online.loads().HasIp(5));
  EXPECT_DOUBLE_EQ(online.loads().ForIp(5).est_l2_misses, 1.0);
}

TEST(OnlineProfileTest, EpochsDecayAndForgetDeadSites) {
  OnlineProfile online;
  const auto backmap = IdentityBackmap(16);
  profile::SamplePeriods periods;
  periods.retired = 1;
  periods.stall_cycles = 1;

  online.BeginEpoch();
  online.ObserveSamples({Sample(pmu::HwEvent::kRetiredInstructions, 3),
                         Sample(pmu::HwEvent::kRetiredInstructions, 3),
                         Sample(pmu::HwEvent::kStallCycles, 3)},
                        periods, backmap);
  EXPECT_DOUBLE_EQ(online.loads().ForIp(3).est_executions, 2.0);

  online.BeginEpoch();  // 2.0 -> 1.2
  EXPECT_DOUBLE_EQ(online.loads().ForIp(3).est_executions, 2.0 * kEvidenceDecay);
  EXPECT_DOUBLE_EQ(online.loads().total_stall_cycles(), kEvidenceDecay);

  online.BeginEpoch();  // 1.2 -> 0.72, still above the 0.5 floor
  EXPECT_TRUE(online.loads().HasIp(3));

  online.BeginEpoch();  // 0.72 -> 0.432 < 0.5: the dead phase is forgotten
  EXPECT_FALSE(online.loads().HasIp(3));
  EXPECT_EQ(online.epochs(), 4u);
}

// --- Drift scoring ----------------------------------------------------------------

profile::LoadProfile ProfileWithSite(isa::Addr ip, double executions,
                                     double l2_misses, double stall_cycles) {
  profile::LoadProfile loads;
  profile::SiteProfile site;
  site.est_executions = executions;
  site.est_l2_misses = l2_misses;
  site.est_stall_cycles = stall_cycles;
  loads.AccumulateSite(ip, site);
  return loads;
}

runtime::YieldSiteStats Stats(uint64_t visits, uint64_t useful) {
  runtime::YieldSiteStats stats;
  stats.visits = visits;
  stats.useful = useful;
  return stats;
}

TEST(DriftScoreTest, CleanExecutionScoresNearZero) {
  // Reference promised misses at site 10; the runtime confirms the yield is
  // earning (useful ~= promised), and the online profile shows no hot
  // uninstrumented site — so both signals stay low.
  const auto reference = ProfileWithSite(10, 1000, 950, 300'000);
  const auto online = ProfileWithSite(10, 50, 2, 400);  // residual noise
  const std::map<isa::Addr, isa::Addr> sites = {{10, 8}};
  const std::map<isa::Addr, runtime::YieldSiteStats> stats = {{8, Stats(200, 190)}};
  const auto score = ComputeDriftScore(reference, online, sites, stats);
  EXPECT_LT(score.score, 0.05);
  EXPECT_EQ(score.new_hot_sites, 0u);
  EXPECT_EQ(score.diverged_sites, 0u);
}

TEST(DriftScoreTest, HotUninstrumentedSiteRaisesAppearance) {
  const auto reference = ProfileWithSite(10, 1000, 950, 300'000);
  // All online stall evidence concentrates on site 20, which nothing covers.
  const auto online = ProfileWithSite(20, 500, 480, 150'000);
  const std::map<isa::Addr, isa::Addr> sites = {{10, 8}};
  const std::map<isa::Addr, runtime::YieldSiteStats> stats = {{8, Stats(200, 190)}};
  const auto score = ComputeDriftScore(reference, online, sites, stats);
  EXPECT_EQ(score.new_hot_sites, 1u);
  EXPECT_NEAR(score.appearance, 1.0, 1e-9);
  EXPECT_NEAR(score.score, kAppearanceWeight, 1e-9);
}

TEST(DriftScoreTest, AppearanceIgnoredBelowStallFloor) {
  // Same shape as above but with negligible stall mass: adapting to noise is
  // worse than waiting.
  const auto reference = ProfileWithSite(10, 1000, 950, 300'000);
  const auto online = ProfileWithSite(20, 5, 4, 500);  // under the stall floor
  const auto score = ComputeDriftScore(reference, online, {{10, 8}},
                                       {{8, Stats(200, 190)}});
  EXPECT_EQ(score.new_hot_sites, 0u);
  EXPECT_DOUBLE_EQ(score.appearance, 0.0);
}

TEST(DriftScoreTest, UselessInstrumentedSiteRaisesDivergence) {
  // The reference promised ~every execution misses, but the runtime watched
  // the yield stop earning (the data turned cache-resident). The PMU cannot
  // see this — hidden misses leave no stalls — so the signal must come from
  // the scheduler's site stats.
  const auto reference = ProfileWithSite(10, 1000, 950, 300'000);
  const profile::LoadProfile online;  // nothing uninstrumented is hot
  const auto score = ComputeDriftScore(reference, online, {{10, 8}},
                                       {{8, Stats(100, 0)}});
  EXPECT_EQ(score.diverged_sites, 1u);
  EXPECT_NEAR(score.divergence, 0.95, 0.01);
  EXPECT_NEAR(score.score, kDivergenceWeight * score.divergence, 1e-9);

  // Too few visits: the useful fraction is not yet trustworthy.
  const auto sparse = ComputeDriftScore(reference, online, {{10, 8}},
                                        {{8, Stats(4, 0)}});
  EXPECT_EQ(sparse.diverged_sites, 0u);
  EXPECT_DOUBLE_EQ(sparse.divergence, 0.0);
}

// --- AdaptController --------------------------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    twin_ = std::make_unique<workloads::PhasedChase>(SmallPhased(0.0));
    config_ = SmallPipeline();
    artifacts_ = StaleArtifacts(*twin_, config_);
  }

  AdaptControllerConfig ControllerConfig() {
    AdaptControllerConfig config;
    config.pipeline = config_;
    return config;
  }

  // Online evidence saying phase B's payload load is hot and uninstrumented:
  // samples carry INSTRUMENTED-image IPs, as the live PMU would emit them.
  OnlineProfile OnlineWithHotB(const AdaptController& controller) {
    OnlineProfile online;
    profile::SamplePeriods periods;
    periods.l2_miss = 1;
    periods.stall_cycles = 50;  // 100 samples -> 5000 est stall cycles,
    periods.retired = 1;        // clearing the appearance noise floor
    const isa::Addr b_image =
        artifacts_.binary.addr_map.Translate(twin_->miss_load_b());
    std::vector<pmu::PebsSample> samples;
    for (int i = 0; i < 200; ++i) {
      samples.push_back(Sample(pmu::HwEvent::kRetiredInstructions, b_image));
      samples.push_back(Sample(pmu::HwEvent::kLoadsL2Miss, b_image));
    }
    for (int i = 0; i < 100; ++i) {
      samples.push_back(Sample(pmu::HwEvent::kStallCycles, b_image));
    }
    online.ObserveSamples(samples, periods, controller.backmap());
    EXPECT_TRUE(online.loads().HasIp(twin_->miss_load_b()));
    return online;
  }

  std::unique_ptr<workloads::PhasedChase> twin_;
  core::PipelineConfig config_;
  core::PipelineArtifacts artifacts_;
};

TEST_F(ControllerTest, RebuildInstrumentsAppearedSiteAndCarriesQuarantine) {
  AdaptController controller(&twin_->program(), artifacts_, ControllerConfig());
  const auto before = controller.site_index();
  ASSERT_TRUE(before.count(twin_->miss_load_a()));
  ASSERT_FALSE(before.count(twin_->miss_load_b()));
  const isa::Addr old_a_yield = before.at(twin_->miss_load_a());

  const auto online = OnlineWithHotB(controller);
  // The hot uninstrumented site scores past the swap threshold.
  const DriftScore score =
      ComputeDriftScore(controller.reference_loads(), online.loads(),
                        controller.site_index(), {});
  EXPECT_GE(score.score, ControllerConfig().drift_threshold);

  // Quarantine state keyed by the OLD binary's yield address...
  std::map<isa::Addr, runtime::YieldSiteStats> old_stats;
  old_stats[old_a_yield] = Stats(100, 0);
  old_stats[old_a_yield].quarantined = true;

  auto plan = controller.RebuildFromLoads(online.loads(), old_stats,
                                          controller.site_index(),
                                          /*built_epoch=*/0);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->binary, nullptr);
  EXPECT_EQ(controller.current_generation().id, 1);

  // ...arrives keyed by the NEW binary's yield address for the same original
  // site, with the decision intact.
  const auto& after = controller.site_index();
  ASSERT_TRUE(after.count(twin_->miss_load_a()));  // reference mass retained
  ASSERT_TRUE(after.count(twin_->miss_load_b()));  // online evidence acted on
  const isa::Addr new_a_yield = after.at(twin_->miss_load_a());
  ASSERT_TRUE(plan->carried_site_stats.count(new_a_yield));
  EXPECT_TRUE(plan->carried_site_stats.at(new_a_yield).quarantined);
  EXPECT_EQ(plan->carried_site_stats.at(new_a_yield).visits, 100u);
}

TEST_F(ControllerTest, PoolCapFeedbackGrowsOnStarvationShrinksOnSlack) {
  AdaptController controller(&twin_->program(), artifacts_, ControllerConfig());
  AdaptController::BurstDeltas starved;
  starved.bursts = 100;
  starved.bursts_starved = 20;  // 20% starved: grow
  starved.burst_busy_cycles = 100 * 280;
  EXPECT_GT(controller.RecommendPoolCap(starved, 300, 4), 4u);

  AdaptController::BurstDeltas slack;
  slack.bursts = 100;
  slack.bursts_starved = 0;
  slack.burst_busy_cycles = 100 * 30;  // 10% occupancy: shrink
  EXPECT_EQ(controller.RecommendPoolCap(slack, 300, 4), 3u);
  EXPECT_EQ(controller.RecommendPoolCap(slack, 300, 1), 1u);  // floor

  AdaptController::BurstDeltas healthy;
  healthy.bursts = 100;
  healthy.bursts_starved = 1;
  healthy.burst_busy_cycles = 100 * 200;
  EXPECT_EQ(controller.RecommendPoolCap(healthy, 300, 4), 4u);

  AdaptController::BurstDeltas idle;  // no bursts at all: leave the cap alone
  EXPECT_EQ(controller.RecommendPoolCap(idle, 300, 4), 4u);
}

// --- Safe-point swaps (scheduler level) -------------------------------------------

TEST_F(ControllerTest, MidRunSwapAtTaskBoundaryKeepsEveryResultCorrect) {
  sim::Machine machine(config_.machine);
  twin_->InitMemory(machine.memory());
  // A second, identical binary image to swap to (distinct allocation, so the
  // scheduler really rebinds).
  instrument::InstrumentedProgram other = artifacts_.binary;
  runtime::DualModeConfig dm;
  runtime::DualModeScheduler sched(&artifacts_.binary, &artifacts_.binary,
                                   &machine, dm);
  constexpr int kTasks = 6;
  for (int i = 0; i < kTasks; ++i) {
    sched.AddPrimaryTask(twin_->SetupFor(i));
  }
  bool swapped = false;
  sched.SetTaskBoundaryHook([&](size_t tasks_done) {
    if (tasks_done == 3 && !swapped) {
      swapped = true;
      const Status status = sched.SwapBinaries(&other, &other, {});
      EXPECT_TRUE(status.ok()) << status;
    }
  });
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->binary_swaps, 1u);
  EXPECT_EQ(report->run.completions.size(), static_cast<size_t>(kTasks));
  // No task observed mixed old/new code: every result is exact.
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(twin_->ReadResult(machine.memory(), i), twin_->ExpectedResult(i))
        << "task " << i;
  }
}

TEST_F(ControllerTest, SwapRejectsNullPrimary) {
  sim::Machine machine(config_.machine);
  runtime::DualModeConfig dm;
  runtime::DualModeScheduler sched(&artifacts_.binary, &artifacts_.binary,
                                   &machine, dm);
  EXPECT_FALSE(sched.SwapBinaries(nullptr, nullptr, {}).ok());
}

// A quarantine table carried in by a swap at a task boundary, the way
// adaptation carries it, keeps its decision for the rest of the run.
TEST_F(ControllerTest, SeededQuarantineSurvivesRunWithoutRecounting) {
  sim::Machine machine(config_.machine);
  twin_->InitMemory(machine.memory());
  const auto sites = PrimaryYieldsByOriginalSite(artifacts_.binary);
  const isa::Addr yield_addr = sites.at(twin_->miss_load_a());

  runtime::DualModeConfig dm;
  runtime::DualModeScheduler sched(&artifacts_.binary, &artifacts_.binary,
                                   &machine, dm);
  std::map<isa::Addr, runtime::YieldSiteStats> seeded;
  seeded[yield_addr] = Stats(100, 0);
  seeded[yield_addr].quarantined = true;
  uint64_t quarantined_at_swap = 0;
  uint64_t skips_at_swap = 0;
  sched.SetTaskBoundaryHook([&](size_t tasks_completed) {
    if (tasks_completed == 1) {
      quarantined_at_swap = sched.progress().sites_quarantined;
      skips_at_swap = sched.progress().quarantined_skips;
      ASSERT_TRUE(
          sched.SwapBinaries(&artifacts_.binary, nullptr, seeded).ok());
    }
  });
  for (int i = 0; i < 3; ++i) {
    sched.AddPrimaryTask(twin_->SetupFor(i));
  }
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  const auto& stats = report->site_stats.at(yield_addr);
  EXPECT_TRUE(stats.quarantined);
  EXPECT_GT(report->quarantined_skips, skips_at_swap);
  // A carried decision is not a new quarantine event.
  EXPECT_EQ(report->sites_quarantined, quarantined_at_swap);
  // The skip path freezes the stats: a quarantined site cannot re-earn.
  EXPECT_EQ(stats.visits, 100u);
  EXPECT_EQ(stats.useful, 0u);
  // Results stay correct even with the phase-A yields disabled.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(twin_->ReadResult(machine.memory(), i), twin_->ExpectedResult(i));
  }
}

// --- one-core serving (a ServerGroup with one shard) end-to-end -------------

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

// One core: a ServerGroup with a single shard.
adapt::ServerGroupConfig OneCore(const adapt::AdaptiveServerConfig& shard) {
  adapt::ServerGroupConfig config;
  config.shards = 1;
  config.shard = shard;
  return config;
}

TEST(AdaptiveServerTest, DriftedWorkloadTriggersSwapAndStaysCorrect) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  // Full phase change from the first request: the stale instrumentation
  // covers none of the loads actually missing.
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine machine(config.machine);
  drifted.InitMemory(machine.memory());
  adapt::ServerGroup server(&drifted.program(), stale, {&machine},
                            OneCore(ServerConfig(config, /*adapting=*/true)));
  // Shared binary mode (no SetScavengerBinary): scavengers run the primary
  // binary as extra chase tasks and are retired + respawned at the swap.
  auto counter = std::make_shared<int>(0);
  server.SetScavengerFactory(
      0, [&drifted, counter]()
             -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        return drifted.SetupFor(100 + (*counter)++);
      });
  constexpr int kTasks = 24;
  for (int i = 0; i < kTasks; ++i) {
    server.AddTask(0, drifted.SetupFor(i));
  }
  auto group = server.Run();
  ASSERT_TRUE(group.ok()) << group.status();
  const adapt::AdaptReport* report = &group->shards[0];

  EXPECT_GE(report->swaps, 1);
  EXPECT_GE(report->run.binary_swaps, 1u);
  EXPECT_EQ(report->swap_failures, 0);
  EXPECT_GT(report->samples_accepted, 0u);
  EXPECT_GE(report->epochs.size(), static_cast<size_t>(kTasks) / 4);
  EXPECT_EQ(report->run.run.completions.size(), static_cast<size_t>(kTasks));
  // Swap safety end-to-end: every served request computed the exact chase.
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(drifted.ReadResult(machine.memory(), i), drifted.ExpectedResult(i))
        << "task " << i;
  }
  // After the swap the rebuilt binary covers phase B's payload load.
  EXPECT_TRUE(server.controller().site_index().count(drifted.miss_load_b()));
}

TEST(AdaptiveServerTest, CleanStreamNeverSwaps) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);

  sim::Machine machine(config.machine);
  twin.InitMemory(machine.memory());
  adapt::ServerGroup server(&twin.program(), stale, {&machine},
                            OneCore(ServerConfig(config, /*adapting=*/true)));
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    server.AddTask(0, twin.SetupFor(i));
  }
  auto group = server.Run();
  ASSERT_TRUE(group.ok()) << group.status();
  const adapt::AdaptReport* report = &group->shards[0];
  // Hidden misses must not read as drift: no false-positive swaps.
  EXPECT_EQ(report->swaps, 0);
  EXPECT_EQ(report->run.binary_swaps, 0u);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(twin.ReadResult(machine.memory(), i), twin.ExpectedResult(i));
  }
}

// --- StaggerPolicy (property) -----------------------------------------------------

// Random drift schedules against the three invariants the group relies on:
// at most one swap per epoch, the per-shard cool-down holds at SWAP time
// (not just enqueue time), and an accepted request drains within one queue
// length — a shard never starves behind the others.
TEST(StaggerPolicyTest, RandomSchedulesNeverOverlapAndDrainBounded) {
  constexpr size_t kShards = 4;
  constexpr int kMinGap = kMinEpochsBetweenSwaps;
  constexpr int kEpochs = 48;
  std::mt19937 rng(0xa2a2);
  std::bernoulli_distribution wants(0.4);
  std::bernoulli_distribution finishes(0.05);
  for (int schedule = 0; schedule < 64; ++schedule) {
    StaggerPolicy policy(kShards);
    std::vector<int> last_swap(kShards, -(kMinGap + 1));
    std::vector<int> enqueued_at(kShards, -1);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      policy.BeginEpoch();
      for (size_t s = 0; s < kShards; ++s) {
        if (finishes(rng)) {  // a shard draining its queue withdraws
          policy.Withdraw(s);
          enqueued_at[s] = -1;
        }
        if (policy.Observe(s, wants(rng))) {
          enqueued_at[s] = epoch;
        }
      }
      int swaps_this_epoch = 0;
      while (auto shard = policy.TakeSwap()) {
        ++swaps_this_epoch;
        policy.MarkSwapped(*shard);
        EXPECT_GT(epoch - last_swap[*shard], kMinGap)
            << "schedule " << schedule << " shard " << *shard;
        last_swap[*shard] = epoch;
        ASSERT_GE(enqueued_at[*shard], 0) << "swap without accepted request";
        EXPECT_LT(epoch - enqueued_at[*shard], static_cast<int>(kShards))
            << "schedule " << schedule << " shard " << *shard
            << " waited past one full queue drain";
        enqueued_at[*shard] = -1;
      }
      EXPECT_LE(swaps_this_epoch, 1) << "stagger violated at epoch " << epoch;
    }
  }
}

// A canary install and its rollback reinstall both restart the shard's
// cool-down: the shard re-enters the FIFO only after a full cool-down from
// the ROLLBACK epoch, and queues behind shards that asked in the meantime.
TEST(StaggerPolicyTest, RollbackRestartsCoolDownAndReentersFifo) {
  StaggerPolicy policy(/*shard_count=*/2);
  // Epoch 0: shard 0 takes the slot for its canary install.
  policy.BeginEpoch();
  EXPECT_TRUE(policy.Observe(0, true));
  ASSERT_EQ(policy.TakeSwap(), std::optional<size_t>(0));
  policy.MarkSwapped(0);
  // Epoch 1: the verdict is a rollback; the reinstall occupies this epoch's
  // slot and restarts the cool-down from here, not from the canary install.
  policy.BeginEpoch();
  policy.MarkSwapped(0);
  // Epochs 2-3: shard 0 is still cooling down (1 and 2 boundaries since the
  // rollback, neither strictly more than the gap); shard 1 swaps meanwhile.
  policy.BeginEpoch();
  EXPECT_FALSE(policy.Observe(0, true));
  EXPECT_TRUE(policy.Observe(1, true));
  ASSERT_EQ(policy.TakeSwap(), std::optional<size_t>(1));
  policy.MarkSwapped(1);
  policy.BeginEpoch();
  EXPECT_FALSE(policy.Observe(0, true));
  EXPECT_EQ(policy.TakeSwap(), std::nullopt);
  // Epoch 4: strictly more than kMinEpochsBetweenSwaps boundaries since the
  // rollback — the shard re-enters the queue and takes the slot again.
  policy.BeginEpoch();
  EXPECT_TRUE(policy.Observe(0, true));
  EXPECT_EQ(policy.TakeSwap(), std::optional<size_t>(0));
}

// --- SharedProfileStore -----------------------------------------------------------

profile::SiteProfile Site(double execs, double l2, double stall) {
  profile::SiteProfile site;
  site.est_executions = execs;
  site.est_l2_misses = l2;
  site.est_stall_cycles = stall;
  return site;
}

TEST(SharedProfileStoreTest, SaveAndWarmStartRoundTripSites) {
  SharedProfileStore store;
  profile::LoadProfile evidence;
  evidence.AccumulateSite(11, Site(100, 60, 4000));
  evidence.AccumulateSite(23, Site(50, 2, 10));
  store.BeginEpoch();
  store.Contribute(evidence);

  const std::string path =
      std::string(::testing::TempDir()) + "yh_store_roundtrip.profile";
  ASSERT_TRUE(store.SaveMergedWith({}, 0.5, path).ok());

  SharedProfileStore loaded;
  ASSERT_TRUE(loaded.WarmStartFrom(path).ok());
  EXPECT_TRUE(loaded.warm_started());
  ASSERT_EQ(loaded.loads().sites().size(), store.loads().sites().size());
  for (const auto& [ip, site] : store.loads().sites()) {
    ASSERT_TRUE(loaded.loads().HasIp(ip)) << "ip " << ip;
    const auto& got = loaded.loads().ForIp(ip);
    EXPECT_NEAR(got.est_executions, site.est_executions, 1e-6);
    EXPECT_NEAR(got.est_l2_misses, site.est_l2_misses, 1e-6);
    EXPECT_NEAR(got.est_stall_cycles, site.est_stall_cycles, 1e-6);
  }
  std::remove(path.c_str());
}

TEST(SharedProfileStoreTest, WarmStartRejectsMissingAndEmptyStores) {
  SharedProfileStore store;
  EXPECT_FALSE(store.WarmStartFrom("/nonexistent/yh_store.profile").ok());
  EXPECT_FALSE(store.warm_started());

  // A store that never saw evidence saves an empty profile; warm-starting
  // from it must fail loudly, not silently serve day-1 behavior as day-2.
  const std::string path =
      std::string(::testing::TempDir()) + "yh_store_empty.profile";
  ASSERT_TRUE(store.SaveMergedWith({}, 0.5, path).ok());
  SharedProfileStore loaded;
  EXPECT_FALSE(loaded.WarmStartFrom(path).ok());
  EXPECT_FALSE(loaded.warm_started());
  std::remove(path.c_str());
}

TEST(SharedProfileStoreTest, SaveMergedWithKeepsRepairedSitesAtReferenceRatio) {
  // Post-swap, a repaired site's prefetches eliminate its L2 misses, so the
  // store can end the run with NO evidence at the very site the binary
  // covers. The blended save must carry that site from the reference with
  // its miss ratio intact, at the configured share of the total mass.
  SharedProfileStore store;
  profile::LoadProfile evidence;
  evidence.AccumulateSite(1, Site(1000, 500, 20000));  // live, unrepaired
  store.BeginEpoch();
  store.Contribute(evidence);

  profile::LoadProfile reference;
  reference.AccumulateSite(7, Site(100, 90, 5000));  // repaired: store-silent

  const std::string path =
      std::string(::testing::TempDir()) + "yh_store_merged.profile";
  ASSERT_TRUE(store.SaveMergedWith(reference, 0.65, path).ok());

  SharedProfileStore loaded;
  ASSERT_TRUE(loaded.WarmStartFrom(path).ok());
  ASSERT_TRUE(loaded.loads().HasIp(7));
  ASSERT_TRUE(loaded.loads().HasIp(1));
  // Mass-matching scales both sides without touching per-site ratios...
  EXPECT_NEAR(loaded.loads().ForIp(7).L2MissProbability(), 0.9, 0.01);
  EXPECT_NEAR(loaded.loads().ForIp(1).L2MissProbability(), 0.5, 0.01);
  // ...and the reference supplies its configured share of the total mass.
  const double ref_mass = loaded.loads().ForIp(7).est_executions;
  const double total = ref_mass + loaded.loads().ForIp(1).est_executions;
  EXPECT_NEAR(ref_mass / total, 0.65, 0.01);
  std::remove(path.c_str());
}

// --- store container: typed load errors -------------------------------------------

// A store file with real evidence, as raw bytes, plus the offset where the
// container payload begins (one past the header's newline).
struct StoreFileBytes {
  std::string path;
  std::string bytes;
  size_t payload_start = 0;
};

StoreFileBytes SavedStoreFile(const std::string& name) {
  SharedProfileStore store;
  profile::LoadProfile evidence;
  evidence.AccumulateSite(11, Site(100, 60, 4000));
  evidence.AccumulateSite(23, Site(50, 2, 10));
  store.BeginEpoch();
  store.Contribute(evidence);
  StoreFileBytes file;
  file.path = std::string(::testing::TempDir()) + name;
  EXPECT_TRUE(store.SaveMergedWith({}, 0.5, file.path).ok());
  std::ifstream in(file.path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  file.bytes = text.str();
  file.payload_start = file.bytes.find('\n') + 1;
  EXPECT_GT(file.payload_start, 1u);
  return file;
}

void RewriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SharedProfileStoreTest, LoadReportsShortReadsAsOutOfRange) {
  StoreFileBytes file = SavedStoreFile("yh_store_short.profile");
  // Truncation anywhere past the header — mid-payload or mid-footer — is a
  // SHORT READ, typed so callers can tell it from a garbled file. (Only the
  // footer's trailing newline itself is optional.)
  for (const size_t keep : {file.payload_start + 2, file.bytes.size() / 2,
                            file.bytes.size() - 3}) {
    RewriteFile(file.path, file.bytes.substr(0, keep));
    const auto loaded = LoadStoreFile(file.path);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("short read"), std::string::npos)
        << loaded.status();
    // The store wrapper rejects it the same way and stays cold.
    SharedProfileStore store;
    EXPECT_EQ(store.WarmStartFrom(file.path).code(), StatusCode::kOutOfRange);
    EXPECT_FALSE(store.warm_started());
  }
  std::remove(file.path.c_str());
}

TEST(SharedProfileStoreTest, LoadReportsBitRotAsInvalidArgument) {
  StoreFileBytes file = SavedStoreFile("yh_store_rot.profile");
  std::string rotten = file.bytes;
  rotten[file.payload_start + 1] ^= 0x01;  // one flipped payload bit
  RewriteFile(file.path, rotten);
  const auto loaded = LoadStoreFile(file.path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status();
  std::remove(file.path.c_str());
}

TEST(SharedProfileStoreTest, LoadReportsFutureVersionAsFailedPrecondition) {
  StoreFileBytes file = SavedStoreFile("yh_store_future.profile");
  // A well-formed container from a future format version: same length, same
  // checksum, bumped version digit.
  std::string future = file.bytes;
  const size_t v = future.find(" v");
  ASSERT_NE(v, std::string::npos);
  future[v + 2] = '9';
  RewriteFile(file.path, future);
  const auto loaded = LoadStoreFile(file.path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << loaded.status();
  std::remove(file.path.c_str());
}

TEST(SharedProfileStoreTest, MissingFileIsNotFoundAndSaveLeavesNoTemp) {
  const std::string path =
      std::string(::testing::TempDir()) + "yh_store_atomic.profile";
  std::remove(path.c_str());
  // NotFound is the one load error that means "normal day-1 cold start".
  EXPECT_EQ(LoadStoreFile(path).status().code(), StatusCode::kNotFound);

  StoreFileBytes file = SavedStoreFile("yh_store_atomic.profile");
  // The atomic write-rename leaves no .tmp debris behind.
  std::ifstream tmp(file.path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // And what it renamed into place parses back cleanly.
  EXPECT_TRUE(LoadStoreFile(file.path).ok());
  std::remove(file.path.c_str());
}

// --- ServerGroup end-to-end -------------------------------------------------------

TEST(ServerGroupTest, TwoShardsStaggerSwapsAndShareOneRebuild) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto stale = StaleArtifacts(twin, config);
  // Full phase change on BOTH shards from the first request.
  auto drifted = SmallPhased(1.0, /*flip=*/0);

  sim::Machine m0(config.machine);
  sim::Machine m1(config.machine);
  drifted.InitMemory(m0.memory());
  drifted.InitMemory(m1.memory());

  ServerGroupConfig group_config;
  group_config.shards = 2;
  group_config.shard = ServerConfig(config, /*adapting=*/true);
  ServerGroup group(&drifted.program(), stale, {&m0, &m1}, group_config);
  constexpr int kTasksPerShard = 12;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kTasksPerShard; ++i) {
      group.AddTask(static_cast<size_t>(s),
                    drifted.SetupFor(s * kTasksPerShard + i));
    }
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->shards.size(), 2u);
  for (const auto& shard : report->shards) {
    EXPECT_GE(shard.swaps, 1);
    EXPECT_EQ(shard.swap_failures, 0);
  }
  // The stagger invariant: every install lands in its own group epoch.
  std::set<size_t> swap_epochs;
  for (const auto& [epoch, shard] : report->swap_log) {
    EXPECT_TRUE(swap_epochs.insert(epoch).second)
        << "two swaps in group epoch " << epoch;
  }
  // The shared store pays off: the second shard reuses the first rebuild's
  // generation instead of rediscovering the same phase change.
  EXPECT_GE(report->installs, 2);
  EXPECT_GE(report->reuse_installs, 1);
  EXPECT_LT(report->rebuilds, report->installs);
  // Both machines computed the exact chase across their staggered swaps.
  for (int i = 0; i < kTasksPerShard; ++i) {
    EXPECT_EQ(drifted.ReadResult(m0.memory(), i), drifted.ExpectedResult(i))
        << "shard 0 task " << i;
    EXPECT_EQ(drifted.ReadResult(m1.memory(), kTasksPerShard + i),
              drifted.ExpectedResult(kTasksPerShard + i))
        << "shard 1 task " << kTasksPerShard + i;
  }
}

TEST(ServerGroupTest, WarmStartRebuildsBeforeServingAndStaysCorrect) {
  auto twin = SmallPhased(0.0);
  auto config = SmallPipeline();
  auto drifted = SmallPhased(1.0, /*flip=*/0);
  const std::string path =
      std::string(::testing::TempDir()) + "yh_group_store.profile";
  std::remove(path.c_str());

  ServerGroupConfig group_config;
  group_config.shards = 1;
  group_config.shard = ServerConfig(config, /*adapting=*/true);
  group_config.profile_path = path;
  constexpr int kTasks = 12;

  // Day 1: cold start, drift mid-run, persist the merged store at shutdown.
  {
    auto stale = StaleArtifacts(twin, config);
    sim::Machine machine(config.machine);
    drifted.InitMemory(machine.memory());
    ServerGroup group(&drifted.program(), stale, {&machine}, group_config);
    for (int i = 0; i < kTasks; ++i) {
      group.AddTask(0, drifted.SetupFor(i));
    }
    auto report = group.Run();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->warm_started);
    EXPECT_GE(report->installs, 1);
  }

  // Day 2: the same stale offline build, but the persisted store rebuilds
  // BEFORE epoch 0 and the warm generation covers the drifted site.
  auto stale = StaleArtifacts(twin, config);
  sim::Machine machine(config.machine);
  drifted.InitMemory(machine.memory());
  ServerGroup group(&drifted.program(), stale, {&machine}, group_config);
  for (int i = 0; i < kTasks; ++i) {
    group.AddTask(0, drifted.SetupFor(i));
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->warm_started);
  EXPECT_GE(report->rebuilds, 1);
  EXPECT_TRUE(group.controller().site_index().count(drifted.miss_load_b()));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(drifted.ReadResult(machine.memory(), i),
              drifted.ExpectedResult(i))
        << "task " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace yieldhide::adapt
