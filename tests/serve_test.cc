// Tests for the open-loop serving layer (src/serve): the deterministic
// arrival processes, the staged connection pipeline, the ShardFrontEnd's
// bounded queue / shed accounting / conservation ledger, scavenger-served
// queued requests, the per-epoch attribution slices the serving path feeds
// into CycleProfiler, and the Deployment that wires a whole scenario.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/adapt/server_group.h"
#include "src/core/pipeline.h"
#include "src/obs/profiler/profiler.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/serve/arrival.h"
#include "src/serve/deployment.h"
#include "src/serve/front_end.h"
#include "src/serve/pipeline.h"
#include "src/workloads/phased_chase.h"

namespace yieldhide::serve {
namespace {

std::vector<uint64_t> Drain(ArrivalProcess& process, size_t cap = 100000) {
  std::vector<uint64_t> out;
  while (out.size() < cap) {
    auto next = process.Next();
    if (!next.has_value()) {
      break;
    }
    out.push_back(*next);
  }
  return out;
}

TEST(ArrivalTest, FixedSeedReproducesTheExactSequence) {
  ArrivalConfig config;
  config.rate_per_kcycle = 0.5;
  config.horizon_cycles = 200'000;
  config.seed = 42;
  ArrivalProcess a(config);
  ArrivalProcess b(config);
  const auto seq_a = Drain(a);
  const auto seq_b = Drain(b);
  ASSERT_FALSE(seq_a.empty());
  EXPECT_EQ(seq_a, seq_b);
}

TEST(ArrivalTest, DifferentSeedsDiverge) {
  ArrivalConfig config;
  config.rate_per_kcycle = 0.5;
  config.horizon_cycles = 200'000;
  config.seed = 1;
  ArrivalProcess a(config);
  config.seed = 2;
  ArrivalProcess b(config);
  EXPECT_NE(Drain(a), Drain(b));
}

TEST(ArrivalTest, StrictlyIncreasingAndBoundedByHorizon) {
  for (const auto kind :
       {ArrivalConfig::Kind::kPoisson, ArrivalConfig::Kind::kBurst}) {
    ArrivalConfig config;
    config.kind = kind;
    config.rate_per_kcycle = 1.0;
    config.horizon_cycles = 300'000;
    config.seed = 7;
    ArrivalProcess process(config);
    const auto seq = Drain(process);
    ASSERT_GT(seq.size(), 10u);
    for (size_t i = 1; i < seq.size(); ++i) {
      EXPECT_GT(seq[i], seq[i - 1]) << "at " << i;
    }
    EXPECT_LT(seq.back(), config.horizon_cycles);
    // Exhausted stays exhausted.
    EXPECT_FALSE(process.Next().has_value());
  }
}

TEST(ArrivalTest, MeanRateTracksConfiguredRate) {
  ArrivalConfig config;
  config.rate_per_kcycle = 2.0;  // 1 per 500 cycles
  config.horizon_cycles = 1'000'000;
  config.seed = 3;
  ArrivalProcess process(config);
  const auto seq = Drain(process);
  const double expected = 2.0 * 1'000'000 / 1000.0;
  EXPECT_NEAR(static_cast<double>(seq.size()), expected, 0.1 * expected);
}

TEST(ArrivalTest, BurstStreamIsBurstierThanPoisson) {
  // Same mean horizon and seed discipline; the MMPP must produce a larger
  // maximum arrivals-per-window count than the flat process.
  ArrivalConfig config;
  config.rate_per_kcycle = 0.5;
  config.horizon_cycles = 2'000'000;
  config.seed = 11;
  ArrivalProcess poisson(config);
  config.kind = ArrivalConfig::Kind::kBurst;
  ArrivalProcess burst(config);
  auto max_per_window = [](const std::vector<uint64_t>& seq) {
    constexpr uint64_t kWindow = 20'000;
    size_t best = 0, lo = 0;
    for (size_t hi = 0; hi < seq.size(); ++hi) {
      while (seq[hi] - seq[lo] > kWindow) {
        ++lo;
      }
      best = std::max(best, hi - lo + 1);
    }
    return best;
  };
  EXPECT_GT(max_per_window(Drain(burst)), max_per_window(Drain(poisson)));
}

TEST(ArrivalTest, ValidateNamesEachBadField) {
  ArrivalConfig config;
  config.rate_per_kcycle = 0.0;
  EXPECT_NE(config.Validate().ToString().find("rate"), std::string::npos);
  config.rate_per_kcycle = 1.0;
  config.horizon_cycles = 0;
  EXPECT_NE(config.Validate().ToString().find("horizon"), std::string::npos);
  config.horizon_cycles = 1000;
  config.kind = ArrivalConfig::Kind::kBurst;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(StagePipelineTest, ChargesEveryStageAndAccumulatesTotals) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  StagePipeline pipeline = StagePipeline::DefaultIngress();
  const uint64_t before = machine.now();
  const uint64_t charged = pipeline.Charge(machine);
  EXPECT_EQ(charged, 60u + 140u + 90u);
  EXPECT_EQ(machine.now() - before, charged);
  pipeline.Charge(machine);
  EXPECT_EQ(pipeline.stage_cycles().at("parse"), 180u);
}

TEST(FrontEndConfigTest, ValidateNamesBadQueueCapacity) {
  FrontEndConfig config;
  config.queue_capacity = 0;
  EXPECT_NE(config.Validate().ToString().find("queue"), std::string::npos);
  config.queue_capacity = 4;
  EXPECT_TRUE(config.Validate().ok());
}

// ---------- end-to-end scaffolding on the SmallTest machine ----------------

workloads::PhasedChase SmallChase() {
  workloads::PhasedChase::Config wc;
  wc.num_nodes = 4096;  // 256 KiB per ring > SmallTest L3: true misses
  wc.steps_per_task = 120;
  wc.severity = 0.0;
  return workloads::PhasedChase::Make(wc).value();
}

struct LoopResult {
  FrontEndReport report;
  runtime::DualModeReport run;
};

// Drives a ShardFrontEnd against a bare DualModeScheduler (the bench_s1
// harness in miniature).
LoopResult RunLoop(const workloads::PhasedChase& chase,
                   const instrument::InstrumentedProgram& binary,
                   const FrontEndConfig& config) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  chase.InitMemory(machine.memory());
  runtime::DualModeConfig dm;
  dm.max_scavengers = 3;
  dm.hide_window_cycles = 300;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  ShardFrontEnd fe(
      config,
      [&chase](uint64_t id) { return chase.SetupFor(static_cast<int>(id)); },
      nullptr, nullptr, {});
  sched.SetScavengerFactory(fe.MakeScavengerFactory());
  sched.SetScavengerLifecycleHooks(
      [&fe](int ctx_id, uint64_t now) { fe.OnScavengerSpawn(ctx_id, now); },
      [&fe](int ctx_id, uint64_t now, bool completed) {
        fe.OnScavengerRetire(ctx_id, now, completed);
      });
  while (fe.Poll(machine, sched)) {
    auto ran = sched.RunTasks(1);
    EXPECT_TRUE(ran.ok()) << ran.status();
    if (!ran.ok()) {
      break;
    }
  }
  EXPECT_TRUE(fe.status().ok()) << fe.status();
  auto run = sched.Finalize();
  EXPECT_TRUE(run.ok()) << run.status();
  return LoopResult{fe.report(), run.ok() ? *run : runtime::DualModeReport{}};
}

FrontEndConfig LoopConfig(double rate_per_kcycle, uint64_t horizon,
                          size_t queue_cap, bool scavenge) {
  FrontEndConfig config;
  config.arrival.rate_per_kcycle = rate_per_kcycle;
  config.arrival.horizon_cycles = horizon;
  config.arrival.seed = 5;
  config.queue_capacity = queue_cap;
  config.scavengers_serve = scavenge;
  return config;
}

instrument::InstrumentedProgram BaselineBinary(
    const workloads::PhasedChase& chase) {
  return runtime::AnnotateManualYields(chase.program(),
                                       sim::MachineConfig::SmallTest().cost);
}

TEST(ShardFrontEndTest, CompletesEveryAdmittedRequestAtModestLoad) {
  auto chase = SmallChase();
  auto binary = BaselineBinary(chase);
  auto out =
      RunLoop(chase, binary, LoopConfig(0.02, 800'000, 16, /*scavenge=*/true));
  const FrontEndCounters& c = out.report.counters;
  EXPECT_GT(c.offered, 5u);
  EXPECT_EQ(c.shed, 0u);
  EXPECT_EQ(c.completed, c.admitted);
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_TRUE(out.report.ConservationHolds());
  EXPECT_EQ(out.report.latency.count(), c.completed);
}

TEST(ShardFrontEndTest, BoundedQueueShedsUnderOverloadAndLedgerBalances) {
  auto chase = SmallChase();
  auto binary = BaselineBinary(chase);
  // Offered load far past capacity with a 4-deep queue: sheds are the
  // overload contract, and offered == admitted + shed must hold exactly.
  auto out =
      RunLoop(chase, binary, LoopConfig(0.5, 600'000, 4, /*scavenge=*/false));
  const FrontEndCounters& c = out.report.counters;
  EXPECT_GT(c.shed, 0u);
  EXPECT_EQ(c.offered, c.admitted + c.shed);
  EXPECT_EQ(c.completed + c.in_flight, c.admitted);
  EXPECT_EQ(c.in_flight, 0u);  // the drain loop finishes what it admitted
  EXPECT_TRUE(out.report.ConservationHolds());
}

TEST(ShardFrontEndTest, FixedSeedReproducesCountersAndQuantiles) {
  auto chase = SmallChase();
  auto binary = BaselineBinary(chase);
  const auto config = LoopConfig(0.05, 600'000, 8, /*scavenge=*/true);
  auto first = RunLoop(chase, binary, config);
  auto second = RunLoop(chase, binary, config);
  EXPECT_EQ(first.report.counters.offered, second.report.counters.offered);
  EXPECT_EQ(first.report.counters.admitted, second.report.counters.admitted);
  EXPECT_EQ(first.report.counters.shed, second.report.counters.shed);
  EXPECT_EQ(first.report.counters.completed,
            second.report.counters.completed);
  EXPECT_EQ(first.report.latency.P50(), second.report.latency.P50());
  EXPECT_EQ(first.report.latency.P99(), second.report.latency.P99());
  EXPECT_EQ(first.report.latency.ValueAtQuantile(0.999),
            second.report.latency.ValueAtQuantile(0.999));
}

TEST(ShardFrontEndTest, ScavengersServeQueuedRequestsOnlyWhenEnabled) {
  auto chase = SmallChase();
  // The instrumented binary: its prefetch+yield sites are what open the
  // miss windows queued requests ride in.
  core::PipelineConfig pipeline;
  pipeline.machine = sim::MachineConfig::SmallTest();
  pipeline.profile_tasks = 2;
  // Short SmallTest profile runs need dense sampling to see the miss sites.
  pipeline.collector.l2_miss_period = 13;
  pipeline.collector.stall_cycles_period = 101;
  pipeline.collector.retired_period = 29;
  pipeline.Finalize();
  auto artifacts = core::BuildInstrumentedForWorkload(chase, pipeline);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  const instrument::InstrumentedProgram& binary = artifacts->binary;
  // Enough pressure that a queue forms behind the head request.
  const auto config = LoopConfig(0.1, 600'000, 16, /*scavenge=*/true);
  auto with = RunLoop(chase, binary, config);
  EXPECT_GT(with.run.scavengers_spawned, 0u);
  EXPECT_GT(with.report.counters.completed_scavenger, 0u);
  EXPECT_EQ(with.report.counters.completed_primary +
                with.report.counters.completed_scavenger,
            with.report.counters.completed);

  auto off_config = config;
  off_config.scavengers_serve = false;
  auto without = RunLoop(chase, binary, off_config);
  EXPECT_EQ(without.report.counters.completed_scavenger, 0u);
  EXPECT_EQ(without.report.counters.completed,
            without.report.counters.completed_primary);
}

TEST(ShardFrontEndTest, RequestsComputeTheExactChaseResult) {
  auto chase = SmallChase();
  auto binary = BaselineBinary(chase);
  sim::Machine machine(sim::MachineConfig::SmallTest());
  chase.InitMemory(machine.memory());
  runtime::DualModeConfig dm;
  dm.max_scavengers = 3;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  ShardFrontEnd fe(
      LoopConfig(0.05, 400'000, 8, true),
      [&chase](uint64_t id) { return chase.SetupFor(static_cast<int>(id)); },
      nullptr, nullptr, {});
  sched.SetScavengerFactory(fe.MakeScavengerFactory());
  sched.SetScavengerLifecycleHooks(
      [&fe](int ctx_id, uint64_t now) { fe.OnScavengerSpawn(ctx_id, now); },
      [&fe](int ctx_id, uint64_t now, bool completed) {
        fe.OnScavengerRetire(ctx_id, now, completed);
      });
  while (fe.Poll(machine, sched)) {
    ASSERT_TRUE(sched.RunTasks(1).ok());
  }
  ASSERT_TRUE(sched.Finalize().ok());
  const FrontEndReport report = fe.report();
  ASSERT_TRUE(report.ConservationHolds());
  // Every admitted request id computed its chase exactly (ids are assigned
  // 0.. in admission order and sheds never start executing).
  ASSERT_GT(report.counters.completed, 0u);
  for (uint64_t id = 0; id < report.counters.offered; ++id) {
    // Only admitted ids ran; shed ids left their result slot untouched, so
    // only check ids below the admitted count when nothing was shed.
    if (report.counters.shed != 0) {
      break;
    }
    const int index = static_cast<int>(id);
    EXPECT_EQ(chase.ReadResult(machine.memory(), index),
              chase.ExpectedResult(index))
        << "request " << id;
  }
}

TEST(ShardFrontEndTest, DemotedTenantDrainsWithoutStarvationOrLoss) {
  // Quarantine actuation: a demoted background tenant must stay off the
  // primary while the foreground has traffic, yet every one of its admitted
  // requests must still complete — demotion degrades service, it never
  // drops a request or hangs the drain loop. Scavengers are OFF, the
  // adversarial case: the primary is the demoted tenant's ONLY path, so it
  // can legally run only in the trailing drain after the foreground stream
  // ends.
  auto chase = SmallChase();
  auto binary = BaselineBinary(chase);
  sim::Machine machine(sim::MachineConfig::SmallTest());
  chase.InitMemory(machine.memory());
  runtime::DualModeConfig dm;
  dm.max_scavengers = 3;
  dm.hide_window_cycles = 300;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  FrontEndConfig config = LoopConfig(0.05, 400'000, 8, /*scavenge=*/false);
  TenantSpec fg;
  fg.name = "fg";
  fg.share = 0.5;
  TenantSpec bg;
  bg.name = "bg";
  bg.priority = TenantSpec::Class::kBackground;
  bg.share = 0.5;
  config.tenants = {fg, bg};
  ShardFrontEnd fe(
      config,
      [&chase](uint64_t id) { return chase.SetupFor(static_cast<int>(id)); },
      nullptr, nullptr, obs::Labels{});
  sched.SetScavengerFactory(fe.MakeScavengerFactory());
  sched.SetScavengerLifecycleHooks(
      [&fe](int ctx_id, uint64_t now) { fe.OnScavengerSpawn(ctx_id, now); },
      [&fe](int ctx_id, uint64_t now, bool completed) {
        fe.OnScavengerRetire(ctx_id, now, completed);
      });
  fe.SetTenantDemoted("bg", true);
  while (fe.Poll(machine, sched)) {
    ASSERT_TRUE(sched.RunTasks(1).ok());
  }
  ASSERT_TRUE(fe.status().ok()) << fe.status();
  ASSERT_TRUE(sched.Finalize().ok());
  const FrontEndReport report = fe.report();
  EXPECT_TRUE(report.ConservationHolds()) << report.Summary();
  EXPECT_TRUE(report.TenantLedgersConsistent()) << report.Summary();
  EXPECT_EQ(report.counters.in_flight, 0u) << report.Summary();
  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantLedger& fgl = report.tenants[0];
  const TenantLedger& bgl = report.tenants[1];
  EXPECT_GT(fgl.counters.completed, 0u);
  EXPECT_GT(bgl.counters.admitted, 0u);
  // The demoted tenant completed everything it admitted — via the trailing
  // primary drain, since scavengers are off.
  EXPECT_EQ(bgl.counters.completed, bgl.counters.admitted);
  EXPECT_EQ(bgl.counters.completed_primary, bgl.counters.completed);
  EXPECT_EQ(bgl.counters.in_flight, 0u);
}

// ---------- ServerGroup integration: the adapt-layer injection seam --------

TEST(ServerGroupOpenLoopTest, ServesFromRequestSourceWithConservation) {
  auto chase = SmallChase();
  core::PipelineConfig pipeline;
  pipeline.machine = sim::MachineConfig::SmallTest();
  pipeline.profile_tasks = 2;
  // Short SmallTest profile runs need dense sampling to see the miss sites.
  pipeline.collector.l2_miss_period = 13;
  pipeline.collector.stall_cycles_period = 101;
  pipeline.collector.retired_period = 29;
  pipeline.Finalize();
  auto artifacts = core::BuildInstrumentedForWorkload(chase, pipeline);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();

  constexpr size_t kShards = 2;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Machine*> machine_ptrs;
  for (size_t s = 0; s < kShards; ++s) {
    machines.push_back(std::make_unique<sim::Machine>(pipeline.machine));
    chase.InitMemory(machines.back()->memory());
    machine_ptrs.push_back(machines.back().get());
  }
  adapt::ServerGroupConfig config;
  config.shards = kShards;
  config.shard.controller.pipeline = pipeline;
  config.shard.tasks_per_epoch = 4;
  config.shard.dual.max_scavengers = 3;
  adapt::ServerGroup group(&chase.program(), *artifacts, machine_ptrs, config);
  obs::MetricsRegistry metrics;
  group.SetObservability(nullptr, &metrics);
  obs::CycleProfiler profiler;
  profiler.OnBinary(&artifacts->binary);
  group.SetProfiler(0, &profiler);

  std::vector<std::unique_ptr<ShardFrontEnd>> fronts;
  for (size_t s = 0; s < kShards; ++s) {
    FrontEndConfig fe = LoopConfig(0.05, 500'000, 8, /*scavenge=*/true);
    fe.arrival.seed = 5 + s;
    obs::Labels labels{{"shard", std::to_string(s)}};
    fronts.push_back(std::make_unique<ShardFrontEnd>(
        fe,
        [&chase](uint64_t id) {
          return chase.SetupFor(static_cast<int>(id));
        },
        nullptr, &metrics, labels));
    group.SetRequestSource(s, fronts.back().get());
    group.SetScavengerFactory(s, fronts.back()->MakeScavengerFactory());
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  uint64_t completed_total = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const FrontEndReport fr = fronts[s]->report();
    EXPECT_TRUE(fr.ConservationHolds())
        << "shard " << s << ": " << fr.Summary();
    EXPECT_GT(fr.counters.completed, 0u) << "shard " << s;
    EXPECT_EQ(fr.counters.in_flight, 0u) << "shard " << s;
    EXPECT_TRUE(fronts[s]->status().ok()) << fronts[s]->status();
    completed_total += fr.counters.completed;
    // The yh_serve_* surface is published per shard.
    obs::Labels labels{{"shard", std::to_string(s)}};
    EXPECT_EQ(metrics.GetCounter("yh_serve_completed_total", labels)->value(),
              fr.counters.completed);
    EXPECT_EQ(metrics.GetCounter("yh_serve_offered_total", labels)->value(),
              fr.counters.offered);
  }
  EXPECT_GT(completed_total, 0u);
  // The shard drove the profiler's per-epoch attribution slices: one slice
  // per completed epoch, cumulative totals monotone, deltas summing to the
  // final totals.
  const auto& slices = profiler.epoch_slices();
  ASSERT_GT(slices.size(), 0u);
  EXPECT_EQ(slices.size(), report->shards[0].epochs.size());
  for (size_t i = 1; i < slices.size(); ++i) {
    EXPECT_GE(slices[i].end_cycle, slices[i - 1].end_cycle);
    for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
      EXPECT_GE(slices[i].class_totals[c], slices[i - 1].class_totals[c]);
    }
  }
  std::array<uint64_t, obs::kNumCycleClasses> summed{};
  for (size_t i = 0; i < slices.size(); ++i) {
    const auto delta = profiler.EpochDelta(i);
    for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
      summed[c] += delta[c];
    }
  }
  for (size_t c = 0; c < obs::kNumCycleClasses; ++c) {
    EXPECT_EQ(summed[c], slices.back().class_totals[c]) << "class " << c;
  }
}

// ---------- tenant-scoped quarantine: the noisy-neighbor contract ----------

TEST(ServerGroupTenantTest, AntagonistQuarantineNeverTouchesTheVictim) {
  // Q1's isolation contract in miniature: a foreground victim serving the
  // stable workload the stale instrumentation was built for, and a
  // background antagonist whose stream has fully phase-changed. With
  // tenant-scoped drift attribution the antagonist gets quarantined; its
  // evidence is excluded from the shared store and its drift never becomes
  // swap appetite — the victim's generation stays untouched group-wide.
  workloads::PhasedChase::Config wc;
  wc.num_nodes = 4096;  // 256 KiB per ring > SmallTest L3: true misses
  wc.steps_per_task = 300;
  wc.severity = 0.0;
  auto twin = workloads::PhasedChase::Make(wc).value();
  wc.severity = 1.0;
  wc.flip_task_index = 0;  // every antagonist request is phase-changed
  auto drifted = workloads::PhasedChase::Make(wc).value();

  core::PipelineConfig pipeline;
  pipeline.machine = sim::MachineConfig::SmallTest();
  pipeline.profile_tasks = 2;
  pipeline.collector.l2_miss_period = 13;
  pipeline.collector.stall_cycles_period = 101;
  pipeline.collector.retired_period = 29;
  pipeline.Finalize();
  auto stale = core::BuildInstrumentedForWorkload(twin, pipeline);
  ASSERT_TRUE(stale.ok()) << stale.status();

  constexpr size_t kShards = 2;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Machine*> machine_ptrs;
  for (size_t s = 0; s < kShards; ++s) {
    machines.push_back(std::make_unique<sim::Machine>(pipeline.machine));
    drifted.InitMemory(machines.back()->memory());
    machine_ptrs.push_back(machines.back().get());
  }
  adapt::ServerGroupConfig config;
  config.shards = kShards;
  config.shard.controller.pipeline = pipeline;
  config.shard.controller.drift_threshold = 0.25;
  config.shard.tasks_per_epoch = 4;
  config.shard.adapt_enabled = true;
  config.shard.scale_pool = true;
  config.shard.dual.max_scavengers = 3;
  config.tenant_drift_threshold = 0.05;
  adapt::ServerGroup group(&drifted.program(), *stale, machine_ptrs, config);

  FrontEndConfig fe = LoopConfig(0.05, 500'000, 8, /*scavenge=*/true);
  TenantSpec victim;
  victim.name = "victim";
  victim.share = 0.6;
  TenantSpec antagonist;
  antagonist.name = "antagonist";
  antagonist.priority = TenantSpec::Class::kBackground;
  antagonist.share = 0.4;
  fe.tenants = {victim, antagonist};

  std::vector<std::unique_ptr<ShardFrontEnd>> fronts;
  for (size_t s = 0; s < kShards; ++s) {
    FrontEndConfig shard_fe = fe;
    shard_fe.arrival.seed = 5 + s;
    shard_fe.id_seed = 5 + s;
    fronts.push_back(std::make_unique<ShardFrontEnd>(
        shard_fe,
        [&drifted](uint64_t id) {
          return drifted.SetupFor(static_cast<int>(id));
        },
        nullptr, nullptr, obs::Labels{}));
    // The victim serves the stable twin; the antagonist keeps the shared
    // (drifting) handler.
    fronts.back()->SetTenantHandler(0, [&twin](uint64_t id) {
      return twin.SetupFor(static_cast<int>(id));
    });
    group.SetRequestSource(s, fronts.back().get());
    group.SetScavengerFactory(s, fronts.back()->MakeScavengerFactory());
  }
  auto report = group.Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The antagonist got quarantined at least once...
  EXPECT_GE(report->tenant_quarantines, 1);
  // ...and its drift never became a group-wide swap: every shard kept its
  // initial generation end to end.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(report->shards[s].swaps, 0) << "shard " << s;
    EXPECT_EQ(report->shards[s].run.binary_swaps, 0u) << "shard " << s;
  }
  // The victim kept serving throughout: its ledger conserves, it completed
  // requests, and the per-tenant ledgers sum exactly to the front-end one.
  for (size_t s = 0; s < kShards; ++s) {
    const FrontEndReport fr = fronts[s]->report();
    EXPECT_TRUE(fr.ConservationHolds()) << "shard " << s << ": "
                                        << fr.Summary();
    EXPECT_TRUE(fr.TenantLedgersConsistent()) << "shard " << s;
    ASSERT_EQ(fr.tenants.size(), 2u);
    EXPECT_EQ(fr.tenants[0].spec.name, "victim");
    EXPECT_GT(fr.tenants[0].counters.completed, 0u) << "shard " << s;
    EXPECT_TRUE(fronts[s]->status().ok()) << fronts[s]->status();
  }
}

// ---------- Deployment: one builder for the whole scenario ------------------

// A small Q1-shaped scenario with every observer attached: a foreground
// tenant with a p99 budget serving the stable twin, a background tenant
// serving the drifted stream, adaptation and the guard on (tenant-blind, so
// the drift drives canaries and control windows through spans/exemplars).
struct DeploymentScenario {
  core::PipelineConfig pipeline;
  workloads::PhasedChase twin;
  workloads::PhasedChase drifted;
  core::PipelineArtifacts stale;
};

DeploymentScenario MakeDeploymentScenario() {
  workloads::PhasedChase::Config wc;
  wc.num_nodes = 4096;  // 256 KiB per ring > SmallTest L3: true misses
  wc.steps_per_task = 300;
  wc.severity = 0.0;
  auto twin = workloads::PhasedChase::Make(wc).value();
  wc.severity = 1.0;
  wc.flip_task_index = 0;
  auto drifted = workloads::PhasedChase::Make(wc).value();
  core::PipelineConfig pipeline;
  pipeline.machine = sim::MachineConfig::SmallTest();
  pipeline.profile_tasks = 2;
  pipeline.collector.l2_miss_period = 13;
  pipeline.collector.stall_cycles_period = 101;
  pipeline.collector.retired_period = 29;
  pipeline.Finalize();
  auto stale = core::BuildInstrumentedForWorkload(twin, pipeline).value();
  return DeploymentScenario{pipeline, std::move(twin), std::move(drifted),
                            std::move(stale)};
}

DeploymentSpec FullSpec(const DeploymentScenario& scenario) {
  DeploymentSpec spec;
  spec.group.shards = 2;
  spec.group.shard.controller.pipeline = scenario.pipeline;
  spec.group.shard.tasks_per_epoch = 4;
  spec.group.shard.dual.max_scavengers = 3;
  spec.group.guard.enabled = true;
  spec.group.guard.confirmation_window = 2;
  spec.group.guard.consult_slo = true;
  spec.front_end = LoopConfig(0.05, 500'000, 8, /*scavenge=*/true);
  TenantSpec victim;
  victim.name = "victim";
  victim.share = 0.6;
  victim.p99_budget_cycles = 400'000;
  TenantSpec noisy;
  noisy.name = "noisy";
  noisy.priority = TenantSpec::Class::kBackground;
  noisy.share = 0.4;
  spec.front_end.tenants = {victim, noisy};
  spec.stable = &scenario.twin;
  spec.profiler.emplace().epoch_site_snapshots = true;
  spec.spans.emplace();
  spec.slo.emplace();
  spec.exemplars.emplace().top_k = 4;
  spec.tenant_slos = true;
  return spec;
}

obs::TraceConfig SpanTraceConfig() {
  obs::TraceConfig config;
  config.mask = obs::kTraceSpan | obs::kTraceSlo | obs::kTraceGuard;
  return config;
}

// What one shard's serving leaves behind, for comparing two wirings.
struct ShardOutcome {
  FrontEndReport front;
  std::array<uint64_t, obs::kNumCycleClasses> cycle_classes{};
  std::array<uint64_t, obs::kNumSpanClasses> span_classes{};
  // Per retained exemplar: id, latency, and the serving context the group
  // stamped on it (generation, epoch, guard window).
  std::vector<std::array<uint64_t, 5>> exemplars;
  std::array<uint64_t, 3> slo{};  // total, bad, alerts fired
  uint64_t end_cycle = 0;
};

ShardOutcome Capture(const FrontEndReport& front,
                     const obs::CycleProfiler& profiler,
                     const obs::SpanCollector& spans,
                     const obs::ExemplarReservoir& exemplars,
                     const obs::SloEvaluator& slo, uint64_t end_cycle) {
  ShardOutcome out;
  out.front = front;
  out.cycle_classes = profiler.class_totals();
  spans.AggregateTotals(out.span_classes.data(), /*include_active=*/true);
  for (const obs::Exemplar& e : exemplars.Merged()) {
    out.exemplars.push_back(
        {e.span.id, e.span.latency(),
         static_cast<uint64_t>(e.context.generation_id), e.context.epoch,
         e.context.control_window ? 1u : 0u});
  }
  out.slo = {slo.total(), slo.bad(), slo.alerts_fired()};
  out.end_cycle = end_cycle;
  return out;
}

// The reference: the scenario FullSpec describes, wired by hand the way every
// caller did before Deployment existed.
std::vector<ShardOutcome> RunHandWired(const DeploymentScenario& scenario,
                                       const DeploymentSpec& spec,
                                       obs::TraceRecorder* trace,
                                       obs::MetricsRegistry* metrics) {
  const size_t shards = spec.group.shards;
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<sim::Machine*> machine_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    machines.push_back(
        std::make_unique<sim::Machine>(scenario.pipeline.machine));
    scenario.drifted.InitMemory(machines.back()->memory());
    machine_ptrs.push_back(machines.back().get());
  }
  adapt::ServerGroup group(&scenario.drifted.program(), scenario.stale,
                           machine_ptrs, spec.group);
  group.SetObservability(trace, metrics);

  std::vector<std::unique_ptr<ShardFrontEnd>> fronts;
  std::vector<std::unique_ptr<obs::CycleProfiler>> profilers;
  std::vector<std::unique_ptr<obs::SpanCollector>> collectors;
  std::vector<std::unique_ptr<obs::SloEvaluator>> slos;
  std::vector<std::unique_ptr<obs::ExemplarReservoir>> reservoirs;
  std::vector<std::unique_ptr<obs::SloEvaluator>> tenant_slos;
  for (size_t s = 0; s < shards; ++s) {
    FrontEndConfig fe = spec.front_end;
    fe.arrival.seed += s;
    fe.id_seed = fe.arrival.seed;
    fronts.push_back(std::make_unique<ShardFrontEnd>(
        fe,
        [&scenario](uint64_t id) {
          return scenario.drifted.SetupFor(static_cast<int>(id));
        },
        trace, metrics, obs::Labels{{"shard", std::to_string(s)}}));
    ShardFrontEnd& front = *fronts.back();
    front.SetTenantHandler(0, [&scenario](uint64_t id) {
      return scenario.twin.SetupFor(static_cast<int>(id));
    });
    obs::SloConfig budget;
    budget.latency_budget_cycles = spec.front_end.tenants[0].p99_budget_cycles;
    tenant_slos.push_back(std::make_unique<obs::SloEvaluator>(budget));
    front.SetTenantSloEvaluator(0, tenant_slos.back().get());
    group.SetRequestSource(s, &front);
    group.SetScavengerFactory(s, front.MakeScavengerFactory());

    profilers.push_back(std::make_unique<obs::CycleProfiler>(*spec.profiler));
    group.SetProfiler(s, profilers.back().get());
    collectors.push_back(std::make_unique<obs::SpanCollector>(*spec.spans));
    collectors.back()->SetTrace(trace);
    front.SetSpanCollector(collectors.back().get());
    group.SetSpanCollector(s, collectors.back().get());
    slos.push_back(std::make_unique<obs::SloEvaluator>(*spec.slo));
    slos.back()->SetTrace(trace, static_cast<int32_t>(s));
    front.SetSloEvaluator(slos.back().get());
    group.SetSloEvaluator(s, slos.back().get());
    reservoirs.push_back(
        std::make_unique<obs::ExemplarReservoir>(*spec.exemplars));
    collectors.back()->SetExemplars(reservoirs.back().get());
    group.SetExemplar(s, reservoirs.back().get());
  }
  auto report = group.Run();
  EXPECT_TRUE(report.ok()) << report.status();
  std::vector<ShardOutcome> out;
  for (size_t s = 0; s < shards; ++s) {
    out.push_back(Capture(fronts[s]->report(), *profilers[s], *collectors[s],
                          *reservoirs[s], *slos[s], machines[s]->now()));
  }
  return out;
}

TEST(DeploymentTest, EqualsTheSameScenarioWiredByHand) {
  const DeploymentScenario scenario = MakeDeploymentScenario();
  const DeploymentSpec base = FullSpec(scenario);

  obs::TraceRecorder ref_trace(SpanTraceConfig());
  obs::MetricsRegistry ref_metrics;
  const std::vector<ShardOutcome> reference =
      RunHandWired(scenario, base, &ref_trace, &ref_metrics);

  obs::TraceRecorder trace(SpanTraceConfig());
  obs::MetricsRegistry metrics;
  DeploymentSpec spec = base;
  spec.trace = &trace;
  spec.metrics = &metrics;
  auto deployment = Deployment::Build(scenario.drifted, scenario.stale, spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  auto report = deployment->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  // The scenario exercises the control plane the observers are wired into.
  EXPECT_GE(report->canaries, 1);

  ASSERT_EQ(deployment->shards(), reference.size());
  for (size_t s = 0; s < reference.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ShardOutcome got = Capture(
        deployment->front_end(s).report(), *deployment->profiler(s),
        *deployment->spans(s), *deployment->exemplars(s),
        *deployment->slo(s), deployment->machine(s).now());
    const ShardOutcome& want = reference[s];
    const FrontEndCounters& a = got.front.counters;
    const FrontEndCounters& b = want.front.counters;
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.completed_primary, b.completed_primary);
    EXPECT_EQ(a.completed_scavenger, b.completed_scavenger);
    EXPECT_EQ(a.requeued, b.requeued);
    EXPECT_EQ(a.in_flight, b.in_flight);
    EXPECT_GT(a.completed, 0u);
    EXPECT_EQ(got.front.latency.P50(), want.front.latency.P50());
    EXPECT_EQ(got.front.latency.P99(), want.front.latency.P99());
    EXPECT_EQ(got.span_classes, want.span_classes);
    EXPECT_EQ(got.cycle_classes, want.cycle_classes);
    EXPECT_FALSE(got.exemplars.empty());
    EXPECT_EQ(got.exemplars, want.exemplars);
    EXPECT_EQ(got.slo, want.slo);
    EXPECT_EQ(got.end_cycle, want.end_cycle);
    EXPECT_TRUE(deployment->spans(s)->VerifyExactness().ok());
    EXPECT_TRUE(deployment->exemplars(s)->VerifyExactness().ok());
  }
  // Same metric series (shard labels included) and the same event stream.
  EXPECT_EQ(metrics.ToJson(), ref_metrics.ToJson());
  EXPECT_EQ(trace.recorded(), ref_trace.recorded());
}

// Each precondition Deployment::Build checks, broken one at a time on an
// otherwise valid spec: the build fails with its named InvalidArgument before
// any part is built.
struct PreconditionCase {
  const char* name;
  std::function<void(DeploymentSpec&)> breaks;
  const char* message;
};

void PrintTo(const PreconditionCase& c, std::ostream* os) { *os << c.name; }

class DeploymentPreconditionTest
    : public ::testing::TestWithParam<PreconditionCase> {};

TEST_P(DeploymentPreconditionTest, FailsWithNamedInvalidArgument) {
  const workloads::PhasedChase chase = SmallChase();
  DeploymentSpec spec;
  spec.group.shards = 2;
  spec.front_end = LoopConfig(0.05, 500'000, 8, /*scavenge=*/true);
  spec.spans.emplace();
  spec.slo.emplace();
  spec.exemplars.emplace();
  ASSERT_TRUE(Deployment::Build(chase, core::PipelineArtifacts{}, spec).ok());

  GetParam().breaks(spec);
  auto deployment = Deployment::Build(chase, core::PipelineArtifacts{}, spec);
  ASSERT_FALSE(deployment.ok());
  EXPECT_EQ(deployment.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deployment.status().message().find(GetParam().message),
            std::string::npos)
      << deployment.status();
}

INSTANTIATE_TEST_SUITE_P(
    EachCheck, DeploymentPreconditionTest,
    ::testing::Values(
        PreconditionCase{"group_config",
                         [](DeploymentSpec& s) { s.group.shards = 0; },
                         "shards must be at least 1"},
        PreconditionCase{"front_end_config",
                         [](DeploymentSpec& s) {
                           s.front_end.queue_capacity = 0;
                         },
                         "queue capacity must be positive"},
        PreconditionCase{"id_seed_set",
                         [](DeploymentSpec& s) { s.front_end.id_seed = 9; },
                         "id_seed is derived per shard"},
        PreconditionCase{"slo_config",
                         [](DeploymentSpec& s) { s.slo->objective = 1.5; },
                         "objective must be in (0, 1)"},
        PreconditionCase{"exemplar_config",
                         [](DeploymentSpec& s) { s.exemplars->top_k = 0; },
                         "top_k must be positive"},
        PreconditionCase{"exemplars_without_spans",
                         [](DeploymentSpec& s) { s.spans.reset(); },
                         "exemplars need spans"}),
    [](const ::testing::TestParamInfo<PreconditionCase>& info) {
      return std::string(info.param.name);
    });

// ---------- profiler epoch slices, unit level -------------------------------

TEST(CycleProfilerEpochSliceTest, DeltasRecoverPerEpochClassTotals) {
  obs::CycleProfiler profiler;
  profiler.OnRunBegin(0);
  profiler.OnPrimaryStep(/*ip=*/0x10, /*issue_cycles=*/40, /*wait_cycles=*/60);
  profiler.SyncToClock(100);
  profiler.SnapshotEpoch(/*epoch=*/1, /*now_cycles=*/100);
  profiler.OnPrimaryStep(0x10, 30, 20);
  profiler.SyncToClock(150);
  profiler.SnapshotEpoch(2, 150);

  const auto& slices = profiler.epoch_slices();
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].epoch, 1u);
  EXPECT_EQ(slices[0].end_cycle, 100u);
  EXPECT_EQ(slices[1].end_cycle, 150u);

  const auto first = profiler.EpochDelta(0);
  const auto second = profiler.EpochDelta(1);
  const size_t useful = static_cast<size_t>(obs::CycleClass::kIssueUseful);
  const size_t exposed = static_cast<size_t>(obs::CycleClass::kStallExposed);
  EXPECT_EQ(first[useful], 40u);
  EXPECT_EQ(first[exposed], 60u);
  EXPECT_EQ(second[useful], 30u);
  EXPECT_EQ(second[exposed], 20u);
  // Out-of-range delta is all zeros, not UB.
  const auto beyond = profiler.EpochDelta(5);
  for (const uint64_t v : beyond) {
    EXPECT_EQ(v, 0u);
  }
}

}  // namespace
}  // namespace yieldhide::serve
