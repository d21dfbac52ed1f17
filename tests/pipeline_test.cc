// Integration tests: the full paper pipeline — profile, instrument (primary +
// scavenger), verify, and execute under both runtimes — on each workload.
#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
#include "src/workloads/array_scan.h"
#include "src/workloads/btree_lookup.h"
#include "src/workloads/hash_probe.h"
#include "src/workloads/pointer_chase.h"

namespace yieldhide::core {
namespace {

PipelineConfig SmallPipeline() {
  PipelineConfig config;
  config.machine = sim::MachineConfig::SmallTest();
  config.profile_tasks = 2;
  // Test workloads are tiny (hundreds of loads); sample densely enough that
  // every hot site collects a statistically meaningful estimate.
  config.collector.l2_miss_period = 13;
  config.collector.stall_cycles_period = 101;
  config.collector.retired_period = 29;
  config.Finalize();
  return config;
}

workloads::PointerChase SmallChase(bool manual = false) {
  workloads::PointerChase::Config wc;
  wc.num_nodes = 4096;  // 256 KiB > SmallTest L3
  wc.steps_per_task = 300;
  wc.manual_prefetch_yield = manual;
  return workloads::PointerChase::Make(wc).value();
}

// Runs `binary` under round-robin with `group` tasks; returns the report and
// validates every task's result.
runtime::RunReport RunGroup(const workloads::SimWorkload& workload,
                            const instrument::InstrumentedProgram& binary,
                            const sim::MachineConfig& machine_config, int group) {
  sim::Machine machine(machine_config);
  workload.InitMemory(machine.memory());
  runtime::RoundRobinScheduler sched(&binary, &machine);
  for (int i = 0; i < group; ++i) {
    sched.AddCoroutine(workload.SetupFor(i));
  }
  auto report = sched.Run(200'000'000);
  EXPECT_TRUE(report.ok()) << report.status();
  for (int i = 0; i < group; ++i) {
    EXPECT_EQ(workload.ReadResult(machine.memory(), i), workload.ExpectedResult(i))
        << "task " << i;
  }
  return report.value();
}

TEST(PipelineTest, PointerChaseEndToEnd) {
  auto workload = SmallChase();
  auto config = SmallPipeline();
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();

  // The profile pipeline found the node's first-touch load (the payload load
  // takes the miss; the next-pointer load then hits the same line).
  ASSERT_EQ(artifacts->primary_report.instrumented_loads.size(), 1u);
  EXPECT_EQ(artifacts->primary_report.instrumented_loads[0],
            workload.miss_load_addr());

  // Instrumented interleaving beats the uninstrumented baseline by > 2x and
  // produces identical results.
  auto baseline_binary =
      runtime::AnnotateManualYields(workload.program(), config.machine.cost);
  const auto baseline = RunGroup(workload, baseline_binary, config.machine, 8);
  const auto instrumented = RunGroup(workload, artifacts->binary, config.machine, 8);
  EXPECT_LT(instrumented.total_cycles, baseline.total_cycles / 2);
  EXPECT_LT(instrumented.StallFraction(), 0.25);
}

TEST(PipelineTest, SemanticEquivalenceSingleContext) {
  auto workload = SmallChase();
  auto artifacts = BuildInstrumentedForWorkload(workload, SmallPipeline());
  ASSERT_TRUE(artifacts.ok());
  // Even with yields falling through (solo context), the instrumented binary
  // computes the same results.
  sim::Machine machine(sim::MachineConfig::SmallTest());
  workload.InitMemory(machine.memory());
  sim::Executor executor(&artifacts->binary.program, &machine);
  for (int task = 0; task < 3; ++task) {
    sim::CpuContext ctx;
    ctx.ResetArchState(artifacts->binary.program.entry());
    workload.SetupFor(task)(ctx);
    ASSERT_TRUE(executor.RunToCompletion(ctx, 50'000'000).ok());
    EXPECT_EQ(workload.ReadResult(machine.memory(), task),
              workload.ExpectedResult(task));
  }
}

TEST(PipelineTest, HashProbeEndToEnd) {
  workloads::HashProbe::Config wc;
  wc.buckets_log2 = 12;  // 64 KiB table > SmallTest L3
  wc.keys_per_task = 256;
  wc.num_tasks = 16;
  auto workload = workloads::HashProbe::Make(wc).value();
  auto config = SmallPipeline();
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  // The bucket load is among the instrumented sites.
  const auto& loads = artifacts->primary_report.instrumented_loads;
  EXPECT_NE(std::find(loads.begin(), loads.end(), workload.bucket_load_addr()),
            loads.end());

  auto baseline_binary =
      runtime::AnnotateManualYields(workload.program(), config.machine.cost);
  const auto baseline = RunGroup(workload, baseline_binary, config.machine, 8);
  const auto instrumented = RunGroup(workload, artifacts->binary, config.machine, 8);
  EXPECT_LT(instrumented.total_cycles, baseline.total_cycles);
  EXPECT_LT(instrumented.StallFraction(), baseline.StallFraction() / 2);
}

TEST(PipelineTest, BtreeEndToEnd) {
  workloads::BtreeLookup::Config wc;
  wc.num_keys = 8192;  // 256 KiB of nodes
  wc.lookups_per_task = 128;
  wc.num_tasks = 16;
  auto workload = workloads::BtreeLookup::Make(wc).value();
  auto config = SmallPipeline();
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  EXPECT_GE(artifacts->primary_report.instrumented_loads.size(), 1u);

  auto baseline_binary =
      runtime::AnnotateManualYields(workload.program(), config.machine.cost);
  const auto baseline = RunGroup(workload, baseline_binary, config.machine, 8);
  const auto instrumented = RunGroup(workload, artifacts->binary, config.machine, 8);
  EXPECT_LT(instrumented.total_cycles, baseline.total_cycles);
}

TEST(PipelineTest, ArrayScanLeftMostlyAlone) {
  workloads::ArrayScan::Config wc;
  wc.num_elements = 1 << 15;
  wc.elements_per_task = 4096;
  auto workload = workloads::ArrayScan::Make(wc).value();
  auto config = SmallPipeline();
  config.primary.policy = instrument::PrimaryPolicy::kExpectedBenefit;
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();
  // A 1-in-8 miss with modest stall should not be worth a yield per load;
  // the benefit policy declines to instrument the scan's hot load.
  EXPECT_TRUE(artifacts->primary_report.instrumented_loads.empty())
      << artifacts->primary_report.ToString();
}

TEST(PipelineTest, ScavengerPassBoundsIntervals) {
  auto workload = SmallChase();
  auto config = SmallPipeline();
  config.scavenger.target_interval_cycles = 60;
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok());
  // The chase loop already yields at its miss load, so intervals are short;
  // the report's achieved bound must respect the target within the
  // analysis's one-instruction slack.
  EXPECT_LE(artifacts->scavenger_report.worst_interval_after,
            2 * config.scavenger.target_interval_cycles);
}

TEST(PipelineTest, DualModeOnInstrumentedBinaries) {
  auto workload = SmallChase();
  auto config = SmallPipeline();
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok());

  // Primary: instrumented chase tasks. Scavengers: more instrumented chase
  // work running in scavenger mode.
  sim::Machine machine(config.machine);
  workload.InitMemory(machine.memory());
  runtime::DualModeConfig dm;
  // Enough chase scavengers to cover a DRAM miss (12 x ~24 cycles > 200),
  // while keeping outstanding prefetches within the 16 MSHR entries.
  dm.max_scavengers = 12;
  runtime::DualModeScheduler sched(&artifacts->binary, &artifacts->binary, &machine, dm);
  for (int i = 0; i < 4; ++i) {
    sched.AddPrimaryTask(workload.SetupFor(i));
  }
  auto counter = std::make_shared<int>(100);
  sched.SetScavengerFactory(
      [&workload, counter]() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        return workload.SetupFor((*counter)++);
      });
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->run.completions.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(workload.ReadResult(machine.memory(), i), workload.ExpectedResult(i));
  }
  // Chase scavengers must chain (the paper's pointer-chasing example).
  EXPECT_GT(report->chains, 0u);
  EXPECT_GT(report->CpuEfficiency(), 0.2);
}

TEST(PipelineTest, ProfileGuidedMatchesManualCoverage) {
  // The paper argues profile-guided instrumentation replaces expert manual
  // placement. Compare both variants of the chase under interleaving.
  auto manual_workload = SmallChase(/*manual=*/true);
  auto auto_workload = SmallChase(/*manual=*/false);
  auto config = SmallPipeline();

  auto manual_binary =
      runtime::AnnotateManualYields(manual_workload.program(), config.machine.cost);
  auto artifacts = BuildInstrumentedForWorkload(auto_workload, config);
  ASSERT_TRUE(artifacts.ok());

  const auto manual = RunGroup(manual_workload, manual_binary, config.machine, 8);
  const auto automatic = RunGroup(auto_workload, artifacts->binary, config.machine, 8);
  // Profile-guided instrumentation reaches (at least) manual quality; the
  // liveness-minimized switches usually make it slightly faster.
  EXPECT_LT(automatic.total_cycles,
            static_cast<uint64_t>(manual.total_cycles * 1.1));
}

TEST(PipelineTest, AddrMapComposesAcrossBothPasses) {
  // The pipeline's final addr_map must take ORIGINAL addresses to the final
  // binary: every original instruction's image must be identical (modulo
  // relocated targets).
  auto workload = SmallChase();
  auto config = SmallPipeline();
  config.scavenger.target_interval_cycles = 20;  // force scavenger insertions
  auto artifacts = BuildInstrumentedForWorkload(workload, config);
  ASSERT_TRUE(artifacts.ok());
  const isa::Program& original = workload.program();
  const instrument::AddrMap& map = artifacts->binary.addr_map;
  ASSERT_EQ(map.old_size(), original.size());
  isa::Addr prev = 0;
  for (isa::Addr addr = 0; addr < original.size(); ++addr) {
    const isa::Addr mapped = map.Translate(addr);
    ASSERT_LT(mapped, artifacts->binary.program.size());
    if (addr > 0) {
      EXPECT_GT(mapped, prev);
    }
    prev = mapped;
    isa::Instruction image = artifacts->binary.program.at(mapped);
    if (isa::HasCodeTarget(image)) {
      image.imm = original.at(addr).imm;
    }
    EXPECT_EQ(image, original.at(addr)) << "at original address " << addr;
  }
}

TEST(PipelineTest, SummaryMentionsAllStages) {
  auto artifacts = BuildInstrumentedForWorkload(SmallChase(), SmallPipeline());
  ASSERT_TRUE(artifacts.ok());
  const std::string summary = artifacts->Summary();
  EXPECT_NE(summary.find("profile:"), std::string::npos);
  EXPECT_NE(summary.find("primary:"), std::string::npos);
  EXPECT_NE(summary.find("scavenger:"), std::string::npos);
}

}  // namespace
}  // namespace yieldhide::core
