#include <gtest/gtest.h>

#include "src/instrument/cost_model.h"
#include "src/instrument/primary_pass.h"
#include "src/instrument/rewriter.h"
#include "src/instrument/scavenger_pass.h"
#include "src/instrument/verifier.h"
#include "src/isa/assembler.h"
#include "src/sim/executor.h"

namespace yieldhide::instrument {
namespace {

isa::Program Asm(const std::string& source) {
  auto program = isa::Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// --- BinaryRewriter ---------------------------------------------------------------

TEST(RewriterTest, InsertShiftsAddressesAndFixesBranches) {
  auto program = Asm(R"(
      movi r1, 3        ; 0
    loop:
      addi r1, r1, -1   ; 1
      bne r1, r0, loop  ; 2
      halt              ; 3
  )");
  BinaryRewriter rewriter(program);
  rewriter.InsertBefore(1, {{isa::Opcode::kNop}, {isa::Opcode::kNop}});
  auto out = rewriter.Apply();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->program.size(), 6u);
  // The branch now targets the START of the inserted sequence, so the
  // instrumentation re-executes on every loop iteration.
  EXPECT_EQ(out->program.at(4).op, isa::Opcode::kBne);
  EXPECT_EQ(out->program.at(4).imm, 1);
  // The addr map points at the instruction itself, past the insertion.
  EXPECT_EQ(out->addr_map.Translate(1), 3u);
  EXPECT_EQ(out->addr_map.Translate(0), 0u);
  EXPECT_EQ(out->addr_map.Translate(3), 5u);
  ASSERT_EQ(out->inserted_addresses.size(), 2u);
  EXPECT_EQ(out->inserted_addresses[0], 1u);
  EXPECT_EQ(out->inserted_addresses[1], 2u);
}

TEST(RewriterTest, EntryAndSymbolsCoverInsertions) {
  auto program = Asm(".entry main\nmain: movi r1, 1\nhalt\n");
  BinaryRewriter rewriter(program);
  rewriter.InsertBefore(0, {{isa::Opcode::kNop}});
  auto out = rewriter.Apply();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->program.entry(), 0u);  // entry includes the inserted nop
  EXPECT_EQ(out->program.LookupSymbol("main").value(), 0u);
}

TEST(RewriterTest, MultipleInsertionsSameAddressConcatenate) {
  auto program = Asm("movi r1, 1\nhalt\n");
  BinaryRewriter rewriter(program);
  rewriter.InsertBefore(1, {{isa::Opcode::kNop}});
  rewriter.InsertBefore(1, {{isa::Opcode::kYield}});
  auto out = rewriter.Apply();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->program.at(1).op, isa::Opcode::kNop);
  EXPECT_EQ(out->program.at(2).op, isa::Opcode::kYield);
  EXPECT_EQ(out->program.at(3).op, isa::Opcode::kHalt);
}

TEST(RewriterTest, ForwardAndBackwardBranchesBothRelocate) {
  auto program = Asm(R"(
      jmp fwd     ; 0
    back:
      halt        ; 1
    fwd:
      jmp back    ; 2
  )");
  BinaryRewriter rewriter(program);
  rewriter.InsertBefore(1, {{isa::Opcode::kNop}});
  rewriter.InsertBefore(2, {{isa::Opcode::kNop}});
  auto out = rewriter.Apply();
  ASSERT_TRUE(out.ok());
  // jmp fwd: fwd (2) had one insertion before 1 and one before 2 -> starts 3.
  EXPECT_EQ(out->program.at(0).imm, 3);
  // jmp back: back (1) starts at its inserted nop (1).
  EXPECT_EQ(out->program.at(4).imm, 1);
}

TEST(RewriterTest, RejectsOutOfRangeInsertion) {
  auto program = Asm("halt\n");
  BinaryRewriter rewriter(program);
  rewriter.InsertBefore(5, {{isa::Opcode::kNop}});
  EXPECT_FALSE(rewriter.Apply().ok());
}

TEST(RewriterTest, RejectsControlFlowInInsertedSequence) {
  auto program = Asm("nop\nhalt\n");
  BinaryRewriter rewriter(program);
  rewriter.InsertBefore(1, {{isa::Opcode::kJmp, 0, 0, 0, 0}});
  EXPECT_FALSE(rewriter.Apply().ok());
}

TEST(RewriterTest, SemanticsPreservedUnderInsertion) {
  // Run a small program before and after inserting nops everywhere; results
  // must match (nops and yields are semantically transparent).
  auto program = Asm(R"(
      movi r1, 0
      movi r2, 10
    loop:
      add r1, r1, r2
      addi r2, r2, -1
      bne r2, r0, loop
      halt
  )");
  BinaryRewriter rewriter(program);
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    rewriter.InsertBefore(addr, {{isa::Opcode::kNop}});
  }
  auto out = rewriter.Apply();
  ASSERT_TRUE(out.ok());

  auto run = [](const isa::Program& p) {
    sim::Machine machine(sim::MachineConfig::SmallTest());
    sim::Executor executor(&p, &machine);
    sim::CpuContext ctx;
    ctx.ResetArchState(p.entry());
    EXPECT_TRUE(executor.RunToCompletion(ctx, 100000).ok());
    return ctx.regs[1];
  };
  EXPECT_EQ(run(program), run(out->program));
  EXPECT_EQ(run(program), 55u);
}

TEST(AddrMapTest, Composition) {
  AddrMap first(std::vector<isa::Addr>{0, 2, 4});
  AddrMap second(std::vector<isa::Addr>{1, 2, 3, 4, 10});
  AddrMap composed = first.ComposeWith(second);
  EXPECT_EQ(composed.Translate(0), 1u);
  EXPECT_EQ(composed.Translate(1), 3u);
  EXPECT_EQ(composed.Translate(2), 10u);
}

// --- Cost model -------------------------------------------------------------------

TEST(CostModelTest, SwitchCostScalesWithLiveRegisters) {
  YieldCostModel model;
  EXPECT_EQ(model.SwitchCycles(0), model.switch_fixed_cycles);
  EXPECT_EQ(model.SwitchCycles(analysis::kAllRegs),
            model.switch_fixed_cycles + 16 * model.switch_per_reg_cycles);
  EXPECT_LT(model.SwitchCycles(0b11), model.SwitchCycles(analysis::kAllRegs));
}

TEST(CostModelTest, FromMachinePreservesAllLiveTotal) {
  sim::CostModel machine_cost;
  machine_cost.yield_switch_cycles = 24;
  YieldCostModel model = YieldCostModel::FromMachine(machine_cost);
  EXPECT_EQ(model.SwitchCycles(analysis::kAllRegs), 24u);
}

TEST(CostModelTest, NetBenefitPositiveForHotMiss) {
  YieldCostModel model;
  profile::SiteProfile site;
  site.est_executions = 100;
  site.est_l2_misses = 95;
  site.est_stall_cycles = 95 * 200.0;
  EXPECT_GT(model.NetBenefit(site, 0b1), 0.0);
}

TEST(CostModelTest, NetBenefitNegativeForRareMiss) {
  YieldCostModel model;
  profile::SiteProfile site;
  site.est_executions = 1000;
  site.est_l2_misses = 10;      // 1% miss
  site.est_stall_cycles = 10 * 200.0;
  EXPECT_LT(model.NetBenefit(site, analysis::kAllRegs), 0.0);
}

TEST(CostModelTest, CoalescingAmortizesSwitchCost) {
  YieldCostModel model;
  profile::SiteProfile site;
  site.est_executions = 100;
  site.est_l2_misses = 30;
  site.est_stall_cycles = 30 * 100.0;
  EXPECT_GT(model.NetBenefit(site, analysis::kAllRegs, 4),
            model.NetBenefit(site, analysis::kAllRegs, 1));
}

// --- Primary pass -----------------------------------------------------------------

// A loop with one hot-miss load (ip 1) and one always-hit load (ip 2).
constexpr char kTwoLoadLoop[] = R"(
    movi r5, 0          ; 0
  loop:
    load r2, [r1+0]     ; 1: profiled hot miss
    load r3, [r6+0]     ; 2: profiled always-hit
    add r5, r5, r2
    addi r4, r4, -1
    bne r4, r0, loop
    halt
)";

profile::LoadProfile MakeProfile(double miss_prob_ip1, double miss_prob_ip2) {
  profile::LoadProfile profile;
  std::vector<pmu::PebsSample> samples;
  auto add = [&](pmu::HwEvent event, isa::Addr ip, int count) {
    for (int i = 0; i < count; ++i) {
      pmu::PebsSample s;
      s.event = event;
      s.ip = ip;
      samples.push_back(s);
    }
  };
  add(pmu::HwEvent::kRetiredInstructions, 1, 100);
  add(pmu::HwEvent::kLoadsL2Miss, 1, static_cast<int>(miss_prob_ip1 * 100));
  add(pmu::HwEvent::kStallCycles, 1, static_cast<int>(miss_prob_ip1 * 100 * 2));
  add(pmu::HwEvent::kRetiredInstructions, 2, 100);
  add(pmu::HwEvent::kLoadsL2Miss, 2, static_cast<int>(miss_prob_ip2 * 100));
  if (miss_prob_ip2 > 0) {
    add(pmu::HwEvent::kStallCycles, 2, static_cast<int>(miss_prob_ip2 * 100 * 2));
  }
  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  periods.stall_cycles = 100;
  periods.retired = 1;
  profile.AddSamples(samples, periods);
  return profile;
}

TEST(PrimaryPassTest, InstrumentsHotMissOnly) {
  auto program = Asm(kTwoLoadLoop);
  PrimaryConfig config;
  config.policy = PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.5;
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.0), config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->report.instrumented_loads, std::vector<isa::Addr>{1});
  EXPECT_EQ(result->report.yields_inserted, 1u);
  EXPECT_EQ(result->report.prefetches_inserted, 1u);

  // The rewritten loop: prefetch+yield precede the hot load.
  const isa::Program& out = result->instrumented.program;
  const isa::Addr new_load = result->instrumented.addr_map.Translate(1);
  EXPECT_EQ(out.at(new_load).op, isa::Opcode::kLoad);
  EXPECT_EQ(out.at(new_load - 1).op, isa::Opcode::kYield);
  EXPECT_EQ(out.at(new_load - 2).op, isa::Opcode::kPrefetch);
  EXPECT_EQ(out.at(new_load - 2).rs1, 1);  // prefetch [r1+0]

  // Yield side-table entry has a minimized save set.
  auto it = result->instrumented.yields.find(new_load - 1);
  ASSERT_NE(it, result->instrumented.yields.end());
  EXPECT_EQ(it->second.kind, YieldKind::kPrimary);
  EXPECT_LT(analysis::LivenessAnalysis::CountRegs(it->second.save_mask), 16);
}

TEST(PrimaryPassTest, ThresholdPolicyRespectsThreshold) {
  auto program = Asm(kTwoLoadLoop);
  PrimaryConfig config;
  config.policy = PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.95;
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.0), config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.instrumented_loads.empty());
  EXPECT_EQ(result->instrumented.program.size(), program.size());
}

TEST(PrimaryPassTest, ExpectedBenefitSkipsRareMisses) {
  auto program = Asm(kTwoLoadLoop);
  PrimaryConfig config;
  config.policy = PrimaryPolicy::kExpectedBenefit;
  config.min_miss_probability = 0.0;
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.02), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.instrumented_loads, std::vector<isa::Addr>{1});
}

TEST(PrimaryPassTest, TopKPolicyLimits) {
  auto program = Asm(kTwoLoadLoop);
  PrimaryConfig config;
  config.policy = PrimaryPolicy::kTopStallSites;
  config.top_k = 1;
  config.min_miss_probability = 0.0;
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.5), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.instrumented_loads.size(), 1u);
  EXPECT_EQ(result->report.instrumented_loads[0], 1u);  // higher stall share
}

TEST(PrimaryPassTest, CoalescesAdjacentIndependentLoads) {
  auto program = Asm(R"(
    loop:
      load r2, [r1+0]    ; 0
      load r3, [r1+64]   ; 1
      add r5, r2, r3
      addi r4, r4, -1
      bne r4, r0, loop
      halt
  )");
  profile::LoadProfile profile;
  std::vector<pmu::PebsSample> samples;
  for (isa::Addr ip : {0, 1}) {
    for (int i = 0; i < 90; ++i) {
      pmu::PebsSample miss;
      miss.event = pmu::HwEvent::kLoadsL2Miss;
      miss.ip = ip;
      samples.push_back(miss);
      pmu::PebsSample stall;
      stall.event = pmu::HwEvent::kStallCycles;
      stall.ip = ip;
      samples.push_back(stall);
    }
    for (int i = 0; i < 100; ++i) {
      pmu::PebsSample retired;
      retired.event = pmu::HwEvent::kRetiredInstructions;
      retired.ip = ip;
      samples.push_back(retired);
    }
  }
  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  periods.stall_cycles = 100;
  periods.retired = 1;
  profile.AddSamples(samples, periods);

  PrimaryConfig config;
  config.policy = PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.5;
  auto with = RunPrimaryPass(program, profile, config);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with->report.coalesced_groups, 1u);
  EXPECT_EQ(with->report.yields_inserted, 1u);
  EXPECT_EQ(with->report.prefetches_inserted, 2u);

  config.coalesce = false;
  auto without = RunPrimaryPass(program, profile, config);
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(without->report.yields_inserted, 2u);
}

TEST(PrimaryPassTest, SaveAllAblationUsesFullMask) {
  auto program = Asm(kTwoLoadLoop);
  PrimaryConfig config;
  config.policy = PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.5;
  config.minimize_save_set = false;
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.0), config);
  ASSERT_TRUE(result.ok());
  for (const auto& [addr, info] : result->instrumented.yields) {
    if (info.kind == YieldKind::kPrimary) {
      EXPECT_EQ(info.save_mask, analysis::kAllRegs);
    }
  }
}

TEST(PrimaryPassTest, SkidSamplesOnNonLoadsAreDropped) {
  auto program = Asm(kTwoLoadLoop);
  profile::LoadProfile profile;
  std::vector<pmu::PebsSample> samples;
  // All samples attribute to ip 3 (an add) — as heavy skid would produce.
  for (int i = 0; i < 100; ++i) {
    pmu::PebsSample s;
    s.event = pmu::HwEvent::kLoadsL2Miss;
    s.ip = 3;
    samples.push_back(s);
    s.event = pmu::HwEvent::kStallCycles;
    samples.push_back(s);
    s.event = pmu::HwEvent::kRetiredInstructions;
    samples.push_back(s);
  }
  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  periods.stall_cycles = 100;
  periods.retired = 1;
  profile.AddSamples(samples, periods);
  PrimaryConfig config;
  auto result = RunPrimaryPass(program, profile, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.instrumented_loads.empty());
}

TEST(PrimaryPassTest, ManualYieldsGetAnnotated) {
  auto program = Asm("movi r1, 1\nyield\nhalt\n");
  profile::LoadProfile empty;
  auto result = RunPrimaryPass(program, empty, PrimaryConfig{});
  ASSERT_TRUE(result.ok());
  const isa::Addr yield_addr = result->instrumented.addr_map.Translate(1);
  auto it = result->instrumented.yields.find(yield_addr);
  ASSERT_NE(it, result->instrumented.yields.end());
  EXPECT_EQ(it->second.kind, YieldKind::kManual);
}

TEST(PrimaryPassTest, LoadxUsesScratchRegisterForPrefetch) {
  auto program = Asm(R"(
    loop:
      loadx r2, [r1+r3*8]  ; 0: hot miss, indexed
      add r5, r5, r2
      addi r4, r4, -1
      bne r4, r0, loop
      halt
  )");
  profile::LoadProfile profile;
  std::vector<pmu::PebsSample> samples;
  for (int i = 0; i < 90; ++i) {
    pmu::PebsSample s;
    s.event = pmu::HwEvent::kLoadsL2Miss;
    s.ip = 0;
    samples.push_back(s);
    s.event = pmu::HwEvent::kStallCycles;
    samples.push_back(s);
  }
  for (int i = 0; i < 100; ++i) {
    pmu::PebsSample s;
    s.event = pmu::HwEvent::kRetiredInstructions;
    s.ip = 0;
    samples.push_back(s);
  }
  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  periods.stall_cycles = 100;
  periods.retired = 1;
  profile.AddSamples(samples, periods);

  PrimaryConfig config;
  config.policy = PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.5;
  auto result = RunPrimaryPass(program, profile, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.yields_inserted, 1u);
  // The inserted sequence computes the indexed address into a scratch
  // register: muli + add + prefetch + yield before the loadx.
  const isa::Addr new_load = result->instrumented.addr_map.Translate(0);
  EXPECT_EQ(result->instrumented.program.at(new_load).op, isa::Opcode::kLoadx);
  EXPECT_EQ(result->instrumented.program.at(new_load - 1).op, isa::Opcode::kYield);
  EXPECT_EQ(result->instrumented.program.at(new_load - 2).op, isa::Opcode::kPrefetch);
  EXPECT_EQ(result->instrumented.program.at(new_load - 3).op, isa::Opcode::kAdd);
  EXPECT_EQ(result->instrumented.program.at(new_load - 4).op, isa::Opcode::kMuli);
}

// --- Scavenger pass ---------------------------------------------------------------

TEST(ScavengerPassTest, BoundsYieldFreeLoop) {
  auto program = Asm(R"(
    loop:
      addi r1, r1, -1
      addi r2, r2, 1
      addi r3, r3, 1
      addi r4, r4, 1
      bne r1, r0, loop
      halt
  )");
  InstrumentedProgram input;
  input.program = program;
  ScavengerConfig config;
  config.target_interval_cycles = 3;  // force an insertion inside the loop
  auto result = RunScavengerPass(input, nullptr, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->report.cyields_inserted, 0u);
  EXPECT_LE(result->report.worst_interval_after, 2 * config.target_interval_cycles);
  EXPECT_LT(result->report.worst_interval_after, result->report.worst_interval_before);

  // All inserted yields are conditional and annotated as scavenger.
  size_t scavenger_yields = 0;
  for (const auto& [addr, info] : result->instrumented.yields) {
    if (info.kind == YieldKind::kScavenger) {
      EXPECT_EQ(result->instrumented.program.at(addr).op, isa::Opcode::kCyield);
      ++scavenger_yields;
    }
  }
  EXPECT_EQ(scavenger_yields, result->report.cyields_inserted);
}

TEST(ScavengerPassTest, AlreadyBoundedProgramUntouched) {
  auto program = Asm(R"(
    loop:
      yield
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  InstrumentedProgram input;
  input.program = program;
  ScavengerConfig config;
  config.target_interval_cycles = 100;
  auto result = RunScavengerPass(input, nullptr, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report.cyields_inserted, 0u);
  EXPECT_EQ(result->instrumented.program.size(), program.size());
}

TEST(ScavengerPassTest, CarriesForwardExistingAnnotations) {
  auto program = Asm(R"(
    loop:
      yield               ; 0: pretend-primary yield
      addi r1, r1, -1
      addi r2, r2, 1
      addi r3, r3, 1
      bne r1, r0, loop
      halt
  )");
  InstrumentedProgram input;
  input.program = program;
  YieldInfo primary;
  primary.kind = YieldKind::kPrimary;
  primary.switch_cycles = 17;
  input.yields[0] = primary;

  ScavengerConfig config;
  config.target_interval_cycles = 3;
  auto result = RunScavengerPass(input, nullptr, config);
  ASSERT_TRUE(result.ok());
  bool found_primary = false;
  for (const auto& [addr, info] : result->instrumented.yields) {
    if (info.kind == YieldKind::kPrimary) {
      EXPECT_EQ(info.switch_cycles, 17u);
      found_primary = true;
    }
  }
  EXPECT_TRUE(found_primary);
}

TEST(ScavengerPassTest, ProfileGuidedPlacementFiresOnHotBlocks) {
  // A long straight-line block; the block profile marks it hot and slow.
  std::string source = "start:\n";
  for (int i = 0; i < 40; ++i) {
    source += "  addi r1, r1, 1\n";
  }
  source += "  bne r1, r0, start\n  halt\n";
  auto program = Asm(source);

  profile::BlockLatencyProfile blocks;
  std::vector<pmu::LbrSnapshot> snaps;
  for (int i = 0; i < 10; ++i) {
    pmu::LbrSnapshot snap;
    snap.entries.push_back({40, 0, 5});    // previous transfer lands at 0
    snap.entries.push_back({40, 0, 120});  // run 0..40 took 120 cycles
    snaps.push_back(snap);
  }
  blocks.AddSnapshots(snaps);

  InstrumentedProgram input;
  input.program = program;
  ScavengerConfig config;
  config.target_interval_cycles = 30;
  auto result = RunScavengerPass(input, &blocks, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->report.profile_guided_insertions, 0u);
}

TEST(ScavengerPassTest, MeasuredLatencyScalesProfileGuidedDensity) {
  // The same straight-line block, but the profile says it runs 4x slower
  // than its static cost (e.g. because its loads miss): the profile-guided
  // phase must place proportionally more conditional yields.
  std::string source = "start:\n";
  for (int i = 0; i < 40; ++i) {
    source += "  addi r1, r1, 1\n";
  }
  source += "  bne r1, r0, start\n  halt\n";
  auto program = Asm(source);

  auto profile_with_latency = [&](uint32_t cycles) {
    profile::BlockLatencyProfile blocks;
    std::vector<pmu::LbrSnapshot> snaps;
    for (int i = 0; i < 10; ++i) {
      pmu::LbrSnapshot snap;
      snap.entries.push_back({40, 0, 5});
      snap.entries.push_back({40, 0, cycles});
      snaps.push_back(snap);
    }
    blocks.AddSnapshots(snaps);
    return blocks;
  };

  ScavengerConfig config;
  config.target_interval_cycles = 30;
  InstrumentedProgram input;
  input.program = program;

  const auto fast = profile_with_latency(45);   // ~static cost
  const auto slow = profile_with_latency(180);  // 4x slower than static
  auto fast_result = RunScavengerPass(input, &fast, config).value();
  auto slow_result = RunScavengerPass(input, &slow, config).value();
  EXPECT_GT(slow_result.report.profile_guided_insertions,
            fast_result.report.profile_guided_insertions);
}

TEST(ScavengerPassTest, WorstCaseIntervalMatchesHandComputation) {
  auto program = Asm("addi r1, r1, 1\naddi r1, r1, 1\nyield\nhalt\n");
  sim::CostModel cost;
  // Interval realized at the yield: two 1-cycle addis = 2.
  EXPECT_EQ(WorstCaseInterval(program, cost, 1000), 2u);
}

// Pairwise-distinct costs, so each expected interval below names exactly the
// instructions it sums.
sim::CostModel DistinctCosts() {
  sim::CostModel cost;
  cost.alu_cycles = 2;
  cost.branch_cycles = 3;
  cost.call_ret_cycles = 5;
  cost.mul_cycles = 7;
  return cost;
}

TEST(ScavengerPassTest, WorstCaseIntervalFollowsCallAndReturn) {
  auto program = Asm(R"(
    .entry main
    leaf:
      nop        ; 0
      nop        ; 1
      ret        ; 2
    main:
      call leaf  ; 3
      nop        ; 4 (return point)
      yield      ; 5
      halt       ; 6
  )");
  const sim::CostModel cost = DistinctCosts();
  // call + two nops + ret, then the nop at the return point.
  EXPECT_EQ(WorstCaseInterval(program, cost, 1000),
            2 * cost.call_ret_cycles + 3 * cost.alu_cycles);
}

TEST(ScavengerPassTest, WorstCaseIntervalReturnsToEveryCallSite) {
  // The RET returns to every return point, so the two nops before one call
  // site reach the three nops after the other: 5 nops + call + ret, whichever
  // call site comes first.
  auto first_call_longer = Asm(R"(
    .entry main
    leaf:
      ret        ; 0
    main:
      nop        ; 1
      nop        ; 2
      call leaf  ; 3
      yield      ; 4
      call leaf  ; 5
      nop        ; 6
      nop        ; 7
      nop        ; 8
      yield      ; 9
      halt       ; 10
  )");
  auto second_call_longer = Asm(R"(
    .entry main
    leaf:
      ret        ; 0
    main:
      call leaf  ; 1
      nop        ; 2
      nop        ; 3
      nop        ; 4
      yield      ; 5
      nop        ; 6
      nop        ; 7
      call leaf  ; 8
      yield      ; 9
      halt       ; 10
  )");
  const sim::CostModel cost = DistinctCosts();
  const uint32_t expected = 5 * cost.alu_cycles + 2 * cost.call_ret_cycles;
  EXPECT_EQ(WorstCaseInterval(first_call_longer, cost, 1000), expected);
  EXPECT_EQ(WorstCaseInterval(second_call_longer, cost, 1000), expected);
}

TEST(ScavengerPassTest, WorstCaseIntervalTakesTheWorseArm) {
  auto program = Asm(R"(
      beq r1, r0, slow   ; 0
      nop                ; 1
      yield              ; 2
      halt               ; 3
    slow:
      mul r2, r2, r2     ; 4
      nop                ; 5
      yield              ; 6
      halt               ; 7
  )");
  const sim::CostModel cost = DistinctCosts();
  EXPECT_EQ(WorstCaseInterval(program, cost, 1000),
            cost.branch_cycles + cost.mul_cycles + cost.alu_cycles);
}

TEST(ScavengerPassTest, WorstCaseIntervalOfYieldFreeLoopSaturatesAtCap) {
  auto program = Asm(R"(
    loop:
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  EXPECT_EQ(WorstCaseInterval(program, DistinctCosts(), 500), 500u);
}

TEST(ScavengerPassTest, WorstCaseIntervalResetsAtCyield) {
  auto program = Asm(R"(
    loop:
      nop                ; 0
      nop                ; 1
      cyield             ; 2
      bne r1, r0, loop   ; 3
      halt               ; 4
  )");
  const sim::CostModel cost = DistinctCosts();
  // Bounded despite the loop: the back edge carries only the branch.
  EXPECT_EQ(WorstCaseInterval(program, cost, 1000),
            cost.branch_cycles + 2 * cost.alu_cycles);
}

// --- Verifier ---------------------------------------------------------------------

TEST(VerifierTest, AcceptsPipelineOutput) {
  auto program = Asm(kTwoLoadLoop);
  PrimaryConfig config;
  config.policy = PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.5;
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.0), config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(VerifyInstrumentation(program, result->instrumented).ok());
}

TEST(VerifierTest, DetectsMutatedInstruction) {
  auto program = Asm(kTwoLoadLoop);
  auto result = RunPrimaryPass(program, MakeProfile(0.9, 0.0), PrimaryConfig{});
  ASSERT_TRUE(result.ok());
  InstrumentedProgram broken = result->instrumented;
  broken.program.at(broken.addr_map.Translate(0)).imm = 999;  // corrupt movi
  EXPECT_FALSE(VerifyInstrumentation(program, broken).ok());
}

TEST(VerifierTest, DetectsUnannotatedYield) {
  auto program = Asm("movi r1, 1\nhalt\n");
  InstrumentedProgram fake;
  fake.program = Asm("movi r1, 1\nyield\nhalt\n");
  // Identity-ish map skipping the inserted yield.
  fake.addr_map = AddrMap(std::vector<isa::Addr>{0, 2});
  EXPECT_FALSE(VerifyInstrumentation(program, fake).ok());
}

TEST(VerifierTest, DetectsDanglingAnnotation) {
  auto program = Asm("movi r1, 1\nhalt\n");
  auto result = RunPrimaryPass(program, profile::LoadProfile{}, PrimaryConfig{});
  ASSERT_TRUE(result.ok());
  InstrumentedProgram broken = result->instrumented;
  broken.yields[0] = YieldInfo{};  // annotation on a movi
  EXPECT_FALSE(VerifyInstrumentation(program, broken).ok());
}

TEST(VerifierTest, DetectsWrongSizeMap) {
  auto program = Asm("movi r1, 1\nhalt\n");
  InstrumentedProgram broken;
  broken.program = program;
  broken.addr_map = AddrMap(std::vector<isa::Addr>{0});
  EXPECT_FALSE(VerifyInstrumentation(program, broken).ok());
}

TEST(VerifierTest, EnforcesIntervalBoundWhenRequested) {
  auto program = Asm(R"(
    loop:
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  InstrumentedProgram identity;
  identity.program = program;
  std::vector<isa::Addr> ident(program.size());
  for (isa::Addr i = 0; i < program.size(); ++i) {
    ident[i] = i;
  }
  identity.addr_map = AddrMap(ident);
  VerifyOptions options;
  options.max_interval_cycles = 10;  // yield-free loop: unbounded
  EXPECT_FALSE(VerifyInstrumentation(program, identity, options).ok());
  options.max_interval_cycles = 0;  // structure only: fine
  EXPECT_TRUE(VerifyInstrumentation(program, identity, options).ok());
}

}  // namespace
}  // namespace yieldhide::instrument
