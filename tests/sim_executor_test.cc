#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/sim/exact_stats.h"
#include "src/sim/executor.h"
#include "src/sim/smt_core.h"

namespace yieldhide::sim {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : machine_(MachineConfig::SmallTest()) {}

  // Assembles and runs to completion; returns the context afterwards.
  CpuContext Run(const std::string& source,
                 const std::function<void(CpuContext&)>& setup = nullptr) {
    auto program = isa::Assemble(source);
    EXPECT_TRUE(program.ok()) << program.status();
    program_ = std::move(program).value();
    Executor executor(&program_, &machine_);
    CpuContext ctx;
    ctx.ResetArchState(program_.entry());
    if (setup) {
      setup(ctx);
    }
    auto cycles = executor.RunToCompletion(ctx, 1'000'000);
    EXPECT_TRUE(cycles.ok()) << cycles.status();
    return ctx;
  }

  Machine machine_;
  isa::Program program_;
};

TEST_F(ExecutorTest, AluSemantics) {
  CpuContext ctx = Run(R"(
    movi r1, 10
    movi r2, 3
    add r3, r1, r2
    sub r4, r1, r2
    mul r5, r1, r2
    and r6, r1, r2
    or r7, r1, r2
    xor r8, r1, r2
    shli r9, r1, 2
    shri r10, r1, 1
    addi r11, r1, -4
    andi r12, r1, 8
    muli r13, r2, 7
    mov r14, r1
    halt
  )");
  EXPECT_EQ(ctx.regs[3], 13u);
  EXPECT_EQ(ctx.regs[4], 7u);
  EXPECT_EQ(ctx.regs[5], 30u);
  EXPECT_EQ(ctx.regs[6], 2u);
  EXPECT_EQ(ctx.regs[7], 11u);
  EXPECT_EQ(ctx.regs[8], 9u);
  EXPECT_EQ(ctx.regs[9], 40u);
  EXPECT_EQ(ctx.regs[10], 5u);
  EXPECT_EQ(ctx.regs[11], 6u);
  EXPECT_EQ(ctx.regs[12], 8u);
  EXPECT_EQ(ctx.regs[13], 21u);
  EXPECT_EQ(ctx.regs[14], 10u);
}

TEST_F(ExecutorTest, ShiftByRegisterMasksTo63) {
  CpuContext ctx = Run(R"(
    movi r1, 1
    movi r2, 65
    shl r3, r1, r2
    halt
  )");
  EXPECT_EQ(ctx.regs[3], 2u);  // 65 & 63 == 1
}

TEST_F(ExecutorTest, BranchesSignedComparison) {
  CpuContext ctx = Run(R"(
    movi r1, -1
    movi r2, 1
    blt r1, r2, neg_is_less
    movi r3, 111
    halt
  neg_is_less:
    movi r3, 222
    halt
  )");
  EXPECT_EQ(ctx.regs[3], 222u);
}

TEST_F(ExecutorTest, LoopCountsCorrectly) {
  CpuContext ctx = Run(R"(
    movi r1, 100
    movi r2, 0
  loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne r1, r0, loop
    halt
  )");
  EXPECT_EQ(ctx.regs[2], 100u);
  EXPECT_EQ(ctx.instructions, 2u + 3u * 100u + 1u);
}

TEST_F(ExecutorTest, LoadStoreRoundTrip) {
  CpuContext ctx = Run(R"(
    movi r1, 4096
    movi r2, 77
    store [r1+8], r2
    load r3, [r1+8]
    halt
  )");
  EXPECT_EQ(ctx.regs[3], 77u);
  EXPECT_EQ(machine_.memory().Read64(4104), 77u);
}

TEST_F(ExecutorTest, LoadxComputesIndexedAddress) {
  CpuContext ctx = Run(R"(
    movi r1, 4096
    movi r2, 99
    store [r1+24], r2
    movi r3, 3
    loadx r4, [r1+r3*8]
    halt
  )");
  EXPECT_EQ(ctx.regs[4], 99u);
}

TEST_F(ExecutorTest, CallAndRet) {
  CpuContext ctx = Run(R"(
    .entry main
    double:
      add r2, r1, r1
      ret
    main:
      movi r1, 21
      call double
      halt
  )");
  EXPECT_EQ(ctx.regs[2], 42u);
  EXPECT_TRUE(ctx.call_stack.empty());
}

TEST_F(ExecutorTest, NestedCalls) {
  CpuContext ctx = Run(R"(
    .entry main
    inner:
      addi r1, r1, 1
      ret
    outer:
      call inner
      call inner
      ret
    main:
      call outer
      halt
  )");
  EXPECT_EQ(ctx.regs[1], 2u);
}

TEST_F(ExecutorTest, RetWithEmptyStackErrors) {
  auto program = isa::Assemble("ret\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  const StepResult result = executor.Step(ctx, StallPolicy::kBlocking);
  EXPECT_EQ(result.event, StepEvent::kError);
  EXPECT_EQ(executor.error().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, RecursionOverflowErrors) {
  auto program = isa::Assemble("self: call self\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  auto result = executor.RunToCompletion(ctx, 1'000'000);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecutorTest, InfiniteLoopHitsBudget) {
  auto program = isa::Assemble("here: jmp here\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  auto result = executor.RunToCompletion(ctx, 1000);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecutorTest, YieldReportsAndContinues) {
  auto program = isa::Assemble("movi r1, 1\nyield\nmovi r2, 2\nhalt\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  EXPECT_EQ(executor.Step(ctx, StallPolicy::kBlocking).event, StepEvent::kExecuted);
  const StepResult yielded = executor.Step(ctx, StallPolicy::kBlocking);
  EXPECT_EQ(yielded.event, StepEvent::kYielded);
  EXPECT_FALSE(yielded.conditional_yield);
  EXPECT_EQ(ctx.pc, 2u);  // resumes after the yield
  EXPECT_EQ(executor.Step(ctx, StallPolicy::kBlocking).event, StepEvent::kExecuted);
  EXPECT_EQ(ctx.regs[2], 2u);
}

TEST_F(ExecutorTest, CyieldRespectsModeFlag) {
  auto program = isa::Assemble("cyield\nhalt\n").value();
  Executor executor(&program, &machine_);
  CpuContext off;
  off.ResetArchState(0);
  off.cyield_enabled = false;
  EXPECT_EQ(executor.Step(off, StallPolicy::kBlocking).event, StepEvent::kExecuted);
  EXPECT_EQ(off.cyields_skipped, 1u);

  CpuContext on;
  on.ResetArchState(0);
  on.cyield_enabled = true;
  const StepResult result = executor.Step(on, StallPolicy::kBlocking);
  EXPECT_EQ(result.event, StepEvent::kYielded);
  EXPECT_TRUE(result.conditional_yield);
}

TEST_F(ExecutorTest, BlockingLoadStallsAdvanceClock) {
  auto program = isa::Assemble("movi r1, 4096\nload r2, [r1+0]\nhalt\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  executor.Step(ctx, StallPolicy::kBlocking);  // movi: 1 cycle
  const uint64_t before = machine_.now();
  const StepResult load = executor.Step(ctx, StallPolicy::kBlocking);
  EXPECT_EQ(load.issue_cycles, 4u);
  EXPECT_EQ(load.wait_cycles, 196u);  // DRAM 200 total
  EXPECT_EQ(machine_.now() - before, 200u);
  EXPECT_EQ(ctx.stall_cycles, 196u);
}

TEST_F(ExecutorTest, DeferredLoadDoesNotAdvanceClockByWait) {
  auto program = isa::Assemble("movi r1, 4096\nload r2, [r1+0]\nhalt\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  executor.Step(ctx, StallPolicy::kDeferred);
  const uint64_t before = machine_.now();
  const StepResult load = executor.Step(ctx, StallPolicy::kDeferred);
  EXPECT_EQ(load.wait_cycles, 196u);
  EXPECT_EQ(machine_.now() - before, 4u);  // issue only
  EXPECT_EQ(ctx.stall_cycles, 0u);         // caller's responsibility
}

TEST_F(ExecutorTest, PrefetchThenLoadAvoidsStall) {
  CpuContext ctx = Run(R"(
    movi r1, 4096
    prefetch [r1+0]
    ; burn ~200+ cycles of ALU work
    movi r3, 100
  spin:
    addi r3, r3, -1
    bne r3, r0, spin
    load r2, [r1+0]
    halt
  )");
  // 200-cycle fill is fully covered by the 100x2-cycle spin.
  EXPECT_EQ(ctx.stall_cycles, 0u);
}

TEST_F(ExecutorTest, ExactStatsAttributeStallsToLoads) {
  ExactStats stats;
  machine_.listeners().Add(&stats);
  Run("movi r1, 4096\nload r2, [r1+0]\nload r3, [r1+0]\nhalt\n");
  EXPECT_EQ(stats.total_loads(), 2u);
  EXPECT_EQ(stats.ForIp(1).hits_dram, 1u);
  EXPECT_EQ(stats.ForIp(2).hits_l1, 1u);
  EXPECT_EQ(stats.ForIp(1).stall_cycles, 196u);
  EXPECT_EQ(stats.ForIp(2).stall_cycles, 0u);
  EXPECT_EQ(stats.HottestIps(5).size(), 1u);
  EXPECT_EQ(stats.HottestIps(5)[0], 1u);
}

TEST_F(ExecutorTest, BadPcErrors) {
  auto program = isa::Assemble("nop\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  executor.Step(ctx, StallPolicy::kBlocking);  // nop; pc now 1 = end
  const StepResult result = executor.Step(ctx, StallPolicy::kBlocking);
  EXPECT_EQ(result.event, StepEvent::kError);
}

TEST_F(ExecutorTest, HaltedContextStaysHalted) {
  auto program = isa::Assemble("halt\n").value();
  Executor executor(&program, &machine_);
  CpuContext ctx;
  ctx.ResetArchState(0);
  EXPECT_EQ(executor.Step(ctx, StallPolicy::kBlocking).event, StepEvent::kHalted);
  EXPECT_EQ(executor.Step(ctx, StallPolicy::kBlocking).event, StepEvent::kHalted);
  EXPECT_EQ(ctx.instructions, 1u);
}

// --- SMT core ------------------------------------------------------------------

// A chase-like kernel: dependent DRAM loads with almost no compute.
constexpr char kMissLoop[] = R"(
  ; r1 = pointer, r2 = iterations
loop:
  load r1, [r1+0]
  addi r2, r2, -1
  bne r2, r0, loop
  halt
)";

TEST(SmtCoreTest, SingleContextIdlesOnMisses) {
  Machine machine(MachineConfig::SmallTest());
  // Self-pointing chain spread over distinct lines so every load misses.
  for (uint64_t i = 0; i < 64; ++i) {
    machine.memory().Write64(0x10000 + i * 64, 0x10000 + ((i + 1) % 64) * 64);
  }
  auto program = isa::Assemble(kMissLoop).value();
  SmtCore core(&program, &machine);
  core.AddContext([](CpuContext& ctx) {
    ctx.regs[1] = 0x10000;
    ctx.regs[2] = 32;
  });
  auto report = core.Run(1'000'000);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->idle_cycles, 0u);
  EXPECT_LT(report->Utilization(), 0.2);
}

TEST(SmtCoreTest, MoreContextsImproveUtilization) {
  auto run_with = [](size_t contexts) {
    Machine machine(MachineConfig::SmallTest());
    for (uint64_t i = 0; i < 4096; ++i) {
      machine.memory().Write64(0x10000 + i * 64, 0x10000 + ((i * 769 + 1) % 4096) * 64);
    }
    auto program = isa::Assemble(kMissLoop).value();
    SmtCore core(&program, &machine);
    for (size_t c = 0; c < contexts; ++c) {
      core.AddContext([c](CpuContext& ctx) {
        ctx.regs[1] = 0x10000 + (c * 997 % 4096) * 64;
        ctx.regs[2] = 64;
      });
    }
    auto report = core.Run(10'000'000);
    EXPECT_TRUE(report.ok());
    return report->Utilization();
  };
  const double u1 = run_with(1);
  const double u2 = run_with(2);
  const double u8 = run_with(8);
  EXPECT_GT(u2, u1 * 1.5);
  EXPECT_GT(u8, u2 * 1.5);
}

TEST(SmtCoreTest, ContextsShareTheCacheHierarchy) {
  Machine machine(MachineConfig::SmallTest());
  machine.memory().Write64(0x10000, 0x10000);  // self-loop, single line
  auto program = isa::Assemble(kMissLoop).value();
  SmtCore core(&program, &machine);
  for (int c = 0; c < 2; ++c) {
    core.AddContext([](CpuContext& ctx) {
      ctx.regs[1] = 0x10000;
      ctx.regs[2] = 16;
    });
  }
  auto report = core.Run(1'000'000);
  ASSERT_TRUE(report.ok());
  // One context's miss warms the line for the other: at most ~1-2 DRAM
  // accesses in total, not one per context.
  EXPECT_LE(machine.hierarchy().stats().dram_accesses, 2u);
}

TEST(SmtCoreTest, ReportsPerContextFinishTimes) {
  Machine machine(MachineConfig::SmallTest());
  auto program = isa::Assemble("movi r1, 1\nhalt\n").value();
  SmtCore core(&program, &machine);
  core.AddContext(nullptr);
  core.AddContext(nullptr);
  auto report = core.Run(1000);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->context_finish_cycles.size(), 2u);
  EXPECT_GT(report->context_finish_cycles[0], 0u);
  EXPECT_GT(report->context_finish_cycles[1], 0u);
}

TEST(SmtCoreTest, NoContextsIsError) {
  Machine machine(MachineConfig::SmallTest());
  auto program = isa::Assemble("halt\n").value();
  SmtCore core(&program, &machine);
  EXPECT_FALSE(core.Run(100).ok());
}

}  // namespace
}  // namespace yieldhide::sim
