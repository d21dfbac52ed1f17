#include <gtest/gtest.h>

#include "src/analysis/cfg.h"
#include "src/analysis/dependence.h"
#include "src/analysis/liveness.h"
#include "src/isa/assembler.h"

namespace yieldhide::analysis {
namespace {

isa::Program Asm(const std::string& source) {
  auto program = isa::Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// --- CFG -----------------------------------------------------------------------

TEST(CfgTest, StraightLineIsOneBlock) {
  auto program = Asm("movi r1, 1\naddi r1, r1, 1\nhalt\n");
  auto cfg = ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->block_count(), 1u);
  EXPECT_EQ(cfg->block(0).start, 0u);
  EXPECT_EQ(cfg->block(0).end, 3u);
  EXPECT_TRUE(cfg->block(0).successors.empty());
}

TEST(CfgTest, DiamondShape) {
  auto program = Asm(R"(
      beq r1, r0, right   ; 0
      movi r2, 1          ; 1 (left)
      jmp join            ; 2
    right:
      movi r2, 2          ; 3
    join:
      halt                ; 4
  )");
  auto cfg = ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->block_count(), 4u);
  const BasicBlock& head = cfg->block(cfg->BlockOf(0));
  EXPECT_EQ(head.successors.size(), 2u);
  const BasicBlock& join = cfg->block(cfg->BlockOf(4));
  EXPECT_EQ(join.predecessors.size(), 2u);
}

TEST(CfgTest, LoopBackEdge) {
  auto program = Asm(R"(
      movi r1, 10
    loop:
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  auto cfg = ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  const BlockId loop_block = cfg->BlockOf(1);
  const BasicBlock& block = cfg->block(loop_block);
  // Loop block has itself as a successor.
  EXPECT_NE(std::find(block.successors.begin(), block.successors.end(), loop_block),
            block.successors.end());
}

TEST(CfgTest, CallRecordsTargetAndFallsThrough) {
  auto program = Asm(R"(
    .entry main
    fn:
      ret               ; 0
    main:
      call fn           ; 1
      halt              ; 2
  )");
  auto cfg = ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  const BasicBlock& call_block = cfg->block(cfg->BlockOf(1));
  EXPECT_EQ(call_block.call_target, 0u);
  ASSERT_EQ(call_block.successors.size(), 1u);
  EXPECT_EQ(cfg->block(call_block.successors[0]).start, 2u);
}

TEST(CfgTest, YieldDoesNotEndBlock) {
  auto program = Asm("movi r1, 1\nyield\nmovi r2, 2\nhalt\n");
  auto cfg = ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->block_count(), 1u);
}

TEST(CfgTest, ToDotMentionsBlocks) {
  auto program = Asm("movi r1, 1\nhalt\n");
  auto cfg = ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  EXPECT_NE(cfg->ToDot().find("digraph"), std::string::npos);

  // A call block draws a dashed edge to its callee's block.
  auto call_program = Asm(R"(
    .entry main
    fn:
      ret
    main:
      call fn
      halt
  )");
  auto call = ControlFlowGraph::Build(call_program);
  ASSERT_TRUE(call.ok());
  EXPECT_NE(call->ToDot().find("b1 -> b0 [style=dashed];"), std::string::npos)
      << call->ToDot();
}

// --- Liveness --------------------------------------------------------------------

TEST(LivenessTest, UsesAndDefs) {
  EXPECT_EQ(UsesOf({isa::Opcode::kAdd, 1, 2, 3, 0}), (1u << 2) | (1u << 3));
  EXPECT_EQ(DefsOf({isa::Opcode::kAdd, 1, 2, 3, 0}), 1u << 1);
  EXPECT_EQ(UsesOf({isa::Opcode::kMovi, 1, 0, 0, 5}), 0u);
  EXPECT_EQ(UsesOf({isa::Opcode::kStore, 0, 1, 2, 0}), (1u << 1) | (1u << 2));
  EXPECT_EQ(DefsOf({isa::Opcode::kStore, 0, 1, 2, 0}), 0u);
  EXPECT_EQ(UsesOf({isa::Opcode::kCall}), kAllRegs);
  EXPECT_EQ(UsesOf({isa::Opcode::kRet}), kAllRegs);
}

TEST(LivenessTest, DeadAfterLastUse) {
  auto program = Asm(R"(
    movi r1, 5      ; 0
    add r2, r1, r1  ; 1 (last use of r1)
    addi r2, r2, 1  ; 2
    store [r3+0], r2; 3
    halt            ; 4
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto live = LivenessAnalysis::Run(cfg);
  EXPECT_TRUE(live.LiveIn(1) & (1u << 1));    // r1 live into its use
  EXPECT_FALSE(live.LiveOut(1) & (1u << 1));  // dead after
  EXPECT_TRUE(live.LiveOut(1) & (1u << 2));   // r2 live through
  EXPECT_TRUE(live.LiveIn(0) & (1u << 3));    // r3 live from entry (used at 3)
}

TEST(LivenessTest, LoopCarriesLiveness) {
  auto program = Asm(R"(
    loop:
      addi r1, r1, -1   ; 0: r1 live around the loop
      bne r1, r0, loop  ; 1
      halt              ; 2
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto live = LivenessAnalysis::Run(cfg);
  EXPECT_TRUE(live.LiveOut(1) & (1u << 1));  // back edge keeps r1 live
  EXPECT_TRUE(live.LiveIn(0) & (1u << 0));   // r0 used by bne
}

TEST(LivenessTest, BranchMergesBothPaths) {
  auto program = Asm(R"(
      beq r1, r0, other   ; 0
      mov r4, r2          ; 1: uses r2
      halt
    other:
      mov r4, r3          ; 3: uses r3
      halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto live = LivenessAnalysis::Run(cfg);
  EXPECT_TRUE(live.LiveIn(0) & (1u << 2));
  EXPECT_TRUE(live.LiveIn(0) & (1u << 3));
}

TEST(LivenessTest, CountRegs) {
  EXPECT_EQ(LivenessAnalysis::CountRegs(0), 0);
  EXPECT_EQ(LivenessAnalysis::CountRegs(kAllRegs), 16);
  EXPECT_EQ(LivenessAnalysis::CountRegs(0b1010), 2);
}

// --- Dependence / coalescing groups ----------------------------------------------

TEST(DependenceTest, IndependentAdjacentLoadsGroup) {
  auto program = Asm(R"(
    load r2, [r1+0]
    load r3, [r1+64]
    load r4, [r1+128]
    halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 1, 2});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].loads.size(), 3u);
}

TEST(DependenceTest, DependentLoadBreaksGroup) {
  auto program = Asm(R"(
    load r2, [r1+0]
    load r3, [r2+0]   ; address depends on first load
    halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 1});
  ASSERT_EQ(groups.size(), 2u);
}

TEST(DependenceTest, AluRedefinitionOfAddressBreaksGroup) {
  auto program = Asm(R"(
    load r2, [r1+0]
    addi r1, r1, 8     ; r1 changes: a hoisted prefetch would be wrong
    load r3, [r1+0]
    halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 2});
  ASSERT_EQ(groups.size(), 2u);
}

TEST(DependenceTest, UnrelatedAluDoesNotBreakGroup) {
  auto program = Asm(R"(
    load r2, [r1+0]
    addi r5, r5, 1     ; unrelated
    load r3, [r1+64]
    halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 2});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].loads.size(), 2u);
}

TEST(DependenceTest, StoreBreaksGroup) {
  auto program = Asm(R"(
    load r2, [r1+0]
    store [r6+0], r5
    load r3, [r1+64]
    halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 2});
  ASSERT_EQ(groups.size(), 2u);
}

TEST(DependenceTest, BlockBoundaryBreaksGroup) {
  auto program = Asm(R"(
      load r2, [r1+0]
    target:
      load r3, [r1+64]
      bne r2, r0, target
      halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 1});
  ASSERT_EQ(groups.size(), 2u);
}

TEST(DependenceTest, IndexedLoadDependsOnIndexRegister) {
  auto program = Asm(R"(
    load r2, [r1+0]
    loadx r3, [r4+r2*8]   ; index register written by first load
    halt
  )");
  auto cfg = ControlFlowGraph::Build(program).value();
  auto groups = FindCoalescibleGroups(cfg, {0, 1});
  ASSERT_EQ(groups.size(), 2u);
}

}  // namespace
}  // namespace yieldhide::analysis
