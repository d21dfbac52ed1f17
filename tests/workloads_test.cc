#include <gtest/gtest.h>

#include "src/sim/executor.h"
#include "src/workloads/array_scan.h"
#include "src/workloads/btree_lookup.h"
#include "src/workloads/hash_probe.h"
#include "src/workloads/pointer_chase.h"
#include "src/workloads/skiplist_lookup.h"
#include "src/workloads/zipf.h"

namespace yieldhide::workloads {
namespace {

// Runs workload task `index` single-context on a fresh small machine and
// checks the stored result against the host-computed expectation.
void RunAndCheck(const SimWorkload& workload, int index) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  workload.InitMemory(machine.memory());
  sim::Executor executor(&workload.program(), &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(workload.program().entry());
  workload.SetupFor(index)(ctx);
  auto cycles = executor.RunToCompletion(ctx, 50'000'000);
  ASSERT_TRUE(cycles.ok()) << cycles.status();
  EXPECT_EQ(workload.ReadResult(machine.memory(), index),
            workload.ExpectedResult(index))
      << "task " << index;
}

// --- PointerChase ----------------------------------------------------------------

TEST(PointerChaseTest, ProgramValidates) {
  PointerChase::Config config;
  config.num_nodes = 256;
  config.steps_per_task = 50;
  auto workload = PointerChase::Make(config);
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE(workload->program().Validate().ok());
  EXPECT_EQ(workload->program().at(workload->chase_load_addr()).op,
            isa::Opcode::kLoad);
}

TEST(PointerChaseTest, RejectsTinyConfig) {
  PointerChase::Config config;
  config.num_nodes = 1;
  EXPECT_FALSE(PointerChase::Make(config).ok());
}

class PointerChaseParamTest : public ::testing::TestWithParam<int> {};

TEST_P(PointerChaseParamTest, ResultsMatchHost) {
  PointerChase::Config config;
  config.num_nodes = 512;
  config.steps_per_task = 200;
  auto workload = PointerChase::Make(config).value();
  RunAndCheck(workload, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Tasks, PointerChaseParamTest, ::testing::Values(0, 1, 3, 7, 13));

TEST(PointerChaseTest, ManualVariantAlsoCorrect) {
  PointerChase::Config config;
  config.num_nodes = 256;
  config.steps_per_task = 100;
  config.manual_prefetch_yield = true;
  auto workload = PointerChase::Make(config).value();
  // Yields fall through in single-context RunToCompletion.
  RunAndCheck(workload, 0);
  // The manual variant contains a yield, the plain one does not.
  bool has_yield = false;
  for (const auto& insn : workload.program().code()) {
    has_yield |= insn.op == isa::Opcode::kYield;
  }
  EXPECT_TRUE(has_yield);
}

TEST(PointerChaseTest, DeterministicAcrossInstances) {
  PointerChase::Config config;
  config.num_nodes = 128;
  config.steps_per_task = 64;
  auto a = PointerChase::Make(config).value();
  auto b = PointerChase::Make(config).value();
  EXPECT_EQ(a.ExpectedResult(5), b.ExpectedResult(5));
}

TEST(PointerChaseTest, MissBoundOnLargeWorkingSet) {
  PointerChase::Config config;
  config.num_nodes = 4096;  // 256 KiB > SmallTest L3 (16 KiB)
  config.steps_per_task = 500;
  auto workload = PointerChase::Make(config).value();
  sim::Machine machine(sim::MachineConfig::SmallTest());
  workload.InitMemory(machine.memory());
  sim::Executor executor(&workload.program(), &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(workload.program().entry());
  workload.SetupFor(0)(ctx);
  auto cycles = executor.RunToCompletion(ctx, 10'000'000).value();
  // Memory-bound: most cycles are stalls (the paper's >60% claim regime).
  EXPECT_GT(static_cast<double>(ctx.stall_cycles) / cycles, 0.6);
}

// --- HashProbe -------------------------------------------------------------------

TEST(HashProbeTest, ProgramValidates) {
  HashProbe::Config config;
  config.buckets_log2 = 8;
  config.keys_per_task = 32;
  config.num_tasks = 4;
  auto workload = HashProbe::Make(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_TRUE(workload->program().Validate().ok());
  EXPECT_EQ(workload->program().at(workload->bucket_load_addr()).op,
            isa::Opcode::kLoad);
}

TEST(HashProbeTest, RejectsBadConfig) {
  HashProbe::Config config;
  config.buckets_log2 = 2;
  EXPECT_FALSE(HashProbe::Make(config).ok());
  config.buckets_log2 = 8;
  config.fill_factor = 0.99;
  EXPECT_FALSE(HashProbe::Make(config).ok());
}

class HashProbeParamTest : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(HashProbeParamTest, ResultsMatchHost) {
  HashProbe::Config config;
  config.buckets_log2 = 10;
  config.keys_per_task = 128;
  config.num_tasks = 8;
  config.hit_fraction = std::get<1>(GetParam());
  auto workload = HashProbe::Make(config).value();
  RunAndCheck(workload, std::get<0>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(TasksAndHitRates, HashProbeParamTest,
                         ::testing::Combine(::testing::Values(0, 2, 5),
                                            ::testing::Values(0.0, 0.5, 1.0)));

TEST(HashProbeTest, ZipfSkewStillCorrect) {
  HashProbe::Config config;
  config.buckets_log2 = 10;
  config.keys_per_task = 128;
  config.num_tasks = 4;
  config.zipf_theta = 0.9;
  auto workload = HashProbe::Make(config).value();
  RunAndCheck(workload, 0);
  RunAndCheck(workload, 3);
}

// --- BtreeLookup -----------------------------------------------------------------

TEST(BtreeLookupTest, ProgramValidates) {
  BtreeLookup::Config config;
  config.num_keys = 128;
  config.lookups_per_task = 32;
  config.num_tasks = 4;
  auto workload = BtreeLookup::Make(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_TRUE(workload->program().Validate().ok());
}

class BtreeParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BtreeParamTest, ResultsMatchHost) {
  BtreeLookup::Config config;
  config.num_keys = 512;
  config.lookups_per_task = 64;
  config.num_tasks = 8;
  auto workload = BtreeLookup::Make(config).value();
  RunAndCheck(workload, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Tasks, BtreeParamTest, ::testing::Values(0, 1, 4, 7));

TEST(BtreeLookupTest, AbsentKeysContributeNothing) {
  BtreeLookup::Config config;
  config.num_keys = 64;
  config.lookups_per_task = 32;
  config.hit_fraction = 0.0;  // all lookups absent
  config.num_tasks = 2;
  auto workload = BtreeLookup::Make(config).value();
  EXPECT_EQ(workload.ExpectedResult(0), 0u);
  RunAndCheck(workload, 0);
}

// --- ArrayScan -------------------------------------------------------------------

class ArrayScanParamTest : public ::testing::TestWithParam<int> {};

TEST_P(ArrayScanParamTest, ResultsMatchHost) {
  ArrayScan::Config config;
  config.num_elements = 4096;
  config.elements_per_task = 512;
  auto workload = ArrayScan::Make(config).value();
  RunAndCheck(workload, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Tasks, ArrayScanParamTest, ::testing::Values(0, 1, 5));

TEST(ArrayScanTest, RejectsOversizedTask) {
  ArrayScan::Config config;
  config.num_elements = 16;
  config.elements_per_task = 32;
  EXPECT_FALSE(ArrayScan::Make(config).ok());
}

TEST(ArrayScanTest, SequentialScanIsMostlyHits) {
  ArrayScan::Config config;
  config.num_elements = 1 << 15;
  config.elements_per_task = 8192;
  auto workload = ArrayScan::Make(config).value();
  sim::Machine machine(sim::MachineConfig::SmallTest());
  workload.InitMemory(machine.memory());
  sim::Executor executor(&workload.program(), &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(workload.program().entry());
  workload.SetupFor(0)(ctx);
  ASSERT_TRUE(executor.RunToCompletion(ctx, 10'000'000).ok());
  // One miss per 8 loads (64 B line / 8 B element): miss ratio ~ 12.5%. A
  // load merged into a pending fill counts as an L1 hit in the stats, but it
  // still waited on a miss.
  const sim::MemoryHierarchy::Stats& stats = machine.hierarchy().stats();
  const uint64_t misses = stats.loads - (stats.l1_hits - stats.inflight_merges);
  EXPECT_NEAR(static_cast<double>(misses) / stats.loads, 0.125, 0.02);
}

// --- SkiplistLookup ----------------------------------------------------------------

TEST(SkiplistTest, ProgramValidates) {
  SkiplistLookup::Config config;
  config.num_keys = 256;
  config.max_level = 6;
  config.lookups_per_task = 32;
  config.num_tasks = 4;
  auto workload = SkiplistLookup::Make(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  EXPECT_TRUE(workload->program().Validate().ok());
  EXPECT_EQ(workload->program().at(workload->next_load_addr()).op, isa::Opcode::kLoad);
}

TEST(SkiplistTest, RejectsBadConfig) {
  SkiplistLookup::Config config;
  config.num_keys = 1;
  EXPECT_FALSE(SkiplistLookup::Make(config).ok());
  config.num_keys = 64;
  config.max_level = 0;
  EXPECT_FALSE(SkiplistLookup::Make(config).ok());
}

class SkiplistParamTest : public ::testing::TestWithParam<int> {};

TEST_P(SkiplistParamTest, ResultsMatchHost) {
  SkiplistLookup::Config config;
  config.num_keys = 512;
  config.max_level = 8;
  config.lookups_per_task = 64;
  config.num_tasks = 8;
  auto workload = SkiplistLookup::Make(config).value();
  RunAndCheck(workload, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Tasks, SkiplistParamTest, ::testing::Values(0, 1, 3, 7));

TEST(SkiplistTest, AllMissesSumZero) {
  SkiplistLookup::Config config;
  config.num_keys = 128;
  config.max_level = 5;
  config.lookups_per_task = 32;
  config.hit_fraction = 0.0;
  config.num_tasks = 2;
  auto workload = SkiplistLookup::Make(config).value();
  EXPECT_EQ(workload.ExpectedResult(0), 0u);
  RunAndCheck(workload, 0);
}

// --- Zipf ------------------------------------------------------------------------

TEST(ZipfTest, ValuesInRange) {
  ZipfianGenerator zipf(1000, 0.99, 7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(), 1000u);
  }
}

TEST(ZipfTest, SkewConcentratesMass) {
  ZipfianGenerator zipf(1000, 0.99, 7);
  int top10 = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    top10 += zipf.Next() < 10 ? 1 : 0;
  }
  // With theta=0.99, the top-10 of 1000 items absorb a large share.
  EXPECT_GT(static_cast<double>(top10) / kDraws, 0.3);
}

TEST(ZipfTest, LowThetaIsNearUniform) {
  ZipfianGenerator zipf(1000, 0.01, 7);
  int top10 = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    top10 += zipf.Next() < 10 ? 1 : 0;
  }
  EXPECT_LT(static_cast<double>(top10) / kDraws, 0.05);
}

}  // namespace
}  // namespace yieldhide::workloads
