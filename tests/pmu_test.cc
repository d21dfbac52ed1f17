#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/pmu/lbr.h"
#include "src/pmu/pebs.h"
#include "src/pmu/session.h"
#include "src/sim/executor.h"

namespace yieldhide::pmu {
namespace {

// --- PEBS ----------------------------------------------------------------------

TEST(PebsTest, SamplesEveryNthEvent) {
  PebsConfig config;
  config.event = HwEvent::kLoadsL2Miss;
  config.period = 10;
  PebsSampler sampler(config);
  for (int i = 0; i < 100; ++i) {
    sampler.OnLoad(0, 5, 0x1000, sim::HitLevel::kDram, false, 200, i);
  }
  EXPECT_EQ(sampler.event_count(), 100u);
  EXPECT_EQ(sampler.samples_taken(), 10u);
  EXPECT_EQ(sampler.Drain().size(), 10u);
  EXPECT_EQ(sampler.buffered(), 0u);
}

TEST(PebsTest, EventFilterL2Miss) {
  PebsConfig config;
  config.event = HwEvent::kLoadsL2Miss;
  config.period = 1;
  PebsSampler sampler(config);
  sampler.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);    // not a miss
  sampler.OnLoad(0, 2, 0, sim::HitLevel::kL2, false, 10, 0);   // L1 miss only
  sampler.OnLoad(0, 3, 0, sim::HitLevel::kL3, false, 38, 0);   // L2 miss
  sampler.OnLoad(0, 4, 0, sim::HitLevel::kDram, false, 196, 0);
  EXPECT_EQ(sampler.event_count(), 2u);
}

TEST(PebsTest, EventFilterL1MissCountsInflight) {
  PebsConfig config;
  config.event = HwEvent::kLoadsL1Miss;
  config.period = 1;
  PebsSampler sampler(config);
  sampler.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
  sampler.OnLoad(0, 1, 0, sim::HitLevel::kL1, true, 50, 0);  // in-flight merge
  sampler.OnLoad(0, 1, 0, sim::HitLevel::kL2, false, 10, 0);
  EXPECT_EQ(sampler.event_count(), 2u);
}

TEST(PebsTest, StallCyclesWeightedSampling) {
  PebsConfig config;
  config.event = HwEvent::kStallCycles;
  config.period = 100;
  PebsSampler sampler(config);
  // One 250-cycle stall crosses the 100 and 200 thresholds: two samples.
  sampler.OnStall(0, 7, 250, 0);
  EXPECT_EQ(sampler.samples_taken(), 2u);
  auto samples = sampler.Drain();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].ip, 7u);
}

TEST(PebsTest, RetiredInstructionSampling) {
  PebsConfig config;
  config.event = HwEvent::kRetiredInstructions;
  config.period = 3;
  PebsSampler sampler(config);
  for (int i = 0; i < 9; ++i) {
    sampler.OnRetired(0, static_cast<isa::Addr>(i), isa::Opcode::kNop, i);
  }
  EXPECT_EQ(sampler.samples_taken(), 3u);
}

TEST(PebsTest, BufferOverflowDropsSamples) {
  PebsConfig config;
  config.event = HwEvent::kLoadsL2Miss;
  config.period = 1;
  config.buffer_capacity = 4;
  PebsSampler sampler(config);
  for (int i = 0; i < 10; ++i) {
    sampler.OnLoad(0, 1, 0, sim::HitLevel::kDram, false, 200, i);
  }
  EXPECT_EQ(sampler.samples_taken(), 10u);
  EXPECT_EQ(sampler.samples_dropped(), 6u);
  EXPECT_EQ(sampler.Drain().size(), 4u);
  // After draining, the buffer accepts samples again.
  sampler.OnLoad(0, 1, 0, sim::HitLevel::kDram, false, 200, 11);
  EXPECT_EQ(sampler.buffered(), 1u);
}

TEST(PebsTest, SkidShiftsIp) {
  PebsConfig config;
  config.event = HwEvent::kLoadsL2Miss;
  config.period = 1;
  config.max_skid = 3;
  config.skid_probability = 1.0;
  PebsSampler sampler(config);
  for (int i = 0; i < 100; ++i) {
    sampler.OnLoad(0, 10, 0, sim::HitLevel::kDram, false, 200, i);
  }
  for (const PebsSample& s : sampler.Drain()) {
    EXPECT_GE(s.ip, 11u);
    EXPECT_LE(s.ip, 13u);
  }
}

TEST(PebsTest, NoSkidWhenDisabled) {
  PebsConfig config;
  config.event = HwEvent::kLoadsL2Miss;
  config.period = 1;
  PebsSampler sampler(config);
  sampler.OnLoad(0, 10, 0, sim::HitLevel::kDram, false, 200, 0);
  EXPECT_EQ(sampler.Drain()[0].ip, 10u);
}

// --- LBR -----------------------------------------------------------------------

TEST(LbrTest, RecordsTakenBranchesWithCycleDeltas) {
  LbrConfig config;
  config.snapshot_period = 3;
  LbrRecorder lbr(config);
  lbr.OnBranch(0, 10, 20, true, 100);
  lbr.OnBranch(0, 25, 10, true, 150);
  lbr.OnBranch(0, 12, 30, true, 175);  // snapshot fires here (3rd branch)
  auto snaps = lbr.DrainSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  ASSERT_EQ(snaps[0].entries.size(), 3u);
  EXPECT_EQ(snaps[0].entries[1].from, 25u);
  EXPECT_EQ(snaps[0].entries[1].to, 10u);
  EXPECT_EQ(snaps[0].entries[1].cycles, 50u);
  EXPECT_EQ(snaps[0].entries[2].cycles, 25u);
}

TEST(LbrTest, IgnoresUntakenBranchesByDefault) {
  LbrRecorder lbr(LbrConfig{});
  lbr.OnBranch(0, 1, 2, false, 10);
  EXPECT_EQ(lbr.branches_seen(), 0u);
}

TEST(LbrTest, RingKeepsOnlyLastN) {
  // Three branches more than the ring holds; the snapshot sees the last N.
  const int branches = static_cast<int>(kLbrRingEntries) + 3;
  LbrConfig config;
  config.snapshot_period = static_cast<uint64_t>(branches);
  LbrRecorder lbr(config);
  for (int i = 1; i <= branches; ++i) {
    lbr.OnBranch(0, i * 10, i * 10 + 1, true, i * 100);
  }
  auto snaps = lbr.DrainSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  ASSERT_EQ(snaps[0].entries.size(), kLbrRingEntries);
  EXPECT_EQ(snaps[0].entries.front().from, 40u);
  EXPECT_EQ(snaps[0].entries.back().from, static_cast<isa::Addr>(branches * 10));
}

TEST(LbrTest, SnapshotLimitRespected) {
  LbrConfig config;
  config.snapshot_period = 1;
  config.max_snapshots = 3;
  LbrRecorder lbr(config);
  for (int i = 0; i < 10; ++i) {
    lbr.OnBranch(0, 1, 2, true, i);
  }
  EXPECT_EQ(lbr.DrainSnapshots().size(), 3u);
}

// --- SamplingSession over a real simulated run -----------------------------------

TEST(SessionTest, EndToEndSamplingOfMissLoop) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  // 256-line pointer ring > all cache levels is unnecessary; SmallTest L3 is
  // 16 KiB = 256 lines, so use 1024 lines to force DRAM misses.
  const uint64_t kLines = 1024;
  for (uint64_t i = 0; i < kLines; ++i) {
    machine.memory().Write64(0x100000 + i * 64, 0x100000 + ((i + 331) % kLines) * 64);
  }
  auto program = isa::Assemble(R"(
  loop:
    load r1, [r1+0]
    addi r2, r2, -1
    bne r2, r0, loop
    halt
  )").value();

  SessionConfig config;
  PebsConfig miss;
  miss.event = HwEvent::kLoadsL2Miss;
  miss.period = 7;
  config.pebs.push_back(miss);
  PebsConfig stall;
  stall.event = HwEvent::kStallCycles;
  stall.period = 211;
  config.pebs.push_back(stall);
  config.lbr.snapshot_period = 13;

  SamplingSession session(config);
  session.AttachTo(machine);

  sim::Executor executor(&program, &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(0);
  ctx.regs[1] = 0x100000;
  ctx.regs[2] = 500;
  ASSERT_TRUE(executor.RunToCompletion(ctx, 100'000).ok());

  auto samples = session.DrainAllSamples();
  EXPECT_GT(samples.size(), 50u);
  // Miss samples attribute to the load at ip 0.
  size_t miss_samples = 0;
  for (const auto& s : samples) {
    if (s.event == HwEvent::kLoadsL2Miss) {
      EXPECT_EQ(s.ip, 0u);
      ++miss_samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(miss_samples), 500.0 / 7.0, 10.0);

  auto snaps = session.DrainLbrSnapshots();
  EXPECT_GT(snaps.size(), 10u);
  EXPECT_GT(session.OverheadCycles(), 0u);
  EXPECT_GT(session.OverheadFraction(machine.now()), 0.0);
  EXPECT_LT(session.OverheadFraction(machine.now()), 0.25);
}

}  // namespace
}  // namespace yieldhide::pmu
