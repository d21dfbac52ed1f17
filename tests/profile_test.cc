#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/isa/assembler.h"
#include "src/profile/collector.h"
#include "src/profile/profile.h"
#include "src/sim/exact_stats.h"
#include "src/sim/executor.h"

namespace yieldhide::profile {
namespace {

pmu::PebsSample Sample(pmu::HwEvent event, isa::Addr ip) {
  pmu::PebsSample s;
  s.event = event;
  s.ip = ip;
  return s;
}

SamplePeriods TestPeriods() {
  SamplePeriods p;
  p.l2_miss = 10;
  p.stall_cycles = 100;
  p.retired = 5;
  return p;
}

// --- LoadProfile ---------------------------------------------------------------

TEST(LoadProfileTest, ScalesSamplesByPeriod) {
  LoadProfile profile;
  profile.AddSamples({Sample(pmu::HwEvent::kLoadsL2Miss, 7),
                      Sample(pmu::HwEvent::kLoadsL2Miss, 7),
                      Sample(pmu::HwEvent::kRetiredInstructions, 7)},
                     TestPeriods());
  const SiteProfile& site = profile.ForIp(7);
  EXPECT_DOUBLE_EQ(site.est_l2_misses, 20.0);
  EXPECT_DOUBLE_EQ(site.est_executions, 5.0);
  EXPECT_DOUBLE_EQ(site.L2MissProbability(), 4.0);  // overestimate, small n
}

TEST(LoadProfileTest, StallSamplesAccumulate) {
  LoadProfile profile;
  profile.AddSamples({Sample(pmu::HwEvent::kStallCycles, 3),
                      Sample(pmu::HwEvent::kStallCycles, 3),
                      Sample(pmu::HwEvent::kStallCycles, 9)},
                     TestPeriods());
  EXPECT_DOUBLE_EQ(profile.ForIp(3).est_stall_cycles, 200.0);
  EXPECT_DOUBLE_EQ(profile.total_stall_cycles(), 300.0);
}

TEST(LoadProfileTest, UnknownIpIsEmpty) {
  LoadProfile profile;
  EXPECT_DOUBLE_EQ(profile.ForIp(42).est_executions, 0.0);
  EXPECT_FALSE(profile.HasIp(42));
}

TEST(LoadProfileTest, LikelyStallLoadsFiltersAndSorts) {
  LoadProfile profile;
  std::vector<pmu::PebsSample> samples;
  // ip=1: hot miss site (many misses, many stalls).
  for (int i = 0; i < 10; ++i) {
    samples.push_back(Sample(pmu::HwEvent::kLoadsL2Miss, 1));
    samples.push_back(Sample(pmu::HwEvent::kStallCycles, 1));
    samples.push_back(Sample(pmu::HwEvent::kRetiredInstructions, 1));
  }
  // ip=2: executes a lot, almost never misses.
  for (int i = 0; i < 100; ++i) {
    samples.push_back(Sample(pmu::HwEvent::kRetiredInstructions, 2));
  }
  samples.push_back(Sample(pmu::HwEvent::kLoadsL2Miss, 2));
  // ip=3: misses but contributes negligible stall share.
  samples.push_back(Sample(pmu::HwEvent::kLoadsL2Miss, 3));
  samples.push_back(Sample(pmu::HwEvent::kRetiredInstructions, 3));
  profile.AddSamples(samples, TestPeriods());

  auto likely = profile.LikelyStallLoads(/*min_miss_probability=*/0.5,
                                         /*min_stall_share=*/0.05);
  ASSERT_EQ(likely.size(), 1u);
  EXPECT_EQ(likely[0], 1u);
}

TEST(LoadProfileTest, LikelyStallLoadsBreaksTiesByIp) {
  // 24 sites tie on estimated stall cycles and are added in shuffled order.
  // std::sort may reorder equal keys once it sorts more than 16 elements, so
  // the ranking has to break ties itself.
  std::vector<isa::Addr> tied;
  for (isa::Addr ip = 100; ip < 124; ++ip) {
    tied.push_back(ip);
  }
  Rng rng(5);
  for (size_t i = tied.size() - 1; i > 0; --i) {
    std::swap(tied[i], tied[rng.NextBelow(i + 1)]);
  }
  LoadProfile profile;
  SiteProfile site;
  site.est_executions = 10;
  site.est_l2_misses = 10;
  site.est_stall_cycles = 500;
  for (isa::Addr ip : tied) {
    profile.AccumulateSite(ip, site);
  }
  site.est_stall_cycles = 900;
  profile.AccumulateSite(3, site);
  std::vector<isa::Addr> want = {3};
  for (isa::Addr ip = 100; ip < 124; ++ip) {
    want.push_back(ip);
  }
  EXPECT_EQ(profile.LikelyStallLoads(/*min_miss_probability=*/0.5,
                                     /*min_stall_share=*/0.0),
            want);
}

TEST(LoadProfileTest, MergeAddsSites) {
  LoadProfile a, b;
  a.AddSamples({Sample(pmu::HwEvent::kLoadsL2Miss, 1)}, TestPeriods());
  b.AddSamples({Sample(pmu::HwEvent::kLoadsL2Miss, 1),
                Sample(pmu::HwEvent::kStallCycles, 2)},
               TestPeriods());
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.ForIp(1).est_l2_misses, 20.0);
  EXPECT_DOUBLE_EQ(a.ForIp(2).est_stall_cycles, 100.0);
  EXPECT_DOUBLE_EQ(a.total_stall_cycles(), 100.0);
}

TEST(LoadProfileTest, SerializeRoundTrip) {
  LoadProfile profile;
  profile.AddSamples({Sample(pmu::HwEvent::kLoadsL2Miss, 1),
                      Sample(pmu::HwEvent::kStallCycles, 2),
                      Sample(pmu::HwEvent::kRetiredInstructions, 3)},
                     TestPeriods());
  auto back = LoadProfile::Deserialize(profile.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_DOUBLE_EQ(back->ForIp(1).est_l2_misses, 10.0);
  EXPECT_DOUBLE_EQ(back->ForIp(2).est_stall_cycles, 100.0);
  EXPECT_DOUBLE_EQ(back->total_stall_cycles(), 100.0);
}

TEST(LoadProfileTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(LoadProfile::Deserialize("not a profile").ok());
  EXPECT_FALSE(LoadProfile::Deserialize("yh-load-profile v1\n1 2 3\n").ok());
  EXPECT_FALSE(LoadProfile::Deserialize("yh-load-profile v1\nx 1 1 1 1 1\n").ok());
}

// --- BlockLatencyProfile ---------------------------------------------------------

pmu::LbrSnapshot Snapshot(std::vector<pmu::LbrEntry> entries) {
  pmu::LbrSnapshot snap;
  snap.entries = std::move(entries);
  return snap;
}

// True when `profile`'s file form carries `line` ("run START END COUNT
// CYCLES" or "edge FROM TO COUNT").
bool Carries(const BlockLatencyProfile& profile, const std::string& line) {
  return profile.Serialize().find("\n" + line + "\n") != std::string::npos;
}

TEST(BlockProfileTest, DerivesRunLatencies) {
  BlockLatencyProfile profile;
  // Transfer lands at 10; the next transfer leaves from 15, 30 cycles later:
  // the straight-line run 10..15 took 30 cycles.
  profile.AddSnapshots({Snapshot({{5, 10, 100}, {15, 20, 30}})});
  auto latency = profile.MeanLatencyFrom(10);
  ASSERT_TRUE(latency.ok());
  EXPECT_DOUBLE_EQ(latency.value(), 30.0);
  EXPECT_TRUE(Carries(profile, "run 10 15 1 30.0"));
}

TEST(BlockProfileTest, AveragesAcrossObservations) {
  BlockLatencyProfile profile;
  profile.AddSnapshots({Snapshot({{5, 10, 1}, {15, 20, 30}}),
                        Snapshot({{5, 10, 1}, {15, 20, 50}})});
  EXPECT_DOUBLE_EQ(profile.MeanLatencyFrom(10).value(), 40.0);
  EXPECT_EQ(profile.RunCount(10), 2u);
}

TEST(BlockProfileTest, UnknownRunNotFound) {
  BlockLatencyProfile profile;
  EXPECT_FALSE(profile.MeanLatencyFrom(1).ok());
}

TEST(BlockProfileTest, EdgeCountsAccumulate) {
  BlockLatencyProfile profile;
  profile.AddSnapshots({Snapshot({{1, 10, 5}, {12, 20, 5}, {1, 10, 5}})});
  profile.AddSnapshots({Snapshot({{1, 30, 5}})});
  EXPECT_TRUE(Carries(profile, "edge 1 10 2"));
  EXPECT_TRUE(Carries(profile, "edge 1 30 1"));
}

TEST(BlockProfileTest, MergeCombines) {
  BlockLatencyProfile a, b;
  a.AddSnapshots({Snapshot({{5, 10, 1}, {15, 20, 30}})});
  b.AddSnapshots({Snapshot({{5, 10, 1}, {15, 20, 50}})});
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.MeanLatencyFrom(10).value(), 40.0);
  EXPECT_TRUE(Carries(a, "edge 5 10 2"));
}

TEST(BlockProfileTest, TranslatedRemapsAddresses) {
  BlockLatencyProfile profile;
  profile.AddSnapshots({Snapshot({{5, 10, 1}, {15, 20, 30}})});
  BlockLatencyProfile shifted =
      profile.Translated([](isa::Addr addr) { return addr + 100; });
  EXPECT_TRUE(Carries(shifted, "run 110 115 1 30.0"));
  EXPECT_TRUE(Carries(shifted, "edge 105 110 1"));
  EXPECT_FALSE(shifted.MeanLatencyFrom(10).ok());
}

TEST(BlockProfileTest, SerializeRoundTrip) {
  BlockLatencyProfile profile;
  profile.AddSnapshots({Snapshot({{5, 10, 1}, {15, 20, 30}})});
  auto back = BlockLatencyProfile::Deserialize(profile.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->Serialize(), profile.Serialize());
  EXPECT_TRUE(Carries(*back, "run 10 15 1 30.0"));
  EXPECT_TRUE(Carries(*back, "edge 5 10 1"));
}

// --- Collector (integration with the simulator) ----------------------------------

class CollectorTest : public ::testing::Test {
 protected:
  // Miss-heavy pointer ring + a cheap ALU loop around it.
  void SetUp() override {
    machine_ = std::make_unique<sim::Machine>(sim::MachineConfig::SmallTest());
    const uint64_t kLines = 2048;
    for (uint64_t i = 0; i < kLines; ++i) {
      machine_->memory().Write64(0x100000 + i * 64,
                                 0x100000 + ((i + 771) % kLines) * 64);
    }
    program_ = isa::Assemble(R"(
    loop:
      load r1, [r1+0]     ; ip 0: misses
      movi r3, 4
    spin:
      addi r3, r3, -1     ; cheap ALU filler
      bne r3, r0, spin
      addi r2, r2, -1
      bne r2, r0, loop
      halt
    )").value();
  }

  std::unique_ptr<sim::Machine> machine_;
  isa::Program program_;
};

TEST_F(CollectorTest, EstimatesMatchExactStats) {
  sim::ExactStats exact;
  machine_->listeners().Add(&exact);

  CollectorConfig config;
  config.l2_miss_period = 7;
  config.stall_cycles_period = 101;
  config.retired_period = 13;
  auto result = CollectProfile(program_, *machine_,
                               [](sim::CpuContext& ctx) {
                                 ctx.regs[1] = 0x100000;
                                 ctx.regs[2] = 1000;
                               },
                               config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->run_cycles, 0u);
  EXPECT_EQ(result->run_instructions, exact.total_instructions());

  // The load at ip 0 misses every time (2048-line ring > 256-line L3).
  const SiteProfile& site = result->profile.loads.ForIp(0);
  const auto& truth = exact.ForIp(0);
  ASSERT_GT(truth.loads, 0u);
  EXPECT_NEAR(site.est_executions, static_cast<double>(truth.executions),
              0.25 * truth.executions);
  EXPECT_NEAR(site.est_l2_misses, static_cast<double>(truth.hits_l3 + truth.hits_dram),
              0.25 * truth.loads);
  EXPECT_NEAR(site.est_stall_cycles, static_cast<double>(truth.stall_cycles),
              0.25 * truth.stall_cycles);
  // Miss probability estimate lands near the true ~1.0.
  EXPECT_GT(site.L2MissProbability(), 0.6);

  // The correlation step surfaces ip 0 as the hot stall load.
  auto likely = result->profile.loads.LikelyStallLoads(0.3, 0.01);
  ASSERT_FALSE(likely.empty());
  EXPECT_EQ(likely[0], 0u);

  // Block profile observed the loop's hot back edge.
  EXPECT_GT(result->profile.blocks.observed_runs(), 0u);
}

TEST_F(CollectorTest, DisabledEventsProduceNoEstimates) {
  CollectorConfig config;
  config.l2_miss_period = 0;  // disabled
  config.stall_cycles_period = 101;
  config.retired_period = 13;
  config.enable_lbr = false;
  auto result = CollectProfile(program_, *machine_,
                               [](sim::CpuContext& ctx) {
                                 ctx.regs[1] = 0x100000;
                                 ctx.regs[2] = 100;
                               },
                               config);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->profile.loads.ForIp(0).est_l2_misses, 0.0);
  EXPECT_EQ(result->profile.blocks.observed_runs(), 0u);
}

TEST_F(CollectorTest, ListenersRestoredAfterCollection) {
  CollectorConfig config;
  const size_t before = 0;
  auto result = CollectProfile(program_, *machine_,
                               [](sim::CpuContext& ctx) {
                                 ctx.regs[1] = 0x100000;
                                 ctx.regs[2] = 10;
                               },
                               config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(machine_->listeners().size(), before);
}

TEST_F(CollectorTest, PreAttachedListenerStaysAttachedAndFed) {
  sim::ExactStats exact;
  machine_->listeners().Add(&exact);
  auto setup = [](sim::CpuContext& ctx) {
    ctx.regs[1] = 0x100000;
    ctx.regs[2] = 10;
  };
  auto result = CollectProfile(program_, *machine_, setup, CollectorConfig{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(exact.total_instructions(), result->run_instructions);
  EXPECT_EQ(machine_->listeners().size(), 1u);

  // The restored bus still routes every event ExactStats declares to it.
  const uint64_t loads = exact.total_loads();
  const uint64_t stalls = exact.total_stall_cycles();
  const uint64_t hierarchy_loads = machine_->hierarchy().stats().loads;
  sim::Executor executor(&program_, machine_.get());
  sim::CpuContext ctx;
  ctx.ResetArchState(program_.entry());
  setup(ctx);
  ASSERT_TRUE(executor.RunToCompletion(ctx, 100'000).ok());
  EXPECT_EQ(exact.total_instructions(), result->run_instructions + ctx.instructions);
  EXPECT_EQ(exact.total_loads(),
            loads + machine_->hierarchy().stats().loads - hierarchy_loads);
  EXPECT_EQ(exact.total_stall_cycles(), stalls + ctx.stall_cycles);
}

TEST_F(CollectorTest, RunBudgetEnforced) {
  CollectorConfig config;
  config.max_instructions = 50;
  auto result = CollectProfile(program_, *machine_,
                               [](sim::CpuContext& ctx) {
                                 ctx.regs[1] = 0x100000;
                                 ctx.regs[2] = 1'000'000;
                               },
                               config);
  EXPECT_FALSE(result.ok());
}

TEST_F(CollectorTest, InvalidProgramRejected) {
  isa::Program empty;
  CollectorConfig config;
  EXPECT_FALSE(CollectProfile(empty, *machine_, nullptr, config).ok());
}

}  // namespace
}  // namespace yieldhide::profile
