// Coverage for the small surfaces the module-focused suites skip: pipeline
// config derivation, report renderings, the event fan-out, machine clock
// helpers, and exact-stats summaries.
#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/runtime/report.h"
#include "src/sim/exact_stats.h"
#include "src/sim/machine.h"

namespace yieldhide {
namespace {

// --- PipelineConfig::Finalize ---------------------------------------------------

TEST(PipelineConfigTest, FinalizeDerivesCostModelsFromMachine) {
  core::PipelineConfig config;
  config.machine.cost.yield_switch_cycles = 48;
  config.scavenger.target_interval_cycles = 123;
  config.Finalize();
  // Both passes share the machine-derived switch decomposition...
  EXPECT_EQ(config.primary.cost_model.SwitchCycles(analysis::kAllRegs), 48u);
  EXPECT_EQ(config.scavenger.cost_model.SwitchCycles(analysis::kAllRegs), 48u);
  // ...and the primary pass's hideable window tracks the scavenger target.
  EXPECT_EQ(config.primary.cost_model.hideable_window_cycles, 123u);
  EXPECT_EQ(config.scavenger.machine_cost.yield_switch_cycles, 48u);
}

// --- Machine ----------------------------------------------------------------------

TEST(MachineTest, ClockHelpers) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  EXPECT_EQ(machine.now(), 0u);
  machine.AdvanceClock(10);
  machine.AdvanceClockTo(5);  // never goes backwards
  EXPECT_EQ(machine.now(), 10u);
  machine.AdvanceClockTo(25);
  EXPECT_EQ(machine.now(), 25u);
}

TEST(MachineTest, ResetKeepsDataMemory) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  machine.memory().Write64(0x100, 7);
  machine.hierarchy().AccessLoad(0x100, 0);
  machine.AdvanceClock(500);
  machine.ResetMicroarchState();
  EXPECT_EQ(machine.now(), 0u);
  EXPECT_EQ(machine.hierarchy().ProbeLevel(0x100), sim::HitLevel::kDram);
  EXPECT_EQ(machine.memory().Read64(0x100), 7u);  // data survives
}

// --- MulticastListener --------------------------------------------------------------

class CountingListener : public sim::EventListener {
 public:
  CountingListener() = default;  // declares nothing, so gets every event
  explicit CountingListener(sim::EventMask events) : EventListener(events) {}

  int retired = 0, loads = 0, stalls = 0, branches = 0, prefetches = 0, yields = 0;
  void OnRetired(int, isa::Addr, isa::Opcode, uint64_t) override { ++retired; }
  void OnLoad(int, isa::Addr, uint64_t, sim::HitLevel, bool, uint32_t,
              uint64_t) override {
    ++loads;
  }
  void OnStall(int, isa::Addr, uint32_t, uint64_t) override { ++stalls; }
  void OnBranch(int, isa::Addr, isa::Addr, bool, uint64_t) override { ++branches; }
  void OnPrefetch(int, isa::Addr, uint64_t, uint64_t) override { ++prefetches; }
  void OnYield(int, isa::Addr, bool, uint64_t) override { ++yields; }
};

TEST(MulticastListenerTest, FansOutEveryEventToEveryListener) {
  sim::MulticastListener fanout;
  CountingListener a, b;
  fanout.Add(&a);
  fanout.Add(&b);
  fanout.OnRetired(0, 1, isa::Opcode::kNop, 0);
  fanout.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
  fanout.OnStall(0, 1, 5, 0);
  fanout.OnBranch(0, 1, 2, true, 0);
  fanout.OnPrefetch(0, 1, 0, 0);
  fanout.OnYield(0, 1, false, 0);
  for (const CountingListener* l : {&a, &b}) {
    EXPECT_EQ(l->retired, 1);
    EXPECT_EQ(l->loads, 1);
    EXPECT_EQ(l->stalls, 1);
    EXPECT_EQ(l->branches, 1);
    EXPECT_EQ(l->prefetches, 1);
    EXPECT_EQ(l->yields, 1);
  }
  EXPECT_EQ(fanout.size(), 2u);
  fanout.Clear();
  EXPECT_EQ(fanout.size(), 0u);
}

// Wants one retirement in `every`, counted down by the bus.
class EveryNthRetirement : public sim::EventListener {
 public:
  explicit EveryNthRetirement(uint64_t every)
      : EventListener(sim::MaskOf({sim::Event::kRetired})), every_(every) {
    countdown_ = every;
  }
  void OnRetired(int, isa::Addr, isa::Opcode, uint64_t) override {
    ++calls;
    countdown_ = every_;
  }
  uint64_t countdown() const { return countdown_; }

  int calls = 0;

 private:
  uint64_t every_;
};

void RaiseEachEvent(sim::MulticastListener& bus) {
  bus.OnRetired(0, 1, isa::Opcode::kNop, 0);
  bus.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
  bus.OnStall(0, 1, 5, 0);
  bus.OnBranch(0, 1, 2, true, 0);
  bus.OnPrefetch(0, 1, 0, 0);
  bus.OnYield(0, 1, false, 0);
}

TEST(MulticastListenerTest, MaskedListenerGetsOnlyItsEvents) {
  sim::MulticastListener bus;
  CountingListener masked(sim::MaskOf({sim::Event::kLoad, sim::Event::kYield}));
  CountingListener everything;
  bus.Add(&masked);
  bus.Add(&everything);
  RaiseEachEvent(bus);
  EXPECT_EQ(masked.loads, 1);
  EXPECT_EQ(masked.yields, 1);
  EXPECT_EQ(masked.retired + masked.stalls + masked.branches + masked.prefetches, 0);
  for (const int count : {everything.retired, everything.loads, everything.stalls,
                          everything.branches, everything.prefetches, everything.yields}) {
    EXPECT_EQ(count, 1);
  }
}

TEST(MulticastListenerTest, CountdownSubscriberIsCalledOnlyAtZero) {
  sim::MulticastListener bus;
  EveryNthRetirement every_fifth(5);
  bus.Add(&every_fifth);
  for (int i = 0; i < 12; ++i) {
    bus.OnRetired(0, 1, isa::Opcode::kNop, 0);
  }
  EXPECT_EQ(every_fifth.calls, 2);
  // The bus applies the retirements it counted past the last sample point
  // before a Remove.
  bus.Remove(&every_fifth);
  EXPECT_EQ(every_fifth.countdown(), 3u);  // two retirements into the third gap
}

// Counts retirements down like EveryNthRetirement and records, at each load,
// the countdown it sees.
class CountdownAtLoad : public sim::EventListener {
 public:
  explicit CountdownAtLoad(uint64_t every)
      : EventListener(sim::MaskOf({sim::Event::kRetired, sim::Event::kLoad})),
        every_(every) {
    countdown_ = every;
  }
  void OnRetired(int, isa::Addr, isa::Opcode, uint64_t) override {
    countdown_ = every_;
  }
  void OnLoad(int, isa::Addr, uint64_t, sim::HitLevel, bool, uint32_t,
              uint64_t) override {
    seen.push_back(countdown_);
  }

  std::vector<uint64_t> seen;

 private:
  uint64_t every_;
};

TEST(MulticastListenerTest, CountdownIsCurrentAtEveryOtherDispatch) {
  sim::MulticastListener bus;
  CountdownAtLoad every_seventh(7);
  EveryNthRetirement every_third(3);
  bus.Add(&every_seventh);
  bus.Add(&every_third);
  std::vector<uint64_t> want;
  uint64_t countdown = 7;
  for (int i = 0; i < 20; ++i) {
    bus.OnRetired(0, 1, isa::Opcode::kNop, 0);
    countdown = countdown > 1 ? countdown - 1 : 7;
    if (i % 4 == 0) {
      bus.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
      want.push_back(countdown);
    }
  }
  EXPECT_EQ(every_seventh.seen, want);
  EXPECT_EQ(every_third.calls, 6);
}

TEST(MulticastListenerTest, CountdownAddedTwiceCountsEachRetirementTwice) {
  sim::MulticastListener bus;
  EveryNthRetirement every_fifth(5);
  EveryNthRetirement every_hundredth(100);
  bus.Add(&every_fifth);
  bus.Add(&every_hundredth);
  bus.Add(&every_fifth);
  for (int i = 0; i < 10; ++i) {
    bus.OnRetired(0, 1, isa::Opcode::kNop, 0);
  }
  EXPECT_EQ(every_fifth.calls, 4);  // 20 counted retirements
  EXPECT_EQ(every_fifth.countdown(), 5u);
  bus.Remove(&every_hundredth);
  EXPECT_EQ(every_hundredth.countdown(), 90u);
}

TEST(MulticastListenerTest, RemovedCountdownStopsMoving) {
  sim::MulticastListener bus;
  EveryNthRetirement every_fifth(5);
  CountingListener other;
  bus.Add(&every_fifth);
  bus.Add(&other);
  bus.OnRetired(0, 1, isa::Opcode::kNop, 0);
  bus.Remove(&every_fifth);
  for (int i = 0; i < 10; ++i) {
    RaiseEachEvent(bus);
  }
  EXPECT_EQ(every_fifth.countdown(), 4u);
  EXPECT_EQ(every_fifth.calls, 0);
  EXPECT_EQ(other.retired, 11);
  EXPECT_EQ(bus.size(), 1u);
}

TEST(MulticastListenerTest, ClearEmptiesEveryList) {
  sim::MulticastListener bus;
  EveryNthRetirement every_other(2);
  CountingListener masked(sim::MaskOf({sim::Event::kBranch}));
  CountingListener everything;
  bus.Add(&every_other);
  bus.Add(&masked);
  bus.Add(&everything);
  bus.Clear();
  RaiseEachEvent(bus);
  RaiseEachEvent(bus);
  EXPECT_EQ(every_other.countdown(), 2u);
  EXPECT_EQ(masked.branches, 0);
  EXPECT_EQ(everything.retired + everything.loads + everything.stalls +
                everything.branches + everything.prefetches + everything.yields,
            0);
  EXPECT_EQ(bus.size(), 0u);
}

TEST(MulticastListenerTest, CopyKeepsRouting) {
  sim::MulticastListener bus;
  EveryNthRetirement every_third(3);
  CountingListener masked(sim::MaskOf({sim::Event::kStall}));
  bus.Add(&every_third);
  bus.Add(&masked);
  const sim::MulticastListener copy = bus;
  sim::MulticastListener assigned;
  assigned = bus;
  bus.Clear();  // the copies keep their own lists
  for (sim::MulticastListener routed : {copy, assigned}) {
    RaiseEachEvent(routed);
    RaiseEachEvent(routed);
    RaiseEachEvent(routed);
  }
  EXPECT_EQ(every_third.calls, 2);
  EXPECT_EQ(masked.stalls, 6);
  EXPECT_EQ(masked.retired + masked.loads + masked.branches + masked.prefetches +
                masked.yields,
            0);
}

// --- ExactStats ------------------------------------------------------------------------

TEST(ExactStatsTest, PerIpRatios) {
  sim::ExactStats stats;
  for (int i = 0; i < 3; ++i) {
    stats.OnLoad(0, 1, 0, sim::HitLevel::kL1, false, 0, 0);
  }
  stats.OnLoad(0, 1, 0, sim::HitLevel::kDram, false, 196, 0);
  const auto& site = stats.ForIp(1);
  EXPECT_DOUBLE_EQ(site.L2MissRatio(), 0.25);
  EXPECT_DOUBLE_EQ(stats.ForIp(99).L2MissRatio(), 0.0);  // unknown IP
}

// --- Report renderings ----------------------------------------------------------------

TEST(ReportTest, RunReportFractionsSumSensibly) {
  runtime::RunReport report;
  report.total_cycles = 1000;
  report.issue_cycles = 400;
  report.stall_cycles = 350;
  report.switch_cycles = 250;
  report.instructions = 200;
  EXPECT_DOUBLE_EQ(report.CpuEfficiency(), 0.4);
  EXPECT_DOUBLE_EQ(report.StallFraction(), 0.35);
  EXPECT_DOUBLE_EQ(report.SwitchFraction(), 0.25);
  EXPECT_DOUBLE_EQ(report.Ipc(), 0.2);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("efficiency=40.0%"), std::string::npos);
  EXPECT_NE(summary.find("IPC=0.200"), std::string::npos);
}

TEST(ReportTest, EmptyReportIsAllZeros) {
  runtime::RunReport report;
  EXPECT_DOUBLE_EQ(report.CpuEfficiency(), 0.0);
  EXPECT_DOUBLE_EQ(report.Ipc(), 0.0);
  EXPECT_TRUE(report.completions.empty());
}

TEST(YieldKindTest, NamesAreStable) {
  EXPECT_STREQ(instrument::YieldKindName(instrument::YieldKind::kPrimary), "primary");
  EXPECT_STREQ(instrument::YieldKindName(instrument::YieldKind::kScavenger),
               "scavenger");
  EXPECT_STREQ(instrument::YieldKindName(instrument::YieldKind::kManual), "manual");
}

}  // namespace
}  // namespace yieldhide
