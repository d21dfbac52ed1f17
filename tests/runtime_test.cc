#include <gtest/gtest.h>

#include "src/instrument/primary_pass.h"
#include "src/isa/assembler.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
#include "src/sim/smt_core.h"

namespace yieldhide::runtime {
namespace {

isa::Program Asm(const std::string& source) {
  auto program = isa::Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// Writes a pointer ring of `lines` cache lines at `base`, stride `step`.
void WriteRing(sim::Machine& machine, uint64_t base, uint64_t lines, uint64_t step) {
  for (uint64_t i = 0; i < lines; ++i) {
    machine.memory().Write64(base + i * 64, base + ((i + step) % lines) * 64);
  }
}

// Instrumented chase kernel: prefetch+yield before the dependent load.
constexpr char kInstrumentedChase[] = R"(
  loop:
    prefetch [r1+0]
    yield
    load r1, [r1+0]
    addi r2, r2, -1
    bne r2, r0, loop
    store [r9+0], r1
    halt
)";

constexpr char kPlainChase[] = R"(
  loop:
    load r1, [r1+0]
    addi r2, r2, -1
    bne r2, r0, loop
    store [r9+0], r1
    halt
)";

// --- AnnotateManualYields -----------------------------------------------------

TEST(AnnotateTest, FindsAllYields) {
  auto program = Asm("yield\ncyield\nnop\nyield\nhalt\n");
  auto annotated = AnnotateManualYields(program, sim::CostModel{});
  EXPECT_EQ(annotated.yields.size(), 3u);
  EXPECT_EQ(annotated.yields.at(0).kind, instrument::YieldKind::kManual);
  EXPECT_EQ(annotated.addr_map.Translate(2), 2u);
}

// --- RoundRobinScheduler --------------------------------------------------------

TEST(RoundRobinTest, SingleCoroutineRunsToCompletion) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto binary = AnnotateManualYields(Asm("movi r1, 7\nhalt\n"), machine.config().cost);
  RoundRobinScheduler sched(&binary, &machine);
  sched.AddCoroutine(nullptr);
  auto report = sched.Run(1000);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->completions.size(), 1u);
  EXPECT_EQ(sched.context(0).regs[1], 7u);
}

TEST(RoundRobinTest, InterleavingHidesChaseMisses) {
  const uint64_t kLines = 4096;  // 256 KiB > SmallTest L3
  auto run = [&](const char* source, int group) {
    sim::Machine machine(sim::MachineConfig::SmallTest());
    WriteRing(machine, 0x100000, kLines, 1021);
    auto binary = AnnotateManualYields(Asm(source), machine.config().cost);
    RoundRobinScheduler sched(&binary, &machine);
    for (int i = 0; i < group; ++i) {
      sched.AddCoroutine([&, i](sim::CpuContext& ctx) {
        ctx.regs[1] = 0x100000 + static_cast<uint64_t>(i * 353 % kLines) * 64;
        ctx.regs[2] = 200;
        ctx.regs[9] = 0x900000 + i * 64;
      });
    }
    auto report = sched.Run(10'000'000);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.value();
  };

  const RunReport baseline = run(kPlainChase, 8);
  const RunReport interleaved = run(kInstrumentedChase, 8);
  // Interleaving 8 chases hides most stalls.
  EXPECT_LT(interleaved.total_cycles, baseline.total_cycles / 2);
  EXPECT_LT(interleaved.StallFraction(), 0.3);
  EXPECT_GT(baseline.StallFraction(), 0.8);
  EXPECT_EQ(interleaved.completions.size(), 8u);
}

TEST(RoundRobinTest, ChargesAnnotatedSwitchCost) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto program = Asm("yield\nyield\nhalt\n");
  instrument::InstrumentedProgram binary = AnnotateManualYields(program, machine.config().cost);
  binary.yields.at(0).switch_cycles = 100;  // expensive first yield
  binary.yields.at(1).switch_cycles = 10;
  RoundRobinScheduler sched(&binary, &machine);
  sched.AddCoroutine(nullptr);
  sched.AddCoroutine(nullptr);
  auto report = sched.Run(1000);
  ASSERT_TRUE(report.ok());
  // 2 coroutines x (100 + 10) switch cycles, plus halt-restore costs.
  EXPECT_GE(report->switch_cycles, 220u);
  EXPECT_EQ(report->yields, 4u);
}

TEST(RoundRobinTest, SoleCoroutineYieldsFallThroughCheaply) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto binary = AnnotateManualYields(Asm("yield\nyield\nyield\nhalt\n"),
                                     machine.config().cost);
  RoundRobinScheduler sched(&binary, &machine);
  sched.AddCoroutine(nullptr);
  auto report = sched.Run(1000);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->yields, 0u);  // no actual transfers happened
  EXPECT_LT(report->switch_cycles, 3u * machine.config().cost.yield_switch_cycles);
}

TEST(RoundRobinTest, NoCoroutinesIsError) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto binary = AnnotateManualYields(Asm("halt\n"), machine.config().cost);
  RoundRobinScheduler sched(&binary, &machine);
  EXPECT_FALSE(sched.Run(100).ok());
}

TEST(RoundRobinTest, InstructionBudgetEnforced) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto binary = AnnotateManualYields(Asm("here: jmp here\n"), machine.config().cost);
  RoundRobinScheduler sched(&binary, &machine);
  sched.AddCoroutine(nullptr);
  EXPECT_EQ(sched.Run(100).status().code(), StatusCode::kResourceExhausted);
}

TEST(RoundRobinTest, CompletionsCarryLatencies) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto binary = AnnotateManualYields(Asm("movi r1, 1\nhalt\n"), machine.config().cost);
  RoundRobinScheduler sched(&binary, &machine);
  sched.AddCoroutine(nullptr);
  sched.AddCoroutine(nullptr);
  auto report = sched.Run(1000);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completions.size(), 2u);
  for (const CompletionRecord& record : report->completions) {
    EXPECT_GT(record.LatencyCycles(), 0u);
  }
  EXPECT_EQ(report->LatencyHistogramOf().count(), 2u);
}

// --- DualModeScheduler ------------------------------------------------------------

class DualModeTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kLines = 4096;

  void SetUp() override {
    machine_ = std::make_unique<sim::Machine>(sim::MachineConfig::SmallTest());
    WriteRing(*machine_, 0x100000, kLines, 1021);
    // Primary binary: instrumented chase (prefetch+yield at the miss).
    primary_ = AnnotateManualYields(Asm(kInstrumentedChase), machine_->config().cost);
    for (auto& [addr, info] : primary_.yields) {
      info.kind = instrument::YieldKind::kPrimary;
    }
    // Scavenger binary: ALU-heavy loop with a scavenger CYIELD per ~60-cycle
    // lap (matching a realistic scavenger-pass target interval).
    std::string scavenger_src = "loop:\n";
    for (int i = 0; i < 60; ++i) {
      scavenger_src += "  addi r3, r3, 1\n";
    }
    scavenger_src += "  cyield\n  addi r2, r2, -1\n  bne r2, r0, loop\n  halt\n";
    scavenger_ = AnnotateManualYields(Asm(scavenger_src), machine_->config().cost);
    for (auto& [addr, info] : scavenger_.yields) {
      info.kind = instrument::YieldKind::kScavenger;
    }
  }

  DualModeScheduler::ContextSetup PrimaryTask(int i) {
    return [this, i](sim::CpuContext& ctx) {
      ctx.regs[1] = 0x100000 + static_cast<uint64_t>(i * 353 % kLines) * 64;
      ctx.regs[2] = 100;
      ctx.regs[9] = 0x900000 + i * 64;
    };
  }

  DualModeScheduler::ScavengerFactory AluScavengers(int max) {
    auto counter = std::make_shared<int>(0);
    return [counter, max]() -> std::optional<DualModeScheduler::ContextSetup> {
      if (*counter >= max) {
        return std::nullopt;
      }
      ++*counter;
      return [](sim::CpuContext& ctx) { ctx.regs[2] = 1'000'000; };
    };
  }

  std::unique_ptr<sim::Machine> machine_;
  instrument::InstrumentedProgram primary_;
  instrument::InstrumentedProgram scavenger_;
};

TEST_F(DualModeTest, PrimaryAloneStillCompletes) {
  DualModeConfig config;
  DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
  for (int i = 0; i < 4; ++i) {
    sched.AddPrimaryTask(PrimaryTask(i));
  }
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->run.completions.size(), 4u);
  EXPECT_EQ(report->scavengers_spawned, 0u);
}

TEST_F(DualModeTest, ScavengersRaiseEfficiencyWithoutHurtingLatencyMuch) {
  // Without scavengers.
  DualModeConfig config;
  DualModeScheduler alone(&primary_, &scavenger_, machine_.get(), config);
  for (int i = 0; i < 8; ++i) {
    alone.AddPrimaryTask(PrimaryTask(i));
  }
  auto alone_report = alone.Run();
  ASSERT_TRUE(alone_report.ok());

  // With scavengers (fresh machine for a fair cold start).
  auto machine2 = std::make_unique<sim::Machine>(sim::MachineConfig::SmallTest());
  WriteRing(*machine2, 0x100000, kLines, 1021);
  DualModeScheduler with(&primary_, &scavenger_, machine2.get(), config);
  for (int i = 0; i < 8; ++i) {
    with.AddPrimaryTask(PrimaryTask(i));
  }
  with.SetScavengerFactory(AluScavengers(100));
  auto with_report = with.Run();
  ASSERT_TRUE(with_report.ok());

  // Efficiency (useful issue cycles / total) rises substantially: scavengers
  // convert primary stall time into work.
  EXPECT_GT(with_report->CpuEfficiency(), alone_report->CpuEfficiency() * 2);
  EXPECT_GT(with_report->scavenger_issue_cycles, 0u);
  // Primary latency inflates only moderately (bounded by the hide window).
  EXPECT_LT(with_report->primary_latency.mean(),
            alone_report->primary_latency.mean() * 2.0);
}

TEST_F(DualModeTest, PointerChasingScavengersChain) {
  // Scavengers are themselves pointer chasers: in scavenger mode they hit
  // their own primary yields "too early" and must chain (the paper's case).
  auto chase_scavenger = AnnotateManualYields(Asm(kInstrumentedChase),
                                              machine_->config().cost);
  for (auto& [addr, info] : chase_scavenger.yields) {
    info.kind = instrument::YieldKind::kPrimary;  // all primary-phase yields
  }
  DualModeConfig config;
  config.max_scavengers = 16;
  DualModeScheduler sched(&primary_, &chase_scavenger, machine_.get(), config);
  for (int i = 0; i < 4; ++i) {
    sched.AddPrimaryTask(PrimaryTask(i));
  }
  auto counter = std::make_shared<int>(0);
  sched.SetScavengerFactory(
      [this, counter]() -> std::optional<DualModeScheduler::ContextSetup> {
        const int i = (*counter)++;
        return [this, i](sim::CpuContext& ctx) {
          ctx.regs[1] = 0x100000 + static_cast<uint64_t>((2000 + i * 41) % kLines) * 64;
          ctx.regs[2] = 1'000'000;
          ctx.regs[9] = 0xa00000 + i * 64;
        };
      });
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->chains, 0u);
  // On-demand scaling kicked in beyond the initial scavenger.
  EXPECT_GT(report->scavengers_spawned, config.initial_scavengers);
}

TEST_F(DualModeTest, ChainsNeverResumeIntoOwnInflightPrefetch) {
  // With chase scavengers and a pool large enough to cover the miss, the
  // burst-visited policy must prevent a scavenger from being resumed while
  // its own prefetch is still in flight — scavenger stall time stays small.
  auto chase_scavenger =
      AnnotateManualYields(Asm(kInstrumentedChase), machine_->config().cost);
  for (auto& [addr, info] : chase_scavenger.yields) {
    info.kind = instrument::YieldKind::kPrimary;
  }
  DualModeConfig config;
  config.max_scavengers = 12;
  DualModeScheduler sched(&primary_, &chase_scavenger, machine_.get(), config);
  for (int i = 0; i < 8; ++i) {
    sched.AddPrimaryTask(PrimaryTask(i));
  }
  auto counter = std::make_shared<int>(0);
  sched.SetScavengerFactory(
      [this, counter]() -> std::optional<DualModeScheduler::ContextSetup> {
        const int i = (*counter)++;
        return [this, i](sim::CpuContext& ctx) {
          ctx.regs[1] = 0x100000 + static_cast<uint64_t>((2000 + i * 41) % kLines) * 64;
          ctx.regs[2] = 1'000'000;
          ctx.regs[9] = 0xa00000 + i * 64;
        };
      });
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  // Stall cycles across the whole run stay a small fraction of total: every
  // resumed coroutine's prefetch has had a full rotation to complete.
  EXPECT_LT(report->run.StallFraction(), 0.15)
      << report->Summary();
  EXPECT_GT(report->CpuEfficiency(), 0.18);
}

TEST_F(DualModeTest, FactoryExhaustionDegradesGracefully) {
  DualModeConfig config;
  DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
  sched.AddPrimaryTask(PrimaryTask(0));
  sched.SetScavengerFactory(AluScavengers(0));  // supplies nothing
  auto report = sched.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->run.completions.size(), 1u);
  EXPECT_EQ(report->scavengers_spawned, 0u);
}

TEST_F(DualModeTest, PrimaryResultsAreCorrect) {
  DualModeConfig config;
  DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
  for (int i = 0; i < 4; ++i) {
    sched.AddPrimaryTask(PrimaryTask(i));
  }
  sched.SetScavengerFactory(AluScavengers(10));
  ASSERT_TRUE(sched.Run().ok());

  // Recompute each chase on the host and compare the stored results.
  for (int i = 0; i < 4; ++i) {
    uint64_t node = 0x100000 + static_cast<uint64_t>(i * 353 % kLines) * 64;
    for (int step = 0; step < 100; ++step) {
      const uint64_t offset = (node - 0x100000) / 64;
      node = 0x100000 + ((offset + 1021) % kLines) * 64;
    }
    EXPECT_EQ(machine_->memory().Read64(0x900000 + i * 64), node) << i;
  }
}

TEST_F(DualModeTest, InstructionBudgetEnforced) {
  DualModeConfig config;
  config.max_total_instructions = 100;
  DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
  sched.AddPrimaryTask(PrimaryTask(0));
  EXPECT_EQ(sched.Run().status().code(), StatusCode::kResourceExhausted);
}

// --- Site quarantine x external ready-queue supplier (§4.2 hook) ------------------

// A primary whose instrumented yield guards a re-read of one line: after the
// first touch every prefetch targets resident data, so the site keeps paying
// switches for nothing and must be quarantined — even though the scavengers
// it yields to come from the external supplier, not the built-in pool.
TEST_F(DualModeTest, QuarantineFiresWithExternalSupplierScavengers) {
  auto primary = AnnotateManualYields(Asm(R"(
    loop:
      prefetch [r1+0]
      yield
      load r2, [r1+0]
      addi r4, r4, -1
      bne r4, r0, loop
      halt
  )"),
                                      machine_->config().cost);
  for (auto& [addr, info] : primary.yields) {
    info.kind = instrument::YieldKind::kPrimary;
  }
  DualModeConfig config;
  config.quarantine_min_visits = 16;
  DualModeScheduler sched(&primary, &scavenger_, machine_.get(), config);
  sched.AddPrimaryTask([](sim::CpuContext& ctx) {
    ctx.regs[1] = 0x100000;
    ctx.regs[4] = 64;
  });
  sched.SetScavengerFactory(AluScavengers(100));
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->scavengers_spawned, 0u);  // the external supply was used
  EXPECT_EQ(report->sites_quarantined, 1u);
  EXPECT_GT(report->quarantined_skips, 0u);
  ASSERT_EQ(report->site_stats.size(), 1u);
  EXPECT_TRUE(report->site_stats.begin()->second.quarantined);
}

// A seeded (carried-over) quarantine decision is honored as-is with an
// external supplier: no re-learning, no re-counting, stats frozen.
TEST_F(DualModeTest, SeededQuarantineStaysQuarantinedWithExternalSupplier) {
  const isa::Addr yield_addr = primary_.yields.begin()->first;
  DualModeConfig config;
  DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
  std::map<isa::Addr, YieldSiteStats> seeded;
  seeded[yield_addr].visits = 50;
  seeded[yield_addr].useful = 50;  // even a site that WAS earning stays out:
  seeded[yield_addr].quarantined = true;  // the decision is carried, not re-derived
  sched.SeedSiteStats(seeded);
  for (int i = 0; i < 2; ++i) {
    sched.AddPrimaryTask(PrimaryTask(i));
  }
  sched.SetScavengerFactory(AluScavengers(100));
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  const YieldSiteStats& stats = report->site_stats.at(yield_addr);
  EXPECT_TRUE(stats.quarantined);
  EXPECT_EQ(stats.visits, 50u);  // the skip path does not accumulate
  EXPECT_GT(report->quarantined_skips, 0u);
  EXPECT_EQ(report->sites_quarantined, 0u);  // carried, not a new event
}

// --- Tail-based quarantine (per-site switch-cost p99) ------------------------

// A site can earn its keep on the useful-fraction rule and still be a tail
// liability: every visit pays an expensive switch. With quarantine_use_tail
// the per-site switch-cost histogram's p99 crossing the threshold quarantines
// it even though its yields cover real misses.
TEST_F(DualModeTest, TailQuarantineFiresOnExpensiveSwitchSite) {
  for (auto& [addr, info] : primary_.yields) {
    info.switch_cycles = 60;  // above the 48-cycle default tail threshold
  }
  DualModeConfig config;
  config.quarantine_use_tail = true;
  config.quarantine_min_visits = 16;
  DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
  for (int i = 0; i < 2; ++i) {
    sched.AddPrimaryTask(PrimaryTask(i));
  }
  sched.SetScavengerFactory(AluScavengers(100));
  auto report = sched.Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->sites_quarantined, 1u);
  EXPECT_GT(report->quarantined_skips, 0u);
  ASSERT_EQ(report->site_stats.size(), 1u);
  const YieldSiteStats& stats = report->site_stats.begin()->second;
  EXPECT_TRUE(stats.quarantined);
  // The fraction rule would NOT have fired: the chase yields cover real
  // misses, so the useful fraction was healthy when the tail rule tripped.
  EXPECT_GT(static_cast<double>(stats.useful),
            0.25 * static_cast<double>(stats.visits));
}

// Both "no" branches: flag off ignores the expensive tail entirely, and flag
// on leaves a cheap-switch site alone (p99 under the threshold).
TEST_F(DualModeTest, TailQuarantineRespectsFlagAndThreshold) {
  // Flag off (the default): same expensive site is never tail-quarantined.
  for (auto& [addr, info] : primary_.yields) {
    info.switch_cycles = 60;
  }
  {
    DualModeConfig config;
    config.quarantine_min_visits = 16;
    ASSERT_FALSE(config.quarantine_use_tail);  // default stays off
    DualModeScheduler sched(&primary_, &scavenger_, machine_.get(), config);
    sched.AddPrimaryTask(PrimaryTask(0));
    sched.SetScavengerFactory(AluScavengers(100));
    auto report = sched.Run();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->sites_quarantined, 0u);
    EXPECT_FALSE(report->site_stats.begin()->second.quarantined);
    EXPECT_GT(report->site_stats.begin()->second.visits,
              config.quarantine_min_visits);
  }
  // Flag on, cheap switches: p99 stays under the threshold, site stays live.
  for (auto& [addr, info] : primary_.yields) {
    info.switch_cycles = 8;
  }
  {
    auto machine = std::make_unique<sim::Machine>(sim::MachineConfig::SmallTest());
    WriteRing(*machine, 0x100000, kLines, 1021);
    DualModeConfig config;
    config.quarantine_use_tail = true;
    config.quarantine_min_visits = 16;
    DualModeScheduler sched(&primary_, &scavenger_, machine.get(), config);
    sched.AddPrimaryTask(PrimaryTask(0));
    sched.SetScavengerFactory(AluScavengers(100));
    auto report = sched.Run();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->sites_quarantined, 0u);
    EXPECT_FALSE(report->site_stats.begin()->second.quarantined);
    EXPECT_GT(report->site_stats.begin()->second.visits,
              config.quarantine_min_visits);
  }
}

// --- Faulting steps reach every runner's caller --------------------------------

// A program whose first context faults, and the status the fault must carry.
struct StepFault {
  const char* source;
  StatusCode code;
  const char* message;
};

const StepFault kStepFaults[] = {
    {"nop\n", StatusCode::kOutOfRange, "pc 1 outside program of size 1"},
    {"ret\n", StatusCode::kFailedPrecondition, "ret with empty call stack at ip 0"},
    {"self: call self\n", StatusCode::kResourceExhausted, "call stack overflow at ip 0"},
};

void ExpectFault(const Status& status, const StepFault& fault) {
  EXPECT_EQ(status.code(), fault.code) << fault.source;
  EXPECT_EQ(status.message(), fault.message) << fault.source;
}

TEST(StepErrorTest, RoundRobinRunReturnsTheFault) {
  for (const StepFault& fault : kStepFaults) {
    sim::Machine machine(sim::MachineConfig::SmallTest());
    auto binary = AnnotateManualYields(Asm(fault.source), machine.config().cost);
    RoundRobinScheduler sched(&binary, &machine);
    sched.AddCoroutine(nullptr);
    sched.AddCoroutine(nullptr);
    auto report = sched.Run(1'000'000);
    ASSERT_FALSE(report.ok()) << fault.source;
    ExpectFault(report.status(), fault);
  }
}

TEST(StepErrorTest, SmtCoreRunReturnsTheFault) {
  for (const StepFault& fault : kStepFaults) {
    sim::Machine machine(sim::MachineConfig::SmallTest());
    const isa::Program program = Asm(fault.source);
    sim::SmtCore core(&program, &machine);
    core.AddContext(nullptr);
    core.AddContext(nullptr);
    auto report = core.Run(1'000'000);
    ASSERT_FALSE(report.ok()) << fault.source;
    ExpectFault(report.status(), fault);
  }
}

TEST_F(DualModeTest, RunTasksReturnsAPrimaryFault) {
  for (const StepFault& fault : kStepFaults) {
    auto primary = AnnotateManualYields(Asm(fault.source), machine_->config().cost);
    DualModeScheduler sched(&primary, &scavenger_, machine_.get(), DualModeConfig{});
    sched.AddPrimaryTask(PrimaryTask(0));
    sched.SetScavengerFactory(AluScavengers(4));
    auto ran = sched.RunTasks(1);
    ASSERT_FALSE(ran.ok()) << fault.source;
    ExpectFault(ran.status(), fault);
  }
}

TEST_F(DualModeTest, RunTasksReturnsAScavengerFault) {
  for (const StepFault& fault : kStepFaults) {
    auto scavenger = AnnotateManualYields(Asm(fault.source), machine_->config().cost);
    DualModeScheduler sched(&primary_, &scavenger, machine_.get(), DualModeConfig{});
    sched.AddPrimaryTask(PrimaryTask(0));
    sched.SetScavengerFactory(AluScavengers(4));
    auto ran = sched.RunTasks(1);
    ASSERT_FALSE(ran.ok()) << fault.source;
    ExpectFault(ran.status(), fault);
  }
}

}  // namespace
}  // namespace yieldhide::runtime
