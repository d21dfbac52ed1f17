// Property-based tests: randomized programs exercise invariants that
// example-based tests cannot cover —
//   * encode/decode and serialize/deserialize are lossless,
//   * binary rewriting preserves program semantics for arbitrary insertion
//     sets,
//   * the full instrumentation pipeline preserves semantics and verifies,
//   * liveness is sound (clobbering a dead register never changes results),
//   * the scavenger pass actually establishes its interval bound,
//   * weighted multi-tenant admission conserves requests per tenant for
//     arbitrary tenant sets and loads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/instrument/primary_pass.h"
#include "src/instrument/rewriter.h"
#include "src/instrument/scavenger_pass.h"
#include "src/instrument/verifier.h"
#include "src/runtime/annotate.h"
#include "src/runtime/dual_mode.h"
#include "src/runtime/round_robin.h"
#include "src/serve/front_end.h"
#include "src/sim/executor.h"
#include "src/workloads/phased_chase.h"
#include "tests/random_program.h"

namespace yieldhide {
namespace {

using isa::Opcode;

constexpr uint64_t kResultBase = 0x80000;

// Runs a program solo and returns the six published result words.
std::vector<uint64_t> RunResults(const isa::Program& program, uint64_t data_seed) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  Rng rng(data_seed);
  for (uint64_t addr = 0x10000; addr < 0x10000 + 0x4000; addr += 8) {
    machine.memory().Write64(addr, rng.Next() & 0xffff);
  }
  sim::Executor executor(&program, &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(program.entry());
  ctx.regs[10] = 0x10000;
  ctx.regs[15] = kResultBase;
  auto run = executor.RunToCompletion(ctx, 10'000'000);
  EXPECT_TRUE(run.ok()) << run.status();
  std::vector<uint64_t> results;
  for (int i = 0; i < 6; ++i) {
    results.push_back(machine.memory().Read64(0x80000 + i * 8));
  }
  return results;
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST_P(RandomProgramTest, SerializeRoundTripsExactly) {
  const isa::Program program = RandomProgram(GetParam());
  auto back = isa::Program::Deserialize(program.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), program.size());
  for (isa::Addr i = 0; i < program.size(); ++i) {
    EXPECT_EQ(back->at(i), program.at(i));
  }
}

TEST_P(RandomProgramTest, EncodeDecodeRoundTripsEveryInstruction) {
  const isa::Program program = RandomProgram(GetParam());
  for (const isa::Instruction& insn : program.code()) {
    auto decoded = isa::Decode(isa::Encode(insn));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), insn);
  }
}

TEST_P(RandomProgramTest, RewriterPreservesSemanticsUnderRandomInsertions) {
  const uint64_t seed = GetParam();
  const isa::Program program = RandomProgram(seed);
  const auto expected = RunResults(program, seed * 31);

  Rng rng(seed ^ 0x5eed);
  instrument::BinaryRewriter rewriter(program);
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    if (rng.NextBool(0.3)) {
      std::vector<isa::Instruction> seq;
      if (rng.NextBool(0.5)) {
        seq.push_back({Opcode::kNop});
      }
      if (rng.NextBool(0.5)) {
        seq.push_back({Opcode::kYield});
      }
      if (rng.NextBool(0.3)) {
        seq.push_back({Opcode::kCyield});
      }
      if (seq.empty()) {
        seq.push_back({Opcode::kNop});
      }
      rewriter.InsertBefore(addr, std::move(seq));
    }
  }
  auto out = rewriter.Apply();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(RunResults(out->program, seed * 31), expected);
}

TEST_P(RandomProgramTest, PipelinePreservesSemanticsAndVerifies) {
  const uint64_t seed = GetParam();
  const isa::Program program = RandomProgram(seed);
  const auto expected = RunResults(program, seed * 17);

  // Fabricate a profile claiming every load is a hot miss — maximum
  // instrumentation pressure.
  profile::LoadProfile profile;
  std::vector<pmu::PebsSample> samples;
  for (isa::Addr addr = 0; addr < program.size(); ++addr) {
    if (isa::ClassOf(program.at(addr).op) != isa::OpClass::kLoad) {
      continue;
    }
    for (int i = 0; i < 10; ++i) {
      pmu::PebsSample s;
      s.ip = addr;
      s.event = pmu::HwEvent::kLoadsL2Miss;
      samples.push_back(s);
      s.event = pmu::HwEvent::kStallCycles;
      samples.push_back(s);
      s.event = pmu::HwEvent::kRetiredInstructions;
      samples.push_back(s);
    }
  }
  profile::SamplePeriods periods;
  periods.l2_miss = 10;
  periods.stall_cycles = 200;
  periods.retired = 10;
  profile.AddSamples(samples, periods);

  instrument::PrimaryConfig primary_config;
  primary_config.policy = instrument::PrimaryPolicy::kMissThreshold;
  primary_config.miss_probability_threshold = 0.5;
  auto primary = instrument::RunPrimaryPass(program, profile, primary_config);
  ASSERT_TRUE(primary.ok()) << primary.status();

  instrument::ScavengerConfig scavenger_config;
  scavenger_config.target_interval_cycles = 20;
  auto scavenger =
      instrument::RunScavengerPass(primary->instrumented, nullptr, scavenger_config);
  ASSERT_TRUE(scavenger.ok()) << scavenger.status();

  ASSERT_TRUE(
      instrument::VerifyInstrumentation(program, scavenger->instrumented).ok());
  EXPECT_EQ(RunResults(scavenger->instrumented.program, seed * 17), expected);
}

TEST_P(RandomProgramTest, ScavengerBoundHolds) {
  const isa::Program program = RandomProgram(GetParam());
  instrument::InstrumentedProgram input;
  input.program = program;
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 25;
  auto result = instrument::RunScavengerPass(input, nullptr, config);
  ASSERT_TRUE(result.ok());
  // The bound may exceed the target by at most one instruction's cost (a
  // single load priced at L1 latency), since yields go before instructions.
  EXPECT_LE(result->report.worst_interval_after, config.target_interval_cycles + 4u);
  // And the report must agree with an independent re-analysis.
  EXPECT_EQ(result->report.worst_interval_after,
            instrument::WorstCaseInterval(result->instrumented.program,
                                          config.machine_cost,
                                          4 * config.target_interval_cycles));
}

TEST_P(RandomProgramTest, InterleavingPreservesPerCoroutineSemantics) {
  // Run the fully instrumented binary as 4 interleaved coroutines writing to
  // DISJOINT data/result regions; each coroutine's published results must
  // match a solo run. (Coroutines share the caches but not data, so
  // interleaving must be semantically invisible.)
  const uint64_t seed = GetParam();
  const isa::Program program = RandomProgram(seed);

  instrument::InstrumentedProgram input;
  input.program = program;
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 30;
  auto scavenged = instrument::RunScavengerPass(input, nullptr, config);
  ASSERT_TRUE(scavenged.ok());

  const auto solo = RunResults(scavenged->instrumented.program, seed * 7);

  sim::Machine machine(sim::MachineConfig::SmallTest());
  // 4 disjoint data images, all initialized with the same pattern.
  for (int c = 0; c < 4; ++c) {
    Rng rng(seed * 7);
    const uint64_t base = 0x10000 + static_cast<uint64_t>(c) * 0x100000;
    for (uint64_t offset = 0; offset < 0x4000; offset += 8) {
      machine.memory().Write64(base + offset, rng.Next() & 0xffff);
    }
  }
  auto binary = runtime::AnnotateManualYields(scavenged->instrumented.program,
                                              machine.config().cost);
  runtime::RoundRobinScheduler sched(&binary, &machine);
  for (int c = 0; c < 4; ++c) {
    sched.AddCoroutine(
        [c](sim::CpuContext& ctx) {
          ctx.regs[10] = 0x10000 + static_cast<uint64_t>(c) * 0x100000;
          ctx.regs[15] = 0x80000 + static_cast<uint64_t>(c) * 0x100000;
        },
        /*cyield_enabled=*/true);
  }
  auto report = sched.Run(50'000'000);
  ASSERT_TRUE(report.ok()) << report.status();
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(machine.memory().Read64(0x80000 + static_cast<uint64_t>(c) * 0x100000 +
                                        i * 8),
                solo[i])
          << "coroutine " << c << " result " << i;
    }
  }
}

TEST_P(RandomProgramTest, LivenessIsSound) {
  const uint64_t seed = GetParam();
  const isa::Program program = RandomProgram(seed);
  const auto expected = RunResults(program, seed * 13);

  auto cfg = analysis::ControlFlowGraph::Build(program);
  ASSERT_TRUE(cfg.ok());
  const analysis::LivenessAnalysis liveness = analysis::LivenessAnalysis::Run(*cfg);

  // Pick a few program points; for each register reported dead at that point,
  // clobbering it there must not change the published results.
  Rng rng(seed ^ 0xdead);
  for (int trial = 0; trial < 4; ++trial) {
    const isa::Addr point = static_cast<isa::Addr>(rng.NextBelow(program.size()));
    const analysis::RegMask live = liveness.LiveIn(point);
    int clobbered = -1;
    for (int r = 14; r >= 1; --r) {  // skip r0 and r15 (runtime conventions)
      if ((live & (1u << r)) == 0) {
        clobbered = r;
        break;
      }
    }
    if (clobbered < 0) {
      continue;
    }
    instrument::BinaryRewriter rewriter(program);
    rewriter.InsertBefore(point, {{Opcode::kMovi, static_cast<isa::Reg>(clobbered),
                                   0, 0, static_cast<int64_t>(0xdeadbeef)}});
    auto out = rewriter.Apply();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(RunResults(out->program, seed * 13), expected)
        << "clobbering dead r" << clobbered << " at " << point
        << " changed results";
  }
}

// --- multi-tenant weighted admission ----------------------------------------

class TenantLedgerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TenantLedgerPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST_P(TenantLedgerPropertyTest, WeightedAdmissionConservesPerTenant) {
  // For an arbitrary tenant set (random count, classes, shares) under random
  // load and queue capacity, the front end's conservation contract must hold
  // at BOTH granularities: the aggregate ledger conserves, every per-tenant
  // ledger conserves on its own, and the tenant ledgers sum to the aggregate
  // counter for counter — no request may change owner or vanish between the
  // weighted admission rooms and the shared dispatch path.
  const uint64_t seed = GetParam();
  Rng rng(seed ^ 0x7e4a47);

  const size_t tenant_count = 1 + rng.NextBelow(4);
  std::vector<uint64_t> weights;
  uint64_t weight_total = 0;
  for (size_t i = 0; i < tenant_count; ++i) {
    weights.push_back(1 + rng.NextBelow(8));
    weight_total += weights.back();
  }
  std::vector<serve::TenantSpec> tenants;
  for (size_t i = 0; i < tenant_count; ++i) {
    serve::TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    // Tenant 0 is always foreground so the set has a latency class; the rest
    // coin-flip. Shares are normalized under 1.0 (0.9 caps fp drift).
    spec.priority = (i > 0 && rng.NextBool(0.5))
                        ? serve::TenantSpec::Class::kBackground
                        : serve::TenantSpec::Class::kForeground;
    spec.share = 0.9 * static_cast<double>(weights[i]) /
                 static_cast<double>(weight_total);
    tenants.push_back(spec);
  }
  ASSERT_TRUE(serve::ValidateTenantSet(tenants).ok());

  workloads::PhasedChase::Config wc;
  wc.num_nodes = 4096;
  wc.steps_per_task = 120;
  wc.severity = 0.0;
  auto chase = workloads::PhasedChase::Make(wc).value();
  sim::Machine machine(sim::MachineConfig::SmallTest());
  chase.InitMemory(machine.memory());
  auto binary = runtime::AnnotateManualYields(chase.program(),
                                              machine.config().cost);

  serve::FrontEndConfig config;
  config.arrival.rate_per_kcycle = 0.05 + 0.15 * rng.NextBelow(4);
  config.arrival.horizon_cycles = 400'000;
  config.arrival.seed = seed;
  config.queue_capacity = 2 + rng.NextBelow(15);
  config.scavengers_serve = rng.NextBool(0.5);
  config.tenants = tenants;

  runtime::DualModeConfig dm;
  dm.max_scavengers = 3;
  dm.hide_window_cycles = 300;
  runtime::DualModeScheduler sched(&binary, &binary, &machine, dm);
  serve::ShardFrontEnd fe(
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
    ASSERT_TRUE(sched.RunTasks(1).ok());
  }
  ASSERT_TRUE(fe.status().ok()) << fe.status();
  ASSERT_TRUE(sched.Finalize().ok());

  const serve::FrontEndReport report = fe.report();
  EXPECT_TRUE(report.ConservationHolds()) << report.Summary();
  EXPECT_TRUE(report.TenantLedgersConsistent()) << report.Summary();
  EXPECT_EQ(report.counters.in_flight, 0u);
  EXPECT_EQ(report.latency.count(), report.counters.completed);
  ASSERT_EQ(report.tenants.size(), tenant_count);
  for (size_t i = 0; i < tenant_count; ++i) {
    const serve::TenantLedger& ledger = report.tenants[i];
    EXPECT_EQ(ledger.spec.name, tenants[i].name);
    EXPECT_EQ(ledger.counters.offered,
              ledger.counters.admitted + ledger.counters.shed)
        << "tenant " << i;
    EXPECT_EQ(ledger.counters.admitted,
              ledger.counters.completed + ledger.counters.in_flight)
        << "tenant " << i;
    EXPECT_EQ(ledger.latency.count(), ledger.counters.completed)
        << "tenant " << i;
  }
}

}  // namespace
}  // namespace yieldhide
