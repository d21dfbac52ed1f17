// Fault-injection subsystem and the graceful-degradation paths it exercises:
// spec parsing, per-class profile corruption properties, drift
// semantic equivalence, consumer drop counters, the primary pass's
// confidence gate, and the dual-mode runtime's site quarantine.
#include <gtest/gtest.h>

#include <set>

#include "src/faultinject/drift.h"
#include "src/faultinject/fault.h"
#include "src/faultinject/profile_faults.h"
#include "src/instrument/primary_pass.h"
#include "src/instrument/scavenger_pass.h"
#include "src/isa/assembler.h"
#include "src/isa/builder.h"
#include "src/profile/profile.h"
#include "src/profile/profile_io.h"
#include "src/runtime/dual_mode.h"
#include "src/sim/executor.h"
#include "src/sim/machine.h"

namespace yieldhide::faultinject {
namespace {

// --- FaultSpec parsing ------------------------------------------------------------

TEST(FaultSpecTest, ParsesClassAndSeverity) {
  auto spec = ParseFaultSpec("stale:0.3");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->fault, FaultClass::kStaleBinary);
  EXPECT_DOUBLE_EQ(spec->severity, 0.3);
}

TEST(FaultSpecTest, BareNameDefaultsToHalfSeverity) {
  auto spec = ParseFaultSpec("skid");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->fault, FaultClass::kSkidStorm);
  EXPECT_DOUBLE_EQ(spec->severity, 0.5);
}

TEST(FaultSpecTest, ClampsSeverity) {
  EXPECT_DOUBLE_EQ(ParseFaultSpec("drop:7")->severity, 1.0);
  EXPECT_DOUBLE_EQ(ParseFaultSpec("drop:-2")->severity, 0.0);
}

TEST(FaultSpecTest, RejectsUnknownClass) {
  auto spec = ParseFaultSpec("cosmic_rays:0.5");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().ToString().find("unknown fault class"), std::string::npos);
}

TEST(FaultSpecTest, ListParsesInOrderAndRejectsEmpty) {
  auto list = ParseFaultList("stale:0.3,skid:1.0");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].fault, FaultClass::kStaleBinary);
  EXPECT_EQ((*list)[1].fault, FaultClass::kSkidStorm);
  EXPECT_FALSE(ParseFaultList("").ok());
}

TEST(FaultSpecTest, EveryClassHasAParsableName) {
  const FaultClass classes[] = {FaultClass::kIpAlias, FaultClass::kSkidStorm,
                                FaultClass::kBufferDrop, FaultClass::kPeriodAlias,
                                FaultClass::kStaleBinary};
  for (FaultClass fault : classes) {
    auto spec = ParseFaultSpec(FaultClassName(fault));
    ASSERT_TRUE(spec.ok()) << FaultClassName(fault);
    EXPECT_EQ(spec->fault, fault);
  }
}

// --- Profile corruption -----------------------------------------------------------

constexpr isa::Addr kCodeSize = 64;

FaultSpec Spec(FaultClass fault, double severity) {
  FaultSpec spec;
  spec.fault = fault;
  spec.severity = severity;
  spec.seed = 42;
  return spec;
}

profile::ProfileData MakeCleanProfile() {
  profile::ProfileData data;
  for (isa::Addr ip = 4; ip < 20; ip += 4) {
    profile::SiteProfile site;
    site.est_executions = 1000;
    site.est_l2_misses = 100.0 * ip;
    site.est_stall_cycles = 300.0 * ip;
    data.loads.AccumulateSite(ip, site);
  }
  std::vector<pmu::LbrSnapshot> snapshots(1);
  snapshots[0].entries = {{4, 8, 40}, {8, 12, 60}, {12, 4, 80}};
  data.blocks.AddSnapshots(snapshots);
  return data;
}

TEST(CorruptProfileTest, DeterministicInSeed) {
  const auto data = MakeCleanProfile();
  const auto spec = Spec(FaultClass::kIpAlias, 0.8);
  EXPECT_EQ(profile::SerializeProfileData(CorruptProfile(data, spec, kCodeSize)),
            profile::SerializeProfileData(CorruptProfile(data, spec, kCodeSize)));
}

TEST(CorruptProfileTest, AliasPreservesTotalEvidenceMass) {
  const auto data = MakeCleanProfile();
  const auto out = CorruptProfile(data, Spec(FaultClass::kIpAlias, 1.0), kCodeSize);
  double in_execs = 0, out_execs = 0;
  for (const auto& [ip, site] : data.loads.sites()) in_execs += site.est_executions;
  for (const auto& [ip, site] : out.loads.sites()) out_execs += site.est_executions;
  EXPECT_DOUBLE_EQ(in_execs, out_execs);
  // At full severity the sites must actually have moved.
  size_t moved = 0;
  for (const auto& [ip, site] : data.loads.sites()) {
    moved += out.loads.HasIp(ip) ? 0 : 1;
  }
  EXPECT_GT(moved, 0u);
}

TEST(CorruptProfileTest, SkidManufacturesImpossibleSites) {
  // Skid moves miss evidence (but not executions) onto successor addresses:
  // the classic "miss charged to the instruction after the load" artifact.
  // Downstream, SiteConfidence must flag sites with more misses than
  // executions.
  const auto data = MakeCleanProfile();
  const auto out = CorruptProfile(data, Spec(FaultClass::kSkidStorm, 1.0), kCodeSize);
  bool impossible = false;
  for (const auto& [ip, site] : out.loads.sites()) {
    if (site.est_l2_misses > site.est_executions &&
        instrument::SiteConfidence(site) < 1.0) {
      impossible = true;
    }
  }
  EXPECT_TRUE(impossible);
}

TEST(CorruptProfileTest, DropRemovesSites) {
  const auto data = MakeCleanProfile();
  const auto out = CorruptProfile(data, Spec(FaultClass::kBufferDrop, 1.0), kCodeSize);
  EXPECT_LT(out.loads.sites().size(), data.loads.sites().size());
}

TEST(CorruptProfileTest, AliasCanPushSitesOutOfRange) {
  // Aliased addresses land up to 25% past the end of the code...
  profile::ProfileData data;
  for (isa::Addr ip = 0; ip < kCodeSize; ++ip) {
    profile::SiteProfile site;
    site.est_executions = 1000;
    site.est_l2_misses = 100;
    data.loads.AccumulateSite(ip, site);
  }
  const auto out =
      CorruptProfile(data, Spec(FaultClass::kIpAlias, 1.0), kCodeSize);
  size_t out_of_range = 0;
  for (const auto& [ip, site] : out.loads.sites()) {
    EXPECT_LT(ip, kCodeSize + kCodeSize / 4);
    out_of_range += ip >= kCodeSize ? 1 : 0;
  }
  EXPECT_GT(out_of_range, 0u);
  // ...which SanitizeProfileData then drops, with counters.
  profile::ProfileData mutated = out;
  const auto report = profile::SanitizeProfileData(mutated, kCodeSize);
  EXPECT_EQ(report.sites_dropped, out_of_range);
  EXPECT_TRUE(report.AnythingDropped());
  for (const auto& [ip, site] : mutated.loads.sites()) {
    EXPECT_LT(ip, kCodeSize);
  }
}

// --- Consumer hardening: AddSamples drop counters ---------------------------------

TEST(SampleDropTest, OutOfRangeAndUnknownEventSamplesAreCountedNotAggregated) {
  std::vector<pmu::PebsSample> samples;
  pmu::PebsSample good;
  good.event = pmu::HwEvent::kLoadsL2Miss;
  good.ip = 3;
  samples.push_back(good);
  pmu::PebsSample aliased = good;
  aliased.ip = 1000;  // beyond code_size
  samples.push_back(aliased);
  pmu::PebsSample corrupt = good;
  corrupt.event = static_cast<pmu::HwEvent>(200);  // garbage encoding
  samples.push_back(corrupt);

  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  profile::LoadProfile profile;
  profile::SampleDropStats stats;
  profile.AddSamples(samples, periods, /*code_size=*/64, &stats);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.dropped_out_of_range, 1u);
  EXPECT_EQ(stats.dropped_unknown_event, 1u);
  EXPECT_EQ(stats.TotalDropped(), 2u);
  EXPECT_EQ(profile.sites().size(), 1u);
  EXPECT_TRUE(profile.HasIp(3));
}

TEST(SampleDropTest, InvalidAddrCodeSizeAcceptsAnyIp) {
  std::vector<pmu::PebsSample> samples(1);
  samples[0].event = pmu::HwEvent::kLoadsL2Miss;
  samples[0].ip = 123456;
  profile::SamplePeriods periods;
  periods.l2_miss = 1;
  profile::LoadProfile profile;
  profile::SampleDropStats stats;
  profile.AddSamples(samples, periods, isa::kInvalidAddr, &stats);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.TotalDropped(), 0u);
}

// --- Drift ------------------------------------------------------------------------

isa::Program SumLoopProgram() {
  auto program = isa::Assemble(R"(
      movi r1, 0
      movi r2, 10
    loop:
      add r1, r1, r2
      addi r2, r2, -1
      bne r2, r0, loop
      halt
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

uint64_t RunAndReturnR1(const isa::Program& program) {
  sim::Machine machine(sim::MachineConfig::SmallTest());
  sim::Executor executor(&program, &machine);
  sim::CpuContext ctx;
  ctx.ResetArchState(program.entry());
  EXPECT_TRUE(executor.RunToCompletion(ctx, 1000000).ok());
  return ctx.regs[1];
}

TEST(DriftTest, DriftedProgramComputesSameResult) {
  const isa::Program original = SumLoopProgram();
  const uint64_t expected = RunAndReturnR1(original);
  EXPECT_EQ(expected, 55u);
  for (double severity : {0.25, 0.5, 1.0}) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      DriftConfig config;
      config.severity = severity;
      config.seed = seed;
      auto drifted = DriftProgram(original, config);
      ASSERT_TRUE(drifted.ok()) << drifted.status();
      EXPECT_TRUE(drifted->program.Validate().ok());
      EXPECT_GT(drifted->program.size(), original.size());
      EXPECT_EQ(RunAndReturnR1(drifted->program), expected)
          << "severity=" << severity << " seed=" << seed;
    }
  }
}

TEST(DriftTest, DeterministicInSeedAndReportsEdits) {
  const isa::Program original = SumLoopProgram();
  DriftConfig config;
  config.severity = 0.8;
  config.seed = 7;
  auto a = DriftProgram(original, config);
  auto b = DriftProgram(original, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->program.Serialize(), b->program.Serialize());
  EXPECT_GT(a->report.insertions + a->report.blocks_moved, 0u);
  EXPECT_EQ(a->report.old_size, original.size());
  EXPECT_EQ(a->report.new_size, a->program.size());
}

// --- Primary-pass confidence gate -------------------------------------------------

TEST(ConfidenceGateTest, SiteConfidenceOrdersEvidenceQuality) {
  profile::SiteProfile trustworthy;
  trustworthy.est_executions = 100;
  trustworthy.est_l2_misses = 90;
  trustworthy.est_stall_cycles = 20000;
  profile::SiteProfile impossible = trustworthy;
  impossible.est_l2_misses = 1000;  // 10x more misses than executions
  profile::SiteProfile stall_free = trustworthy;
  stall_free.est_stall_cycles = 0;

  EXPECT_DOUBLE_EQ(instrument::SiteConfidence(trustworthy), 1.0);
  EXPECT_LT(instrument::SiteConfidence(impossible),
            instrument::SiteConfidence(trustworthy));
  EXPECT_LT(instrument::SiteConfidence(stall_free),
            instrument::SiteConfidence(trustworthy));
  profile::SiteProfile empty;
  EXPECT_DOUBLE_EQ(instrument::SiteConfidence(empty), 0.0);
}

TEST(ConfidenceGateTest, QuarantinesSkiddedSiteAndReportsIt) {
  auto program = isa::Assemble(R"(
      movi r5, 0
    loop:
      load r2, [r1+0]
      add r5, r5, r2
      addi r4, r4, -1
      bne r4, r0, loop
      halt
  )");
  ASSERT_TRUE(program.ok());

  // Miss and stall evidence wildly exceeding execution counts: the signature
  // of skid/alias concentration, not of a real hot load.
  profile::LoadProfile profile;
  profile::SiteProfile site;
  site.est_executions = 10;
  site.est_l2_misses = 1000;
  site.est_stall_cycles = 100;
  profile.AccumulateSite(1, site);

  instrument::PrimaryConfig config;
  config.policy = instrument::PrimaryPolicy::kMissThreshold;
  config.miss_probability_threshold = 0.5;
  auto result = instrument::RunPrimaryPass(*program, profile, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->report.instrumented_loads.empty());
  EXPECT_EQ(result->report.quarantined_loads, std::vector<isa::Addr>{1});
}

// --- Dual-mode site quarantine ----------------------------------------------------

// A primary whose instrumented yield guards a prefetch of [r1+0]; whether the
// yield is useful depends on whether r1 advances to cold lines.
instrument::InstrumentedProgram MakeYieldingPrimary(bool advance_pointer) {
  isa::ProgramBuilder builder("primary");
  auto loop = builder.Here("loop");
  builder.Prefetch(1, 0);
  builder.Yield();
  builder.Load(2, 1, 0);
  if (advance_pointer) {
    builder.Addi(1, 1, 4096);  // next iteration touches a cold line
  }
  builder.Addi(4, 4, -1);
  builder.Bne(4, 0, loop);
  builder.Halt();

  instrument::InstrumentedProgram binary;
  binary.program = std::move(builder).Build().value();
  instrument::YieldInfo info;
  info.kind = instrument::YieldKind::kPrimary;
  info.save_mask = analysis::kAllRegs;
  info.switch_cycles = 30;
  binary.yields[1] = info;  // the Yield() at address 1
  return binary;
}

instrument::InstrumentedProgram MakeBatchScavenger(const sim::MachineConfig& machine) {
  isa::ProgramBuilder builder("batch");
  auto loop = builder.Here("loop");
  for (int i = 0; i < 20; ++i) {
    builder.Addi(3, 3, 1);
  }
  builder.Addi(2, 2, -1);
  builder.Bne(2, 0, loop);
  builder.Halt();
  instrument::InstrumentedProgram input;
  input.program = std::move(builder).Build().value();
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 300;
  config.machine_cost = machine.cost;
  config.cost_model = instrument::YieldCostModel::FromMachine(machine.cost);
  return instrument::RunScavengerPass(input, nullptr, config).value().instrumented;
}

runtime::DualModeReport RunQuarantineScenario(bool advance_pointer,
                                              bool quarantine_on) {
  const sim::MachineConfig machine_config = sim::MachineConfig::SkylakeLike();
  sim::Machine machine(machine_config);
  const auto primary = MakeYieldingPrimary(advance_pointer);
  const auto batch = MakeBatchScavenger(machine_config);
  runtime::DualModeConfig dm;
  dm.site_quarantine = quarantine_on;
  runtime::DualModeScheduler sched(&primary, &batch, &machine, dm);
  for (int task = 0; task < 2; ++task) {
    // Each task strides a disjoint region, so in the advance_pointer case no
    // task re-walks lines a previous task already pulled into the cache.
    sched.AddPrimaryTask([task](sim::CpuContext& ctx) {
      ctx.regs[1] = (1u << 20) + static_cast<uint64_t>(task) * (1u << 24);
      ctx.regs[4] = 64;
    });
  }
  sched.SetScavengerFactory(
      []() -> std::optional<runtime::DualModeScheduler::ContextSetup> {
        return [](sim::CpuContext& ctx) { ctx.regs[2] = 1'000'000; };
      });
  auto report = sched.Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? *report : runtime::DualModeReport{};
}

TEST(SiteQuarantineTest, QuarantinesAlwaysHitSite) {
  // The load re-reads one line forever: after the first touch every prefetch
  // targets L1-resident data, so the yield hides nothing.
  const auto report = RunQuarantineScenario(/*advance_pointer=*/false,
                                            /*quarantine_on=*/true);
  EXPECT_EQ(report.sites_quarantined, 1u);
  EXPECT_GT(report.quarantined_skips, 0u);
  ASSERT_EQ(report.site_stats.size(), 1u);
  const auto& stats = report.site_stats.begin()->second;
  EXPECT_TRUE(stats.quarantined);
  EXPECT_LT(stats.useful, stats.visits / 4 + 1);
}

TEST(SiteQuarantineTest, KeepsSiteThatHidesRealMisses) {
  // The pointer strides to a cold line each iteration: every prefetch covers
  // a real miss and the yield earns its switch cost.
  const auto report = RunQuarantineScenario(/*advance_pointer=*/true,
                                            /*quarantine_on=*/true);
  EXPECT_EQ(report.sites_quarantined, 0u);
  EXPECT_EQ(report.quarantined_skips, 0u);
  ASSERT_EQ(report.site_stats.size(), 1u);
  const auto& stats = report.site_stats.begin()->second;
  EXPECT_FALSE(stats.quarantined);
  EXPECT_GT(stats.useful, stats.visits * 3 / 4);
}

TEST(SiteQuarantineTest, DisabledConfigNeverQuarantines) {
  const auto report = RunQuarantineScenario(/*advance_pointer=*/false,
                                            /*quarantine_on=*/false);
  EXPECT_EQ(report.sites_quarantined, 0u);
  EXPECT_EQ(report.quarantined_skips, 0u);
}

}  // namespace
}  // namespace yieldhide::faultinject
