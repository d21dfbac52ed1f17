// Round-trip tests for the on-disk formats (program images, profiles, yield
// side-tables) and for program linking — the pieces the yhc CLI composes.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/instrument/side_table_io.h"
#include "src/isa/assembler.h"
#include "src/isa/program_io.h"
#include "src/profile/profile_io.h"
#include "src/runtime/annotate.h"
#include "src/runtime/round_robin.h"

namespace yieldhide {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

isa::Program Asm(const std::string& source) {
  auto program = isa::Assemble(source);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// --- Program file I/O ------------------------------------------------------------

TEST(ProgramIoTest, SaveLoadRoundTrip) {
  auto program = Asm(R"(
    .entry main
    main:
      movi r1, 42
    loop:
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  const std::string path = TempPath("prog.yh");
  ASSERT_TRUE(isa::SaveProgram(program, path).ok());
  auto back = isa::LoadProgram(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), program.size());
  for (isa::Addr i = 0; i < program.size(); ++i) {
    EXPECT_EQ(back->at(i), program.at(i));
  }
  EXPECT_EQ(back->entry(), program.entry());
  EXPECT_EQ(back->symbols(), program.symbols());
}

TEST(ProgramIoTest, LoadMissingFileFails) {
  auto result = isa::LoadProgram(TempPath("nonexistent.yh"));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ProgramIoTest, LoadCorruptFileFails) {
  const std::string path = TempPath("corrupt.yh");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a program image at all....", f);
  std::fclose(f);
  EXPECT_FALSE(isa::LoadProgram(path).ok());
}

TEST(ProgramIoTest, SaveInvalidProgramFails) {
  isa::Program empty;
  EXPECT_FALSE(isa::SaveProgram(empty, TempPath("empty.yh")).ok());
}

// --- Program linking --------------------------------------------------------------

TEST(AppendProgramTest, ShiftsTargetsAndImportsSymbols) {
  auto a = Asm("movi r1, 1\nhalt\n");
  a.set_name("a");
  auto b = Asm(R"(
    .entry bmain
    bmain:
      movi r2, 2
    bloop:
      addi r2, r2, -1
      bne r2, r0, bloop
      halt
  )");
  b.set_name("b");
  auto entry = a.AppendProgram(b);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value(), 2u);  // b's entry (0) + offset (2)
  EXPECT_EQ(a.size(), 6u);
  // b's branch target shifted by 2.
  EXPECT_EQ(a.at(4).op, isa::Opcode::kBne);
  EXPECT_EQ(a.at(4).imm, 3);
  // b's symbols imported with prefix.
  EXPECT_EQ(a.LookupSymbol("b.bloop").value(), 3u);
  EXPECT_TRUE(a.Validate().ok());
}

TEST(AppendProgramTest, AppendedCodeExecutesIndependently) {
  auto a = Asm("movi r1, 7\nhalt\n");
  auto b = Asm("movi r1, 9\nhalt\n");
  const isa::Addr b_entry = a.AppendProgram(b).value();

  sim::Machine machine(sim::MachineConfig::SmallTest());
  sim::Executor executor(&a, &machine);
  sim::CpuContext ctx_a, ctx_b;
  ctx_a.ResetArchState(0);
  ctx_b.ResetArchState(b_entry);
  ASSERT_TRUE(executor.RunToCompletion(ctx_a, 100).ok());
  ASSERT_TRUE(executor.RunToCompletion(ctx_b, 100).ok());
  EXPECT_EQ(ctx_a.regs[1], 7u);
  EXPECT_EQ(ctx_b.regs[1], 9u);
}

TEST(AppendProgramTest, RejectsInvalidDonor) {
  auto a = Asm("halt\n");
  isa::Program empty;
  EXPECT_FALSE(a.AppendProgram(empty).ok());
}

// --- Profile file I/O --------------------------------------------------------------

profile::ProfileData MakeProfileData() {
  profile::ProfileData data;
  std::vector<pmu::PebsSample> samples;
  pmu::PebsSample s;
  s.event = pmu::HwEvent::kLoadsL2Miss;
  s.ip = 5;
  samples.push_back(s);
  s.event = pmu::HwEvent::kStallCycles;
  samples.push_back(s);
  s.event = pmu::HwEvent::kRetiredInstructions;
  samples.push_back(s);
  profile::SamplePeriods periods;
  periods.l2_miss = 10;
  periods.stall_cycles = 100;
  periods.retired = 5;
  data.loads.AddSamples(samples, periods);

  pmu::LbrSnapshot snap;
  snap.entries.push_back({3, 0, 10});
  snap.entries.push_back({7, 0, 25});
  data.blocks.AddSnapshots({snap});
  return data;
}

TEST(ProfileIoTest, SerializeRoundTrip) {
  const profile::ProfileData data = MakeProfileData();
  auto back = profile::DeserializeProfileData(profile::SerializeProfileData(data));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_DOUBLE_EQ(back->loads.ForIp(5).est_l2_misses, 10.0);
  EXPECT_DOUBLE_EQ(back->loads.ForIp(5).est_stall_cycles, 100.0);
  EXPECT_DOUBLE_EQ(back->blocks.MeanLatencyFrom(0).value(), 25.0);
}

TEST(ProfileIoTest, FileRoundTrip) {
  const std::string path = TempPath("profile.prof");
  ASSERT_TRUE(profile::SaveProfileData(MakeProfileData(), path).ok());
  auto back = profile::LoadProfileData(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_DOUBLE_EQ(back->loads.ForIp(5).est_executions, 5.0);
}

TEST(ProfileIoTest, MissingSeparatorFails) {
  EXPECT_FALSE(profile::DeserializeProfileData("yh-load-profile v1\n").ok());
}

TEST(ProfileIoTest, MissingFileFails) {
  EXPECT_EQ(profile::LoadProfileData(TempPath("nope.prof")).status().code(),
            StatusCode::kNotFound);
}

// --- Yield side-table I/O -----------------------------------------------------------

TEST(SideTableIoTest, RoundTripsAllKinds) {
  std::map<isa::Addr, instrument::YieldInfo> yields;
  yields[3] = {instrument::YieldKind::kPrimary, 0x2f, 13, 2};
  yields[9] = {instrument::YieldKind::kScavenger, analysis::kAllRegs, 24, 1};
  yields[12] = {instrument::YieldKind::kManual, 0, 8, 1};
  auto back = instrument::DeserializeYieldTable(instrument::SerializeYieldTable(yields));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 3u);
  EXPECT_EQ(back->at(3).kind, instrument::YieldKind::kPrimary);
  EXPECT_EQ(back->at(3).save_mask, 0x2f);
  EXPECT_EQ(back->at(3).switch_cycles, 13u);
  EXPECT_EQ(back->at(3).coalesced_loads, 2u);
  EXPECT_EQ(back->at(9).kind, instrument::YieldKind::kScavenger);
  EXPECT_EQ(back->at(12).kind, instrument::YieldKind::kManual);
}

TEST(SideTableIoTest, FileRoundTrip) {
  std::map<isa::Addr, instrument::YieldInfo> yields;
  yields[1] = {instrument::YieldKind::kPrimary, 7, 11, 1};
  const std::string path = TempPath("table.yields");
  ASSERT_TRUE(instrument::SaveYieldTable(yields, path).ok());
  auto back = instrument::LoadYieldTable(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->at(1).switch_cycles, 11u);
}

TEST(SideTableIoTest, RejectsGarbage) {
  EXPECT_FALSE(instrument::DeserializeYieldTable("nope").ok());
  EXPECT_FALSE(
      instrument::DeserializeYieldTable("yh-yield-table v1\n1 primary 7\n").ok());
  EXPECT_FALSE(
      instrument::DeserializeYieldTable("yh-yield-table v1\n1 weird 7 11 1\n").ok());
  EXPECT_FALSE(
      instrument::DeserializeYieldTable("yh-yield-table v1\n1 primary 99999 11 1\n")
          .ok());
}

// --- RoundRobin entry override -------------------------------------------------------

TEST(EntryOverrideTest, HeterogeneousRing) {
  auto a = Asm("movi r1, 7\nstore [r9+0], r1\nhalt\n");
  auto b = Asm("movi r1, 9\nstore [r9+0], r1\nhalt\n");
  const isa::Addr b_entry = a.AppendProgram(b).value();

  sim::Machine machine(sim::MachineConfig::SmallTest());
  auto binary = runtime::AnnotateManualYields(a, machine.config().cost);
  runtime::RoundRobinScheduler sched(&binary, &machine);
  sched.AddCoroutine([](sim::CpuContext& ctx) { ctx.regs[9] = 0x1000; });
  sched.AddCoroutine([](sim::CpuContext& ctx) { ctx.regs[9] = 0x2000; },
                     /*cyield_enabled=*/false, b_entry);
  ASSERT_TRUE(sched.Run(1000).ok());
  EXPECT_EQ(machine.memory().Read64(0x1000), 7u);
  EXPECT_EQ(machine.memory().Read64(0x2000), 9u);
}

}  // namespace
}  // namespace yieldhide
