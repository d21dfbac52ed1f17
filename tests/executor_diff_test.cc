// Differential test of Executor::Run against Executor::Step.
//
// Two SmallTest machines run the same random programs with identical
// listeners attached: a retired-instruction PEBS sampler with jitter and skid,
// a load-miss and a stall sampler, an LBR, and a log of every load, branch,
// prefetch and yield with its cycle. On one machine each run steps the
// context with Step() up to the step Run() stops at; on the other one Run()
// call with a random step budget does the run. The stepped machine also
// counts every retirement, which keeps its bus's shared distance at 0, so it
// hands each retirement to each sampler as the bus did before it kept one;
// the other bus defers. After every run the contexts, the clocks, the
// hierarchy counters, the data, the samples and the logged events must be
// equal. The boundary cases below pin where Run() stops.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/instrument/scavenger_pass.h"
#include "src/isa/assembler.h"
#include "src/pmu/session.h"
#include "src/sim/executor.h"
#include "src/sim/machine.h"
#include "tests/random_program.h"

namespace yieldhide::sim {
namespace {

constexpr uint64_t kMinRetired = 1'000'000;
constexpr int kContexts = 3;
constexpr uint64_t kDataBytes = 0x4000;  // RandomProgram's masked region
constexpr uint64_t kResultBytes = 6 * 8;

uint64_t DataBase(int c) { return 0x10000 + static_cast<uint64_t>(c) * 0x100000; }
uint64_t ResultBase(int c) { return 0x80000 + static_cast<uint64_t>(c) * 0x100000; }

// What Run() returns, built from Step() calls: steps until a step yields,
// halts or fails, or until `max_steps` steps have retired.
RunResult StepUntil(Executor& executor, CpuContext& ctx, StallPolicy policy,
                    uint64_t max_steps) {
  RunResult result;
  result.ip = ctx.pc;
  if (ctx.halted) {
    result.event = StepEvent::kHalted;
    return result;
  }
  while (result.steps < max_steps) {
    result.ip = ctx.pc;
    const StepResult step = executor.Step(ctx, policy);
    result.event = step.event;
    if (step.event == StepEvent::kError) {
      break;
    }
    ++result.steps;
    result.issue_cycles += step.issue_cycles;
    result.wait_cycles += step.wait_cycles;
    if (step.event != StepEvent::kExecuted) {
      result.conditional_yield = step.conditional_yield;
      break;
    }
  }
  return result;
}

// Every load, branch, prefetch and yield, with its cycle.
class EventLog : public EventListener {
 public:
  EventLog()
      : EventListener(MaskOf({Event::kLoad, Event::kBranch, Event::kPrefetch,
                              Event::kYield})) {}

  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override {
    events.push_back({0, static_cast<uint64_t>(ctx_id), ip, vaddr,
                      static_cast<uint64_t>(level) * 2 + (hit_inflight ? 1 : 0),
                      stall_cycles, cycle});
  }
  void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                uint64_t cycle) override {
    events.push_back({1, static_cast<uint64_t>(ctx_id), from, to, taken ? 1u : 0u,
                      0, cycle});
  }
  void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) override {
    events.push_back({2, static_cast<uint64_t>(ctx_id), ip, vaddr, 0, 0, cycle});
  }
  void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) override {
    events.push_back({3, static_cast<uint64_t>(ctx_id), ip, 0, conditional ? 1u : 0u,
                      0, cycle});
  }

  std::vector<std::vector<uint64_t>> events;
};

// Counts every retirement: a subscriber whose countdown stays at 1.
class RetireCount : public EventListener {
 public:
  RetireCount() : EventListener(MaskOf({Event::kRetired})) {}
  void OnRetired(int, isa::Addr, isa::Opcode, uint64_t) override { ++count; }

  uint64_t count = 0;
};

pmu::SessionConfig SessionFor(Rng& rng) {
  pmu::SessionConfig config;
  pmu::PebsConfig retired;
  retired.event = pmu::HwEvent::kRetiredInstructions;
  retired.period = 1 + rng.NextBelow(300);
  retired.period_jitter = 0.5;
  retired.max_skid = 3;
  retired.skid_probability = 0.3;
  retired.seed = rng.Next();
  pmu::PebsConfig misses;
  misses.event = pmu::HwEvent::kLoadsL1Miss;
  misses.period = 1 + rng.NextBelow(20);
  misses.seed = rng.Next();
  pmu::PebsConfig stalls;
  stalls.event = pmu::HwEvent::kStallCycles;
  stalls.period = 1 + rng.NextBelow(500);
  stalls.period_jitter = 0.2;
  stalls.seed = rng.Next();
  config.pebs = {retired, misses, stalls};
  config.lbr.snapshot_period = 1 + rng.NextBelow(50);
  return config;
}

// One machine with its listeners.
struct Side {
  explicit Side(const pmu::SessionConfig& config)
      : machine(MachineConfig::SmallTest()), session(config) {
    session.AttachTo(machine);
    machine.listeners().Add(&log);
  }

  Machine machine;
  pmu::SamplingSession session;
  EventLog log;
};

// A random program over every opcode class, for the semantics RandomProgram
// leaves out: multiplies, shifts, indexed loads, prefetches, YIELDs, CYIELDs
// and calls. Data addresses stay in the kDataBytes region at r10.
std::string ControlProgram(uint64_t seed) {
  Rng rng(seed);
  std::string text = ".entry main\nmain:\n";
  int labels = 0;
  // Each segment draws its registers and immediates up front, in a fixed
  // order, so a seed names one program whatever the compiler.
  auto masked = [&](int src) {
    text += StrFormat("andi r7, r%d, %llu\nadd r7, r7, r10\n", src,
                      static_cast<unsigned long long>(kDataBytes - 8));
  };
  auto body = [&](int depth, auto&& self) -> void {
    const int segments = 1 + static_cast<int>(rng.NextBelow(5));
    for (int s = 0; s < segments; ++s) {
      const uint64_t kind = rng.NextBelow(depth < 2 ? 10 : 9);
      const int a = 1 + static_cast<int>(rng.NextBelow(6));
      const int b = 1 + static_cast<int>(rng.NextBelow(6));
      const int c = 1 + static_cast<int>(rng.NextBelow(6));
      const uint64_t pick = rng.Next();
      switch (kind) {
        case 0: {
          static const char* const kOps[] = {"add", "sub", "mul", "and",
                                             "or",  "xor", "shl", "shr"};
          text += StrFormat("%s r%d, r%d, r%d\n", kOps[pick % 8], a, b, c);
          break;
        }
        case 1: {
          static const char* const kOps[] = {"addi", "andi", "shli", "shri", "muli"};
          text += StrFormat("%s r%d, r%d, %d\n", kOps[pick % 5], a, b,
                            static_cast<int>(pick / 8 % 70));
          text += pick & 1 ? StrFormat("movi r%d, %d\n", c,
                                       static_cast<int>(pick / 1024 % 5000))
                           : StrFormat("mov r%d, r%d\n", c, a);
          break;
        }
        case 2:
          masked(a);
          text += StrFormat("load r%d, [r7+0]\n", b);
          break;
        case 3:
          text += StrFormat("andi r7, r%d, %llu\nloadx r%d, [r10+r7*8]\n", a,
                            static_cast<unsigned long long>(kDataBytes / 8 - 1), b);
          break;
        case 4:
          masked(a);
          text += StrFormat("store [r7+0], r%d\n", b);
          break;
        case 5:
          masked(a);
          text += "prefetch [r7+0]\n";
          break;
        case 6:
          text += pick & 1 ? "yield\n" : "cyield\n";
          break;
        case 7:
          text += "call leaf\n";
          break;
        case 8: {
          static const char* const kOps[] = {"beq", "bne", "blt", "bge"};
          const int skip = labels++;
          text += StrFormat("%s r%d, r%d, l%d\naddi r1, r1, 1\nxor r2, r2, r1\nl%d:\n",
                            kOps[pick % 4], a, b, skip, skip);
          break;
        }
        default: {
          const int counter = depth == 0 ? 8 : 9;
          const int top = labels++;
          text += StrFormat("movi r%d, %d\nl%d:\n", counter,
                            1 + static_cast<int>(pick % 6), top);
          self(depth + 1, self);
          text += StrFormat("addi r%d, r%d, -1\nbne r%d, r0, l%d\n", counter,
                            counter, counter, top);
          break;
        }
      }
    }
  };
  body(0, body);
  for (int r = 1; r <= 6; ++r) {
    text += StrFormat("store [r15+%d], r%d\n", (r - 1) * 8, r);
  }
  text += "halt\nleaf:\naddi r6, r6, 3\nxor r5, r5, r6\nret\n";
  return text;
}

// Seeds alternate between RandomProgram through the scavenger pass and
// ControlProgram.
isa::Program ProgramFor(uint64_t seed) {
  if (seed % 2 == 0) {
    auto program = isa::Assemble(ControlProgram(seed));
    EXPECT_TRUE(program.ok()) << program.status();
    return program.ok() ? std::move(program).value() : isa::Program();
  }
  instrument::InstrumentedProgram input;
  input.program = RandomProgram(seed);
  instrument::ScavengerConfig config;
  config.target_interval_cycles = 30;
  auto scavenged = instrument::RunScavengerPass(input, nullptr, config);
  EXPECT_TRUE(scavenged.ok()) << scavenged.status();
  return scavenged.ok() ? scavenged->instrumented.program : isa::Program();
}

void ExpectSameContext(const CpuContext& want, const CpuContext& got) {
  EXPECT_EQ(want.regs, got.regs);
  EXPECT_EQ(want.pc, got.pc);
  EXPECT_EQ(want.call_stack, got.call_stack);
  EXPECT_EQ(want.halted, got.halted);
  EXPECT_EQ(want.instructions, got.instructions);
  EXPECT_EQ(want.issue_cycles, got.issue_cycles);
  EXPECT_EQ(want.stall_cycles, got.stall_cycles);
  EXPECT_EQ(want.switch_cycles, got.switch_cycles);
  EXPECT_EQ(want.yields_taken, got.yields_taken);
  EXPECT_EQ(want.cyields_skipped, got.cyields_skipped);
  EXPECT_EQ(want.loads, got.loads);
  EXPECT_EQ(want.load_misses, got.load_misses);
}

void ExpectSameListeners(Side& want, Side& got) {
  const std::vector<pmu::PebsSample> want_samples = want.session.DrainAllSamples();
  const std::vector<pmu::PebsSample> got_samples = got.session.DrainAllSamples();
  ASSERT_EQ(want_samples.size(), got_samples.size());
  for (size_t i = 0; i < want_samples.size(); ++i) {
    const pmu::PebsSample& w = want_samples[i];
    const pmu::PebsSample& g = got_samples[i];
    EXPECT_TRUE(w.event == g.event && w.ctx_id == g.ctx_id && w.ip == g.ip &&
                w.vaddr == g.vaddr && w.level == g.level && w.cycle == g.cycle)
        << "sample " << i << ": ip " << w.ip << " vs " << g.ip << ", cycle "
        << w.cycle << " vs " << g.cycle;
  }
  for (size_t i = 0; i < want.session.pebs_count(); ++i) {
    EXPECT_EQ(want.session.pebs(i).samples_taken(), got.session.pebs(i).samples_taken());
    EXPECT_EQ(want.session.pebs(i).samples_dropped(),
              got.session.pebs(i).samples_dropped());
  }
  const std::vector<pmu::LbrSnapshot> want_lbr = want.session.DrainLbrSnapshots();
  const std::vector<pmu::LbrSnapshot> got_lbr = got.session.DrainLbrSnapshots();
  ASSERT_EQ(want_lbr.size(), got_lbr.size());
  for (size_t i = 0; i < want_lbr.size(); ++i) {
    ASSERT_EQ(want_lbr[i].entries.size(), got_lbr[i].entries.size());
    for (size_t j = 0; j < want_lbr[i].entries.size(); ++j) {
      const pmu::LbrEntry& w = want_lbr[i].entries[j];
      const pmu::LbrEntry& g = got_lbr[i].entries[j];
      EXPECT_TRUE(w.from == g.from && w.to == g.to && w.cycles == g.cycles)
          << "snapshot " << i << " entry " << j;
    }
  }
  EXPECT_EQ(want.log.events, got.log.events);
  want.log.events.clear();
  got.log.events.clear();
}

void ExpectSameMachine(const Machine& want, const Machine& got, int c) {
  EXPECT_EQ(want.now(), got.now());
  using Stats = MemoryHierarchy::Stats;
  static_assert(std::has_unique_object_representations_v<Stats>);
  EXPECT_EQ(std::memcmp(&want.hierarchy().stats(), &got.hierarchy().stats(),
                        sizeof(Stats)),
            0);
  for (uint64_t offset = 0; offset < kDataBytes; offset += 8) {
    ASSERT_EQ(want.memory().Read64(DataBase(c) + offset),
              got.memory().Read64(DataBase(c) + offset))
        << "context " << c << " data offset " << offset;
  }
  for (uint64_t offset = 0; offset < kResultBytes; offset += 8) {
    ASSERT_EQ(want.memory().Read64(ResultBase(c) + offset),
              got.memory().Read64(ResultBase(c) + offset));
  }
}

TEST(ExecutorDiffTest, RunMatchesStepOnRandomPrograms) {
  Rng rng(2024);
  const pmu::SessionConfig config = SessionFor(rng);
  Side stepped(config);
  Side ran(config);
  RetireCount every_retirement;
  stepped.machine.listeners().Add(&every_retirement);
  // The retired-instruction sampler, detached and reattached between runs the
  // way Shard swaps sampling sessions.
  EventListener* retired_step = &stepped.session.pebs(0);
  EventListener* retired_run = &ran.session.pebs(0);

  uint64_t retired = 0;
  uint64_t runs = 0;
  for (uint64_t seed = 1; retired < kMinRetired && !HasFailure(); ++seed) {
    const isa::Program program = ProgramFor(seed);
    ASSERT_FALSE(program.empty()) << "seed " << seed;
    // Every fourth program defers its memory waits, as the SMT core does.
    const StallPolicy policy =
        seed % 4 == 3 ? StallPolicy::kDeferred : StallPolicy::kBlocking;
    Executor step_executor(&program, &stepped.machine);
    Executor run_executor(&program, &ran.machine);
    std::vector<CpuContext> step_ctx(kContexts);
    std::vector<CpuContext> run_ctx(kContexts);
    for (int c = 0; c < kContexts; ++c) {
      for (uint64_t offset = 0; offset < kDataBytes; offset += 8) {
        const uint64_t value = rng.Next() & 0xffff;
        stepped.machine.memory().Write64(DataBase(c) + offset, value);
        ran.machine.memory().Write64(DataBase(c) + offset, value);
      }
      for (std::vector<CpuContext>* side : {&step_ctx, &run_ctx}) {
        CpuContext& ctx = (*side)[c];
        ctx.id = c;
        ctx.ResetArchState(program.entry());
        ctx.regs[10] = DataBase(c);
        ctx.regs[15] = ResultBase(c);
        ctx.cyield_enabled = (seed + c) % 2 == 0;
      }
    }

    int live = kContexts;
    while (live > 0 && !HasFailure()) {
      int c = static_cast<int>(rng.NextBelow(kContexts));
      while (step_ctx[c].halted) {
        c = (c + 1) % kContexts;
      }
      const uint64_t budget = rng.NextBelow(8) == 0
                                  ? std::numeric_limits<uint64_t>::max()
                                  : 1 + rng.NextBelow(64);
      const RunResult want = StepUntil(step_executor, step_ctx[c], policy, budget);
      const RunResult got = run_executor.Run(run_ctx[c], policy, budget);
      SCOPED_TRACE(StrFormat("seed %llu run %llu context %d budget %llu",
                             static_cast<unsigned long long>(seed),
                             static_cast<unsigned long long>(runs), c,
                             static_cast<unsigned long long>(budget)));
      ASSERT_EQ(want.event, got.event);
      EXPECT_EQ(want.conditional_yield, got.conditional_yield);
      EXPECT_EQ(want.ip, got.ip);
      EXPECT_EQ(want.steps, got.steps);
      EXPECT_EQ(want.issue_cycles, got.issue_cycles);
      EXPECT_EQ(want.wait_cycles, got.wait_cycles);
      ASSERT_NE(want.event, StepEvent::kError) << step_executor.error();
      ExpectSameContext(step_ctx[c], run_ctx[c]);
      ExpectSameMachine(stepped.machine, ran.machine, c);
      ExpectSameListeners(stepped, ran);
      retired += got.steps;
      if (want.event == StepEvent::kHalted) {
        --live;
      }
      if (++runs % 50 == 0) {
        stepped.machine.listeners().Remove(retired_step);
        ran.machine.listeners().Remove(retired_run);
        stepped.machine.listeners().Add(retired_step);
        ran.machine.listeners().Add(retired_run);
      }
    }
  }
  EXPECT_GE(retired, kMinRetired);
  EXPECT_EQ(every_retirement.count, retired);
}

// --- Where Run() stops ---------------------------------------------------------

class RunBoundaryTest : public ::testing::Test {
 protected:
  RunBoundaryTest() : machine_(MachineConfig::SmallTest()) {}

  Executor Load(const std::string& source) {
    auto program = isa::Assemble(source);
    EXPECT_TRUE(program.ok()) << program.status();
    program_ = std::move(program).value();
    ctx_.ResetArchState(program_.entry());
    return Executor(&program_, &machine_);
  }

  static constexpr uint64_t kUnbounded = std::numeric_limits<uint64_t>::max();
  Machine machine_;
  isa::Program program_;
  CpuContext ctx_;
};

TEST_F(RunBoundaryTest, StopsAtYield) {
  Executor executor = Load("movi r1, 1\nyield\nmovi r2, 2\nhalt\n");
  const RunResult run = executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(run.event, StepEvent::kYielded);
  EXPECT_FALSE(run.conditional_yield);
  EXPECT_EQ(run.ip, 1u);
  EXPECT_EQ(run.steps, 2u);
  EXPECT_EQ(ctx_.pc, 2u);
  EXPECT_EQ(ctx_.regs[2], 0u);
}

TEST_F(RunBoundaryTest, StopsAtCyieldOnlyWhenEnabled) {
  Executor executor = Load("movi r1, 1\ncyield\nmovi r2, 2\nhalt\n");
  ctx_.cyield_enabled = true;
  const RunResult taken = executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(taken.event, StepEvent::kYielded);
  EXPECT_TRUE(taken.conditional_yield);
  EXPECT_EQ(taken.ip, 1u);
  EXPECT_EQ(taken.steps, 2u);

  ctx_.ResetArchState(0);
  ctx_.cyield_enabled = false;
  const RunResult through = executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(through.event, StepEvent::kHalted);
  EXPECT_EQ(through.steps, 4u);
  EXPECT_EQ(ctx_.cyields_skipped, 1u);
  EXPECT_EQ(ctx_.regs[2], 2u);
}

TEST_F(RunBoundaryTest, StopsAtHaltAndStaysHalted) {
  Executor executor = Load("movi r1, 1\nhalt\n");
  const RunResult run = executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(run.event, StepEvent::kHalted);
  EXPECT_EQ(run.ip, 1u);
  EXPECT_EQ(run.steps, 2u);
  EXPECT_TRUE(ctx_.halted);
  const uint64_t now = machine_.now();
  const RunResult again = executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(again.event, StepEvent::kHalted);
  EXPECT_EQ(again.steps, 0u);
  EXPECT_EQ(ctx_.instructions, 2u);
  EXPECT_EQ(machine_.now(), now);
}

TEST_F(RunBoundaryTest, StopsAtMaxSteps) {
  Executor executor = Load("here: addi r1, r1, 1\njmp here\n");
  const RunResult run = executor.Run(ctx_, StallPolicy::kBlocking, 5);
  EXPECT_EQ(run.event, StepEvent::kExecuted);
  EXPECT_EQ(run.steps, 5u);
  EXPECT_EQ(run.ip, 0u);  // the fifth step: addi
  EXPECT_EQ(run.issue_cycles, 5u);
  EXPECT_EQ(ctx_.instructions, 5u);
  EXPECT_EQ(ctx_.regs[1], 3u);
  EXPECT_EQ(ctx_.pc, 1u);
  EXPECT_EQ(machine_.now(), 5u);
  EXPECT_EQ(executor.Run(ctx_, StallPolicy::kBlocking, 0).steps, 0u);
  EXPECT_EQ(ctx_.pc, 1u);
}

TEST_F(RunBoundaryTest, ErrorLeavesContextAtTheFailingInstruction) {
  Executor executor = Load("movi r1, 5\nmovi r2, 6\nret\nhalt\n");
  const RunResult run = executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(run.event, StepEvent::kError);
  EXPECT_EQ(run.ip, 2u);
  EXPECT_EQ(run.steps, 2u);
  EXPECT_EQ(executor.error().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ctx_.pc, 2u);
  EXPECT_EQ(ctx_.instructions, 2u);
  EXPECT_EQ(ctx_.regs[2], 6u);
  EXPECT_FALSE(ctx_.halted);
  EXPECT_EQ(machine_.now(), 2u);

  Executor past_end = Load("nop\n");
  const RunResult off = past_end.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(off.event, StepEvent::kError);
  EXPECT_EQ(off.steps, 1u);
  EXPECT_EQ(past_end.error().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ctx_.pc, 1u);
}

}  // namespace
}  // namespace yieldhide::sim
