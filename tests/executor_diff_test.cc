// Differential test of Executor::Run against RefExecutor, a plain
// interpreter of the ISA written apart from the executor.
//
// Two SmallTest machines run the same random programs with identical
// listeners attached: a retired-instruction PEBS sampler with jitter and skid,
// a load-miss and a stall sampler, an LBR, and a log of every load, stall,
// branch, prefetch and yield with its cycle; on every third program a second
// log records every event, retirements included, in order. On one machine
// RefExecutor takes one instruction at a time; on the other one Run() call
// with a random step budget does the run, and half the runs, drawn at
// random, pass a StepObserver, which must be told of exactly the steps the
// reference retired. The reference machine also counts every retirement,
// which keeps its bus's shared distance at 0, so it hands each retirement to
// each sampler in place; the other bus defers. Some programs recurse exactly
// to the call-depth limit, and some end in one of the three errors. After
// every run the contexts, the clocks, the hierarchy counters, the data, the
// samples, the logged events and the observed steps must be equal. The
// boundary cases below pin where Run() stops, and where an unobserved run
// retires a straight-line ALU run in one step and where it must not: across
// a sample point or past the end of its budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
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

// A retired step as a StepObserver sees it: (ip, issue, wait).
using StepCost = std::array<uint32_t, 3>;

// Records every step a Run() reports.
class StepLog : public StepObserver {
 public:
  void OnStep(isa::Addr ip, uint32_t issue_cycles, uint32_t wait_cycles) override {
    steps.push_back({ip, issue_cycles, wait_cycles});
  }

  std::vector<StepCost> steps;
};

// The value an ALU opcode writes, from rs1's value and its second operand
// (rs2's value or the immediate).
uint64_t AluValue(isa::Opcode op, uint64_t a, uint64_t b) {
  using isa::Opcode;
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kAddi:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kMul:
    case Opcode::kMuli:
      return a * b;
    case Opcode::kAnd:
    case Opcode::kAndi:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kShl:
    case Opcode::kShli:
      return a << (b % 64);
    case Opcode::kShr:
    case Opcode::kShri:
      return a >> (b % 64);
    case Opcode::kMov:
      return a;
    case Opcode::kMovi:
      return b;
    default:
      ADD_FAILURE() << "not an ALU opcode: " << isa::NameOf(op);
      return 0;
  }
}

// Whether a conditional branch is taken.
bool Taken(isa::Opcode op, uint64_t a, uint64_t b) {
  const auto sa = static_cast<int64_t>(a);
  const auto sb = static_cast<int64_t>(b);
  switch (op) {
    case isa::Opcode::kBeq:
      return a == b;
    case isa::Opcode::kBne:
      return a != b;
    case isa::Opcode::kBlt:
      return sa < sb;
    default:
      return sa >= sb;
  }
}

// A plain interpreter of the ISA: one instruction per Step(), its effects on
// the context, the memory, the hierarchy and the clock applied before the
// next, and its events published in the executor's order (load, stall,
// prefetch, branch, yield, then retired).
class RefExecutor {
 public:
  RefExecutor(const isa::Program& program, Machine& machine)
      : program_(program), machine_(machine) {}

  // What Executor::Run returns, one Step() at a time. Appends each retired
  // step to `retired`.
  RunResult Run(CpuContext& ctx, StallPolicy policy, uint64_t max_steps,
                std::vector<StepCost>& retired) {
    RunResult run;
    run.ip = ctx.pc;
    if (ctx.halted) {
      run.event = StepEvent::kHalted;
      return run;
    }
    while (run.steps < max_steps) {
      run.ip = ctx.pc;
      uint32_t issue = 0;
      uint32_t wait = 0;
      run.event = Step(ctx, policy, issue, wait);
      if (run.event == StepEvent::kError) {
        break;
      }
      ++run.steps;
      run.issue_cycles += issue;
      run.wait_cycles += wait;
      retired.push_back({run.ip, issue, wait});
      if (run.event != StepEvent::kExecuted) {
        run.conditional_yield = run.event == StepEvent::kYielded &&
                                program_.at(run.ip).op == isa::Opcode::kCyield;
        break;
      }
    }
    return run;
  }

  const Status& error() const { return error_; }

 private:
  static constexpr size_t kCallDepthLimit = 4096;

  StepEvent Fail(Status status) {
    error_ = std::move(status);
    return StepEvent::kError;
  }

  StepEvent Step(CpuContext& ctx, StallPolicy policy, uint32_t& issue,
                 uint32_t& wait) {
    const isa::Addr ip = ctx.pc;
    if (ip >= program_.size()) {
      return Fail(OutOfRangeError("pc past the end of the program"));
    }
    const isa::Instruction& in = program_.at(ip);
    const CostModel& cost = machine_.config().cost;
    MulticastListener& bus = machine_.listeners();
    const uint64_t now = machine_.now();
    uint64_t* r = ctx.regs.data();
    const auto imm = static_cast<uint64_t>(in.imm);
    const auto target = static_cast<isa::Addr>(in.imm);
    isa::Addr next = ip + 1;
    StepEvent event = StepEvent::kExecuted;
    issue = cost.alu_cycles;
    wait = 0;
    switch (isa::ClassOf(in.op)) {
      case isa::OpClass::kNop:
        break;
      case isa::OpClass::kAlu:
        r[in.rd] = AluValue(in.op, r[in.rs1],
                            isa::GetOpcodeInfo(in.op).has_imm ? imm : r[in.rs2]);
        if (in.op == isa::Opcode::kMul || in.op == isa::Opcode::kMuli) {
          issue = cost.mul_cycles;
        }
        break;
      case isa::OpClass::kLoad: {
        const uint64_t vaddr = in.op == isa::Opcode::kLoadx
                                   ? r[in.rs1] + r[in.rs2] * imm
                                   : r[in.rs1] + imm;
        const AccessResult access = machine_.hierarchy().AccessLoad(vaddr, now);
        issue = std::min(access.latency_cycles,
                         machine_.config().hierarchy.l1.latency_cycles);
        wait = access.latency_cycles - issue;
        r[in.rd] = machine_.memory().Read64(vaddr);
        bus.OnLoad(ctx.id, ip, vaddr, access.level, access.hit_inflight, wait, now);
        if (wait != 0) {
          bus.OnStall(ctx.id, ip, wait, now);
        }
        break;
      }
      case isa::OpClass::kStore:
        machine_.hierarchy().AccessStore(r[in.rs1] + imm, now);
        machine_.memory().Write64(r[in.rs1] + imm, r[in.rs2]);
        issue = cost.store_cycles;
        break;
      case isa::OpClass::kPrefetch:
        machine_.hierarchy().Prefetch(r[in.rs1] + imm, now);
        issue = cost.prefetch_cycles;
        bus.OnPrefetch(ctx.id, ip, r[in.rs1] + imm, now);
        break;
      case isa::OpClass::kBranch: {
        const bool taken = Taken(in.op, r[in.rs1], r[in.rs2]);
        next = taken ? target : next;
        issue = cost.branch_cycles;
        bus.OnBranch(ctx.id, ip, next, taken, now);
        break;
      }
      case isa::OpClass::kJump:
        next = target;
        issue = cost.branch_cycles;
        bus.OnBranch(ctx.id, ip, next, true, now);
        break;
      case isa::OpClass::kCall:
        if (ctx.call_stack.size() >= kCallDepthLimit) {
          return Fail(ResourceExhaustedError("call depth limit"));
        }
        ctx.call_stack.push_back(ip + 1);
        next = target;
        issue = cost.call_ret_cycles;
        bus.OnBranch(ctx.id, ip, next, true, now);
        break;
      case isa::OpClass::kRet:
        if (ctx.call_stack.empty()) {
          return Fail(FailedPreconditionError("ret with no caller"));
        }
        next = ctx.call_stack.back();
        ctx.call_stack.pop_back();
        issue = cost.call_ret_cycles;
        bus.OnBranch(ctx.id, ip, next, true, now);
        break;
      case isa::OpClass::kYield: {
        const bool conditional = in.op == isa::Opcode::kCyield;
        if (conditional && !ctx.cyield_enabled) {
          issue = cost.cyield_untaken_cycles;
          break;
        }
        event = StepEvent::kYielded;
        issue = 0;
        bus.OnYield(ctx.id, ip, conditional, now);
        break;
      }
      case isa::OpClass::kHalt:
        ctx.halted = true;
        event = StepEvent::kHalted;
        issue = cost.halt_cycles;
        break;
    }
    bus.OnRetired(ctx.id, ip, in.op, now);
    const uint32_t exposed = policy == StallPolicy::kBlocking ? wait : 0;
    ctx.pc = next;
    ++ctx.instructions;
    ctx.issue_cycles += issue;
    ctx.stall_cycles += exposed;
    machine_.AdvanceClock(issue + exposed);
    return event;
  }

  const isa::Program& program_;
  Machine& machine_;
  Status error_;
};

// Every event of the kinds in `mask`, in the order the bus delivers them,
// with its cycle.
class EventLog : public EventListener {
 public:
  explicit EventLog(EventMask mask) : EventListener(mask) {}

  void OnRetired(int ctx_id, isa::Addr ip, isa::Opcode op, uint64_t cycle) override {
    Log(Event::kRetired, ctx_id, ip, static_cast<uint64_t>(op), 0, cycle);
  }
  void OnLoad(int ctx_id, isa::Addr ip, uint64_t vaddr, HitLevel level,
              bool hit_inflight, uint32_t stall_cycles, uint64_t cycle) override {
    Log(Event::kLoad, ctx_id, ip, vaddr,
        static_cast<uint64_t>(level) * 2 + (hit_inflight ? 1 : 0) +
            (static_cast<uint64_t>(stall_cycles) << 8),
        cycle);
  }
  void OnStall(int ctx_id, isa::Addr ip, uint32_t cycles, uint64_t cycle) override {
    Log(Event::kStall, ctx_id, ip, cycles, 0, cycle);
  }
  void OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                uint64_t cycle) override {
    Log(Event::kBranch, ctx_id, from, to, taken ? 1 : 0, cycle);
  }
  void OnPrefetch(int ctx_id, isa::Addr ip, uint64_t vaddr, uint64_t cycle) override {
    Log(Event::kPrefetch, ctx_id, ip, vaddr, 0, cycle);
  }
  void OnYield(int ctx_id, isa::Addr ip, bool conditional, uint64_t cycle) override {
    Log(Event::kYield, ctx_id, ip, conditional ? 1 : 0, 0, cycle);
  }

  std::vector<std::array<uint64_t, 6>> events;

 private:
  void Log(Event event, int ctx_id, isa::Addr ip, uint64_t a, uint64_t b,
           uint64_t cycle) {
    events.push_back({static_cast<uint64_t>(event), static_cast<uint64_t>(ctx_id),
                      ip, a, b, cycle});
  }
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
  EventLog log{MaskOf({Event::kLoad, Event::kStall, Event::kBranch,
                       Event::kPrefetch, Event::kYield})};
  // Attached on some programs only: it sees every retirement, which pins the
  // bus while it is attached.
  EventLog order{kAllEvents};
};

// A random program over every opcode class, for the semantics RandomProgram
// leaves out: multiplies, shifts, indexed loads, prefetches, YIELDs, CYIELDs
// and calls. Data addresses stay in the kDataBytes region at r10. After
// storing its results a program halts, recurses exactly to the call-depth
// limit first, or ends in one of the three errors: a RET with no caller, a
// call one frame past the limit, or running off the end of the code.
std::string ControlProgram(uint64_t seed) {
  Rng rng(seed);
  // The functions come first, so that main's last instruction ends the code.
  std::string text =
      ".entry main\n"
      "leaf:\naddi r6, r6, 3\nxor r5, r5, r6\nret\n"
      // r11 frames deep: calls itself until r11 counts down to 0.
      "deep:\naddi r11, r11, -1\nbeq r11, r0, deep_out\ncall deep\ndeep_out:\nret\n"
      "main:\n";
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
  switch (rng.NextBelow(8)) {
    case 0:
      text += "ret\n";
      break;
    case 1:
      text += "movi r11, 4097\ncall deep\nhalt\n";
      break;
    case 2:
      break;  // runs off the end
    case 3:
      text += "movi r11, 4096\ncall deep\nhalt\n";
      break;
    default:
      text += "halt\n";
      break;
  }
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
  for (auto [w, g] : {std::pair{&want.log, &got.log}, std::pair{&want.order, &got.order}}) {
    EXPECT_EQ(w->events, g->events);
    w->events.clear();
    g->events.clear();
  }
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

TEST(ExecutorDiffTest, RunMatchesRefExecutorOnRandomPrograms) {
  Rng rng(2024);
  const pmu::SessionConfig config = SessionFor(rng);
  Side ref(config);
  Side ran(config);
  RetireCount every_retirement;
  ref.machine.listeners().Add(&every_retirement);
  // The retired-instruction sampler, detached and reattached between runs the
  // way Shard swaps sampling sessions.
  EventListener* retired_ref = &ref.session.pebs(0);
  EventListener* retired_run = &ran.session.pebs(0);

  uint64_t retired = 0;
  uint64_t runs = 0;
  uint64_t observed_steps = 0;
  std::map<StatusCode, int> errors;  // by code, over every context
  int observed_errors = 0;
  for (uint64_t seed = 1; retired < kMinRetired && !HasFailure(); ++seed) {
    const isa::Program program = ProgramFor(seed);
    ASSERT_FALSE(program.empty()) << "seed " << seed;
    // Every fourth program defers its memory waits, as the SMT core does.
    const StallPolicy policy =
        seed % 4 == 3 ? StallPolicy::kDeferred : StallPolicy::kBlocking;
    const bool ordered = seed % 3 == 0;
    if (ordered) {
      ref.machine.listeners().Add(&ref.order);
      ran.machine.listeners().Add(&ran.order);
    }
    RefExecutor ref_executor(program, ref.machine);
    Executor run_executor(&program, &ran.machine);
    std::vector<CpuContext> ref_ctx(kContexts);
    std::vector<CpuContext> run_ctx(kContexts);
    for (int c = 0; c < kContexts; ++c) {
      for (uint64_t offset = 0; offset < kDataBytes; offset += 8) {
        const uint64_t value = rng.Next() & 0xffff;
        ref.machine.memory().Write64(DataBase(c) + offset, value);
        ran.machine.memory().Write64(DataBase(c) + offset, value);
      }
      for (std::vector<CpuContext>* side : {&ref_ctx, &run_ctx}) {
        CpuContext& ctx = (*side)[c];
        ctx.id = c;
        ctx.ResetArchState(program.entry());
        ctx.regs[10] = DataBase(c);
        ctx.regs[15] = ResultBase(c);
        ctx.cyield_enabled = (seed + c) % 2 == 0;
      }
    }

    std::vector<bool> done(kContexts, false);
    int live = kContexts;
    while (live > 0 && !HasFailure()) {
      int c = static_cast<int>(rng.NextBelow(kContexts));
      while (done[c]) {
        c = (c + 1) % kContexts;
      }
      const uint64_t budget = rng.NextBelow(8) == 0
                                  ? std::numeric_limits<uint64_t>::max()
                                  : 1 + rng.NextBelow(64);
      const bool observed = rng.NextBelow(2) == 0;
      std::vector<StepCost> want_steps;
      StepLog got_steps;
      const RunResult want = ref_executor.Run(ref_ctx[c], policy, budget, want_steps);
      const RunResult got = run_executor.Run(run_ctx[c], policy, budget,
                                             observed ? &got_steps : nullptr);
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
      if (observed) {
        ASSERT_EQ(want_steps, got_steps.steps);
        observed_steps += got_steps.steps.size();
      }
      ExpectSameContext(ref_ctx[c], run_ctx[c]);
      ExpectSameMachine(ref.machine, ran.machine, c);
      ExpectSameListeners(ref, ran);
      retired += got.steps;
      if (want.event == StepEvent::kError) {
        ASSERT_EQ(ref_executor.error().code(), run_executor.error().code())
            << ref_executor.error() << " vs " << run_executor.error();
        ++errors[run_executor.error().code()];
        observed_errors += observed ? 1 : 0;
      }
      if (want.event == StepEvent::kHalted || want.event == StepEvent::kError) {
        done[c] = true;
        --live;
      }
      if (++runs % 50 == 0) {
        ref.machine.listeners().Remove(retired_ref);
        ran.machine.listeners().Remove(retired_run);
        ref.machine.listeners().Add(retired_ref);
        ran.machine.listeners().Add(retired_run);
      }
    }
    if (ordered) {
      ref.machine.listeners().Remove(&ref.order);
      ran.machine.listeners().Remove(&ran.order);
    }
  }
  EXPECT_GE(retired, kMinRetired);
  EXPECT_EQ(every_retirement.count, retired);
  // Every error was met, some while observed, and the observer saw about half
  // of all retired steps.
  for (const StatusCode code : {StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
                                StatusCode::kResourceExhausted}) {
    EXPECT_GT(errors[code], 0) << static_cast<int>(code);
  }
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_GT(observed_errors, 0);
  EXPECT_GT(observed_steps, retired / 4);
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

TEST_F(RunBoundaryTest, CallsNestAtMost4096Deep) {
  const std::string deep =
      ".entry main\n"
      "deep:\naddi r11, r11, -1\nbeq r11, r0, out\ncall deep\nout:\nret\n"
      "main:\nmovi r11, %d\ncall deep\nhalt\n";
  Executor at_limit = Load(StrFormat(deep.c_str(), 4096));
  EXPECT_EQ(at_limit.Run(ctx_, StallPolicy::kBlocking, kUnbounded).event,
            StepEvent::kHalted);

  Executor past_limit = Load(StrFormat(deep.c_str(), 4097));
  const RunResult run = past_limit.Run(ctx_, StallPolicy::kBlocking, kUnbounded);
  EXPECT_EQ(run.event, StepEvent::kError);
  EXPECT_EQ(past_limit.error().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(run.ip, 2u);  // the call in the 4096th frame
  EXPECT_EQ(ctx_.call_stack.size(), 4096u);
  EXPECT_EQ(ctx_.regs[11], 1u);
}

TEST_F(RunBoundaryTest, ObserverSeesEveryRetiredStepButNotAFailingOne) {
  Executor executor = Load("movi r1, 1\nyield\nmovi r2, 2\nret\n");
  StepLog log;
  EXPECT_EQ(executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded, &log).event,
            StepEvent::kYielded);
  EXPECT_EQ(executor.Run(ctx_, StallPolicy::kBlocking, kUnbounded, &log).event,
            StepEvent::kError);
  EXPECT_EQ(log.steps, (std::vector<StepCost>{{0, 1, 0}, {1, 0, 0}, {2, 1, 0}}));

  Executor halting = Load("halt\n");
  log.steps.clear();
  EXPECT_EQ(halting.Run(ctx_, StallPolicy::kBlocking, kUnbounded, &log).event,
            StepEvent::kHalted);
  EXPECT_EQ(halting.Run(ctx_, StallPolicy::kBlocking, kUnbounded, &log).steps, 0u);
  EXPECT_EQ(log.steps, (std::vector<StepCost>{{0, 1, 0}}));
}

// --- Straight-line ALU runs ----------------------------------------------------

// The batch kernel's body, 40 {addi, xor} pairs: one ALU run of kAluRun
// instructions, then a HALT.
constexpr uint32_t kAluRun = 80;

isa::Program AluRunProgram() {
  std::string text;
  for (uint32_t i = 0; i < kAluRun / 2; ++i) {
    text += "addi r3, r3, 1\nxor r4, r4, r3\n";
  }
  auto program = isa::Assemble(text + "halt\n");
  EXPECT_TRUE(program.ok()) << program.status();
  return program.ok() ? std::move(program).value() : isa::Program();
}

// What one Run() of AluRunProgram left behind.
struct AluRunOutcome {
  RunResult run;
  std::vector<pmu::PebsSample> samples;
  uint64_t event_count = 0;
  CpuContext ctx;
  uint64_t now = 0;
};

// Runs AluRunProgram from `start` with `budget` on a fresh machine, with a
// retired-instruction sampler of `period` attached unless `period` is 0. An
// observed run goes one step at a time, so it is the reference.
AluRunOutcome RunAluProgram(const isa::Program& program, isa::Addr start,
                            uint64_t budget, uint64_t period, bool observed) {
  Machine machine(MachineConfig::SmallTest());
  std::optional<pmu::PebsSampler> sampler;
  if (period != 0) {
    pmu::PebsConfig config;
    config.event = pmu::HwEvent::kRetiredInstructions;
    config.period = period;
    machine.listeners().Add(&sampler.emplace(config));
  }
  Executor executor(&program, &machine);
  AluRunOutcome out;
  out.ctx.ResetArchState(start);
  out.ctx.regs[3] = 5;
  out.ctx.regs[4] = 0x1234;
  StepLog log;
  out.run = executor.Run(out.ctx, StallPolicy::kBlocking, budget,
                         observed ? &log : nullptr);
  if (sampler.has_value()) {
    // Removing the sampler applies the retirements the bus counted for it.
    machine.listeners().Remove(&*sampler);
    out.samples = sampler->Drain();
    out.event_count = sampler->event_count();
  }
  out.now = machine.now();
  return out;
}

void ExpectSameOutcome(const AluRunOutcome& want, const AluRunOutcome& got) {
  EXPECT_EQ(want.run.event, got.run.event);
  EXPECT_EQ(want.run.ip, got.run.ip);
  EXPECT_EQ(want.run.steps, got.run.steps);
  EXPECT_EQ(want.run.issue_cycles, got.run.issue_cycles);
  EXPECT_EQ(want.run.wait_cycles, got.run.wait_cycles);
  ASSERT_EQ(want.samples.size(), got.samples.size());
  for (size_t i = 0; i < want.samples.size(); ++i) {
    EXPECT_EQ(want.samples[i].ip, got.samples[i].ip) << "sample " << i;
    EXPECT_EQ(want.samples[i].cycle, got.samples[i].cycle) << "sample " << i;
  }
  EXPECT_EQ(want.event_count, got.event_count);
  ExpectSameContext(want.ctx, got.ctx);
  EXPECT_EQ(want.now, got.now);
}

TEST_F(RunBoundaryTest, AluRunStopsAtEverySamplePoint) {
  const isa::Program program = AluRunProgram();
  for (uint64_t period = 1; period <= kAluRun + 2; ++period) {
    for (isa::Addr start = 0; start < kAluRun; ++start) {
      SCOPED_TRACE(StrFormat("period %llu start %u",
                             static_cast<unsigned long long>(period), start));
      const AluRunOutcome want = RunAluProgram(program, start, kUnbounded, period, true);
      const AluRunOutcome got = RunAluProgram(program, start, kUnbounded, period, false);
      ASSERT_EQ(want.run.event, StepEvent::kHalted);
      ASSERT_EQ(want.samples.size(), (kAluRun - start + 1) / period);
      ExpectSameOutcome(want, got);
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST_F(RunBoundaryTest, AluRunStopsWhereTheBudgetEnds) {
  const isa::Program program = AluRunProgram();
  for (isa::Addr start = 0; start < kAluRun; ++start) {
    for (uint64_t budget = 1; budget <= kAluRun - start + 1; ++budget) {
      SCOPED_TRACE(StrFormat("start %u budget %llu", start,
                             static_cast<unsigned long long>(budget)));
      const AluRunOutcome want = RunAluProgram(program, start, budget, 0, true);
      const AluRunOutcome got = RunAluProgram(program, start, budget, 0, false);
      ExpectSameOutcome(want, got);
      if (budget == kAluRun - start) {
        // Exactly at the run's end: the run's last instruction ended it.
        EXPECT_EQ(got.run.event, StepEvent::kExecuted);
        EXPECT_EQ(got.run.ip, kAluRun - 1);
        EXPECT_EQ(got.ctx.pc, kAluRun);
      }
      if (HasFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace yieldhide::sim
