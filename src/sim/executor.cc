#include "src/sim/executor.h"

#include "src/common/strings.h"

namespace yieldhide::sim {

namespace {
constexpr size_t kMaxCallDepth = 4096;
}  // namespace

// The state an instruction reads or writes besides the registers, the call
// stack, memory and the rarely moved counters. Run() keeps it in locals, which
// the compiler holds in registers for a whole run, and loads it from and
// stores it to the context and the machine once per run.
struct Executor::Frame {
  const isa::Instruction* code;
  size_t size;
  isa::Addr pc;
  uint64_t now;
  // Set by the instruction just executed.
  uint32_t issue_cycles = 0;
  uint32_t wait_cycles = 0;
  bool conditional_yield = false;
};

Executor::Executor(const isa::Program* program, Machine* machine)
    : program_(program), machine_(machine) {}

StepEvent Executor::Fail(Status status) {
  error_ = std::move(status);
  return StepEvent::kError;
}

// Inlined into both instantiations of Run()'s loop, which keep the frame in
// registers.
[[gnu::always_inline]] inline StepEvent Executor::Execute(CpuContext& ctx,
                                                          Frame& frame,
                                                          const CostModel& cost,
                                                          StallPolicy policy) {
  using isa::Opcode;

  if (frame.pc >= frame.size) {
    return Fail(OutOfRangeError(
        StrFormat("pc %u outside program of size %zu", frame.pc, frame.size)));
  }

  const isa::Addr ip = frame.pc;
  const isa::Instruction insn = frame.code[ip];
  auto& regs = ctx.regs;
  const uint64_t now = frame.now;

  StepEvent event = StepEvent::kExecuted;
  uint32_t issue = cost.alu_cycles;
  uint32_t wait = 0;
  isa::Addr next_pc = ip + 1;

  switch (insn.op) {
    case Opcode::kNop:
      break;
    case Opcode::kAdd:
      regs[insn.rd] = regs[insn.rs1] + regs[insn.rs2];
      break;
    case Opcode::kSub:
      regs[insn.rd] = regs[insn.rs1] - regs[insn.rs2];
      break;
    case Opcode::kMul:
      regs[insn.rd] = regs[insn.rs1] * regs[insn.rs2];
      issue = cost.mul_cycles;
      break;
    case Opcode::kAnd:
      regs[insn.rd] = regs[insn.rs1] & regs[insn.rs2];
      break;
    case Opcode::kOr:
      regs[insn.rd] = regs[insn.rs1] | regs[insn.rs2];
      break;
    case Opcode::kXor:
      regs[insn.rd] = regs[insn.rs1] ^ regs[insn.rs2];
      break;
    case Opcode::kShl:
      regs[insn.rd] = regs[insn.rs1] << (regs[insn.rs2] & 63);
      break;
    case Opcode::kShr:
      regs[insn.rd] = regs[insn.rs1] >> (regs[insn.rs2] & 63);
      break;
    case Opcode::kAddi:
      regs[insn.rd] = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      break;
    case Opcode::kAndi:
      regs[insn.rd] = regs[insn.rs1] & static_cast<uint64_t>(insn.imm);
      break;
    case Opcode::kShli:
      regs[insn.rd] = regs[insn.rs1] << (static_cast<uint64_t>(insn.imm) & 63);
      break;
    case Opcode::kShri:
      regs[insn.rd] = regs[insn.rs1] >> (static_cast<uint64_t>(insn.imm) & 63);
      break;
    case Opcode::kMuli:
      regs[insn.rd] = regs[insn.rs1] * static_cast<uint64_t>(insn.imm);
      issue = cost.mul_cycles;
      break;
    case Opcode::kMovi:
      regs[insn.rd] = static_cast<uint64_t>(insn.imm);
      break;
    case Opcode::kMov:
      regs[insn.rd] = regs[insn.rs1];
      break;

    case Opcode::kLoad:
    case Opcode::kLoadx: {
      const uint64_t vaddr =
          insn.op == Opcode::kLoad
              ? regs[insn.rs1] + static_cast<uint64_t>(insn.imm)
              : regs[insn.rs1] + regs[insn.rs2] * static_cast<uint64_t>(insn.imm);
      const AccessResult access = machine_->hierarchy().AccessLoad(vaddr, now);
      const uint32_t hit_cost = machine_->config().hierarchy.l1.latency_cycles;
      issue = access.latency_cycles < hit_cost ? access.latency_cycles : hit_cost;
      wait = access.latency_cycles - issue;
      regs[insn.rd] = machine_->memory().Read64(vaddr);
      machine_->listeners().OnLoad(ctx.id, ip, vaddr, access.level,
                                   access.hit_inflight, wait, now);
      if (wait > 0) {
        machine_->listeners().OnStall(ctx.id, ip, wait, now);
      }
      break;
    }
    case Opcode::kStore: {
      const uint64_t vaddr = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      machine_->hierarchy().AccessStore(vaddr, now);
      machine_->memory().Write64(vaddr, regs[insn.rs2]);
      issue = cost.store_cycles;
      break;
    }
    case Opcode::kPrefetch: {
      const uint64_t vaddr = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      // The host hides its own miss the way the program hides the simulated
      // one: the read this PREFETCH announces comes after other work.
      machine_->memory().HostPrefetch(vaddr);
      machine_->hierarchy().Prefetch(vaddr, now);
      issue = cost.prefetch_cycles;
      machine_->listeners().OnPrefetch(ctx.id, ip, vaddr, now);
      break;
    }

    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge: {
      const uint64_t a = regs[insn.rs1];
      const uint64_t b = regs[insn.rs2];
      bool taken = false;
      switch (insn.op) {
        case Opcode::kBeq:
          taken = a == b;
          break;
        case Opcode::kBne:
          taken = a != b;
          break;
        case Opcode::kBlt:
          taken = static_cast<int64_t>(a) < static_cast<int64_t>(b);
          break;
        default:
          taken = static_cast<int64_t>(a) >= static_cast<int64_t>(b);
          break;
      }
      if (taken) {
        next_pc = static_cast<isa::Addr>(insn.imm);
      }
      issue = cost.branch_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, taken, now);
      break;
    }
    case Opcode::kJmp:
      next_pc = static_cast<isa::Addr>(insn.imm);
      issue = cost.branch_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, true, now);
      break;
    case Opcode::kCall:
      if (ctx.call_stack.size() >= kMaxCallDepth) {
        return Fail(ResourceExhaustedError(
            StrFormat("call stack overflow at ip %u", ip)));
      }
      ctx.call_stack.push_back(ip + 1);
      next_pc = static_cast<isa::Addr>(insn.imm);
      issue = cost.call_ret_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, true, now);
      break;
    case Opcode::kRet:
      if (ctx.call_stack.empty()) {
        return Fail(FailedPreconditionError(
            StrFormat("ret with empty call stack at ip %u", ip)));
      }
      next_pc = ctx.call_stack.back();
      ctx.call_stack.pop_back();
      issue = cost.call_ret_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, true, now);
      break;

    case Opcode::kYield:
      event = StepEvent::kYielded;
      frame.conditional_yield = false;
      issue = 0;  // switch cost is charged by the scheduler
      machine_->listeners().OnYield(ctx.id, ip, false, now);
      break;
    case Opcode::kCyield:
      if (ctx.cyield_enabled) {
        event = StepEvent::kYielded;
        frame.conditional_yield = true;
        issue = 0;
        machine_->listeners().OnYield(ctx.id, ip, true, now);
      } else {
        issue = cost.cyield_untaken_cycles;
      }
      break;

    case Opcode::kHalt:
      ctx.halted = true;
      event = StepEvent::kHalted;
      issue = cost.halt_cycles;
      break;
    default:
      return Fail(InternalError(StrFormat("unhandled opcode at ip %u", ip)));
  }

  machine_->listeners().OnRetired(ctx.id, ip, insn.op, now);
  frame.pc = next_pc;
  frame.issue_cycles = issue;
  frame.wait_cycles = wait;
  frame.now = now + issue + (policy == StallPolicy::kBlocking ? wait : 0);
  return event;
}

template <bool kObserved>
RunResult Executor::RunLoop(CpuContext& ctx, StallPolicy policy,
                            uint64_t max_steps, StepObserver* observer) {
  RunResult result;
  result.ip = ctx.pc;
  if (ctx.halted) {
    result.event = StepEvent::kHalted;
    return result;
  }
  const CostModel cost = machine_->config().cost;
  const uint64_t start = machine_->now();
  Frame frame{program_->code().data(), program_->size(), ctx.pc, start};
  uint64_t steps = 0;
  uint64_t issue_cycles = 0;
  uint64_t wait_cycles = 0;
  StepEvent event = StepEvent::kExecuted;
  isa::Addr ip = frame.pc;
  while (steps < max_steps) {
    ip = frame.pc;
    event = Execute(ctx, frame, cost, policy);
    if (event == StepEvent::kError) {
      break;
    }
    ++steps;
    issue_cycles += frame.issue_cycles;
    wait_cycles += frame.wait_cycles;
    if constexpr (kObserved) {
      observer->OnStep(ip, frame.issue_cycles, frame.wait_cycles);
    }
    if (event != StepEvent::kExecuted) {
      break;
    }
  }
  ctx.pc = frame.pc;
  ctx.instructions += steps;
  ctx.issue_cycles += issue_cycles;
  if (policy == StallPolicy::kBlocking) {
    ctx.stall_cycles += wait_cycles;
  }
  machine_->AdvanceClock(frame.now - start);
  result.event = event;
  result.conditional_yield = frame.conditional_yield;
  result.ip = ip;
  result.steps = steps;
  result.issue_cycles = issue_cycles;
  result.wait_cycles = wait_cycles;
  return result;
}

RunResult Executor::Run(CpuContext& ctx, StallPolicy policy, uint64_t max_steps,
                        StepObserver* observer) {
  if (observer == nullptr) {
    return RunLoop<false>(ctx, policy, max_steps, nullptr);
  }
  return RunLoop<true>(ctx, policy, max_steps, observer);
}

Result<uint64_t> Executor::RunToCompletion(CpuContext& ctx, uint64_t max_instructions) {
  const uint64_t start = machine_->now();
  uint64_t left = max_instructions;
  while (!ctx.halted) {
    if (left == 0) {
      return ResourceExhaustedError(
          StrFormat("exceeded %llu instructions without halting",
                    static_cast<unsigned long long>(max_instructions)));
    }
    const RunResult run = Run(ctx, StallPolicy::kBlocking, left);
    if (run.event == StepEvent::kError) {
      return error_;
    }
    left -= run.steps;
    // kYielded with nobody to switch to: fall through at zero cost.
  }
  return machine_->now() - start;
}

}  // namespace yieldhide::sim
