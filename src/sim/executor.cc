#include "src/sim/executor.h"

#include "src/common/strings.h"

namespace yieldhide::sim {

namespace {
constexpr size_t kMaxCallDepth = 4096;
}  // namespace

Executor::Executor(const isa::Program* program, Machine* machine)
    : program_(program), machine_(machine) {}

StepResult Executor::Error(Status status) {
  error_ = std::move(status);
  StepResult result;
  result.event = StepEvent::kError;
  return result;
}

StepResult Executor::Step(CpuContext& ctx, StallPolicy policy) {
  using isa::Opcode;

  if (ctx.halted) {
    StepResult result;
    result.event = StepEvent::kHalted;
    return result;
  }
  if (ctx.pc >= program_->size()) {
    return Error(OutOfRangeError(
        StrFormat("pc %u outside program of size %zu", ctx.pc, program_->size())));
  }

  const isa::Addr ip = ctx.pc;
  const isa::Instruction insn = program_->at(ip);
  const CostModel& cost = machine_->config().cost;
  auto& regs = ctx.regs;
  const uint64_t now = machine_->now();

  StepResult result;
  result.issue_cycles = cost.alu_cycles;
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
      result.issue_cycles = cost.mul_cycles;
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
      result.issue_cycles = cost.mul_cycles;
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
      result.issue_cycles = access.latency_cycles < hit_cost ? access.latency_cycles : hit_cost;
      result.wait_cycles = access.latency_cycles - result.issue_cycles;
      regs[insn.rd] = machine_->memory().Read64(vaddr);
      ++ctx.loads;
      if (access.level != HitLevel::kL1 || access.hit_inflight) {
        ++ctx.load_misses;
      }
      machine_->listeners().OnLoad(ctx.id, ip, vaddr, access.level,
                                   access.hit_inflight, result.wait_cycles, now);
      if (result.wait_cycles > 0) {
        machine_->listeners().OnStall(ctx.id, ip, result.wait_cycles, now);
      }
      break;
    }
    case Opcode::kStore: {
      const uint64_t vaddr = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      machine_->hierarchy().AccessStore(vaddr, now);
      machine_->memory().Write64(vaddr, regs[insn.rs2]);
      result.issue_cycles = cost.store_cycles;
      break;
    }
    case Opcode::kPrefetch: {
      const uint64_t vaddr = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      // The host hides its own miss the way the program hides the simulated
      // one: the read this PREFETCH announces comes after other work.
      machine_->memory().HostPrefetch(vaddr);
      machine_->hierarchy().Prefetch(vaddr, now);
      result.issue_cycles = cost.prefetch_cycles;
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
      result.issue_cycles = cost.branch_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, taken, now);
      break;
    }
    case Opcode::kJmp:
      next_pc = static_cast<isa::Addr>(insn.imm);
      result.issue_cycles = cost.branch_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, true, now);
      break;
    case Opcode::kCall:
      if (ctx.call_stack.size() >= kMaxCallDepth) {
        return Error(ResourceExhaustedError(
            StrFormat("call stack overflow at ip %u", ip)));
      }
      ctx.call_stack.push_back(ip + 1);
      next_pc = static_cast<isa::Addr>(insn.imm);
      result.issue_cycles = cost.call_ret_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, true, now);
      break;
    case Opcode::kRet:
      if (ctx.call_stack.empty()) {
        return Error(FailedPreconditionError(
            StrFormat("ret with empty call stack at ip %u", ip)));
      }
      next_pc = ctx.call_stack.back();
      ctx.call_stack.pop_back();
      result.issue_cycles = cost.call_ret_cycles;
      machine_->listeners().OnBranch(ctx.id, ip, next_pc, true, now);
      break;

    case Opcode::kYield:
      result.event = StepEvent::kYielded;
      result.conditional_yield = false;
      result.issue_cycles = 0;  // switch cost is charged by the scheduler
      machine_->listeners().OnYield(ctx.id, ip, false, now);
      break;
    case Opcode::kCyield:
      if (ctx.cyield_enabled) {
        result.event = StepEvent::kYielded;
        result.conditional_yield = true;
        result.issue_cycles = 0;
        machine_->listeners().OnYield(ctx.id, ip, true, now);
      } else {
        result.issue_cycles = cost.cyield_untaken_cycles;
        ++ctx.cyields_skipped;
      }
      break;

    case Opcode::kHalt:
      ctx.halted = true;
      result.event = StepEvent::kHalted;
      result.issue_cycles = cost.halt_cycles;
      break;
    default:
      return Error(InternalError(StrFormat("unhandled opcode at ip %u", ip)));
  }

  machine_->listeners().OnRetired(ctx.id, ip, insn.op, now);
  ctx.pc = next_pc;
  ++ctx.instructions;
  ctx.issue_cycles += result.issue_cycles;

  if (policy == StallPolicy::kBlocking) {
    ctx.stall_cycles += result.wait_cycles;
    machine_->AdvanceClock(result.issue_cycles + result.wait_cycles);
  } else {
    machine_->AdvanceClock(result.issue_cycles);
  }
  return result;
}

Result<uint64_t> Executor::RunToCompletion(CpuContext& ctx, uint64_t max_instructions) {
  const uint64_t start = machine_->now();
  const uint64_t start_insns = ctx.instructions;
  while (!ctx.halted) {
    if (ctx.instructions - start_insns >= max_instructions) {
      return ResourceExhaustedError(
          StrFormat("exceeded %llu instructions without halting",
                    static_cast<unsigned long long>(max_instructions)));
    }
    const StepResult result = Step(ctx, StallPolicy::kBlocking);
    if (result.event == StepEvent::kError) {
      return error_;
    }
    // kYielded with nobody to switch to: fall through at zero cost.
  }
  return machine_->now() - start;
}

}  // namespace yieldhide::sim
