#include "src/sim/executor.h"

#include <limits>

#include "src/common/strings.h"

namespace yieldhide::sim {

namespace {
constexpr size_t kMaxCallDepth = 4096;

// kNop through kMov: the opcodes that only write a register (or nothing).
constexpr bool IsAlu(isa::Opcode op) { return op <= isa::Opcode::kMov; }

// The issue cost of an ALU instruction.
uint32_t AluIssue(isa::Opcode op, const CostModel& cost) {
  return op == isa::Opcode::kMul || op == isa::Opcode::kMuli ? cost.mul_cycles
                                                            : cost.alu_cycles;
}

// Executes `insn` if it is an ALU instruction and returns whether it was: the
// one statement of each ALU opcode's semantics, shared by the one-step switch
// and the straight-line runs.
[[gnu::always_inline]] inline bool ApplyAlu(const isa::Instruction& insn,
                                            uint64_t* __restrict regs) {
  using isa::Opcode;
  switch (insn.op) {
    case Opcode::kNop:
      return true;
    case Opcode::kAdd:
      regs[insn.rd] = regs[insn.rs1] + regs[insn.rs2];
      return true;
    case Opcode::kSub:
      regs[insn.rd] = regs[insn.rs1] - regs[insn.rs2];
      return true;
    case Opcode::kMul:
      regs[insn.rd] = regs[insn.rs1] * regs[insn.rs2];
      return true;
    case Opcode::kAnd:
      regs[insn.rd] = regs[insn.rs1] & regs[insn.rs2];
      return true;
    case Opcode::kOr:
      regs[insn.rd] = regs[insn.rs1] | regs[insn.rs2];
      return true;
    case Opcode::kXor:
      regs[insn.rd] = regs[insn.rs1] ^ regs[insn.rs2];
      return true;
    case Opcode::kShl:
      regs[insn.rd] = regs[insn.rs1] << (regs[insn.rs2] & 63);
      return true;
    case Opcode::kShr:
      regs[insn.rd] = regs[insn.rs1] >> (regs[insn.rs2] & 63);
      return true;
    case Opcode::kAddi:
      regs[insn.rd] = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      return true;
    case Opcode::kAndi:
      regs[insn.rd] = regs[insn.rs1] & static_cast<uint64_t>(insn.imm);
      return true;
    case Opcode::kShli:
      regs[insn.rd] = regs[insn.rs1] << (static_cast<uint64_t>(insn.imm) & 63);
      return true;
    case Opcode::kShri:
      regs[insn.rd] = regs[insn.rs1] >> (static_cast<uint64_t>(insn.imm) & 63);
      return true;
    case Opcode::kMuli:
      regs[insn.rd] = regs[insn.rs1] * static_cast<uint64_t>(insn.imm);
      return true;
    case Opcode::kMovi:
      regs[insn.rd] = static_cast<uint64_t>(insn.imm);
      return true;
    case Opcode::kMov:
      regs[insn.rd] = regs[insn.rs1];
      return true;
    default:
      return false;
  }
}
}  // namespace

Executor::Executor(const isa::Program* program, Machine* machine)
    : program_(program), machine_(machine), alu_runs_(program->size() + 1) {
  const CostModel& cost = machine->config().cost;
  for (size_t pc = program->size(); pc-- > 0;) {
    const isa::Opcode op = program->at(static_cast<isa::Addr>(pc)).op;
    if (!IsAlu(op)) {
      continue;
    }
    const uint32_t issue = AluIssue(op, cost);
    const AluRun next = alu_runs_[pc + 1];
    // A run whose cycles would not fit starts afresh.
    alu_runs_[pc] = next.issue_cycles <= std::numeric_limits<uint32_t>::max() - issue
                        ? AluRun{next.length + 1, next.issue_cycles + issue}
                        : AluRun{1, issue};
  }
}

template <bool kObserved, StallPolicy kPolicy>
RunResult Executor::RunLoop(CpuContext& ctx, uint64_t max_steps,
                            StepObserver* observer) {
  using isa::Opcode;

  RunResult result;
  result.ip = ctx.pc;
  if (ctx.halted) {
    result.event = StepEvent::kHalted;
    return result;
  }
  // Everything a step reads besides memory, in locals for the whole run.
  const isa::Instruction* const code = program_->code().data();
  const size_t size = program_->size();
  const AluRun* const runs = alu_runs_.data();
  const CostModel cost = machine_->config().cost;
  const uint32_t hit_cost = machine_->config().hierarchy.l1.latency_cycles;
  MemoryHierarchy& hierarchy = machine_->hierarchy();
  SparseMemory& memory = machine_->memory();
  MulticastListener& bus = machine_->listeners();
  uint64_t* __restrict const regs = ctx.regs.data();
  std::vector<isa::Addr>& call_stack = ctx.call_stack;
  const int id = ctx.id;
  const bool cyield_enabled = ctx.cyield_enabled;
  const uint64_t start = machine_->now();

  uint64_t now = start;
  isa::Addr pc = ctx.pc;
  isa::Addr ip = pc;  // the step's IP; the ending one's after the loop
  uint64_t left = max_steps;
  uint64_t issue_sum = 0;
  uint64_t wait_sum = 0;
  StepEvent event = StepEvent::kExecuted;
  bool conditional_yield = false;
  while (left > 0) {
    ip = pc;
    if (pc >= size) {
      error_ = OutOfRangeError(
          StrFormat("pc %u outside program of size %zu", pc, size));
      event = StepEvent::kError;
      break;
    }
    if constexpr (!kObserved) {
      // The straight-line ALU run from here, whole, when neither a sample
      // point nor the end of the budget falls inside it.
      if (IsAlu(code[pc].op)) {
        const AluRun run = runs[pc];
        if (run.length <= left && run.length <= bus.retire_distance()) {
          const isa::Instruction* const end = code + pc + run.length;
          for (const isa::Instruction* insn = code + pc; insn != end; ++insn) {
            ApplyAlu(*insn, regs);
          }
          bus.CountRetirements(run.length);
          ip = pc + run.length - 1;
          pc += run.length;
          left -= run.length;
          issue_sum += run.issue_cycles;
          now += run.issue_cycles;
          continue;
        }
      }
    }

    const isa::Instruction insn = code[ip];
    uint32_t issue = cost.alu_cycles;
    uint32_t wait = 0;
    isa::Addr next_pc = ip + 1;
    if (ApplyAlu(insn, regs)) {
      issue = AluIssue(insn.op, cost);
    } else {
      switch (insn.op) {
        case Opcode::kLoad:
        case Opcode::kLoadx: {
          const uint64_t vaddr =
              insn.op == Opcode::kLoad
                  ? regs[insn.rs1] + static_cast<uint64_t>(insn.imm)
                  : regs[insn.rs1] + regs[insn.rs2] * static_cast<uint64_t>(insn.imm);
          const AccessResult access = hierarchy.AccessLoad(vaddr, now);
          issue = access.latency_cycles < hit_cost ? access.latency_cycles : hit_cost;
          wait = access.latency_cycles - issue;
          regs[insn.rd] = memory.Read64(vaddr);
          bus.OnLoad(id, ip, vaddr, access.level, access.hit_inflight, wait, now);
          if (wait > 0) {
            bus.OnStall(id, ip, wait, now);
          }
          break;
        }
        case Opcode::kStore: {
          const uint64_t vaddr = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
          hierarchy.AccessStore(vaddr, now);
          memory.Write64(vaddr, regs[insn.rs2]);
          issue = cost.store_cycles;
          break;
        }
        case Opcode::kPrefetch: {
          const uint64_t vaddr = regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
          // The host hides its own miss the way the program hides the
          // simulated one: the read this PREFETCH announces comes after other
          // work.
          memory.HostPrefetch(vaddr);
          hierarchy.Prefetch(vaddr, now);
          issue = cost.prefetch_cycles;
          bus.OnPrefetch(id, ip, vaddr, now);
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
          bus.OnBranch(id, ip, next_pc, taken, now);
          break;
        }
        case Opcode::kJmp:
          next_pc = static_cast<isa::Addr>(insn.imm);
          issue = cost.branch_cycles;
          bus.OnBranch(id, ip, next_pc, true, now);
          break;
        case Opcode::kCall:
          if (call_stack.size() >= kMaxCallDepth) {
            error_ = ResourceExhaustedError(
                StrFormat("call stack overflow at ip %u", ip));
            event = StepEvent::kError;
            break;
          }
          call_stack.push_back(ip + 1);
          next_pc = static_cast<isa::Addr>(insn.imm);
          issue = cost.call_ret_cycles;
          bus.OnBranch(id, ip, next_pc, true, now);
          break;
        case Opcode::kRet:
          if (call_stack.empty()) {
            error_ = FailedPreconditionError(
                StrFormat("ret with empty call stack at ip %u", ip));
            event = StepEvent::kError;
            break;
          }
          next_pc = call_stack.back();
          call_stack.pop_back();
          issue = cost.call_ret_cycles;
          bus.OnBranch(id, ip, next_pc, true, now);
          break;

        case Opcode::kYield:
          event = StepEvent::kYielded;
          conditional_yield = false;
          issue = 0;  // switch cost is charged by the scheduler
          bus.OnYield(id, ip, false, now);
          break;
        case Opcode::kCyield:
          if (cyield_enabled) {
            event = StepEvent::kYielded;
            conditional_yield = true;
            issue = 0;
            bus.OnYield(id, ip, true, now);
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
          error_ = InternalError(StrFormat("unhandled opcode at ip %u", ip));
          event = StepEvent::kError;
          break;
      }
      if (event == StepEvent::kError) {
        break;
      }
    }

    bus.OnRetired(id, ip, insn.op, now);
    if constexpr (kObserved) {
      observer->OnStep(ip, issue, wait);
    }
    pc = next_pc;
    --left;
    issue_sum += issue;
    wait_sum += wait;
    now += issue;
    if constexpr (kPolicy == StallPolicy::kBlocking) {
      now += wait;
    }
    if (event != StepEvent::kExecuted) {
      break;
    }
  }
  ctx.pc = pc;
  ctx.instructions += max_steps - left;
  ctx.issue_cycles += issue_sum;
  if constexpr (kPolicy == StallPolicy::kBlocking) {
    ctx.stall_cycles += wait_sum;
  }
  machine_->AdvanceClock(now - start);
  result.event = event;
  result.conditional_yield = conditional_yield;
  result.ip = ip;
  result.steps = max_steps - left;
  result.issue_cycles = issue_sum;
  result.wait_cycles = wait_sum;
  return result;
}

template RunResult Executor::RunLoop<false, StallPolicy::kBlocking>(CpuContext&, uint64_t,
                                                                    StepObserver*);
template RunResult Executor::RunLoop<false, StallPolicy::kDeferred>(CpuContext&, uint64_t,
                                                                    StepObserver*);
template RunResult Executor::RunLoop<true, StallPolicy::kBlocking>(CpuContext&, uint64_t,
                                                                   StepObserver*);
template RunResult Executor::RunLoop<true, StallPolicy::kDeferred>(CpuContext&, uint64_t,
                                                                   StepObserver*);

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
