// Programmatic program construction with deferred label resolution. Workload
// generators use this instead of string assembly for speed and type safety.
#ifndef YIELDHIDE_SRC_ISA_BUILDER_H_
#define YIELDHIDE_SRC_ISA_BUILDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/isa/program.h"

namespace yieldhide::isa {

class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) : program_(std::move(name)) {}

  // Opaque handle for a forward- or backward-referenced code location.
  class Label {
   public:
    Label() = default;

   private:
    friend class ProgramBuilder;
    explicit Label(size_t id) : id_(id) {}
    size_t id_ = SIZE_MAX;
  };

  Label NewLabel() {
    label_targets_.push_back(kInvalidAddr);
    return Label(label_targets_.size() - 1);
  }

  // Binds `label` to the next appended instruction.
  void Bind(Label label);
  // Creates, binds, and names a label in one step (also adds a symbol).
  Label Here(const std::string& symbol_name);

  // --- instruction emitters ---
  ProgramBuilder& Nop() { return Emit({Opcode::kNop}); }
  ProgramBuilder& Add(Reg rd, Reg rs1, Reg rs2) { return Emit3(Opcode::kAdd, rd, rs1, rs2); }
  ProgramBuilder& Sub(Reg rd, Reg rs1, Reg rs2) { return Emit3(Opcode::kSub, rd, rs1, rs2); }
  ProgramBuilder& And(Reg rd, Reg rs1, Reg rs2) { return Emit3(Opcode::kAnd, rd, rs1, rs2); }
  ProgramBuilder& Xor(Reg rd, Reg rs1, Reg rs2) { return Emit3(Opcode::kXor, rd, rs1, rs2); }
  ProgramBuilder& Addi(Reg rd, Reg rs1, int64_t imm) { return EmitImm(Opcode::kAddi, rd, rs1, imm); }
  ProgramBuilder& Andi(Reg rd, Reg rs1, int64_t imm) { return EmitImm(Opcode::kAndi, rd, rs1, imm); }
  ProgramBuilder& Shli(Reg rd, Reg rs1, int64_t imm) { return EmitImm(Opcode::kShli, rd, rs1, imm); }
  ProgramBuilder& Shri(Reg rd, Reg rs1, int64_t imm) { return EmitImm(Opcode::kShri, rd, rs1, imm); }
  ProgramBuilder& Muli(Reg rd, Reg rs1, int64_t imm) { return EmitImm(Opcode::kMuli, rd, rs1, imm); }
  ProgramBuilder& Movi(Reg rd, int64_t imm) {
    return Emit({Opcode::kMovi, rd, 0, 0, imm});
  }
  ProgramBuilder& Mov(Reg rd, Reg rs1) { return Emit({Opcode::kMov, rd, rs1, 0, 0}); }
  ProgramBuilder& Load(Reg rd, Reg base, int64_t disp) {
    return Emit({Opcode::kLoad, rd, base, 0, disp});
  }
  ProgramBuilder& Store(Reg base, int64_t disp, Reg src) {
    return Emit({Opcode::kStore, 0, base, src, disp});
  }
  ProgramBuilder& Prefetch(Reg base, int64_t disp) {
    return Emit({Opcode::kPrefetch, 0, base, 0, disp});
  }
  ProgramBuilder& Beq(Reg rs1, Reg rs2, Label target) {
    return EmitBranch(Opcode::kBeq, rs1, rs2, target);
  }
  ProgramBuilder& Bne(Reg rs1, Reg rs2, Label target) {
    return EmitBranch(Opcode::kBne, rs1, rs2, target);
  }
  ProgramBuilder& Blt(Reg rs1, Reg rs2, Label target) {
    return EmitBranch(Opcode::kBlt, rs1, rs2, target);
  }
  ProgramBuilder& Bge(Reg rs1, Reg rs2, Label target) {
    return EmitBranch(Opcode::kBge, rs1, rs2, target);
  }
  ProgramBuilder& Jmp(Label target) { return EmitBranch(Opcode::kJmp, 0, 0, target); }
  ProgramBuilder& Yield() { return Emit({Opcode::kYield}); }
  ProgramBuilder& Halt() { return Emit({Opcode::kHalt}); }

  // Marks the entry point at the next appended instruction.
  void SetEntryHere() { entry_ = static_cast<Addr>(instructions_.size()); }

  Addr next_address() const { return static_cast<Addr>(instructions_.size()); }

  // Resolves all labels and validates. The builder is consumed.
  Result<Program> Build() &&;

 private:
  struct Fixup {
    size_t insn_index;
    size_t label_id;
  };

  ProgramBuilder& Emit(Instruction insn) {
    instructions_.push_back(insn);
    return *this;
  }
  ProgramBuilder& Emit3(Opcode op, Reg rd, Reg rs1, Reg rs2) {
    return Emit({op, rd, rs1, rs2, 0});
  }
  ProgramBuilder& EmitImm(Opcode op, Reg rd, Reg rs1, int64_t imm) {
    return Emit({op, rd, rs1, 0, imm});
  }
  ProgramBuilder& EmitBranch(Opcode op, Reg rs1, Reg rs2, Label target) {
    fixups_.push_back(Fixup{instructions_.size(), target.id_});
    return Emit({op, 0, rs1, rs2, 0});
  }

  Program program_;
  Addr entry_ = 0;
  std::vector<Instruction> instructions_;
  std::vector<Addr> label_targets_;
  std::vector<Fixup> fixups_;
  std::vector<std::pair<std::string, size_t>> symbol_labels_;
};

}  // namespace yieldhide::isa

#endif  // YIELDHIDE_SRC_ISA_BUILDER_H_
