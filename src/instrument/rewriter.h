// BinaryRewriter: inserts instruction sequences into a Program and fixes up
// every branch/jump/call target, the entry point, and the symbol table —
// the mechanical heart of binary-level instrumentation (what BOLT calls
// "rewriting" on real x86).
#ifndef YIELDHIDE_SRC_INSTRUMENT_REWRITER_H_
#define YIELDHIDE_SRC_INSTRUMENT_REWRITER_H_

#include <vector>

#include "src/common/status.h"
#include "src/instrument/types.h"

namespace yieldhide::instrument {

class BinaryRewriter {
 public:
  explicit BinaryRewriter(const isa::Program& original) : original_(&original) {}

  // Schedules `sequence` to execute immediately before the instruction
  // currently at `addr`. Multiple insertions at one address are concatenated
  // in call order. Branches that target `addr` will target the start of the
  // inserted sequence (the sequence becomes part of the block).
  void InsertBefore(isa::Addr addr, std::vector<isa::Instruction> sequence);

  struct Rewritten {
    isa::Program program;
    AddrMap addr_map;
    // New addresses of all inserted instructions, in insertion-call order
    // (flattened). Passes use this to locate their inserted yields.
    std::vector<isa::Addr> inserted_addresses;
  };

  // Applies all insertions. The rewriter can be reused afterwards (insertions
  // are cleared).
  Result<Rewritten> Apply();

 private:
  struct Insertion {
    isa::Addr addr;
    std::vector<isa::Instruction> sequence;
    size_t order;  // stable tie-break for same-address insertions
  };

  const isa::Program* original_;
  std::vector<Insertion> insertions_;
};

}  // namespace yieldhide::instrument

#endif  // YIELDHIDE_SRC_INSTRUMENT_REWRITER_H_
