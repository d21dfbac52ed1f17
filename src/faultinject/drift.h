// Program-drift generator: applies recompile-like edits to an isa::Program so
// a profile collected on the *old* binary can be replayed against the *new*
// one — the "stale profile" scenario the paper's continuous-profiling
// deployment must survive. Edits are semantics-preserving (the drifted binary
// computes the same results), only addresses move:
//
//   * instruction insertion — harmless filler (nop / mov r,r / addi r,r,0)
//     spliced in via BinaryRewriter, shifting everything after it;
//   * block reordering — a basic block is outlined to the end of the image
//     and replaced by a jump stub, its old body nop-filled (the deletion
//     analog: those addresses no longer hold the measured instructions).
//
// Deterministic in (config.seed, config.severity).
#ifndef YIELDHIDE_SRC_FAULTINJECT_DRIFT_H_
#define YIELDHIDE_SRC_FAULTINJECT_DRIFT_H_

#include <string>

#include "src/common/status.h"
#include "src/isa/program.h"

namespace yieldhide::faultinject {

struct DriftConfig {
  double severity = 0.5;  // in [0,1]: fraction-ish of the image that drifts
  uint64_t seed = 1;
};

struct DriftReport {
  size_t insertions = 0;
  size_t blocks_moved = 0;
  size_t old_size = 0;
  size_t new_size = 0;

  std::string ToString() const;
};

struct DriftResult {
  isa::Program program;
  DriftReport report;
};

// Produces a drifted copy of `program`. The result Validate()s and computes
// the same outputs when run from its entry; only its address layout differs,
// so profiles keyed by old addresses mis-attribute onto it.
Result<DriftResult> DriftProgram(const isa::Program& program,
                                 const DriftConfig& config);

}  // namespace yieldhide::faultinject

#endif  // YIELDHIDE_SRC_FAULTINJECT_DRIFT_H_
