// The original-site rule: which original-binary instruction an address of an
// instrumented binary belongs to.
//
// The passes insert instructions (prefetch+yield, CYIELDs) immediately
// BEFORE the original instruction they serve, so an inserted address belongs
// to the NEXT surviving original instruction: a sample or a yield on the
// inserted sequence names the load it covers. One rule serves every consumer
// that needs a swap-invariant site key — the online sampling back-map and
// drift scoring (src/adapt), the dual-mode scheduler's trace and metrics
// (src/runtime) and the cycle profiler's site partition (src/obs/profiler).
#ifndef YIELDHIDE_SRC_INSTRUMENT_BACKMAP_H_
#define YIELDHIDE_SRC_INSTRUMENT_BACKMAP_H_

#include <map>
#include <vector>

#include "src/instrument/types.h"
#include "src/isa/isa.h"

namespace yieldhide::instrument {

class ReverseAddrMap {
 public:
  ReverseAddrMap() = default;
  // `forward` is the composed original→instrumented map of the final binary
  // (InstrumentedProgram::addr_map); `instrumented_size` its instruction
  // count.
  ReverseAddrMap(const AddrMap& forward, size_t instrumented_size);

  // Original-binary address for `instrumented_addr`; kInvalidAddr when the
  // address is out of range or past the last original instruction's image.
  isa::Addr ToOriginal(isa::Addr instrumented_addr) const {
    return instrumented_addr < reverse_.size() ? reverse_[instrumented_addr]
                                               : isa::kInvalidAddr;
  }

  // The site key: ToOriginal, or the address itself where that is
  // kInvalidAddr (a binary with no address map, or an address past the last
  // original instruction).
  isa::Addr SiteOf(isa::Addr instrumented_addr) const {
    const isa::Addr original = ToOriginal(instrumented_addr);
    return original == isa::kInvalidAddr ? instrumented_addr : original;
  }

  size_t instrumented_size() const { return reverse_.size(); }
  size_t original_size() const { return original_size_; }

 private:
  std::vector<isa::Addr> reverse_;
  size_t original_size_ = 0;
};

// Original load site → address of the kPrimary yield covering it, for every
// primary yield in `binary`. The adaptation loop uses this both as "the set
// of sites the current instrumentation handles" (drift scoring) and as the
// translation key when quarantine state is carried across a hot swap.
std::map<isa::Addr, isa::Addr> PrimaryYieldsByOriginalSite(
    const InstrumentedProgram& binary);

}  // namespace yieldhide::instrument

#endif  // YIELDHIDE_SRC_INSTRUMENT_BACKMAP_H_
