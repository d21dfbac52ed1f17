#include "src/instrument/backmap.h"

namespace yieldhide::instrument {

ReverseAddrMap::ReverseAddrMap(const AddrMap& forward,
                               size_t instrumented_size)
    : reverse_(instrumented_size, isa::kInvalidAddr),
      original_size_(forward.old_size()) {
  for (isa::Addr old_addr = 0; old_addr < forward.old_size(); ++old_addr) {
    const isa::Addr new_addr = forward.Translate(old_addr);
    if (new_addr < reverse_.size()) {
      reverse_[new_addr] = old_addr;
    }
  }
  // Inserted instructions precede the original instruction they were placed
  // before; sweep backwards so each unmapped slot inherits the next original.
  isa::Addr pending = isa::kInvalidAddr;
  for (size_t i = reverse_.size(); i-- > 0;) {
    if (reverse_[i] != isa::kInvalidAddr) {
      pending = reverse_[i];
    } else {
      reverse_[i] = pending;
    }
  }
}

std::map<isa::Addr, isa::Addr> PrimaryYieldsByOriginalSite(
    const InstrumentedProgram& binary) {
  const ReverseAddrMap reverse(binary.addr_map, binary.program.size());
  std::map<isa::Addr, isa::Addr> sites;
  for (const auto& [yield_addr, info] : binary.yields) {
    if (info.kind != YieldKind::kPrimary) {
      continue;
    }
    // The yield was inserted just before the load it covers, so it
    // back-maps to that load's original address. Coalesced yields map to the
    // first covered load.
    const isa::Addr original = reverse.ToOriginal(yield_addr);
    if (original != isa::kInvalidAddr) {
      sites.emplace(original, yield_addr);
    }
  }
  return sites;
}

}  // namespace yieldhide::instrument
