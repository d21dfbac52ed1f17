// Text (de)serialization of the yield side-table, so instrumented binaries
// written to disk keep their per-yield switch-cost metadata (the CLI stores
// it as a ".yields" sidecar next to the binary).
#ifndef YIELDHIDE_SRC_INSTRUMENT_SIDE_TABLE_IO_H_
#define YIELDHIDE_SRC_INSTRUMENT_SIDE_TABLE_IO_H_

#include <map>
#include <string>

#include "src/common/status.h"
#include "src/instrument/types.h"

namespace yieldhide::instrument {

std::string SerializeYieldTable(const std::map<isa::Addr, YieldInfo>& yields);
Result<std::map<isa::Addr, YieldInfo>> DeserializeYieldTable(std::string_view text);

Status SaveYieldTable(const std::map<isa::Addr, YieldInfo>& yields,
                      const std::string& path);
Result<std::map<isa::Addr, YieldInfo>> LoadYieldTable(const std::string& path);

// Address-map export: the original→instrumented forward table, one "old new"
// pair per line, stored by the CLI as a ".map" sidecar. It is write-only here:
// online adaptation (src/adapt) back-maps through the in-memory AddrMap.
Status SaveAddrMap(const AddrMap& map, const std::string& path);

}  // namespace yieldhide::instrument

#endif  // YIELDHIDE_SRC_INSTRUMENT_SIDE_TABLE_IO_H_
