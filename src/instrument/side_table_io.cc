#include "src/instrument/side_table_io.h"

#include <fstream>
#include <sstream>

#include "src/common/strings.h"

namespace yieldhide::instrument {

std::string SerializeYieldTable(const std::map<isa::Addr, YieldInfo>& yields) {
  std::string out = "yh-yield-table v1\n";
  for (const auto& [addr, info] : yields) {
    out += StrFormat("%u %s %u %u %u\n", addr, YieldKindName(info.kind),
                     info.save_mask, info.switch_cycles, info.coalesced_loads);
  }
  return out;
}

Result<std::map<isa::Addr, YieldInfo>> DeserializeYieldTable(std::string_view text) {
  auto lines = SplitString(text, '\n');
  if (lines.empty() || TrimString(lines[0]) != "yh-yield-table v1") {
    return InvalidArgumentError("bad yield-table header");
  }
  std::map<isa::Addr, YieldInfo> yields;
  for (size_t i = 1; i < lines.size(); ++i) {
    auto fields = SplitString(TrimString(lines[i]), ' ');
    if (fields.empty()) {
      continue;
    }
    if (fields.size() != 5) {
      return InvalidArgumentError(StrFormat("yield-table line %zu malformed", i));
    }
    YH_ASSIGN_OR_RETURN(const uint64_t addr, ParseUint64(fields[0]));
    if (addr >= isa::kInvalidAddr) {
      return OutOfRangeError(StrFormat("yield-table line %zu: address out of range", i));
    }
    YieldInfo info;
    if (fields[1] == "primary") {
      info.kind = YieldKind::kPrimary;
    } else if (fields[1] == "scavenger") {
      info.kind = YieldKind::kScavenger;
    } else if (fields[1] == "manual") {
      info.kind = YieldKind::kManual;
    } else {
      return InvalidArgumentError("unknown yield kind: " + std::string(fields[1]));
    }
    YH_ASSIGN_OR_RETURN(const uint64_t mask, ParseUint64(fields[2]));
    if (mask > analysis::kAllRegs) {
      return OutOfRangeError("save mask out of range");
    }
    info.save_mask = static_cast<analysis::RegMask>(mask);
    YH_ASSIGN_OR_RETURN(const uint64_t cycles, ParseUint64(fields[3]));
    if (cycles > 0xffffffffull) {
      return OutOfRangeError(StrFormat("yield-table line %zu: cycles out of range", i));
    }
    info.switch_cycles = static_cast<uint32_t>(cycles);
    YH_ASSIGN_OR_RETURN(const uint64_t loads, ParseUint64(fields[4]));
    if (loads > 0xffffffffull) {
      return OutOfRangeError(StrFormat("yield-table line %zu: loads out of range", i));
    }
    info.coalesced_loads = static_cast<uint32_t>(loads);
    yields[static_cast<isa::Addr>(addr)] = info;
  }
  return yields;
}

Status SaveYieldTable(const std::map<isa::Addr, YieldInfo>& yields,
                      const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return UnavailableError("cannot open " + path + " for writing");
  }
  file << SerializeYieldTable(yields);
  return file.good() ? Status::Ok() : InternalError("write to " + path + " failed");
}

Result<std::map<isa::Addr, YieldInfo>> LoadYieldTable(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DeserializeYieldTable(buffer.str());
}

Status SaveAddrMap(const AddrMap& map, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return UnavailableError("cannot open " + path + " for writing");
  }
  file << "yh-addr-map v1\n";
  for (isa::Addr old_addr = 0; old_addr < map.old_size(); ++old_addr) {
    file << StrFormat("%u %u\n", old_addr, map.Translate(old_addr));
  }
  return file.good() ? Status::Ok() : InternalError("write to " + path + " failed");
}

}  // namespace yieldhide::instrument
