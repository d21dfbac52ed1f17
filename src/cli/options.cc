#include "src/cli/options.h"

#include <cstdio>
#include <string_view>

#include "src/common/strings.h"
#include "src/isa/isa.h"

namespace yieldhide::cli {

Result<Options> Options::Parse(int argc, char** argv, const ParseSpec& spec) {
  Options options;
  auto is_presence = [&spec](const std::string& key) {
    for (const std::string& name : spec.presence) {
      if (key == name) {
        return true;
      }
    }
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      options.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string key, value;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos && arg.substr(0, eq) != "reg") {
      key = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      key = std::string(eq != std::string_view::npos ? arg.substr(0, eq) : arg);
      if (key == "reg" && eq != std::string_view::npos) {
        value = std::string(arg.substr(eq + 1));
      } else if (is_presence(key)) {
        // Presence flags never swallow the next token; an optional value uses
        // the --key=value form (--top=20).
        value.clear();
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return InvalidArgumentError("flag --" + key + " needs a value");
      }
    }
    if (key == "reg") {
      const size_t split = value.find('=');
      if (split == std::string::npos) {
        return InvalidArgumentError("--reg expects N=VALUE");
      }
      YH_ASSIGN_OR_RETURN(const int64_t reg, ParseInt64(value.substr(0, split)));
      YH_ASSIGN_OR_RETURN(const uint64_t v, ParseUint64(value.substr(split + 1)));
      if (reg < 0 || reg >= isa::kNumRegisters) {
        return OutOfRangeError("--reg register out of range");
      }
      options.regs_.emplace_back(static_cast<int>(reg), v);
    } else if (key == "ring") {
      options.rings_.push_back(value);
    } else {
      options.flags_[key] = value;
      options.repeated_[key].push_back(value);
    }
  }
  return options;
}

void Options::Fail(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
}

std::string Options::Str(const std::string& name,
                         const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::vector<std::string> Options::StrList(const std::string& name) const {
  auto it = repeated_.find(name);
  return it == repeated_.end() ? std::vector<std::string>() : it->second;
}

uint64_t Options::U64(const std::string& name, uint64_t fallback,
                      uint64_t max) {
  return BoundedU64(name, fallback, 0, max);
}

uint64_t Options::PositiveU64(const std::string& name, uint64_t fallback,
                              uint64_t max) {
  return BoundedU64(name, fallback, 1, max);
}

uint64_t Options::BoundedU64(const std::string& name, uint64_t fallback,
                             uint64_t min, uint64_t max) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  Result<uint64_t> parsed = ParseUint64(it->second);
  if (!parsed.ok() || *parsed < min) {
    Fail("bad --" + name);
    return fallback;
  }
  if (*parsed > max) {
    Fail(StrFormat("bad --%s (want <= %llu)", name.c_str(),
                   static_cast<unsigned long long>(max)));
    return fallback;
  }
  return *parsed;
}

double Options::Double(const std::string& name, double fallback) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    Fail("bad --" + name);
    return fallback;
  }
  return *parsed;
}

double Options::PositiveDouble(const std::string& name, double fallback) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok() || !(*parsed > 0.0)) {
    Fail("bad --" + name + " (want > 0)");
    return fallback;
  }
  return *parsed;
}

double Options::UnitDouble(const std::string& name, double fallback) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok() || *parsed < 0.0 || *parsed > 1.0) {
    Fail("bad --" + name + " (want 0..1)");
    return fallback;
  }
  return *parsed;
}

std::string Options::Choice(const std::string& name, const std::string& fallback,
                            std::initializer_list<const char*> allowed) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return fallback;
  }
  std::string menu;
  for (const char* option : allowed) {
    if (it->second == option) {
      return it->second;
    }
    if (!menu.empty()) {
      menu += '|';
    }
    menu += option;
  }
  Fail("bad --" + name + " (want " + menu + ")");
  return fallback;
}

size_t Options::TopN(size_t fallback) {
  auto it = flags_.find("top");
  if (it == flags_.end() || it->second.empty()) {
    return fallback;
  }
  Result<uint64_t> parsed = ParseUint64(it->second);
  if (!parsed.ok() || *parsed == 0) {
    Fail("bad --top (want a positive count)");
    return fallback;
  }
  return static_cast<size_t>(*parsed);
}

void Options::RejectUnknownFlags(const std::string& command,
                                 std::initializer_list<const char*> known) {
  for (const auto& [key, value] : flags_) {
    bool recognized = false;
    for (const char* flag : known) {
      recognized = recognized || key == flag;
    }
    if (!recognized) {
      Fail("yhc " + command + ": unknown flag '--" + key + "'");
      return;
    }
  }
}

int Options::UsageError() const {
  std::fprintf(stderr, "%s\n", error_.c_str());
  return 2;
}

Status Options::ApplyRings(sim::Machine& machine) const {
  for (const std::string& spec : rings_) {
    auto parts = SplitString(spec, ',');
    if (parts.size() != 3) {
      return InvalidArgumentError("--ring expects base,lines,stride");
    }
    YH_ASSIGN_OR_RETURN(const uint64_t base, ParseUint64(parts[0]));
    YH_ASSIGN_OR_RETURN(const uint64_t lines, ParseUint64(parts[1]));
    YH_ASSIGN_OR_RETURN(const uint64_t stride, ParseUint64(parts[2]));
    if (lines == 0) {
      return InvalidArgumentError("--ring needs lines > 0");
    }
    for (uint64_t i = 0; i < lines; ++i) {
      machine.memory().Write64(base + i * 64, base + ((i + stride) % lines) * 64);
    }
  }
  return Status::Ok();
}

std::function<void(sim::CpuContext&)> Options::MakeSetup(int task) const {
  const bool spread = task > 0 && !rings_.empty();
  return [regs = regs_, spread, task](sim::CpuContext& ctx) {
    for (const auto& [reg, value] : regs) {
      ctx.regs[reg] = value;
    }
    // Spread multi-coroutine runs: r1 advanced by task*64 lines if a ring is
    // in use (callers can instead pass distinct --reg via separate runs).
    if (spread) {
      ctx.regs[1] += static_cast<uint64_t>(task) * 64 * 257;
    }
  };
}

}  // namespace yieldhide::cli
