// cli::Options — the one flag parser behind every yhc subcommand.
//
// Before this existed each subcommand hand-rolled the same loop: find the
// flag, ParseUint64 it, print "bad --x", return 2. The copies drifted (some
// validated ranges, some forgot; --top=0 was caught in one place and not
// another). This class centralizes the convention:
//
//   * tokenizing: positional args, --key value / --key=value flags, the
//     repeatable --reg N=V and --ring base,lines,stride specs, and declared
//     PRESENCE flags (--json, --folded, --top[=N]) that never swallow the
//     next token;
//   * typed access with named errors: U64/PositiveU64/Double/UnitDouble/
//     Choice record "bad --<flag>" on the first malformed value and return
//     the fallback, so a command reads all its flags declaratively and then
//     checks ok() once — exit 2 with the flag named, never a half-parsed run;
//   * the shared simulator plumbing every runnable command repeated:
//     ApplyRings() and MakeSetup().
#ifndef YIELDHIDE_SRC_CLI_OPTIONS_H_
#define YIELDHIDE_SRC_CLI_OPTIONS_H_

#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/sim/executor.h"
#include "src/sim/machine.h"

namespace yieldhide::cli {

struct ParseSpec {
  // Flags that never consume the following token; an optional value uses the
  // --key=value form (--top=20). The defaults cover the `yhc profile` output
  // modes so `yhc profile --json out.json` keeps `out.json` positional.
  std::vector<std::string> presence = {"folded", "top", "json", "perfetto"};
};

class Options {
 public:
  // Tokenizes argv[2..] (argv[1] is the subcommand). Fails only on
  // structurally broken input (a trailing flag with no value, a malformed
  // --reg); per-flag value validation happens in the typed accessors below.
  static Result<Options> Parse(int argc, char** argv,
                               const ParseSpec& spec = ParseSpec());

  const std::vector<std::string>& positional() const { return positional_; }
  bool Has(const std::string& name) const { return flags_.count(name) != 0; }
  std::string Str(const std::string& name, const std::string& fallback) const;
  // Every value given for a repeatable flag, in argv order (empty when the
  // flag is absent). The scalar accessors above see only the LAST value —
  // flags meant to be repeated (--tenant) must be read through this.
  std::vector<std::string> StrList(const std::string& name) const;

  // Typed accessors. On a malformed (or out-of-policy) value they record the
  // named error — first failure wins — and return the fallback, so a command
  // can read every flag before checking ok() once.
  // A value above `max` is "bad --name (want <= max)": a command that stores
  // the flag in a narrower type passes that type's maximum, so a huge value
  // fails instead of silently wrapping.
  uint64_t U64(const std::string& name, uint64_t fallback,
               uint64_t max = std::numeric_limits<uint64_t>::max());
  // Additionally rejects 0.
  uint64_t PositiveU64(const std::string& name, uint64_t fallback,
                       uint64_t max = std::numeric_limits<uint64_t>::max());
  double Double(const std::string& name, double fallback);
  // Rejects values outside [0, 1]: "bad --name (want 0..1)".
  double UnitDouble(const std::string& name, double fallback);
  // Rejects zero, negatives, and non-finite values: "bad --name (want > 0)".
  double PositiveDouble(const std::string& name, double fallback);
  // Enumerated value: "bad --name (want a|b|c)".
  std::string Choice(const std::string& name, const std::string& fallback,
                     std::initializer_list<const char*> allowed);
  // The shared --top[=N] convention: presence alone keeps the fallback, an
  // explicit value must be a positive count.
  size_t TopN(size_t fallback);

  // Closed flag set: the first flag not in `known` (nor --reg/--ring, which
  // are always allowed) records "yhc <command>: unknown flag '--x'" — a typo
  // must not silently run the default scenario and look like success.
  void RejectUnknownFlags(const std::string& command,
                          std::initializer_list<const char*> known);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  // Prints the recorded error to stderr and returns the usage exit code (2).
  int UsageError() const;

  // Writes every --ring base,lines,stride spec into `machine`'s memory.
  Status ApplyRings(sim::Machine& machine) const;
  // Context setup applying every --reg N=V; task > 0 spreads ring starts.
  std::function<void(sim::CpuContext&)> MakeSetup(int task) const;

 private:
  void Fail(const std::string& message);
  uint64_t BoundedU64(const std::string& name, uint64_t fallback, uint64_t min,
                      uint64_t max);

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
  std::map<std::string, std::vector<std::string>> repeated_;
  std::vector<std::pair<int, uint64_t>> regs_;
  std::vector<std::string> rings_;
  std::string error_;
};

}  // namespace yieldhide::cli

#endif  // YIELDHIDE_SRC_CLI_OPTIONS_H_
