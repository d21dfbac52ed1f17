// yhbench command line:
//
//   yhbench --workload <chase_rr|serve_obs|adapt_drift> [--seed N]
//           [--seconds S] [--trace 0|1] [--spans PATH]
//
// Prints the host stamp and a metric table, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
// every output check passed, 1 when one failed (the result is still
// printed), 2 on a usage error or a refused build (nothing is printed on
// stdout).
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/strings.h"
#include "yhbench/yhbench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "yhbench: %s\nusage: yhbench --workload "
               "<chase_rr|serve_obs|adapt_drift> [--seed N] [--seconds S] "
               "[--trace 0|1] [--spans PATH]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace yieldhide;
  yhbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      auto seed = ParseUint64(value);
      if (!seed.ok()) {
        return Usage("--seed takes a non-negative integer");
      }
      options.seed = *seed;
    } else if (flag == "--seconds") {
      auto seconds = ParseDouble(value);
      if (!seconds.ok() || !(*seconds > 0.0) || *seconds > 600.0) {
        return Usage("--seconds takes a number in (0, 600]");
      }
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) {
    return Usage("--workload is required");
  }

  auto outcome = yhbench::Run(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "yhbench: %s\n", outcome.status().ToString().c_str());
    return 2;
  }
  std::printf("host: %s\n", yhbench::HostStamp().c_str());
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : outcome->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const auto& [spec, value] : outcome->metrics) {
    std::printf("  %-40s %16.6g %s\n", spec.name.c_str(), value,
                spec.unit.c_str());
  }
  std::printf("%s\n", yhbench::ToResultJson(*outcome).c_str());
  std::fflush(stdout);
  return outcome->correct ? 0 : 1;
}
