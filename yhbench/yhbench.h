// yhbench: host speed and simulated outcomes of the yieldhide engine on three
// workloads (README.md in this directory has the metric table and the
// layer -> end-to-end map).
//
// Two clocks. Host (H) metrics time the engine with std::chrono::steady_clock
// and are medians over repetitions; the end-to-end ones are scaled to a
// reference host speed by a fixed pass timed after every repetition.
// Simulated (S) metrics read the modelled
// clock and counters; they are deterministic for a seed, and every
// repetition in one invocation must reproduce them bit for bit.
//
// Every layer is measured from outside: the benchmark's own files time calls
// into each layer's public functions. Nothing under src/ knows it is being
// measured.
#ifndef YHBENCH_YHBENCH_H_
#define YHBENCH_YHBENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace yhbench {

using yieldhide::Result;
using yieldhide::Status;

// The seed used when --seed is absent, and a second seed held out for
// confirming later performance claims (never used while tuning).
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kHeldOutSeed = 7919;

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Printed with --trace 0 / --trace 1 respectively, in this order, by every
// workload. BENCHMARK.json lists the same names.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans (JSON); empty = keep them in
  // memory only.
  std::string spans_path;
  // Tests only: shrink every workload to a few tasks over a small working
  // set, and run one set-up instead of several.
  bool small = false;
  // Tests only: overwrite one task's result slot after every repetition,
  // before the output check, so the check must report it.
  bool plant_corruption = false;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every EndToEndMetrics() entry (trace off) or PerLayerMetrics() entry
  // (trace on), in spec order.
  std::vector<std::pair<MetricSpec, double>> metrics;
  // Human-readable lines: failures, failed_frac, latency sample counts.
  std::vector<std::string> notes;

  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// nproc, CPU model, compiler, build type and flags, sanitizers.
std::string HostStamp();

// Refuses builds that would time a different program: no optimization, or
// a sanitizer compiled in.
Status CheckBuild();

// Runs one workload for `options.seconds` and checks every output.
Result<Outcome> Run(const Options& options);

// The one-line result object: {"correct", "attempted", "failed", "metrics"}.
std::string ToResultJson(const Outcome& outcome);

}  // namespace yhbench

#endif  // YHBENCH_YHBENCH_H_
