// CollectProfile: step (i) of the paper's pipeline — run the original,
// uninstrumented binary with hardware-event sampling enabled and build a
// ProfileData from the samples. Stands in for "perf record" plus the AutoFDO
// sample converter.
#ifndef YIELDHIDE_SRC_PROFILE_COLLECTOR_H_
#define YIELDHIDE_SRC_PROFILE_COLLECTOR_H_

#include <functional>

#include "src/common/status.h"
#include "src/pmu/session.h"
#include "src/profile/profile.h"
#include "src/sim/executor.h"

namespace yieldhide::profile {

struct CollectorConfig {
  // Sampling periods per event family. A period of 0 disables that event.
  uint64_t l1_miss_period = 0;
  uint64_t l2_miss_period = 97;
  uint64_t l3_miss_period = 0;
  uint64_t stall_cycles_period = 1009;
  uint64_t retired_period = 499;
  // PEBS realism knobs (applied to every enabled event).
  double period_jitter = 0.0;  // randomize inter-sample gaps (anti-aliasing)
  uint32_t max_skid = 0;
  double skid_probability = 0.0;
  size_t buffer_capacity = 1 << 20;
  // LBR (snapshotted at pmu::LbrConfig's default period).
  bool enable_lbr = true;
  // Run bound.
  uint64_t max_instructions = 200'000'000;
  uint64_t seed = 1;
};

struct CollectResult {
  ProfileData profile;
  uint64_t run_cycles = 0;
  uint64_t run_instructions = 0;
  double sampling_overhead_fraction = 0.0;
  // Samples the aggregation refused (IP outside the program, corrupt event
  // encoding). Non-zero out-of-range drops on a fresh binary indicate PMU
  // skid/aliasing; callers surface these rather than failing the run.
  SampleDropStats sample_drops;
};

// Runs `program` single-context (blocking stalls, yields fall through) on
// `machine` with sampling attached. `setup` initializes the context's
// registers (workload inputs). The machine's listener list is restored on
// return; micro-architectural state is NOT reset (pass a fresh machine or
// call ResetMicroarchState() for cold-cache profiling).
Result<CollectResult> CollectProfile(const isa::Program& program, sim::Machine& machine,
                                     const std::function<void(sim::CpuContext&)>& setup,
                                     const CollectorConfig& config);

// The sampling setup scaled from one L2-miss period (`yhc profile`, `yhc
// chaos` and C10): stall cycles every 7x the period, retired instructions
// every 2x+1, and 10% jitter on every gap, because deterministic periods
// alias against loop lengths (a fixed period that is a multiple of the loop
// length samples the same IP forever).
CollectorConfig CollectorForPeriod(uint64_t l2_miss_period);

// Builds the pmu::SessionConfig / SamplePeriods pair implied by a
// CollectorConfig (exposed for tests and custom drivers).
pmu::SessionConfig MakeSessionConfig(const CollectorConfig& config);
SamplePeriods MakeSamplePeriods(const CollectorConfig& config);

}  // namespace yieldhide::profile

#endif  // YIELDHIDE_SRC_PROFILE_COLLECTOR_H_
