// The yieldhide pipeline: the paper's three-step flow as one public API.
//
//   (i)   run the original binary in "production" with sample-based profiling
//         (profile::CollectProfile),
//   (ii)  instrument it — primary prefetch+yield placement at likely-miss
//         loads, then scavenger conditional-yield placement to bound
//         inter-yield intervals (instrument::RunPrimaryPass /
//         RunScavengerPass), verified structurally, and
//   (iii) execute the instrumented binary under a coroutine runtime
//         (runtime::RoundRobinScheduler or runtime::DualModeScheduler).
//
// This header covers (i)+(ii); step (iii) is the runtime's job, since how to
// schedule depends on the deployment (symmetric throughput vs. asymmetric
// latency). See examples/quickstart.cpp for the full loop.
//
// Step (iv), closing the loop, lives in src/adapt: while step (iii) serves
// work, a low-period sampling session keeps profiling, a drift score compares
// what it sees against the profile the instrumentation was built from, and
// when the workload has moved the adapt controller re-runs step (ii) here
// (InstrumentFromProfile on the ORIGINAL binary with the merged profile) and
// hot-swaps the result into the running scheduler. See docs/ONLINE.md.
//
// To audit whether an instrumentation actually pays for itself, attach an
// obs::CycleProfiler to the step-(iii) scheduler (SetProfiler on either
// runtime, or per shard on adapt::ServerGroup): it classifies every cycle of
// the run into a closed per-site taxonomy that sums to RunReport::total_cycles
// exactly, keyed by ORIGINAL-binary site so hot swaps don't split the
// series. See docs/PROFILER.md and `yhc profile`.
#ifndef YIELDHIDE_SRC_CORE_PIPELINE_H_
#define YIELDHIDE_SRC_CORE_PIPELINE_H_

#include <string>

#include "src/common/status.h"
#include "src/instrument/primary_pass.h"
#include "src/obs/metrics.h"
#include "src/instrument/scavenger_pass.h"
#include "src/instrument/verifier.h"
#include "src/profile/collector.h"
#include "src/runtime/dual_mode.h"
#include "src/sim/machine.h"
#include "src/workloads/workload.h"

namespace yieldhide::core {

struct PipelineConfig {
  sim::MachineConfig machine = sim::MachineConfig::SkylakeLike();
  profile::CollectorConfig collector;
  instrument::PrimaryConfig primary;
  instrument::ScavengerConfig scavenger;
  // How many workload tasks to run (and merge) during profiling, starting at
  // task 0.
  int profile_tasks = 4;
  // Not a knob: profiling always starts at task 0. The name stays because
  // yhbench's pipeline probe mirrors the profiling loop with it.
  static constexpr int profile_first_task = 0;
  // Optional: every build publishes its artifact telemetry (drop counters,
  // insertion counts, profiling overhead) here, so repeated builds — the
  // online adaptation loop re-instrumenting — leave a metric trail. Must
  // outlive the build calls. May be null.
  obs::MetricsRegistry* metrics = nullptr;

  // Fills derived fields (cost models, machine-dependent parameters) from
  // `machine`; call after editing `machine` or the pass configs' knobs.
  void Finalize();
};

struct PipelineArtifacts {
  profile::ProfileData profile;
  uint64_t profile_run_cycles = 0;
  uint64_t profile_run_instructions = 0;
  double sampling_overhead_fraction = 0.0;
  // Degradation telemetry: samples the collector refused and profile records
  // dropped because they referenced addresses outside the binary. All-zero
  // for a fresh, matching profile; non-zero means the profile disagreed with
  // the binary and the pipeline degraded gracefully instead of
  // mis-instrumenting.
  profile::SampleDropStats sample_drops;
  profile::ProfileSanitizeReport sanitize_report;
  instrument::PrimaryReport primary_report;
  instrument::ScavengerReport scavenger_report;
  // The final instrumented binary (after both passes).
  instrument::InstrumentedProgram binary;

  std::string Summary() const;
};

// Runs steps (i)+(ii) for a SimWorkload: creates a machine, initializes the
// workload image, profiles tasks [0, config.profile_tasks), and instruments.
Result<PipelineArtifacts> BuildInstrumentedForWorkload(
    const workloads::SimWorkload& workload, const PipelineConfig& config);

// Step (ii) only: instrument `original` against an already-collected profile.
// The profile may be stale or corrupted — it is sanitized against the binary
// first and the drop counters land in the returned artifacts. Used by the
// fault-injection tooling and by callers that persist profiles across runs.
Result<PipelineArtifacts> InstrumentFromProfile(const isa::Program& original,
                                                profile::ProfileData profile,
                                                const PipelineConfig& config);

// The compute-heavy scavenger kernel of the benches and `yhc chaos`: an ALU
// loop (40 x {addi, xor}, r2 iterations), scavenger-instrumented at 300
// cycles. It touches no memory, so it can share a machine with any primary.
instrument::InstrumentedProgram MakeScavengedBatch(
    const sim::MachineConfig& machine);

// An endless supply of MakeScavengedBatch coroutines, 1M iterations each.
runtime::DualModeScheduler::ScavengerFactory BatchFactory();

}  // namespace yieldhide::core

#endif  // YIELDHIDE_SRC_CORE_PIPELINE_H_
