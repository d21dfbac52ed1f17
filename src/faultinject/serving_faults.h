// Serving-class fault injectors: deterministic models of control-plane
// failures in the online rebuild/swap/persistence path (the layer the
// profile faults never touch). Where CorruptProfile perturbs *data*,
// these perturb *operations*: a rebuild attempt fails, one epoch's
// back-mapped evidence is re-keyed, a build consumes inverted evidence, a
// shard stalls past its epoch deadline, a persisted store rots on disk.
//
// Semantics: serving faults are transient outages, not permanent
// probabilities. A spec at severity `s` is ACTIVE for the first
// ceil(s * kServingOutageEpochs) group epochs and then clears, so even
// severity 1.0 is a bounded incident the guard layer must ride out — which
// is what makes the R2 "≥90% of fault-free recovery" gate meaningful.
// Everything is a pure function of (inputs, FaultSpec): same seed, same
// fault.
#ifndef YIELDHIDE_SRC_FAULTINJECT_SERVING_FAULTS_H_
#define YIELDHIDE_SRC_FAULTINJECT_SERVING_FAULTS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/faultinject/fault.h"
#include "src/profile/profile.h"

namespace yieldhide::faultinject {

// Outage scale: a serving fault at severity 1.0 is active for this many
// group epochs from the start of the run.
inline constexpr int kServingOutageEpochs = 6;

// ceil(severity * kServingOutageEpochs), clamped to [0, kServingOutageEpochs].
int ServingOutageEpochs(double severity);

// The hook bundle ServerGroup consults at each decision point. Unset hooks
// mean "no fault of that class". All hooks are deterministic in their
// arguments.
struct ServingFaultHooks {
  // True ⇒ the rebuild attempted at `group_epoch` fails (kRebuildFail).
  std::function<bool(size_t group_epoch)> fail_rebuild;

  // Re-keys one epoch's back-mapped evidence in place before it reaches the
  // shared store — a corrupt ReverseAddrMap attributing samples to the wrong
  // original addresses (kBackmapCorrupt).
  std::function<void(size_t group_epoch, profile::LoadProfile& evidence)>
      corrupt_evidence;

  // True ⇒ the rebuild at `group_epoch` consumes inverted evidence (see
  // InvertLoads) and produces a regressing generation (kRegression).
  std::function<bool(size_t group_epoch)> degrade_build;

  // Serving-cost inflation for generations built while degrade_build was
  // firing: every epoch such a generation serves costs an extra
  // `cursed_penalty * epoch_cycles` cycles (kRegression). This models the
  // part of a bad build the simulator's own feedback loops cannot express —
  // icache pressure, pathological yield placement on the real machine — and
  // is what the canary comparison actually detects. 0 when no kRegression
  // spec is present.
  double cursed_penalty = 0.0;

  // Extra stall cycles shard `shard` burns past the epoch boundary at
  // `group_epoch`, given how long the epoch took on its own
  // (kShardStall; returns a multiple of `epoch_cycles` so the stall scales
  // with the workload).
  std::function<uint64_t(size_t shard, size_t group_epoch,
                         uint64_t epoch_cycles)>
      stall_cycles;

  bool any() const {
    return fail_rebuild != nullptr || corrupt_evidence != nullptr ||
           degrade_build != nullptr || stall_cycles != nullptr;
  }
};

// Builds the hook bundle for the serving-class specs in `specs`
// (kStoreCorrupt is file-level — apply it with CorruptStoreFile instead;
// it is accepted and ignored here). Non-serving classes are rejected: the
// pipeline classes belong to CorruptProfile and DriftProgram.
// `code_size` bounds the address space corrupt backmaps re-key into.
Result<ServingFaultHooks> MakeServingFaultHooks(
    const std::vector<FaultSpec>& specs, isa::Addr code_size);

// Inverts an evidence profile so a rebuild from it regresses rather than
// improves: sites that rarely miss get saturated miss/stall evidence (the
// instrumenter plants yields on fast loads, which then blow), and sites with
// real stall evidence are dropped (true misses go uncovered). This is the
// "plausible but wrong" profile a canary exists to catch — it passes the
// confidence gate, unlike random garbage.
profile::LoadProfile InvertLoads(const profile::LoadProfile& loads,
                                 uint64_t seed);

// Corrupts a persisted profile-store file in place (kStoreCorrupt):
// truncates a severity-scaled tail and flips severity-scaled bits in what
// remains. Deterministic in (file bytes, spec). Fails with NotFound if the
// file does not exist.
Status CorruptStoreFile(const std::string& path, const FaultSpec& spec);

}  // namespace yieldhide::faultinject

#endif  // YIELDHIDE_SRC_FAULTINJECT_SERVING_FAULTS_H_
