// Exponentially-decayed online profile (docs/ONLINE.md).
//
// Accumulates back-mapped PEBS samples from the low-period in-production
// session into a profile::LoadProfile keyed by ORIGINAL-binary addresses.
// Each serving epoch starts with a decay step, so evidence from dead phases
// fades instead of pinning the profile to history — the "exponentially-
// decayed online profile" of the adaptation loop.
#ifndef YIELDHIDE_SRC_ADAPT_ONLINE_PROFILE_H_
#define YIELDHIDE_SRC_ADAPT_ONLINE_PROFILE_H_

#include <vector>

#include "src/instrument/backmap.h"
#include "src/pmu/sample.h"
#include "src/profile/profile.h"

namespace yieldhide::adapt {

// Multiplier applied to all accumulated evidence at each epoch boundary; the
// group's SharedProfileStore decays at the same rate.
inline constexpr double kEvidenceDecay = 0.6;
// Sites whose decayed execution estimate drops below this are forgotten.
inline constexpr double kMinSiteExecutions = 0.5;

class OnlineProfile {
 public:
  // Starts a new epoch: decays all prior evidence.
  void BeginEpoch();

  // Back-maps `samples` (instrumented-image IPs) through `backmap` and
  // accumulates them. Samples from scavenger contexts (ctx_id >=
  // runtime::kScavengerCtxIdBase) are skipped — scavengers run their own
  // binary and their misses are free to happen; only the primary's behaviour
  // drives adaptation. Samples that back-map nowhere are counted as dropped.
  // When `epoch_evidence` is non-null, the same translated samples are also
  // accumulated there UNDECAYED — the raw per-epoch evidence a shard
  // contributes to the group's SharedProfileStore, which applies its own
  // decay schedule (contributing decayed totals instead would double-count
  // every prior epoch at each merge).
  void ObserveSamples(const std::vector<pmu::PebsSample>& samples,
                      const profile::SamplePeriods& periods,
                      const instrument::ReverseAddrMap& backmap,
                      profile::LoadProfile* epoch_evidence = nullptr);

  // The accumulated evidence, in original-binary addresses.
  const profile::LoadProfile& loads() const { return loads_; }

  uint64_t epochs() const { return epochs_; }
  uint64_t samples_accepted() const { return drop_stats_.accepted; }
  uint64_t samples_dropped() const {
    return drop_stats_.TotalDropped() + scavenger_samples_;
  }
  uint64_t scavenger_samples() const { return scavenger_samples_; }

 private:
  profile::LoadProfile loads_;
  profile::SampleDropStats drop_stats_;
  uint64_t scavenger_samples_ = 0;
  uint64_t epochs_ = 0;
};

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_ONLINE_PROFILE_H_
