#include "src/adapt/online_profile.h"

#include "src/runtime/dual_mode.h"

namespace yieldhide::adapt {

void OnlineProfile::BeginEpoch() {
  ++epochs_;
  loads_.Decay(kEvidenceDecay, kMinSiteExecutions);
}

void OnlineProfile::ObserveSamples(const std::vector<pmu::PebsSample>& samples,
                                   const profile::SamplePeriods& periods,
                                   const instrument::ReverseAddrMap& backmap,
                                   profile::LoadProfile* epoch_evidence) {
  std::vector<pmu::PebsSample> translated;
  translated.reserve(samples.size());
  for (const pmu::PebsSample& sample : samples) {
    if (sample.ctx_id >= runtime::kScavengerCtxIdBase) {
      ++scavenger_samples_;
      continue;
    }
    const isa::Addr original = backmap.ToOriginal(sample.ip);
    if (original == isa::kInvalidAddr) {
      ++drop_stats_.dropped_out_of_range;
      continue;
    }
    pmu::PebsSample mapped = sample;
    mapped.ip = original;
    translated.push_back(mapped);
  }
  loads_.AddSamples(translated, periods,
                    static_cast<isa::Addr>(backmap.original_size()),
                    &drop_stats_);
  if (epoch_evidence != nullptr) {
    epoch_evidence->AddSamples(translated, periods,
                               static_cast<isa::Addr>(backmap.original_size()));
  }
}

}  // namespace yieldhide::adapt
