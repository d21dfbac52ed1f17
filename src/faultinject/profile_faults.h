// Profile-corruption injector: a deterministic model of the ways PEBS-based
// profiles go wrong in production (CounterPoint catalogues all four on real
// PMUs), applied to an aggregated ProfileData. That is the layer the chaos
// CLI and the R1 fault-matrix bench inject at, since production profiles
// travel as aggregated files, not sample streams. Tests that harden
// LoadProfile::AddSamples build their bad samples by hand.
//
// A pure function of (input, FaultSpec): same seed, same corruption.
#ifndef YIELDHIDE_SRC_FAULTINJECT_PROFILE_FAULTS_H_
#define YIELDHIDE_SRC_FAULTINJECT_PROFILE_FAULTS_H_

#include "src/faultinject/fault.h"
#include "src/profile/profile.h"

namespace yieldhide::faultinject {

// Applies `spec` to an aggregated profile. Load sites are re-keyed / split /
// dropped per the fault class; block (LBR) data is perturbed for the
// IP-affecting classes and left intact for kBufferDrop (LBR rides a separate
// buffer). kStaleBinary and the serving classes leave the profile unchanged:
// stale drift is injected on the binary side (DriftProgram), replaying the
// unmodified profile against the drifted binary.
profile::ProfileData CorruptProfile(const profile::ProfileData& data,
                                    const FaultSpec& spec, isa::Addr code_size);

}  // namespace yieldhide::faultinject

#endif  // YIELDHIDE_SRC_FAULTINJECT_PROFILE_FAULTS_H_
