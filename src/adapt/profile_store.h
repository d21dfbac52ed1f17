// SharedProfileStore: the group-wide merged view of online evidence.
//
// Every shard samples only its own traffic; under drift that means each shard
// would need to re-accumulate the same phase change independently before its
// local profile justifies a rebuild. The store merges the RAW per-epoch
// evidence of all shards under one exponential decay, so a rebuild triggered
// by any one shard is instrumented from everything the whole group has seen —
// the reason one rebuild can serve N shards instead of N rebuilds
// rediscovering the same sites (docs/ONLINE.md).
//
// It is also the unit of cross-run persistence: ServerGroup serializes the
// merged view at shutdown via profile_io and warm-starts the next process
// from it, so a day-2 cold start skips the first degraded epoch.
#ifndef YIELDHIDE_SRC_ADAPT_PROFILE_STORE_H_
#define YIELDHIDE_SRC_ADAPT_PROFILE_STORE_H_

#include <map>
#include <string>

#include "src/common/status.h"
#include "src/profile/profile.h"

namespace yieldhide::adapt {

// --- durable on-disk container ----------------------------------------------
//
// The persisted store is wrapped in a versioned, checksummed container so a
// truncated, bit-rotted, or future-format file is REJECTED at load (the
// caller falls back to a cold start) instead of half-loading:
//
//   yhstore v<version> len=<payload bytes>\n     <- versioned header
//   <payload: profile_io text serialization>
//   yhstore-end crc=<16-hex FNV-1a64 of payload>\n   <- checksum footer
//
// Saves are atomic: the container is written to "<path>.tmp" and renamed
// over the target, so a crash mid-save leaves the previous good file intact.

inline constexpr int kStoreFormatVersion = 1;

// FNV-1a 64-bit over `bytes` (exposed so tests can forge/verify footers).
uint64_t StoreChecksum(std::string_view bytes);

// Wraps `data` in the container format / parses and verifies a container.
// ParseStoreFile returns typed errors: InvalidArgument for a garbled header,
// checksum mismatch, or trailing garbage; OutOfRange for a short read
// (payload or footer truncated mid-byte); FailedPrecondition for a valid
// container written by a FUTURE format version.
std::string SerializeStoreFile(const profile::ProfileData& data);
Result<profile::ProfileData> ParseStoreFile(std::string_view bytes);

// File wrappers: atomic write-rename save, and a load that distinguishes
// NotFound (no file: normal day-1 cold start) from every corruption error
// ParseStoreFile reports.
Status SaveStoreFile(const profile::ProfileData& data, const std::string& path);
Result<profile::ProfileData> LoadStoreFile(const std::string& path);

class SharedProfileStore {
 public:
  // Starts a group epoch: decays all accumulated evidence once. Called once
  // per epoch by the group, not per shard — N shards contribute into one
  // decay step.
  void BeginEpoch();

  // Merges one shard's raw (undecayed) evidence for the current epoch,
  // already back-mapped to ORIGINAL-binary addresses.
  void Contribute(const profile::LoadProfile& epoch_evidence);

  // The merged, decayed evidence across all shards and (after a warm start)
  // the previous run.
  const profile::LoadProfile& loads() const { return loads_; }

  uint64_t epochs() const { return epochs_; }
  uint64_t contributions() const { return contributions_; }
  bool warm_started() const { return warm_started_; }

  // ---- per-tenant drift isolation (multi-tenant QoS) ----------------------
  // The store is the group-wide aggregation point, so it also carries the
  // group-wide PER-TENANT drift view: each shard folds its per-tenant
  // appearance scores in every epoch and the group reads the decayed EWMA
  // when deciding whether one tenant — not the whole population — is the
  // drift source. The same decay constant as the evidence applies, so the
  // tenant view and the load view forget at the same rate.
  void ObserveTenantDrift(const std::string& tenant, double score);
  // Decayed per-epoch-max drift EWMA for `tenant` (0.0 if never observed).
  double TenantDrift(const std::string& tenant) const;

  // Tenant-scoped quarantine: while a tenant is quarantined its epoch
  // evidence is EXCLUDED from Contribute() by the group, its drift cannot
  // grow the group's swap appetite, and the TTL expires in BeginEpoch (group
  // epochs, matching the guard's fingerprint-poison TTL semantics).
  void QuarantineTenant(const std::string& tenant, uint64_t ttl_epochs);
  bool TenantQuarantined(const std::string& tenant) const;

  // Cross-run persistence. The store rides in a ProfileData with an empty
  // block section: block structure belongs to the binary lineage (it is
  // re-derived from the original's control flow at every rebuild), not to
  // the evidence. Loading an empty or missing file is an error; merging into
  // a non-empty store is allowed (evidence just adds up). All files travel
  // in the versioned+checksummed container above: saves are atomic
  // write-rename, and WarmStartFrom rejects corrupt/truncated/future-version
  // files with the typed ParseStoreFile errors so the caller can fall back
  // to a cold start instead of crashing or silently half-loading.
  Status SaveTo(const std::string& path) const;
  // Persists the store blended with `reference` (the merged profile the
  // serving binary was BUILT from) at `reference_share` of the combined
  // mass. Raw evidence alone under-reports repaired sites — once a site is
  // instrumented and prefetched its misses vanish from the PMU — so a store
  // persisted unblended would forget exactly what the binary exists to
  // cover, and the next warm start would rebuild without it.
  Status SaveMergedWith(const profile::LoadProfile& reference,
                        double reference_share, const std::string& path) const;
  Status WarmStartFrom(const std::string& path);

 private:
  profile::LoadProfile loads_;
  uint64_t epochs_ = 0;
  uint64_t contributions_ = 0;
  bool warm_started_ = false;
  // tenant name -> decayed drift EWMA (this epoch's folds take the max of
  // contributing shards before decaying next epoch).
  std::map<std::string, double> tenant_drift_;
  // tenant name -> group epochs of quarantine remaining.
  std::map<std::string, uint64_t> tenant_quarantine_;
};

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_PROFILE_STORE_H_
