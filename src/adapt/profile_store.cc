#include "src/adapt/profile_store.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/adapt/online_profile.h"
#include "src/common/strings.h"
#include "src/profile/profile_io.h"

namespace yieldhide::adapt {

namespace {

constexpr char kHeaderMagic[] = "yhstore v";
constexpr char kFooterMagic[] = "yhstore-end crc=";

// Consumes "<prefix><decimal>" from the front of `rest`; false on mismatch.
bool ConsumeUint(std::string_view& rest, std::string_view prefix,
                 uint64_t* value) {
  if (rest.substr(0, prefix.size()) != prefix) {
    return false;
  }
  rest.remove_prefix(prefix.size());
  if (rest.empty() || rest.front() < '0' || rest.front() > '9') {
    return false;
  }
  *value = 0;
  while (!rest.empty() && rest.front() >= '0' && rest.front() <= '9') {
    *value = *value * 10 + static_cast<uint64_t>(rest.front() - '0');
    rest.remove_prefix(1);
  }
  return true;
}

}  // namespace

uint64_t StoreChecksum(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return hash;
}

std::string SerializeStoreFile(const profile::ProfileData& data) {
  const std::string payload = profile::SerializeProfileData(data);
  std::string out = StrFormat(
      "%s%d len=%llu\n", kHeaderMagic, kStoreFormatVersion,
      static_cast<unsigned long long>(payload.size()));
  out += payload;
  out += StrFormat("%s%016llx\n", kFooterMagic,
                   static_cast<unsigned long long>(StoreChecksum(payload)));
  return out;
}

Result<profile::ProfileData> ParseStoreFile(std::string_view bytes) {
  std::string_view rest = bytes;
  uint64_t version = 0;
  if (!ConsumeUint(rest, kHeaderMagic, &version)) {
    return InvalidArgumentError(
        "store file has no yhstore header (not a profile store, or the "
        "header was corrupted)");
  }
  if (version > static_cast<uint64_t>(kStoreFormatVersion)) {
    return FailedPreconditionError(
        StrFormat("store file written by future format version %llu "
                  "(this build reads up to v%d)",
                  static_cast<unsigned long long>(version),
                  kStoreFormatVersion));
  }
  uint64_t length = 0;
  if (!ConsumeUint(rest, " len=", &length) || rest.empty() ||
      rest.front() != '\n') {
    return InvalidArgumentError("store file header is garbled");
  }
  rest.remove_prefix(1);
  if (rest.size() < length) {
    return OutOfRangeError(StrFormat(
        "store file truncated: header promises %llu payload bytes, only "
        "%llu present (short read)",
        static_cast<unsigned long long>(length),
        static_cast<unsigned long long>(rest.size())));
  }
  const std::string_view payload = rest.substr(0, length);
  rest.remove_prefix(length);

  uint64_t expected = 0;
  if (rest.substr(0, sizeof(kFooterMagic) - 1) != kFooterMagic) {
    return OutOfRangeError(
        "store file checksum footer missing or truncated (short read)");
  }
  rest.remove_prefix(sizeof(kFooterMagic) - 1);
  if (rest.size() < 16) {
    return OutOfRangeError(
        "store file checksum footer truncated (short read)");
  }
  for (int i = 0; i < 16; ++i) {
    const char c = rest[static_cast<size_t>(i)];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return InvalidArgumentError("store file checksum footer is garbled");
    }
    expected = (expected << 4) | digit;
  }
  rest.remove_prefix(16);
  if (!rest.empty() && rest.front() == '\n') {
    rest.remove_prefix(1);
  }
  if (!rest.empty()) {
    return InvalidArgumentError("store file has trailing garbage after the "
                                "checksum footer");
  }
  const uint64_t actual = StoreChecksum(payload);
  if (actual != expected) {
    return InvalidArgumentError(StrFormat(
        "store file checksum mismatch: footer %016llx, payload %016llx",
        static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(actual)));
  }
  return profile::DeserializeProfileData(payload);
}

Status SaveStoreFile(const profile::ProfileData& data,
                     const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return UnavailableError("cannot open " + tmp + " for writing");
    }
    file << SerializeStoreFile(data);
    file.close();
    if (!file) {
      std::remove(tmp.c_str());
      return InternalError("write to " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

Result<profile::ProfileData> LoadStoreFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) {
    return OutOfRangeError("read of " + path + " failed mid-stream "
                           "(short read)");
  }
  return ParseStoreFile(buffer.str());
}

void SharedProfileStore::BeginEpoch() {
  ++epochs_;
  // The merged view decays once per GROUP epoch at the shards' own online
  // profile rate, so an N=1 group's store tracks the shard's local profile
  // exactly.
  loads_.Decay(kEvidenceDecay, kMinSiteExecutions);
  // Tenant drift forgets at the evidence's rate; quarantine TTLs tick down
  // once per GROUP epoch and expire by erasure (a re-offending tenant gets a
  // fresh quarantine from the group's policy, not a lingering one).
  for (auto& [name, drift] : tenant_drift_) {
    drift *= kEvidenceDecay;
  }
  for (auto it = tenant_quarantine_.begin(); it != tenant_quarantine_.end();) {
    if (it->second <= 1) {
      it = tenant_quarantine_.erase(it);
    } else {
      --it->second;
      ++it;
    }
  }
}

void SharedProfileStore::ObserveTenantDrift(const std::string& tenant,
                                            double score) {
  double& drift = tenant_drift_[tenant];
  // Max-fold across the epoch's contributing shards: the group cares about
  // the worst shard's view of this tenant, and max keeps the EWMA comparable
  // to a single shard's drift score.
  if (score > drift) {
    drift = score;
  }
}

double SharedProfileStore::TenantDrift(const std::string& tenant) const {
  const auto it = tenant_drift_.find(tenant);
  return it == tenant_drift_.end() ? 0.0 : it->second;
}

void SharedProfileStore::QuarantineTenant(const std::string& tenant,
                                          uint64_t ttl_epochs) {
  if (ttl_epochs == 0) {
    return;
  }
  uint64_t& ttl = tenant_quarantine_[tenant];
  if (ttl_epochs > ttl) {
    ttl = ttl_epochs;
  }
}

bool SharedProfileStore::TenantQuarantined(const std::string& tenant) const {
  return tenant_quarantine_.count(tenant) != 0;
}

void SharedProfileStore::Contribute(const profile::LoadProfile& epoch_evidence) {
  if (epoch_evidence.sites().empty()) {
    return;
  }
  loads_.Merge(epoch_evidence);
}

Status SharedProfileStore::SaveMergedWith(const profile::LoadProfile& reference,
                                          double reference_share,
                                          const std::string& path) const {
  profile::ProfileData data;
  data.loads = reference;
  profile::LoadProfile recent = loads_;
  const double reference_mass = reference.TotalExecutions();
  const double recent_mass = recent.TotalExecutions();
  if (reference_mass > 0.0 && recent_mass > 0.0) {
    // Mass-match as AdaptController::RebuildFromLoads merges: the raw tail
    // supplies (1 - reference_share) of the reference's mass, so per-site
    // ratios survive on both sides regardless of run length. (The rebuild
    // decays its reference even when a mass is zero; the store keeps it.)
    recent.Decay((1.0 - reference_share) * reference_mass / recent_mass);
    data.loads.Decay(reference_share);
  }
  data.loads.Merge(recent);
  return SaveStoreFile(data, path);
}

Status SharedProfileStore::WarmStartFrom(const std::string& path) {
  YH_ASSIGN_OR_RETURN(profile::ProfileData data, LoadStoreFile(path));
  if (data.loads.sites().empty()) {
    return InvalidArgumentError(
        "profile store file has no load sites to warm-start from");
  }
  loads_.Merge(data.loads);
  warm_started_ = true;
  return Status::Ok();
}

}  // namespace yieldhide::adapt
