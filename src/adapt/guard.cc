#include "src/adapt/guard.h"

#include <algorithm>

#include "src/common/strings.h"

namespace yieldhide::adapt {

namespace {
// The canary is also REGRESSED when its p99 hidden latency exceeds this
// multiple of its peers' (only judged when cycle profilers are attached to
// both sides).
constexpr double kP99Ratio = 1.25;
}  // namespace

Status GuardConfig::Validate() const {
  if (confirmation_window < 1) {
    return InvalidArgumentError("guard confirmation_window must be >= 1");
  }
  if (regression_ratio < 1.0) {
    return InvalidArgumentError("guard regression_ratio must be >= 1.0");
  }
  return Status::Ok();
}

const char* GuardEventKindName(GuardEventKind kind) {
  switch (kind) {
    case GuardEventKind::kCanaryBegin:
      return "canary_begin";
    case GuardEventKind::kPromote:
      return "promote";
    case GuardEventKind::kRollback:
      return "rollback";
    case GuardEventKind::kPoisonBlocked:
      return "poison_blocked";
    case GuardEventKind::kRebuildRetry:
      return "rebuild_retry";
    case GuardEventKind::kWatchdogFire:
      return "watchdog_fire";
    case GuardEventKind::kStoreFallback:
      return "store_fallback";
    case GuardEventKind::kSloVeto:
      return "slo_veto";
    case GuardEventKind::kTenantQuarantine:
      return "tenant_quarantine";
    case GuardEventKind::kTenantVeto:
      return "tenant_veto";
  }
  return "unknown";
}

std::string GuardEvent::ToString() const {
  std::string out;
  if (generation_id >= 0) {
    out = StrFormat("epoch %llu shard %llu: %s (gen %d)",
                    static_cast<unsigned long long>(epoch),
                    static_cast<unsigned long long>(shard),
                    GuardEventKindName(kind), generation_id);
  } else {
    out = StrFormat("epoch %llu shard %llu: %s",
                    static_cast<unsigned long long>(epoch),
                    static_cast<unsigned long long>(shard),
                    GuardEventKindName(kind));
  }
  if (ratio > 0.0) {
    out += StrFormat(" cpo_ratio=%.2f", ratio);
  }
  return out;
}

uint64_t FingerprintLoads(const profile::LoadProfile& loads, size_t top_k) {
  // Top-K sites by stall contribution (ties broken by address so the order
  // is deterministic), hashed in address order with FNV-1a.
  std::vector<std::pair<double, isa::Addr>> ranked;
  ranked.reserve(loads.sites().size());
  for (const auto& [ip, site] : loads.sites()) {
    ranked.emplace_back(site.est_stall_cycles, ip);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;
  });
  if (ranked.size() > top_k) {
    ranked.resize(top_k);
  }
  std::vector<isa::Addr> top;
  top.reserve(ranked.size());
  for (const auto& [stall, ip] : ranked) {
    top.push_back(ip);
  }
  std::sort(top.begin(), top.end());
  uint64_t hash = 1469598103934665603ull;
  for (const isa::Addr ip : top) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (static_cast<uint64_t>(ip) >> shift) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

void GenerationHealth::Arm(double fallback_baseline_cycles_per_op) {
  fallback_baseline_ = fallback_baseline_cycles_per_op;
  canary_cycles_ = 0;
  canary_tasks_ = 0;
  peer_cycles_ = 0;
  peer_tasks_ = 0;
  canary_p99_ = 0;
  peer_p99_ = 0;
  epochs_observed_ = 0;
}

void GenerationHealth::ObserveCanaryEpoch(uint64_t cycles, uint64_t tasks) {
  canary_cycles_ += cycles;
  canary_tasks_ += tasks;
  ++epochs_observed_;
}

void GenerationHealth::ObservePeerEpoch(uint64_t cycles, uint64_t tasks) {
  peer_cycles_ += cycles;
  peer_tasks_ += tasks;
}

void GenerationHealth::SetHiddenLatencyP99(uint64_t canary_p99,
                                           uint64_t peer_p99) {
  canary_p99_ = canary_p99;
  peer_p99_ = peer_p99;
}

GenerationHealth::Verdict GenerationHealth::Judge() const {
  Verdict verdict;
  if (canary_tasks_ == 0) {
    // Nothing served on the canary — nothing to condemn.
    verdict.reason = "no canary evidence";
    return verdict;
  }
  verdict.canary_cycles_per_op =
      static_cast<double>(canary_cycles_) / static_cast<double>(canary_tasks_);
  verdict.baseline_cycles_per_op =
      peer_tasks_ > 0
          ? static_cast<double>(peer_cycles_) / static_cast<double>(peer_tasks_)
          : fallback_baseline_;
  if (verdict.baseline_cycles_per_op > 0.0 &&
      verdict.canary_cycles_per_op >
          config_.regression_ratio * verdict.baseline_cycles_per_op) {
    verdict.promote = false;
    verdict.reason = "cycles/op regressed vs baseline";
    return verdict;
  }
  if (canary_p99_ > 0 && peer_p99_ > 0) {
    verdict.latency_ratio =
        static_cast<double>(canary_p99_) / static_cast<double>(peer_p99_);
    if (verdict.latency_ratio > kP99Ratio) {
      verdict.promote = false;
      verdict.reason = "p99 hidden latency regressed vs peers";
      return verdict;
    }
  }
  return verdict;
}

}  // namespace yieldhide::adapt
