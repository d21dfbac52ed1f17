// Guarded deployment for the sharded serving path (docs/ROBUSTNESS.md):
// canary evaluation, automatic rollback, bounded rebuild retry, and an epoch
// watchdog. ServerGroup consults this layer at every swap decision; the
// types here hold the policy so it is testable without a full group.
//
// The guard state machine:
//
//             rebuild succeeds                window elapsed, healthy
//   [steady] ----------------> [canary: 1 shard] ----------------------+
//      ^  ^                        |                                   |
//      |  |    window elapsed,     | regressed vs baseline             v
//      |  +--- rollback + poison <-+                               [promote]
//      |       (reinstall last good, quarantine generation,           |
//      |        fingerprint -> poison registry)                       |
//      +---- fresh generation spreads to peers via the reuse path <---+
//
// While a canary is in flight every other swap is frozen, so a regressed
// generation can never serve on more than the one canary shard, and never
// for longer than the confirmation window.
#ifndef YIELDHIDE_SRC_ADAPT_GUARD_H_
#define YIELDHIDE_SRC_ADAPT_GUARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/profile/profile.h"

namespace yieldhide::adapt {

struct GuardConfig {
  // Master switch. Off by default: an unguarded group (one shard or N)
  // behaves exactly as before this layer existed.
  bool enabled = false;
  // Epochs a fresh generation serves on the canary shard before the verdict.
  int confirmation_window = 3;
  // The canary is REGRESSED when its cycles/op exceed this multiple of the
  // baseline (concurrent peer shards on the old generation, or the canary
  // shard's own trailing window when it has no serving peer). The default
  // sits well above the latency cost of hiding itself: a correctly
  // instrumented generation legitimately runs somewhat more wall cycles per
  // op than an uninstrumented peer (yield switches plus hide-window
  // overshoot) while harvesting far more issue slots — the threshold must
  // only condemn generations whose cost is out of proportion to that.
  // Deployments where hiding is priced differently tune this per workload
  // (`yhc serve --guard-ratio`).
  double regression_ratio = 1.30;
  // ... or when its p99 hidden latency exceeds this multiple of its peers'
  // (only judged when cycle profilers are attached to both sides).
  double p99_ratio = 1.25;
  // Rebuild retry-with-backoff: first retry waits this many epochs, doubling
  // per consecutive failure up to max_backoff_epochs.
  int retry_backoff_epochs = 2;
  int max_backoff_epochs = 16;
  // After this many consecutive failures on the SAME evidence fingerprint
  // the fingerprint is poisoned: no more attempts until the evidence changes.
  int max_rebuild_retries = 4;
  // Epoch watchdog: a shard whose epoch runs longer than this multiple of
  // the group median is considered stalled and sheds its swap-queue slot.
  // 0 disables the watchdog.
  double watchdog_factor = 4.0;
  // Consult the canary shard's SLO burn-rate evaluator (obs::SloEvaluator,
  // installed via ServerGroup::SetSloEvaluator) as an extra rollback signal:
  // a canary whose cycles/op looks healthy is still rolled back when the
  // shard's multi-window burn alert is ACTIVE at verdict time — the
  // generation may be fast per op yet wrecking tail latency.
  bool consult_slo = false;
  // How long a rolled-back generation's evidence fingerprint blocks rebuilds.
  // The lineage's quarantine record is permanent; the rebuild BLOCK expires
  // so a transient environmental regression (a stalled canary shard, a
  // cleared fault) cannot lock a static workload out of adaptation forever.
  int poison_ttl_epochs = 16;

  Status Validate() const;
};

// What the guard decided, for the group report / bench assertions. Mirrors
// the obs::TraceEventType guard events one-to-one.
enum class GuardEventKind : uint8_t {
  kCanaryBegin,
  kPromote,
  kRollback,
  kPoisonBlocked,   // rebuild skipped: evidence fingerprint is poisoned
  kRebuildRetry,    // rebuild failed; backoff scheduled
  kWatchdogFire,    // stalled shard shed its swap slot
  kStoreFallback,   // persisted store rejected; cold start
  kSloVeto,         // healthy verdict overridden by an active SLO burn alert
  kTenantQuarantine,  // a background tenant's drift was isolated group-wide
  kTenantVeto,      // promotion vetoed: canary pushed a foreground tenant
                    // with a declared budget from within-budget to over
};

const char* GuardEventKindName(GuardEventKind kind);

struct GuardEvent {
  size_t epoch = 0;
  size_t shard = 0;
  int generation_id = -1;  // -1 when the event is not about a generation
  GuardEventKind kind = GuardEventKind::kCanaryBegin;
  // Verdict events only: canary/baseline cycles-per-op (0 = not a verdict).
  double ratio = 0.0;

  std::string ToString() const;
};

// Identity of an evidence profile for the poison registry: a hash of the
// top-K sites by stall contribution. Deliberately insensitive to decay and
// to small-site churn (mass scaling keeps the same top sites), so the
// registry still recognises "the same bad profile" an epoch later — while
// genuinely new evidence (a phase change, repaired backmap) changes the top
// set and clears the block.
uint64_t FingerprintLoads(const profile::LoadProfile& loads,
                          size_t top_k = 16);

// Accumulates the canary-vs-baseline comparison over the confirmation
// window and renders the verdict. Cycles/op is the primary signal; p99
// hidden latency (from obs::CycleProfiler) is judged when provided.
class GenerationHealth {
 public:
  explicit GenerationHealth(const GuardConfig& config) : config_(config) {}

  // Arms the scorer for a new canary. `fallback_baseline_cycles_per_op` is
  // the canary shard's own trailing cycles/op before the install, used when
  // no peer shard serves through the window (e.g. a 1-shard group).
  void Arm(double fallback_baseline_cycles_per_op);

  // One group epoch of evidence. Peer observations come from shards still
  // serving the PREVIOUS generation — the live baseline.
  void ObserveCanaryEpoch(uint64_t cycles, uint64_t tasks);
  void ObservePeerEpoch(uint64_t cycles, uint64_t tasks);

  // Aggregate p99 hidden-latency snapshots (0 = not available).
  void SetHiddenLatencyP99(uint64_t canary_p99, uint64_t peer_p99);

  int epochs_observed() const { return epochs_observed_; }
  bool window_complete() const {
    return epochs_observed_ >= config_.confirmation_window;
  }

  struct Verdict {
    bool promote = true;
    double canary_cycles_per_op = 0.0;
    double baseline_cycles_per_op = 0.0;
    double latency_ratio = 0.0;  // 0 when latency was not judged
    const char* reason = "healthy";
  };
  Verdict Judge() const;

 private:
  GuardConfig config_;
  double fallback_baseline_ = 0.0;
  uint64_t canary_cycles_ = 0;
  uint64_t canary_tasks_ = 0;
  uint64_t peer_cycles_ = 0;
  uint64_t peer_tasks_ = 0;
  uint64_t canary_p99_ = 0;
  uint64_t peer_p99_ = 0;
  int epochs_observed_ = 0;
};

}  // namespace yieldhide::adapt

#endif  // YIELDHIDE_SRC_ADAPT_GUARD_H_
