// SLO burn-rate monitoring (docs/OBSERVABILITY.md).
//
// A service-level objective says "at least `objective` of requests finish
// within `latency_budget_cycles`". The error BUDGET is the tolerated bad
// fraction (1 - objective); the BURN RATE is how fast the service is
// spending it: a burn of 1.0 exhausts the budget exactly at the end of the
// compliance period, 14.4 exhausts it 14.4x faster.
//
// SloEvaluator implements the Google-SRE multi-window alert: a burn-rate
// threshold must be exceeded over BOTH a fast window (catches sudden
// cliffs, keeps detection latency low) and a slow window (arms the alert
// only when enough budget is actually gone, suppressing one-bucket blips).
// Windows roll over simulated cycles using fixed-width buckets so the math
// is exact, deterministic, and O(1) amortized per recorded request.
//
// The evaluator eats the same stream the front end's latency histogram
// eats (one Record per harvested request), exports `yh_slo_*` metrics,
// mirrors fire/clear transitions as kSloAlertFire/kSloAlertClear trace
// events, and models its own bookkeeping cost per recorded request —
// exposed via TakeUnchargedOverheadCycles() and charged by the front end
// at the poll boundary, so the O3 overhead gate prices it honestly.
// `ServerGroup`'s swap guard can optionally consult the canary shard's
// evaluator as an extra rollback signal (GuardConfig::consult_slo).
#ifndef YIELDHIDE_SRC_OBS_SLO_SLO_H_
#define YIELDHIDE_SRC_OBS_SLO_SLO_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace yieldhide::obs {

// Modeled bookkeeping cost per recorded request.
inline constexpr uint32_t kSloRecordCostCycles = 1;

struct SloConfig {
  bool enabled = true;
  // A request is GOOD iff its end-to-end latency is <= this.
  uint64_t latency_budget_cycles = 100'000;
  // Target good fraction; the error budget is 1 - objective.
  double objective = 0.999;
  // Multi-window burn-rate alert (Google SRE workbook shape): fire when the
  // burn rate exceeds the threshold over BOTH windows; clear when it drops
  // below over both.
  uint64_t slow_window_cycles = 4'000'000;
  uint64_t fast_window_cycles = 500'000;
  double fast_burn_threshold = 14.4;
  double slow_burn_threshold = 6.0;
  // Rolling-window bucket granularity; windows round to whole buckets.
  uint64_t bucket_cycles = 125'000;

  Status Validate() const;
};

class SloEvaluator {
 public:
  explicit SloEvaluator(const SloConfig& config = {});

  void SetTrace(TraceRecorder* trace, int32_t shard = -1) {
    trace_ = trace;
    shard_ = shard;
  }
  void SetMetrics(MetricsRegistry* metrics, Labels labels);

  bool enabled() const { return config_.enabled; }

  // One harvested request: latency measured at simulated cycle `now`.
  void Record(uint64_t now, uint64_t latency_cycles);

  // Burn rates over the two windows as of the last Record.
  double FastBurnRate() const { return fast_burn_; }
  double SlowBurnRate() const { return slow_burn_; }
  bool alert_active() const { return alert_active_; }

  uint64_t total() const { return total_; }
  uint64_t bad() const { return bad_; }
  uint32_t alerts_fired() const { return alerts_fired_; }
  uint32_t alerts_cleared() const { return alerts_cleared_; }

  // Modeled bookkeeping cost accumulated since the last call; the owner
  // charges it to the machine clock at a safe point.
  uint64_t TakeUnchargedOverheadCycles();

  // Publishes the yh_slo_* family through the registry (safe-point call).
  void PublishMetrics();

  const SloConfig& config() const { return config_; }

  std::string Summary() const;

 private:
  struct Bucket {
    uint64_t start = 0;  // bucket start cycle (multiple of bucket_cycles)
    uint64_t total = 0;
    uint64_t bad = 0;
  };

  // Burn rate over the trailing `window` cycles ending at `now`.
  double BurnOver(uint64_t now, uint64_t window) const;
  void Trim(uint64_t now);

  SloConfig config_;
  TraceRecorder* trace_ = nullptr;
  int32_t shard_ = -1;
  MetricsRegistry* metrics_ = nullptr;
  Labels labels_;

  std::deque<Bucket> buckets_;
  uint64_t total_ = 0;
  uint64_t bad_ = 0;
  double fast_burn_ = 0.0;
  double slow_burn_ = 0.0;
  bool alert_active_ = false;
  uint32_t alerts_fired_ = 0;
  uint32_t alerts_cleared_ = 0;
  uint64_t recorded_ = 0;
  uint64_t charged_ = 0;
};

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_SLO_SLO_H_
