// Differential attribution: the hypothesis-testing layer over the exact-sum
// taxonomies (docs/OBSERVABILITY.md).
//
// The cycle profiler says where every cycle of a RUN went; the span
// collector says where every cycle of a REQUEST went; neither says what
// CHANGED when the tail regressed. DiffEngine diffs the per-epoch slices of
// both taxonomies between two epoch windows — baseline vs. current, pre- vs.
// post-swap, one generation's epochs vs. another's — and ranks the
// regressing ORIGINAL-BINARY sites and classes by per-epoch cycle delta.
// Because both inputs are exact partitions (sum(classes) == elapsed cycles /
// == request latency, the O2/O3 gates), a window-over-window delta is a
// closed accounting statement, not a sampled estimate: every regressed cycle
// shows up in exactly one site x class cell.
//
// The engine then joins the ranked deltas against control-plane events
// (canary begin/promote/rollback, watchdog, SLO veto, burn-alert fire/clear)
// that fall inside the current window, and classifies the regression
// CounterPoint-style — each diagnosis is a refutable hypothesis:
//
//   control-plane-induced  a guard action (canary confirmation freeze,
//                          rollback requeue storm, watchdog shed) overlaps
//                          the window; the regression is self-inflicted and
//                          transient by construction;
//   workload-drift         no control activity, and the delta concentrates
//                          on named sites (new hot loads missing, stalls the
//                          stale binary cannot hide) — the adaptation loop's
//                          job;
//   unattributed           the delta is below the noise floor or spread too
//                          thin to name a culprit; the honest "don't know".
//
// ControlEvent is deliberately adapt-free (plain ints): callers convert
// adapt::GuardEvent entries and drained SLO trace events before feeding the
// engine, so obs keeps zero dependency on the control plane it audits.
#ifndef YIELDHIDE_SRC_OBS_DIFF_DIFF_H_
#define YIELDHIDE_SRC_OBS_DIFF_DIFF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/exemplar/exemplar.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/span/span.h"

namespace yieldhide::obs {

enum class RegressionCause : uint8_t {
  kControlPlane = 0,
  kWorkloadDrift,
  kUnattributed,
};
const char* RegressionCauseName(RegressionCause cause);

// A control-plane action or SLO alert, normalized to plain ints.
struct ControlEvent {
  enum class Kind : uint8_t {
    kCanaryBegin = 0,
    kCanaryPromote,
    kCanaryRollback,
    kWatchdogFire,
    kSloVeto,
    kPoisonBlocked,
    kRebuildRetry,
    kSloAlertFire,
    kSloAlertClear,
  };
  Kind kind = Kind::kCanaryBegin;
  size_t epoch = 0;   // group/shard epoch ordinal the event fell in
  size_t shard = 0;
  int generation_id = -1;  // -1 when not about a generation
  uint64_t cycle = 0;      // 0 when only the epoch is known
};
const char* ControlEventKindName(ControlEvent::Kind kind);

// True for kinds that ARE control-plane actions (vs. SLO alerts, which are
// symptoms: they join the report but never flip the cause on their own).
bool IsControlPlaneAction(ControlEvent::Kind kind);

// A diff window: an explicit set of epoch ordinals, ascending. Non-contiguous
// sets are legal — `--generation` windows are whatever epochs a generation
// served.
struct EpochSet {
  std::vector<size_t> epochs;

  bool Contains(size_t epoch) const;
  std::string ToString() const;  // "3-7" / "3-5,9" style range list
};

struct SiteDelta {
  uint64_t site = 0;  // ORIGINAL-binary address (kExternalSite = residue)
  double baseline_per_epoch = 0.0;  // total cycles/epoch across classes
  double current_per_epoch = 0.0;
  double delta_per_epoch = 0.0;  // current - baseline
  CycleClass dominant = CycleClass::kIssueUseful;  // largest positive delta
  double dominant_delta_per_epoch = 0.0;
};

struct ClassDelta {
  std::string name;
  double baseline_per_epoch = 0.0;
  double current_per_epoch = 0.0;
  double delta_per_epoch = 0.0;
};

struct DiffReport {
  EpochSet baseline;
  EpochSet current;
  double baseline_total_per_epoch = 0.0;  // all classes, all sites
  double current_total_per_epoch = 0.0;
  std::vector<SiteDelta> sites;             // regressions, delta desc
  std::vector<ClassDelta> cycle_classes;    // all 9, delta desc
  std::vector<ClassDelta> span_classes;     // all 17, delta desc
  std::vector<ControlEvent> joined;         // events inside `current`
  RegressionCause cause = RegressionCause::kUnattributed;
};

class DiffEngine {
 public:
  // One shard's taxonomies; either pointer may be null (that feed is simply
  // absent from the report). Requires per-site epoch snapshots on the
  // profiler (CycleProfilerConfig::epoch_site_snapshots) for site ranking.
  void AddShard(const CycleProfiler* profiler, const SpanCollector* spans);
  void AddControlEvent(const ControlEvent& event);

  // Epochs available for windowing: the max slice count across shards.
  size_t epoch_count() const;

  // Maps a cycle stamp to the epoch whose slice covers it on shard `shard`
  // (the first slice ending at or after `cycle`; the last epoch if beyond).
  Result<size_t> EpochForCycle(size_t shard, uint64_t cycle) const;

  // Diffs `current` against `baseline`. Named InvalidArgument errors on an
  // empty or out-of-range window (the CLI maps them to exit 2).
  Result<DiffReport> Diff(const EpochSet& baseline,
                          const EpochSet& current) const;

 private:
  struct ShardInput {
    const CycleProfiler* profiler = nullptr;
    const SpanCollector* spans = nullptr;
  };

  std::vector<ShardInput> shards_;
  std::vector<ControlEvent> events_;
};

// ---- renderers (yhc why) -------------------------------------------------

// Ranked human-readable diagnosis; `supporting` are the tail exemplars that
// completed inside the current window (SupportingExemplars).
std::string ToDiffText(const DiffReport& report,
                       const std::vector<Exemplar>& supporting);
std::string ToDiffJson(const DiffReport& report,
                       const std::vector<Exemplar>& supporting);

// The exemplars backing a diagnosis: retained exemplars whose completion
// epoch falls inside `current`, ranked by latency, at most `max_exemplars`.
std::vector<Exemplar> SupportingExemplars(
    const std::vector<const ExemplarReservoir*>& shards,
    const EpochSet& current, size_t max_exemplars);

// Parses "LO-HI" / "LO" epoch range lists like "0-3" or "2,5-7" into an
// EpochSet; named InvalidArgument errors on malformed or reversed ranges.
Result<EpochSet> ParseEpochSet(const std::string& spec);

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_DIFF_DIFF_H_
