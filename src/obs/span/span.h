// Request-scoped span attribution (docs/OBSERVABILITY.md).
//
// The trace recorder, metrics registry, and cycle profiler all key their
// output by SITE; nobody can answer "where did THIS request's p99 go?".
// SpanCollector closes that gap: every admitted request owns a span tree
// whose leaves partition its end-to-end latency — queue wait, pipeline
// stages, scheduler slices (useful issue vs exposed stall vs hidden stall),
// scavenger-slot execution, and control-plane interference windows (canary
// confirmation freezes, rollback requeues) — with an EXACT-SUM invariant:
//
//     sum over span classes == front-end measured latency,  per request.
//
// The invariant is structural, not statistical. The collector is fed inline
// by `ShardFrontEnd` (admit / dispatch / bind / requeue / harvest) and
// `DualModeScheduler` (task start/end, issue+stall per run of steps, switch
// costs, burst durations), every hook carrying the post-advance simulated
// clock. Phase boundaries telescope — each segment is attributed as the
// difference between consecutive stamps — and within an execution segment the
// step counters are closed by a residue sweep at segment end, exactly the way
// `CycleProfiler::SyncToClock` closes the site taxonomy. Aggregated span
// classes therefore reconcile against the profiler's epoch slices: the
// primary-issue and exposed-stall spans equal the profiler's corresponding
// class totals to the cycle (gated by bench_o3_spans).
//
// Watching is not free: each PHASE TRANSITION (~6-8 per request, never
// per-step) accrues a modeled bookkeeping cost, exposed through
// TakeUnchargedOverheadCycles() and charged by the scheduler at safe points
// — the same contract TraceRecorder and CycleProfiler follow. A disabled
// collector records nothing and costs nothing, so the O3 overhead gate can
// hold enabled runs to <=1.05x and disabled runs to <=1.01x.
//
// Phase transitions are mirrored as kSpanBegin/kSpanEnd events through the
// owning TraceRecorder (reusing its sink/drain streaming machinery), which
// is what `yhc spans --perfetto` renders as per-request tracks.
#ifndef YIELDHIDE_SRC_OBS_SPAN_SPAN_H_
#define YIELDHIDE_SRC_OBS_SPAN_SPAN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/obs/trace.h"

namespace yieldhide::obs {

class ExemplarReservoir;

// Every end-to-end cycle of a completed request lands in exactly one class.
// Keep in sync with SpanClassName().
enum class SpanClass : uint8_t {
  kIngressWait = 0,   // arrived, waiting for the front end's accept poll
  kIngress,           // ingress pipeline stages (accept/read/parse)
  kQueueWait,         // sitting in the bounded queue
  kDispatchWait,      // dispatched to the scheduler, task not yet started
  kExecPrimary,       // primary-coroutine issue cycles (incl. inserted code)
  kStallExposed,      // primary stall cycles NOT hidden behind a yield
  kStallHidden,       // scavenger-burst duration at USEFUL primary yields
  kBurstBlown,        // scavenger-burst duration at BLOWN primary yields
  kSwitch,            // context-switch costs charged to this request
  kSchedResidue,      // in-task scheduler bookkeeping (self-resumes, charges)
  kScavExec,          // scavenger-slot issue cycles serving this request
  kScavStall,         // scavenger-slot stall cycles
  kScavengerWait,     // scavenger context alive but paused between bursts
  kHarvestWait,       // finished executing, waiting for the harvest poll
  kEgress,            // egress pipeline stages (respond)
  kFreeze,            // wait time inside a control-plane interference window
  kRequeue,           // wait after a swap/rollback returned it to the queue
};
inline constexpr size_t kNumSpanClasses = 17;

const char* SpanClassName(SpanClass cls);

// One completed request's span tree, flattened to per-class cycle totals.
struct RequestSpan {
  uint64_t id = 0;
  uint64_t arrival_cycle = 0;
  uint64_t complete_cycle = 0;  // egress finished; latency measured here
  bool scavenged = false;       // final serving slot was a scavenger
  uint32_t requeues = 0;        // times a swap/rollback bounced it
  // Owning tenant's name; empty in tenant-blind (single-tenant) runs, so
  // their span exports stay byte-identical.
  std::string tenant;
  uint64_t classes[kNumSpanClasses] = {};

  uint64_t latency() const { return complete_cycle - arrival_cycle; }
  uint64_t ClassSum() const;
  // The critical-path pass: the class holding the most cycles.
  SpanClass DominantClass() const;
};

// Modeled bookkeeping cost per phase transition (a couple of stores and a
// stamp on real hardware). Charged at scheduler safe points.
inline constexpr uint32_t kSpanEventCostCycles = 1;

struct SpanCollectorConfig {
  bool enabled = true;
  // Completed-record retention cap; aggregates keep counting past it.
  size_t max_records = 1 << 20;
};

class SpanCollector {
 public:
  explicit SpanCollector(const SpanCollectorConfig& config = {});

  // Phase transitions are mirrored as kSpanBegin/kSpanEnd events (category
  // kTraceSpan) so the sink/drain machinery can stream them. Optional.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  // Tail-exemplar capture: every finalized span is offered to the reservoir
  // (threshold-gated, so steady-tail completions cost one compare). The
  // reservoir's modeled insertion cost is folded into this collector's
  // TakeUnchargedOverheadCycles, so the scheduler's existing safe-point
  // charge covers both. Optional.
  void SetExemplars(ExemplarReservoir* exemplars) { exemplars_ = exemplars; }

  bool enabled() const { return config_.enabled; }

  // ---- front-end hooks (ShardFrontEnd) ----------------------------------
  // Admission: the request arrived at `arrival`, the accept poll picked it
  // up at `ingress_begin`, and the ingress pipeline finished at
  // `ingress_end`. `tenant` stamps the span with its owning tenant's name
  // (empty = tenant-blind source; exports omit the field).
  void OnAdmit(uint64_t id, uint64_t arrival, uint64_t ingress_begin,
               uint64_t ingress_end, const std::string& tenant = {});
  // Queue head handed to the scheduler as a primary task.
  void OnDispatchPrimary(uint64_t id, uint64_t now);
  // A queued request was bound to scavenger context `ctx`.
  void OnScavengerBind(int32_t ctx, uint64_t id, uint64_t now);
  // The scavenger serving `ctx` completed its request.
  void OnScavengerDone(int32_t ctx, uint64_t now);
  // The scavenger serving `ctx` was retired mid-flight (swap/rollback) and
  // its request went back to the queue head.
  void OnRequeue(int32_t ctx, uint64_t now);
  // Harvest: egress charged over [egress_begin, egress_end); the front end
  // measures latency at egress_end. Closes the span tree.
  void OnHarvest(uint64_t id, uint64_t egress_begin, uint64_t egress_end);

  // ---- scheduler hooks (DualModeScheduler) ------------------------------
  void OnPrimaryTaskStart(uint64_t now);
  // Issue and memory-wait cycles of one step, or summed over a run of
  // steps between yields.
  void OnPrimaryStep(uint64_t issue_cycles, uint64_t wait_cycles);
  void OnPrimarySwitch(uint32_t cost_cycles);
  // One scavenger burst ran inside this primary's yield; `useful` is the
  // yield verdict (true = the miss was real, the burst hid it).
  void OnPrimaryBurst(uint64_t duration_cycles, bool useful);
  void OnPrimaryTaskEnd(uint64_t now);
  // Like OnPrimaryStep, for the scavenger context `ctx`.
  void OnScavengerStep(int32_t ctx, uint64_t issue_cycles,
                       uint64_t wait_cycles);
  void OnScavengerSwitch(int32_t ctx, uint32_t cost_cycles);

  // ---- control-plane interference windows (ServerGroup) -----------------
  // While a window is open, wait-class time is re-attributed to kFreeze:
  // the cycles a request spent waiting BECAUSE the control plane froze the
  // data plane (canary confirmation, swap stagger) are named as such.
  void BeginControlWindow(uint64_t now);
  void EndControlWindow(uint64_t now);

  // Modeled bookkeeping cost accumulated since the last call; the scheduler
  // charges it to the machine clock at safe points.
  uint64_t TakeUnchargedOverheadCycles();

  // ---- results ----------------------------------------------------------
  const std::vector<RequestSpan>& completed() const { return completed_; }
  uint64_t completed_count() const { return completed_count_; }
  // Aggregate class totals over COMPLETED requests.
  const uint64_t* class_totals() const { return class_totals_; }
  // Aggregate class totals including in-flight requests' partial segments
  // (open execution counters folded in). This is the series that reconciles
  // exactly against CycleProfiler class totals mid-run or at run end.
  void AggregateTotals(uint64_t out[kNumSpanClasses],
                       bool include_active) const;

  // Per-class latency distribution over completed requests: each request's
  // nonzero class totals are recorded into one histogram per span class at
  // finalize, which is what the p50/p90/p99 columns in `yhc spans --top`
  // quote. Merge across shards is concatenation (LatencyHistogram::Merge).
  const LatencyHistogram& class_histogram(size_t cls) const {
    return class_hist_[cls];
  }

  // ---- per-epoch attribution slices -------------------------------------
  // Mirrors CycleProfiler::SnapshotEpoch: the owner (Shard) calls this at
  // each epoch boundary; the slice stores CUMULATIVE class totals (active
  // requests' partial segments included, so slices reconcile against the
  // profiler's to the cycle) and the diff engine computes per-epoch deltas.
  struct EpochSlice {
    uint64_t epoch = 0;
    uint64_t end_cycle = 0;
    uint64_t class_totals[kNumSpanClasses] = {};
  };
  void SnapshotEpoch(uint64_t epoch, uint64_t now_cycles);
  const std::vector<EpochSlice>& epoch_slices() const { return epoch_slices_; }

  // The exact-sum invariant, verified per completed request:
  // sum(classes) == complete_cycle - arrival_cycle. Also fails on any
  // attribution anomaly (negative segment / counter overshoot) observed
  // while recording.
  Status VerifyExactness() const;

  // Requests currently tracked (admitted, not yet harvested).
  size_t active_count() const { return active_.size(); }

 private:
  enum class Phase : uint8_t {
    kQueued,          // admitted, in the bounded queue
    kDispatched,      // handed to the scheduler, task not started
    kRunningPrimary,  // primary task executing
    kRunningScav,     // bound to a scavenger context
    kRequeued,        // bounced back to the queue by a swap/rollback
    kDoneExec,        // finished executing, awaiting harvest
  };

  struct Active {
    RequestSpan span;
    Phase phase = Phase::kQueued;
    uint64_t stamp = 0;  // start of the currently open segment
    // Open execution-segment counters (closed by residue sweep at end).
    uint64_t issue = 0;
    uint64_t wait = 0;
    uint64_t switch_cost = 0;
    uint64_t burst_hidden = 0;
    uint64_t burst_blown = 0;
  };

  // Attributes [from, to) to `cls`, re-attributing any overlap with control
  // windows to kFreeze.
  void AddWait(Active& a, SpanClass cls, uint64_t from, uint64_t to);
  // Closes the open execution segment [a.stamp, now): counters map to their
  // classes, the remainder goes to `residue_class`.
  void CloseExecSegment(Active& a, uint64_t now, SpanClass residue_class);
  void Finalize(Active& a, uint64_t egress_begin, uint64_t egress_end);
  // The request scavenger `ctx` serves, or null; cached in last_active_.
  Active* ScavengerRequest(int32_t ctx);
  // Closes the exec segment of the request scavenger `ctx` serves and
  // unbinds it from `ctx`; returns it, or null when `ctx` serves none.
  Active* UnbindScavenger(int32_t ctx, uint64_t now);
  void Transition(uint64_t id, SpanClass phase_class, int32_t ctx,
                  uint64_t now);

  SpanCollectorConfig config_;
  TraceRecorder* trace_ = nullptr;
  ExemplarReservoir* exemplars_ = nullptr;

  std::unordered_map<uint64_t, Active> active_;
  std::unordered_map<int32_t, uint64_t> scav_ctx_;  // ctx -> request id
  std::vector<uint64_t> dispatch_fifo_;             // primary dispatch order
  size_t dispatch_head_ = 0;
  // Fast path for the scavenger step hooks (one context's runs come in a row).
  int32_t last_ctx_ = -1;
  Active* last_active_ = nullptr;
  Active* primary_active_ = nullptr;

  // Closed control windows plus the currently open one (end == ~0).
  std::vector<std::pair<uint64_t, uint64_t>> windows_;
  bool window_open_ = false;

  std::vector<RequestSpan> completed_;
  uint64_t completed_count_ = 0;
  uint64_t class_totals_[kNumSpanClasses] = {};
  LatencyHistogram class_hist_[kNumSpanClasses];
  std::vector<EpochSlice> epoch_slices_;
  uint64_t transitions_ = 0;
  uint64_t charged_transitions_ = 0;
  uint64_t anomalies_ = 0;  // attribution underflows (exactness is broken)
};

// ---- exports (yhc spans) -------------------------------------------------

// Top-N requests by latency with their per-class breakdown, plus the
// aggregate class table — the "where did the p99 go" view.
std::string ToSpanTopTable(const std::vector<const SpanCollector*>& shards,
                           size_t top_n);

// Machine-readable dump: every completed request's class vector + totals.
std::string ToSpanJson(const std::vector<const SpanCollector*>& shards);

// Chrome trace-event JSON rendering the kSpanBegin/kSpanEnd stream as
// per-request tracks (tid = request id) of phase slices — loadable in
// Perfetto next to the scheduler's own trace.
std::string ToPerfettoSpanJson(const std::vector<TraceEvent>& events,
                               double cycles_per_ns);

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_SPAN_SPAN_H_
