// Cycle-domain tracing: a per-scheduler ring-buffer "flight recorder" of
// typed events stamped in simulated cycles (docs/OBSERVABILITY.md).
//
// The recorder is built for always-on production use:
//   * a runtime category mask bounds the cost of a disabled category (the
//     YH_TRACE_ENABLED macro: a null check, one load, one test, no call);
//   * the ring is fixed-capacity and overwrites the oldest event, so an
//     always-on recorder holds the last N events of any incident without
//     unbounded memory — the classic flight-recorder contract. The
//     `overwritten()` counter says how much history was lost.
//
// Recording does not advance the simulated clock by itself; instead the
// recorder models a per-event capture cost (like pmu::SamplingSession models
// PEBS assists) and exposes it through TakeUnchargedOverheadCycles() so the
// component that owns the recorder can charge it at a safe point. That keeps
// the O1 overhead gate honest: watching is not free, and the bill lands on
// the same clock every other cost lands on.
//
// Events can be exported as Chrome trace-event JSON (the format Perfetto and
// chrome://tracing load) so a whole adaptation epoch — yields, bursts,
// quarantines, drift scores, hot swaps, PMU samples — opens in a trace
// viewer with per-context tracks.
#ifndef YIELDHIDE_SRC_OBS_TRACE_H_
#define YIELDHIDE_SRC_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace yieldhide::obs {

// Trace categories, one bit each. Keep in sync with TraceCategoryName().
enum TraceCategory : uint32_t {
  kTraceSched = 1u << 0,       // coroutine switches, bursts
  kTraceYield = 1u << 1,       // yield-site hits with hidden/blown outcome
  kTraceScavenger = 1u << 2,   // scavenger spawn / retire
  kTraceQuarantine = 1u << 3,  // quarantine enter / exit
  kTraceDrift = 1u << 4,       // drift-score updates
  kTraceSwap = 1u << 5,        // hot-swap begin / commit
  kTracePmu = 1u << 6,         // PMU sample captures
  kTraceGuard = 1u << 7,       // canary/rollback/watchdog guard decisions
  kTraceServe = 1u << 8,       // request lifecycle (admit/shed/dispatch/done)
  kTraceSpan = 1u << 9,        // request-scoped span phase begin/end
  kTraceSlo = 1u << 10,        // SLO burn-rate alert fire / clear
  kTraceAllCategories = (1u << 11) - 1,
};

const char* TraceCategoryName(TraceCategory category);

// The default runtime mask for production: everything except per-sample PMU
// events, which are the one per-event-rate category that can dwarf the rest
// (samples arrive at the sampling period, not at yield granularity).
inline constexpr uint32_t kDefaultTraceMask =
    kTraceAllCategories & ~kTracePmu;

enum class TraceEventType : uint8_t {
  kCoroSwitch,       // control transferred between contexts; arg = cost cycles
  kYieldHidden,      // primary yield-site hit that hid a real miss; ip = site
  kYieldBlown,       // primary yield-site hit that paid for nothing; ip = site
  kScavengerSpawn,   // ctx = scavenger context id
  kScavengerRetire,  // ctx = scavenger context id
  kQuarantineEnter,  // ip = site
  kQuarantineExit,   // ip = site (carried table cleared the site)
  kDriftUpdate,      // arg = drift score in millionths
  kSwapBegin,        // rebuild decided; arg = drift score in millionths
  kSwapCommit,       // new binary installed; arg = swap ordinal
  kPmuSample,        // one PEBS capture; ip = sampled ip, arg = event kind
  kCanaryBegin,      // fresh generation on canary shard; ctx = shard, arg = gen
  kCanaryPromote,    // canary cleared the window; ctx = shard, arg = gen
  kCanaryRollback,   // canary regressed, last good reinstalled; arg = gen
  kRebuildRetry,     // rebuild failed, retry scheduled; arg = backoff epochs
  kWatchdogFire,     // stalled shard shed its swap slot; ctx = shard
  kStoreFallback,    // persisted store rejected, cold start; arg = status code
  kRequestAdmit,     // request entered a shard's bounded queue; arg = req id
  kRequestShed,      // queue full, request dropped at admission; arg = req id
  kRequestDispatch,  // handle stage started; ctx = serving context (primary
                     // task id or scavenger id), arg = req id
  kRequestComplete,  // respond stage finished; arg = req id, ip = latency
  kRequestRequeue,   // serving context killed mid-flight (swap/rollback);
                     // request returned to the queue head; arg = req id
  kSpanBegin,        // request entered a span phase; ip = req id, arg = span
                     // class (obs::SpanClass), ctx = serving context
  kSpanEnd,          // request completed (span tree closed); ip = req id,
                     // arg = end-to-end latency cycles
  kSloAlertFire,     // multi-window burn alert raised; arg = fast burn rate
                     // in millionths, ctx = shard
  kSloAlertClear,    // burn alert cleared; arg = fast burn rate in millionths
  kTenantQuarantine,  // a tenant's drift was quarantined group-wide; ctx =
                      // shard that reported it, arg = drift in millionths
};

const char* TraceEventTypeName(TraceEventType type);
TraceCategory TraceEventCategory(TraceEventType type);

struct TraceEvent {
  uint64_t cycle = 0;  // simulated-cycle timestamp
  uint64_t ip = 0;     // site address; yield events carry the ORIGINAL-binary
                       // site so streams reconcile across hot swaps
  uint64_t arg = 0;    // per-type payload (see TraceEventType)
  int32_t ctx_id = 0;  // coroutine context (primary task id / scavenger id)
  TraceEventType type = TraceEventType::kCoroSwitch;
};

struct TraceConfig {
  // Ring capacity in events, rounded up to a power of two. 64Ki events ≈ 2MB:
  // hours of steady-state serving at yield granularity.
  size_t capacity = 1 << 16;
  // Runtime category mask; kDefaultTraceMask keeps per-sample PMU events off.
  uint32_t mask = kDefaultTraceMask;
  // Modeled cost of capturing one event (a store-and-bump on real hardware).
  uint32_t record_cost_cycles = 2;
};

// Streaming drain callback: receives events oldest-first, each exactly once.
using TraceSink = std::function<void(const TraceEvent&)>;

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceConfig& config = TraceConfig());

  // One load + one AND: the hot-path gate call sites use via YH_TRACE_ENABLED.
  bool ShouldRecord(uint32_t category) const { return (mask_ & category) != 0; }
  uint32_t mask() const { return mask_; }
  void set_mask(uint32_t mask) { mask_ = mask; }

  // Unconditionally records (callers gate with ShouldRecord / the macro).
  void Record(TraceEventType type, uint64_t cycle, int32_t ctx_id, uint64_t ip,
              uint64_t arg);

  // Events currently held, oldest first. Without a sink the ring keeps the
  // newest `capacity()` events; anything older was overwritten. With a sink
  // installed only UNDRAINED events are returned, so a post-drain export
  // never duplicates events the sink already shipped.
  std::vector<TraceEvent> Events() const;

  // Streaming drain (the incremental-export path for long runs): once a sink
  // is set, Record() flushes every undrained event to it — oldest first,
  // exactly once — whenever the undrained backlog reaches `flush_threshold`
  // events (0 means capacity/2, the flush-on-half-full default; clamped to
  // capacity so a flush always beats overwrite). Call DrainToSink() at the
  // end of a run to ship the tail.
  void SetSink(TraceSink sink, size_t flush_threshold = 0);
  bool has_sink() const { return static_cast<bool>(sink_); }

  // Flushes all undrained events to the sink now; returns how many were
  // delivered (0 when no sink is installed).
  uint64_t DrainToSink();

  // Events delivered to the sink so far.
  uint64_t drained() const { return drained_; }

  size_t capacity() const { return ring_.size(); }
  uint64_t recorded() const { return recorded_; }
  // Events whose history is LOST: overwritten before anyone exported them.
  // Without a sink that is everything older than one ring's worth; with a
  // sink, slots are recycled only after their events were shipped, so only
  // events overwritten while still undrained count (impossible with the
  // clamped flush threshold, nonzero only if draining is raced externally).
  uint64_t overwritten() const {
    const uint64_t horizon =
        recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
    if (!sink_) {
      return horizon;
    }
    return horizon > drained_ ? horizon - drained_ : 0;
  }

  // Modeled capture cost accumulated since the last call; the owning
  // component charges this to the machine clock at a safe point.
  uint64_t TakeUnchargedOverheadCycles();
  uint64_t TotalOverheadCycles() const {
    return recorded_ * config_.record_cost_cycles;
  }

  void Reset();

 private:
  TraceConfig config_;
  uint32_t mask_;
  std::vector<TraceEvent> ring_;
  uint64_t recorded_ = 0;  // monotone; ring index = recorded_ & (cap - 1)
  uint64_t charged_ = 0;   // events whose capture cost was already taken
  uint64_t drained_ = 0;   // events already delivered to the sink
  TraceSink sink_;
  size_t flush_threshold_ = 0;
};

// Hot-path gate: a null check plus one masked load.
#define YH_TRACE_ENABLED(recorder, category) \
  ((recorder) != nullptr && (recorder)->ShouldRecord(category))

// Renders the recorder's events as Chrome trace-event JSON ("JSON object
// format": {"traceEvents": [...]}), loadable in Perfetto / chrome://tracing.
// Timestamps convert simulated cycles to microseconds at `cycles_per_ns`;
// switch/yield events render as complete ("X") slices with their cost as the
// duration, drift scores as counter ("C") events, everything else as instants.
std::string ToChromeTraceJson(const TraceRecorder& recorder,
                              double cycles_per_ns);

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_TRACE_H_
