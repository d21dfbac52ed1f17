// Tail-based exemplar capture (docs/OBSERVABILITY.md).
//
// Aggregates answer "how bad is the tail"; they cannot answer "what did the
// p99 request actually DO". An ExemplarReservoir retains, for each rolling
// completion-cycle window, the top-K slowest completed requests' FULL span
// breakdowns (the per-request class vectors SpanCollector builds, exact-sum
// invariant included) plus the scheduler context in force when they
// completed: serving generation, epoch ordinal, generation quarantine state,
// and whether a control-plane guard window (canary confirmation / swap
// freeze) was open. `yhc why` joins these exemplars against the differential
// attribution report so a tail diagnosis can point at concrete requests.
//
// Memory is bounded by construction: at most `max_windows` windows of at
// most `top_k` exemplars each, oldest window evicted first (the flight-
// recorder contract TraceRecorder set; `evicted_windows()` says how much
// history was lost). Admission is a threshold-gated min-heap: once a window
// holds K exemplars, a candidate is compared against the WORST retained one
// (the heap front) and rejected outright unless it beats it — the common
// case on a steady tail is one compare, no allocation. The ordering is
// exactly the one `ToSpanTopTable` sorts by (latency descending, request id
// ascending on ties), so a deterministic run's retained set matches a full
// offline sort prefix — gated by bench_o4_diagnosis and the tie-break unit
// tests.
//
// Watching is not free: every accepted insertion models a bookkeeping cost
// (heap sift + context stamp), exposed through TakeUnchargedOverheadCycles()
// and folded into the owning SpanCollector's charge at scheduler safe points
// — the same contract every other obs component follows. Threshold
// rejections are modeled as free (one compare, amortized into the span
// finalize transition already charged).
#ifndef YIELDHIDE_SRC_OBS_EXEMPLAR_EXEMPLAR_H_
#define YIELDHIDE_SRC_OBS_EXEMPLAR_EXEMPLAR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/obs/span/span.h"

namespace yieldhide::obs {

// Scheduler/control-plane context stamped onto an exemplar at completion.
// Plain ints so obs stays free of adapt types; the Shard pushes updates at
// every epoch boundary and generation install.
struct ExemplarContext {
  int generation_id = -1;   // serving generation (-1 = not wired)
  uint64_t epoch = 0;       // shard epoch ordinal the request completed in
  bool quarantined = false; // serving generation is quarantined
  bool control_window = false;  // a guard window was open at completion
};

struct Exemplar {
  RequestSpan span;         // full class breakdown; ClassSum()==latency()
  ExemplarContext context;
  uint64_t window = 0;      // rolling-window ordinal (complete/window_cycles)
};

struct ExemplarReservoirConfig {
  // Disabled: Offer() is a cheap early-out and no cost is modeled, so an
  // attached-but-disabled reservoir stays inside the 1.01x overhead gate.
  bool enabled = true;
  // Exemplars retained per rolling window.
  size_t top_k = 8;
  // Rolling-window length in completion cycles.
  uint64_t window_cycles = 1ull << 20;
  // Windows retained; the oldest is evicted past this (bounded memory).
  size_t max_windows = 64;
  // Modeled bookkeeping cost per ACCEPTED insertion (heap sift + stamp).
  uint32_t insert_cost_cycles = 1;

  Status Validate() const;
};

class ExemplarReservoir {
 public:
  explicit ExemplarReservoir(const ExemplarReservoirConfig& config = {});

  bool enabled() const { return config_.enabled; }
  const ExemplarReservoirConfig& config() const { return config_; }

  // The retention ordering: true when `a` outranks `b` for the top-K set.
  // MUST match span.cc's MergeCompleted sort exactly (latency desc, id asc)
  // or the offline-sort gate breaks on ties.
  static bool Outranks(const RequestSpan& a, const RequestSpan& b) {
    if (a.latency() != b.latency()) {
      return a.latency() > b.latency();
    }
    return a.id < b.id;
  }

  // ---- context feed (Shard / ServerGroup) -------------------------------
  void SetContext(int generation_id, uint64_t epoch, bool quarantined) {
    context_.generation_id = generation_id;
    context_.epoch = epoch;
    context_.quarantined = quarantined;
  }
  // Guard windows (canary confirmation / swap freeze); mirrors the
  // SpanCollector control-window broadcast from ServerGroup.
  void BeginControlWindow() { context_.control_window = true; }
  void EndControlWindow() { context_.control_window = false; }

  // ---- completion feed (SpanCollector::Finalize) ------------------------
  void Offer(const RequestSpan& span);

  // Modeled bookkeeping cost accrued since the last call; the owning
  // SpanCollector folds it into its own safe-point charge.
  uint64_t TakeUnchargedOverheadCycles();

  // ---- results ----------------------------------------------------------
  struct Window {
    uint64_t ordinal = 0;
    // Min-heap storage: front is the WORST retained exemplar. Use Sorted()
    // or Merged() for the ranked view.
    std::vector<Exemplar> heap;
  };
  const std::deque<Window>& windows() const { return windows_; }
  // One window's exemplars ranked best-first (latency desc, id asc).
  static std::vector<Exemplar> Sorted(const Window& window);
  // Every retained exemplar across windows, ranked best-first.
  std::vector<Exemplar> Merged() const;

  uint64_t offered() const { return offered_; }
  uint64_t accepted() const { return accepted_; }
  // Candidates rejected by the threshold gate (did not beat the heap front).
  uint64_t rejected() const { return rejected_; }
  // Windows dropped to honor max_windows — lost history, not an error.
  uint64_t evicted_windows() const { return evicted_windows_; }
  // Completions landing in an already-evicted window (late arrivals).
  uint64_t late_drops() const { return late_drops_; }

  // The inherited exact-sum invariant, re-verified per exemplar:
  // span.ClassSum() == span.latency() for every retained exemplar.
  Status VerifyExactness() const;

  void Reset();

 private:
  Window* WindowFor(uint64_t ordinal);

  ExemplarReservoirConfig config_;
  ExemplarContext context_;
  std::deque<Window> windows_;  // ascending ordinals
  uint64_t offered_ = 0;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t evicted_windows_ = 0;
  uint64_t late_drops_ = 0;
  uint64_t uncharged_ = 0;
};

// ---- exports (yhc why, bench-json artifact) ------------------------------

// Chrome trace-event JSON reconstructing each exemplar's timeline as one
// track of per-class slices laid end to end from its arrival cycle — the
// exact-sum invariant guarantees the track spans [arrival, complete] with no
// gap — loadable in Perfetto next to `yhc spans --perfetto`.
std::string ToPerfettoExemplarJson(
    const std::vector<const ExemplarReservoir*>& shards, double cycles_per_ns);

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_EXEMPLAR_EXEMPLAR_H_
