// CycleProfiler: cycle attribution — where did every simulated cycle go?
//
// The paper's pitch is an accounting argument: software hiding pays off iff
// prefetch + yield + switch overhead stays below the stall it hides. The
// aggregate report can say whether a run won; it cannot say WHICH yield site
// pays for itself or where a losing run's cycles leak. This profiler
// classifies every cycle of a run into a closed taxonomy:
//
//   issue_useful       primary issue on ORIGINAL-binary instructions
//   stall_exposed      primary stall the scheduler did not hide
//   stall_hidden       scavenger issue inside a burst triggered by a USEFUL
//                      yield — primary stall recovered as batch progress
//   prefetch_overhead  primary issue on pass-INSERTED instructions (prefetch,
//                      address materialization, untaken CYIELDs) at live sites
//   switch_overhead    every yield/switch charge (primary, scavenger chains)
//   sched_overhead     self-resumes, modeled trace/profiler capture cost, and
//                      clock advances the scheduler never saw (e.g. sampling
//                      overhead charged inside a boundary hook) — caught by
//                      the SyncToClock residue
//   scavenger_useful   scavenger issue in bursts a BLOWN yield triggered —
//                      real batch work, but it hid nothing
//   scavenger_waste    scavenger stall cycles (their own exposed misses)
//   quarantine_loss    issue on inserted instructions at quarantined sites —
//                      the residual tax of a bad profile after quarantine
//
// The identity `sum(classes) == RunReport::total_cycles` holds EXACTLY (the
// O2 gate, CounterPoint-style): inline hooks classify every clock advance the
// schedulers make, and SyncToClock() sweeps any advance made behind the
// scheduler's back into sched_overhead, so the taxonomy is a partition of
// elapsed cycles by construction.
//
// Attribution is per ORIGINAL-binary site (instrument::ReverseAddrMap: an
// inserted instruction belongs to the next surviving original instruction),
// so streams from before and after a hot swap land on the same keys. Cycles
// between sites are attributed to the next kPrimary site at-or-after the
// instruction — a region partition of the program — and cycles with no
// following site (epilogues, scheduler residue) land on the synthetic
// kExternalSite key.
//
// Like TraceRecorder, watching is not free: the profiler models a per-yield
// accounting cost and exposes it through TakeUnchargedOverheadCycles() so
// the owner charges it at safe points on the same clock as everything else.
#ifndef YIELDHIDE_SRC_OBS_PROFILER_PROFILER_H_
#define YIELDHIDE_SRC_OBS_PROFILER_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/stats.h"
#include "src/instrument/types.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"

namespace yieldhide::obs {

enum class CycleClass : uint8_t {
  kIssueUseful = 0,
  kStallExposed,
  kStallHidden,
  kPrefetchOverhead,
  kSwitchOverhead,
  kSchedOverhead,
  kScavengerUseful,
  kScavengerWaste,
  kQuarantineLoss,
};
inline constexpr size_t kNumCycleClasses = 9;

const char* CycleClassName(CycleClass cls);

// Synthetic site key for cycles with no covering yield site (program
// epilogues, scheduler residue, modeled observability cost).
inline constexpr uint64_t kExternalSite = ~0ull;

struct CycleProfilerConfig {
  // Disabled: every hook is a cheap early-out and no cost is modeled, so an
  // attached-but-disabled profiler must stay inside the 1.01x overhead gate.
  bool enabled = true;
  // Also store CUMULATIVE per-site class totals in every epoch slice, so the
  // differential-attribution engine (src/obs/diff) can rank regressing sites
  // window-over-window. Memory-only (the snapshot happens at the epoch
  // boundary, off the hot path, like the class-total snapshot itself);
  // default off — the whole-run site table is enough for everything else.
  bool epoch_site_snapshots = false;
};

// Per-original-site attribution record.
struct SiteCycles {
  std::array<uint64_t, kNumCycleClasses> cycles{};
  uint64_t yield_visits = 0;
  uint64_t useful_visits = 0;
  bool quarantined = false;
  LatencyHistogram switch_cost;     // per-visit switch charge
  LatencyHistogram hidden_latency;  // burst length of useful bursts

  uint64_t total() const {
    uint64_t t = 0;
    for (const uint64_t c : cycles) {
      t += c;
    }
    return t;
  }
};

// Per-site tallies rebuilt from the streaming trace drain (feed (b)); used to
// cross-check the inline hooks against the event stream.
struct StreamSiteCounts {
  uint64_t hidden = 0;
  uint64_t blown = 0;
  uint64_t switch_cycles = 0;
};

class CycleProfiler : public sim::StepObserver {
 public:
  explicit CycleProfiler(const CycleProfilerConfig& config = CycleProfilerConfig());

  bool enabled() const { return config_.enabled; }

  // (Re)binds the primary binary: precomputes, per instrumented address, the
  // inserted-instruction flag and the covering original site. Call at attach
  // time and after every hot swap; site records persist across calls (keys
  // are original-binary addresses), quarantine flags reset — re-announce via
  // OnQuarantine.
  void OnBinary(const instrument::InstrumentedProgram* binary);

  // Anchors the elapsed-cycle clock; call once when the run starts.
  void OnRunBegin(uint64_t now_cycles);

  // --- inline accounting hooks (feed (a)) ---
  // One primary step at `ip` costing issue + wait cycles: the schedulers pass
  // the profiler to every primary's Executor::Run, which reports each step.
  void OnStep(isa::Addr ip, uint32_t issue_cycles, uint32_t wait_cycles) override;
  // A primary yield actually switching out: opens a burst attributed to the
  // yield's site. `useful` is the scheduler's YieldLooksUseful verdict.
  void OnPrimarySwitch(uint64_t yield_ip, uint32_t cost_cycles, bool useful);
  // A switch charge with no burst semantics (round-robin halt restores).
  void OnSwitch(uint64_t ip, uint32_t cost_cycles);
  // Scavenger issue + wait cycles of one step, or summed over a run of steps
  // between yields.
  void OnScavengerStep(uint64_t issue_cycles, uint64_t wait_cycles);
  void OnScavengerSwitch(uint32_t cost_cycles);
  void OnSelfResume(uint32_t cost_cycles);
  // Closes the current burst; useful bursts record their length into the
  // site's hidden-latency histogram.
  void OnBurstEnd();
  // Quarantine state changes, keyed by ORIGINAL site.
  void OnQuarantine(uint64_t original_site, bool quarantined);

  // Sweeps any clock advance the hooks did not see into sched_overhead at
  // kExternalSite. After this, classified_cycles() == now - run_begin
  // exactly. Call at safe points and at end of run (after charging overhead).
  void SyncToClock(uint64_t now_cycles);

  // Modeled accounting cost accrued since the last call; the owner charges
  // it to the machine clock at a safe point (mirrors TraceRecorder).
  uint64_t TakeUnchargedOverheadCycles();

  // --- streaming drain feed (feed (b)) ---
  // A sink for TraceRecorder::SetSink that tallies yield events per original
  // site as they are drained. Independent of the inline hooks; the O2 gate
  // reconciles the two.
  TraceSink MakeTraceSink();
  const std::map<uint64_t, StreamSiteCounts>& stream_sites() const {
    return stream_sites_;
  }

  // --- results ---
  uint64_t classified_cycles() const { return classified_; }
  // The cycle OnRunBegin anchored at. After the final SyncToClock the
  // partition identity reads: classified_cycles() == now - run_begin_cycle().
  uint64_t run_begin_cycle() const { return run_begin_; }
  std::array<uint64_t, kNumCycleClasses> class_totals() const;
  // Keyed by ORIGINAL-binary site address (kExternalSite for residue).
  const std::map<uint64_t, SiteCycles>& sites() const { return sites_; }

  // --- per-epoch attribution slices ---
  // A drift event's cost shows up as a before/after delta between epoch
  // slices instead of a diluted whole-run average. The owner (Shard) calls
  // SnapshotEpoch at each epoch boundary AFTER SyncToClock; the slice stores
  // the CUMULATIVE class totals at that cycle, so the per-epoch cost of class
  // c in epoch slices[i] is `slices[i].class_totals[c] -
  // slices[i-1].class_totals[c]` (EpochDelta computes it).
  struct EpochSlice {
    uint64_t epoch = 0;      // caller-supplied ordinal
    uint64_t end_cycle = 0;  // machine clock at the snapshot
    std::array<uint64_t, kNumCycleClasses> class_totals{};
    // CUMULATIVE per-site class totals; populated only with
    // CycleProfilerConfig::epoch_site_snapshots (keys are ORIGINAL-binary
    // addresses, same per-epoch-delta convention as class_totals).
    std::map<uint64_t, std::array<uint64_t, kNumCycleClasses>> site_totals;
  };
  void SnapshotEpoch(uint64_t epoch, uint64_t now_cycles);
  const std::vector<EpochSlice>& epoch_slices() const { return epoch_slices_; }
  // Class totals accrued WITHIN slice `index` (delta to the previous slice,
  // or to run start for index 0).
  std::array<uint64_t, kNumCycleClasses> EpochDelta(size_t index) const;

 private:
  SiteCycles* SiteAt(uint64_t ip);
  SiteCycles* BurstSite() {
    return burst_site_ != nullptr ? burst_site_ : external_;
  }
  void Add(SiteCycles* site, CycleClass cls, uint64_t cycles) {
    site->cycles[static_cast<size_t>(cls)] += cycles;
    classified_ += cycles;
  }

  CycleProfilerConfig config_;

  // Per-instrumented-address tables, rebuilt by OnBinary.
  std::vector<bool> inserted_;
  std::vector<SiteCycles*> covering_;  // stable: map values never move

  std::map<uint64_t, SiteCycles> sites_;
  SiteCycles* external_ = nullptr;

  uint64_t run_begin_ = 0;
  bool running_ = false;
  uint64_t classified_ = 0;
  std::vector<EpochSlice> epoch_slices_;

  SiteCycles* burst_site_ = nullptr;
  bool burst_useful_ = false;
  uint64_t burst_cycles_ = 0;

  uint64_t total_visits_ = 0;
  uint64_t charged_visits_ = 0;

  std::map<uint64_t, StreamSiteCounts> stream_sites_;
};

}  // namespace yieldhide::obs

#endif  // YIELDHIDE_SRC_OBS_PROFILER_PROFILER_H_
