// DualModeScheduler: the paper's asymmetric-concurrency runtime (§3.3).
//
// One latency-sensitive PRIMARY coroutine processes a queue of tasks
// (requests). A pool of SCAVENGER coroutines — batch work that only exists to
// soak up cycles the primary would otherwise stall for — runs with
// conditional yields enabled. Scheduling rules, verbatim from the paper:
//
//   (i)  the primary yields to a scavenger in the face of a potential cache
//        miss (its instrumented prefetch+yield sites);
//   (ii) a scavenger yields BACK to the primary once it has run long enough
//        to hide the miss — i.e. when it reaches a scavenger-phase CYIELD;
//        if it instead reaches a primary-phase yield "too early", it chains
//        to ANOTHER scavenger to consume more cycles, and the scavenger pool
//        scales on demand (new scavengers are spawned from the factory when
//        a chain needs one).
//
// Integration seams: scavenger work comes from a ScavengerFactory (the
// serving front end hands out queued requests through it), the lifecycle
// hooks report each scavenger context's spawn and retire, and the
// task-boundary hook runs at a safe point where binaries may be hot-swapped.
#ifndef YIELDHIDE_SRC_RUNTIME_DUAL_MODE_H_
#define YIELDHIDE_SRC_RUNTIME_DUAL_MODE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/instrument/backmap.h"
#include "src/instrument/types.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler/profiler.h"
#include "src/obs/span/span.h"
#include "src/obs/trace.h"
#include "src/runtime/report.h"
#include "src/sim/executor.h"

namespace yieldhide::runtime {

// Scavenger contexts get ids starting here; primary tasks use 0, 1, 2, ....
// Consumers of machine events (e.g. the online profiler in src/adapt) use
// this to tell the two classes apart.
inline constexpr int kScavengerCtxIdBase = 1000;

// The scavenger pool starts with this many contexts.
inline constexpr size_t kInitialScavengers = 1;
// A site is quarantined once it has been visited at least this many times
// with too few of those visits looking useful (see dual_mode.cc).
inline constexpr uint64_t kQuarantineMinVisits = 16;

struct DualModeConfig {
  // Scavenger pool: started eagerly at kInitialScavengers, grown on demand
  // up to `max_scavengers` when yield chains need more cycles to consume.
  size_t max_scavengers = 8;
  // How many cycles of scavenger execution suffice to consider a primary
  // miss hidden; chains stop even at a primary yield once this much has run.
  uint32_t hide_window_cycles = 300;
  uint64_t max_total_instructions = 1'000'000'000;
  // Online site quarantine: track per-yield-site hide efficiency (was the
  // prefetched line actually slow, or did we pay a switch for nothing?) and
  // stop taking yields at sites that keep regressing. This bounds the
  // worst-case slowdown a corrupted or stale profile can inflict: a yield
  // placed on an always-hitting load degrades to its issue cost. Only
  // instrumented kPrimary sites are ever quarantined; developer-written
  // yields are left alone.
  bool site_quarantine = true;
};

// Online per-site accounting backing the quarantine decision.
struct YieldSiteStats {
  uint64_t visits = 0;           // times the primary yielded here
  uint64_t useful = 0;           // visits where the prefetched line was slow
  uint64_t switch_cycles_paid = 0;
  bool quarantined = false;
};

// Mean fraction of the hide window that `bursts` scavenger bursts filled,
// given the `busy_cycles` scavengers ran inside them; 0 without bursts.
inline double BurstOccupancy(uint64_t busy_cycles, uint64_t bursts,
                             uint32_t hide_window_cycles) {
  if (bursts == 0 || hide_window_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(busy_cycles) /
         (static_cast<double>(bursts) * hide_window_cycles);
}

struct DualModeReport {
  RunReport run;                      // totals; completions = primary tasks
  LatencyHistogram primary_latency;   // per-task latency (cycles)
  uint64_t primary_stall_cycles = 0;
  uint64_t scavenger_issue_cycles = 0;
  uint64_t scavengers_spawned = 0;
  uint64_t chains = 0;  // scavenger-to-scavenger transfers ("too early" case)
  // Site-quarantine telemetry (keyed by instrumented-program yield address).
  std::map<isa::Addr, YieldSiteStats> site_stats;
  uint64_t sites_quarantined = 0;   // quarantined during this run (tables
                                    // carried by a swap are not re-counted)
  uint64_t quarantined_skips = 0;  // yields not taken at quarantined sites
  // Hide-window occupancy telemetry: how full the scavenger bursts actually
  // ran. The adapt controller's pool-scaling feedback loop reads these.
  uint64_t bursts = 0;              // primary yields that requested a burst
  uint64_t burst_busy_cycles = 0;   // cycles scavengers ran inside bursts
  uint64_t bursts_starved = 0;      // bursts cut short: no runnable scavenger
  // Binaries hot-swapped mid-run (online adaptation safe-point swaps).
  uint64_t binary_swaps = 0;

  // Mean fraction of the hide window that bursts actually filled.
  double BurstOccupancy(uint32_t hide_window_cycles) const {
    return runtime::BurstOccupancy(burst_busy_cycles, bursts,
                                   hide_window_cycles);
  }

  // Core cycles doing useful work for either class.
  double CpuEfficiency() const { return run.CpuEfficiency(); }
  std::string Summary() const;
};

class DualModeScheduler {
 public:
  using ContextSetup = std::function<void(sim::CpuContext&)>;
  // Returns the register setup for the next scavenger coroutine, or nullopt
  // when the scavenger supply is exhausted.
  using ScavengerFactory = std::function<std::optional<ContextSetup>()>;
  // Invoked after each primary task completes, with the number of tasks
  // finished so far. The scheduler is at a safe point while the hook runs —
  // no task in flight — so the hook may call SwapBinaries() and
  // SetScavengerPoolCap(). This is where the online adaptation loop lives.
  using TaskBoundaryHook = std::function<void(size_t tasks_completed)>;
  // Scavenger lifecycle notifications (the serving front end's bookkeeping
  // seam). `spawn` fires whenever a factory-supplied context is installed
  // into a pool slot — initial spawn, on-demand growth, and the in-place
  // respawn after a halt — AFTER the factory returned, so the factory's
  // caller-side state (e.g. "which request did I just hand out") can be
  // bound to the context id. `retire` fires when a context leaves the pool:
  // completed=true at halt (its work item finished at `now`), completed=false
  // when live scavengers are retired wholesale (binary swap / rollback) —
  // the work item did NOT finish and the caller may restart it elsewhere.
  using ScavengerSpawnHook = std::function<void(int ctx_id, uint64_t now)>;
  using ScavengerRetireHook =
      std::function<void(int ctx_id, uint64_t now, bool completed)>;

  // Primary tasks and scavengers may run different binaries (a latency-
  // sensitive service interleaving with an unrelated batch job); both share
  // the machine (same core, same caches).
  DualModeScheduler(const instrument::InstrumentedProgram* primary_binary,
                    const instrument::InstrumentedProgram* scavenger_binary,
                    sim::Machine* machine, const DualModeConfig& config);

  // Enqueues one primary task (request).
  void AddPrimaryTask(ContextSetup setup);
  // Supplies scavenger work. With no factory the scheduler degrades to
  // running the primary alone (yields fall through).
  void SetScavengerFactory(ScavengerFactory factory);
  // Installs the between-tasks safe-point callback (see TaskBoundaryHook).
  void SetTaskBoundaryHook(TaskBoundaryHook hook);
  // Installs the scavenger lifecycle callbacks (either may be empty).
  void SetScavengerLifecycleHooks(ScavengerSpawnHook spawn,
                                  ScavengerRetireHook retire);

  // Attaches a flight recorder and/or metrics registry (either may be null;
  // both may outlive or be detached between runs). Trace yield/quarantine
  // events and per-site metrics are keyed by ORIGINAL-binary site address —
  // translated through the primary binary's addr_map — so streams from before
  // and after a hot swap reconcile exactly. The recorder's modeled capture
  // cost is charged to the machine clock at task boundaries, the way
  // pmu::SamplingSession's overhead is.
  void SetObservability(obs::TraceRecorder* trace,
                        obs::MetricsRegistry* metrics);

  // Base labels appended to every metric this scheduler publishes (e.g.
  // {"shard", "2"} when several schedulers share one registry). Empty by
  // default, which publishes the exact unlabeled series single-core callers
  // and existing dashboards expect.
  void SetMetricsLabels(obs::Labels labels);

  // Attaches a cycle-attribution profiler (may be null; must outlive the
  // run). The scheduler feeds it inline at every accounting point and keeps
  // it bound across hot swaps (OnBinary + quarantine re-announce), so the
  // taxonomy partitions `RunReport::total_cycles` exactly — see
  // docs/PROFILER.md. Its modeled accounting cost is charged at the same
  // safe points as the trace recorder's.
  void SetProfiler(obs::CycleProfiler* profiler);

  // Attaches a request-scoped span collector (may be null; must outlive the
  // run). The scheduler feeds it the primary task start/end boundaries, the
  // issue/stall split of each run between yields, switch costs, and burst
  // durations — the per-REQUEST companion of the per-SITE profiler
  // (docs/OBSERVABILITY.md). Its modeled transition cost is charged at the
  // same safe points as the trace recorder's.
  void SetSpanCollector(obs::SpanCollector* spans);

  // Hot-swaps the binaries mid-run. Only legal at a safe point (before Run()
  // or inside a TaskBoundaryHook): fails with FAILED_PRECONDITION if a
  // primary task is in flight, so no task can ever observe a mix of old and
  // new code. Live scavengers are retired (their accounting is flushed) and
  // the pool respawns from the factory against the new binary.
  // `scavenger_binary == nullptr` keeps the current scavenger binary.
  // `carried_site_stats` replaces the quarantine table (keyed by yield
  // address in the NEW primary binary). Both binaries must outlive the run.
  Status SwapBinaries(const instrument::InstrumentedProgram* primary_binary,
                      const instrument::InstrumentedProgram* scavenger_binary,
                      std::map<isa::Addr, YieldSiteStats> carried_site_stats);

  // Adjusts the on-demand pool cap (config max_scavengers) at runtime; safe
  // from a boundary hook. Shrinking does not kill live scavengers — they
  // drain; the pool just stops growing past the new cap.
  void SetScavengerPoolCap(size_t max_scavengers);
  size_t scavenger_pool_cap() const { return config_.max_scavengers; }

  // The report accumulated so far. Valid inside a TaskBoundaryHook; the
  // adaptation loop reads per-epoch deltas (cycle totals are on the machine
  // clock, so run.total_cycles is only filled in at the end of Run()).
  const DualModeReport& progress() const { return report_; }

  // Cycle counters of live scavengers not yet flushed into the report (they
  // flush at halt, swap, or end of run). progress() plus these is a complete
  // account mid-run; the sum is invariant across a swap.
  struct LiveScavengerCycles {
    uint64_t issue_cycles = 0;
    uint64_t stall_cycles = 0;
    uint64_t switch_cycles = 0;
  };
  LiveScavengerCycles live_scavenger_cycles() const;

  // Runs until every primary task completes. Scavengers left unfinished stay
  // unfinished (they are best-effort by definition).
  Result<DualModeReport> Run();

  // Incremental serving API: runs at most `max_tasks` more primary tasks and
  // returns at a safe point (no task in flight) with the number actually
  // completed by this call — 0 once the queue is empty. The first call does
  // the start-of-run setup (report reset, initial scavenger spawns).
  // ServerGroup drives its shards in epoch lockstep through this;
  // Run() is the run-to-completion composition of RunTasks + Finalize.
  Result<size_t> RunTasks(size_t max_tasks);
  // Ends an incremental run: flushes live scavenger accounting into the
  // report, charges deferred observability costs, stamps run.total_cycles,
  // publishes final metrics, and returns the report. The next RunTasks/Run
  // afterwards starts a fresh run.
  Result<DualModeReport> Finalize();
  // Primary tasks still queued (not yet started).
  size_t pending_tasks() const { return primary_tasks_.size(); }

  // Idle-loop donation (open-loop serving): with no primary task in flight,
  // run scavenger bursts back-to-back until every pool slot is exhausted or
  // `max_cycles` have elapsed — a real event loop resumes ready coroutines
  // while the request queue is empty instead of parking the core. Chains may
  // still pull fresh work from the factory, exactly as inside a primary
  // burst. Returns the cycles consumed; legal only at a safe point.
  Result<uint64_t> DrainScavengers(uint64_t max_cycles);

 private:
  struct Scavenger {
    sim::CpuContext ctx;
    bool exhausted = false;  // halted and not replaced
  };

  // Inspects the prefetches emitted just before the primary yield at
  // `yield_ip`: true if any prefetched line would still be slow to load (the
  // yield is hiding real latency), false if everything is already fast (the
  // switch was wasted). Sites with no recognizable prefetch sequence are
  // treated as useful.
  bool YieldLooksUseful(const sim::CpuContext& primary, isa::Addr yield_ip,
                        uint32_t switch_cost) const;
  // Index of a runnable scavenger, or -1. Prefers scavengers that have not
  // yet run in the current burst (ran_this_burst_), so a chain never resumes
  // a coroutine into its own in-flight prefetch, spawning a new one on demand
  // when the burst would otherwise wrap — the paper's on-demand scaling of
  // the pool.
  int AcquireScavenger();
  // Installs a fresh factory context into a pool slot and returns its index,
  // or -1 (no factory, factory dry, or pool full of LIVE scavengers). At the
  // cap an EXHAUSTED slot is reused: a slot whose factory came up dry at halt
  // time (e.g. a momentarily empty request queue) must not block the pool
  // forever once work exists again.
  int SpawnScavenger();
  // Installs a fresh scavenger context set up by `setup` into pool slot
  // `slot` (appending when `slot` is the pool size): spawn, growth and the
  // respawn after a halt all go through here.
  void InstallScavenger(size_t slot, const ContextSetup& setup);
  // Adds a scavenger context's cycle counters to the report (at halt, retire
  // and end of run).
  void FlushScavengerCycles(const sim::CpuContext& ctx);
  // Flushes accounting of live scavengers into the report and empties the
  // pool (used when the scavenger binary is swapped out from under them).
  void RetireScavengers();
  // Publishes the report's aggregates into the registry (safe points only).
  void PublishMetrics();
  // Safe point (task boundary, drain end, Finalize): charges the recorder's,
  // profiler's and span collector's modeled costs to the clock, syncs the
  // profiler and publishes metrics.
  void SettleSafePoint();
  // Start-of-run setup shared by Run() and the first RunTasks() call.
  void BeginRun();
  // One scavenger burst at a primary yield (see the scheduling rules above).
  Status RunScavengerBurst();

  const instrument::InstrumentedProgram* primary_binary_;
  const instrument::InstrumentedProgram* scavenger_binary_;
  sim::Machine* machine_;
  DualModeConfig config_;
  sim::Executor primary_executor_;
  sim::Executor scavenger_executor_;
  std::deque<ContextSetup> primary_tasks_;
  ScavengerFactory factory_;
  TaskBoundaryHook boundary_hook_;
  ScavengerSpawnHook spawn_hook_;
  ScavengerRetireHook retire_hook_;
  std::vector<Scavenger> scavengers_;
  size_t scavenger_cursor_ = 0;
  // Which pool members already ran in the current burst, by slot. Cleared at
  // each burst start; its capacity carries over from burst to burst.
  std::vector<bool> ran_this_burst_;
  bool in_task_ = false;
  // Incremental-run state: BeginRun() has run and Finalize() has not.
  bool started_ = false;
  uint64_t run_start_ = 0;
  size_t task_index_ = 0;
  DualModeReport report_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Labels metric_labels_;
  obs::CycleProfiler* profiler_ = nullptr;
  obs::SpanCollector* spans_ = nullptr;
  // The current primary binary's original-site map: the swap-invariant key
  // trace events and per-site metrics use.
  instrument::ReverseAddrMap sites_;
};

}  // namespace yieldhide::runtime

#endif  // YIELDHIDE_SRC_RUNTIME_DUAL_MODE_H_
