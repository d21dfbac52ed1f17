#include "src/runtime/dual_mode.h"

#include <algorithm>
#include <limits>
#include <set>

#include "src/common/strings.h"

namespace yieldhide::runtime {

namespace {
constexpr uint32_t kSelfResumeCycles = 2;
}  // namespace

std::string DualModeReport::Summary() const {
  return StrFormat(
      "tasks=%zu primary_latency[%s] efficiency=%.1f%% primary_stall=%s "
      "scavenger_issue=%s chains=%llu spawned=%llu quarantined=%llu/%zu "
      "skips=%llu",
      run.completions.size(), primary_latency.Summary().c_str(),
      100.0 * CpuEfficiency(), WithCommas(primary_stall_cycles).c_str(),
      WithCommas(scavenger_issue_cycles).c_str(),
      static_cast<unsigned long long>(chains),
      static_cast<unsigned long long>(scavengers_spawned),
      static_cast<unsigned long long>(sites_quarantined), site_stats.size(),
      static_cast<unsigned long long>(quarantined_skips));
}

DualModeScheduler::DualModeScheduler(const instrument::InstrumentedProgram* primary_binary,
                                     const instrument::InstrumentedProgram* scavenger_binary,
                                     sim::Machine* machine, const DualModeConfig& config)
    : primary_binary_(primary_binary),
      scavenger_binary_(scavenger_binary),
      machine_(machine),
      config_(config),
      primary_executor_(&primary_binary->program, machine),
      scavenger_executor_(&scavenger_binary->program, machine) {
  RebuildYieldSiteOrigins();
}

void DualModeScheduler::AddPrimaryTask(ContextSetup setup) {
  primary_tasks_.push_back(std::move(setup));
}

void DualModeScheduler::SetScavengerFactory(ScavengerFactory factory) {
  factory_ = std::move(factory);
}

void DualModeScheduler::SetTaskBoundaryHook(TaskBoundaryHook hook) {
  boundary_hook_ = std::move(hook);
}

void DualModeScheduler::SetScavengerLifecycleHooks(ScavengerSpawnHook spawn,
                                                   ScavengerRetireHook retire) {
  spawn_hook_ = std::move(spawn);
  retire_hook_ = std::move(retire);
}

void DualModeScheduler::SeedSiteStats(std::map<isa::Addr, YieldSiteStats> stats) {
  seeded_site_stats_ = std::move(stats);
}

void DualModeScheduler::SetObservability(obs::TraceRecorder* trace,
                                         obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
}

void DualModeScheduler::SetMetricsLabels(obs::Labels labels) {
  metric_labels_ = std::move(labels);
}

void DualModeScheduler::SetProfiler(obs::CycleProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    profiler_->OnBinary(primary_binary_);
  }
}

void DualModeScheduler::SetSpanCollector(obs::SpanCollector* spans) {
  spans_ = spans;
}

void DualModeScheduler::RebuildYieldSiteOrigins() {
  yield_site_origin_.clear();
  const std::vector<isa::Addr>& fwd = primary_binary_->addr_map.forward();
  if (fwd.empty()) {
    return;  // hand-built binary with no rewrite history: identity fallback
  }
  for (const auto& [addr, info] : primary_binary_->yields) {
    if (info.kind != instrument::YieldKind::kPrimary) {
      continue;
    }
    // An inserted yield has no original address of its own; attribute it to
    // the next surviving original instruction — the load it covers. Same rule
    // as adapt::ReverseAddrMap, so runtime and adapt agree on site identity.
    auto it = std::lower_bound(fwd.begin(), fwd.end(), addr);
    yield_site_origin_[addr] =
        it == fwd.end() ? addr : static_cast<isa::Addr>(it - fwd.begin());
  }
}

isa::Addr DualModeScheduler::OriginalSiteOf(isa::Addr yield_addr) const {
  auto it = yield_site_origin_.find(yield_addr);
  return it == yield_site_origin_.end() ? yield_addr : it->second;
}

void DualModeScheduler::ChargeTraceOverhead() {
  if (trace_ == nullptr || !config_.charge_trace_overhead) {
    return;
  }
  const uint64_t cost = trace_->TakeUnchargedOverheadCycles();
  if (cost > 0) {
    machine_->AdvanceClock(cost);
  }
}

void DualModeScheduler::ChargeProfilerOverhead() {
  if (profiler_ == nullptr) {
    return;
  }
  const uint64_t cost = profiler_->TakeUnchargedOverheadCycles();
  if (cost > 0) {
    // The profiler's SyncToClock sweeps this advance into sched_overhead at
    // the next safe point — watching bills itself.
    machine_->AdvanceClock(cost);
  }
}

void DualModeScheduler::ChargeSpanOverhead() {
  if (spans_ == nullptr) {
    return;
  }
  const uint64_t cost = spans_->TakeUnchargedOverheadCycles();
  if (cost > 0) {
    // Charged after OnPrimaryTaskEnd, so the charge never inflates the
    // request that just finished; queued requests absorb it as wait time —
    // watching the spans is itself on the clock.
    machine_->AdvanceClock(cost);
  }
}

void DualModeScheduler::AnnounceQuarantineToProfiler() {
  if (profiler_ == nullptr) {
    return;
  }
  for (const auto& [addr, stats] : report_.site_stats) {
    if (stats.quarantined) {
      profiler_->OnQuarantine(OriginalSiteOf(addr), true);
    }
  }
}

void DualModeScheduler::PublishMetrics() {
  if (metrics_ == nullptr) {
    return;
  }
  // The report's aggregates are monotone within a run, so publishing absolute
  // values keeps the counters monotone too.
  auto set = [&](const char* name, uint64_t v) {
    metrics_->GetCounter(name, metric_labels_)->Set(v);
  };
  set("yh_sched_tasks_completed_total", report_.run.completions.size());
  set("yh_sched_yields_total", report_.run.yields);
  set("yh_sched_instructions_total", report_.run.instructions);
  set("yh_sched_switch_cycles_total", report_.run.switch_cycles);
  set("yh_sched_issue_cycles_total", report_.run.issue_cycles);
  set("yh_sched_stall_cycles_total", report_.run.stall_cycles);
  set("yh_sched_scavengers_spawned_total", report_.scavengers_spawned);
  set("yh_sched_chains_total", report_.chains);
  set("yh_sched_bursts_total", report_.bursts);
  set("yh_sched_bursts_starved_total", report_.bursts_starved);
  set("yh_sched_burst_busy_cycles_total", report_.burst_busy_cycles);
  set("yh_sched_quarantined_skips_total", report_.quarantined_skips);
  set("yh_sched_sites_quarantined_total", report_.sites_quarantined);
  set("yh_sched_binary_swaps_total", report_.binary_swaps);
  if (trace_ != nullptr) {
    set("yh_sched_trace_overhead_cycles_total", trace_->TotalOverheadCycles());
  }
  metrics_->GetGauge("yh_sched_scavenger_pool_cap", metric_labels_)
      ->Set(static_cast<double>(config_.max_scavengers));
  size_t live = 0;
  for (const Scavenger& scavenger : scavengers_) {
    live += scavenger.exhausted ? 0 : 1;
  }
  metrics_->GetGauge("yh_sched_scavengers_live", metric_labels_)
      ->Set(static_cast<double>(live));
  // Per-site stream, keyed by original-binary address so the series survives
  // hot swaps (the instrumented addresses change; the sites do not).
  for (const auto& [addr, stats] : report_.site_stats) {
    obs::Labels site = metric_labels_;
    site.emplace_back("site", StrFormat("0x%llx",
        static_cast<unsigned long long>(OriginalSiteOf(addr))));
    obs::Labels hidden = site;
    hidden.emplace_back("outcome", "hidden");
    obs::Labels blown = site;
    blown.emplace_back("outcome", "blown");
    metrics_->GetCounter("yh_sched_site_yields_total", hidden)
        ->Set(stats.useful);
    metrics_->GetCounter("yh_sched_site_yields_total", blown)
        ->Set(stats.visits - stats.useful);
    metrics_->GetCounter("yh_sched_site_switch_cycles_total", site)
        ->Set(stats.switch_cycles_paid);
    metrics_->GetGauge("yh_sched_site_quarantined", site)
        ->Set(stats.quarantined ? 1.0 : 0.0);
  }
}

void DualModeScheduler::SetScavengerPoolCap(size_t max_scavengers) {
  config_.max_scavengers = max_scavengers;
}

DualModeScheduler::LiveScavengerCycles DualModeScheduler::live_scavenger_cycles()
    const {
  LiveScavengerCycles live;
  for (const Scavenger& scavenger : scavengers_) {
    if (!scavenger.exhausted) {
      live.issue_cycles += scavenger.ctx.issue_cycles;
      live.stall_cycles += scavenger.ctx.stall_cycles;
      live.switch_cycles += scavenger.ctx.switch_cycles;
    }
  }
  return live;
}

void DualModeScheduler::RetireScavengers() {
  for (const Scavenger& scavenger : scavengers_) {
    if (!scavenger.exhausted) {
      report_.scavenger_issue_cycles += scavenger.ctx.issue_cycles;
      report_.run.issue_cycles += scavenger.ctx.issue_cycles;
      report_.run.stall_cycles += scavenger.ctx.stall_cycles;
      report_.run.switch_cycles += scavenger.ctx.switch_cycles;
      if (YH_TRACE_ENABLED(trace_, obs::kTraceScavenger)) {
        trace_->Record(obs::TraceEventType::kScavengerRetire, machine_->now(),
                       scavenger.ctx.id, 0, 0);
      }
      if (retire_hook_) {
        // Killed mid-flight (binary swap / rollback): its work item did NOT
        // finish — the serving layer may restart it.
        retire_hook_(scavenger.ctx.id, machine_->now(), /*completed=*/false);
      }
    }
  }
  scavengers_.clear();
  scavenger_cursor_ = 0;
}

Status DualModeScheduler::SwapBinaries(
    const instrument::InstrumentedProgram* primary_binary,
    const instrument::InstrumentedProgram* scavenger_binary,
    std::map<isa::Addr, YieldSiteStats> carried_site_stats) {
  if (in_task_) {
    return FailedPreconditionError(
        "binary swap requested with a primary task in flight; swaps are only "
        "legal at task boundaries");
  }
  if (primary_binary == nullptr) {
    return InvalidArgumentError("swap requires a primary binary");
  }
  // Original sites quarantined going in, so the trace can show which sites
  // the rebuilt binary released (carried table cleared them).
  std::vector<uint64_t> was_quarantined;
  if (YH_TRACE_ENABLED(trace_, obs::kTraceQuarantine)) {
    for (const auto& [addr, stats] : report_.site_stats) {
      if (stats.quarantined) {
        was_quarantined.push_back(OriginalSiteOf(addr));
      }
    }
  }
  primary_binary_ = primary_binary;
  if (scavenger_binary != nullptr) {
    // Scavengers hold program counters into the old image; retire them and
    // let the pool respawn from the factory against the new binary.
    RetireScavengers();
    scavenger_binary_ = scavenger_binary;
  }
  primary_executor_ = sim::Executor(&primary_binary_->program, machine_);
  scavenger_executor_ = sim::Executor(&scavenger_binary_->program, machine_);
  RebuildYieldSiteOrigins();
  report_.site_stats = std::move(carried_site_stats);
  ++report_.binary_swaps;
  if (profiler_ != nullptr) {
    // Rebind address tables to the new image; site records persist because
    // they are keyed by original site. OnBinary reset the quarantine flags,
    // so re-announce the carried table.
    profiler_->OnBinary(primary_binary_);
    AnnounceQuarantineToProfiler();
  }
  if (YH_TRACE_ENABLED(trace_, obs::kTraceQuarantine)) {
    std::set<uint64_t> still_quarantined;
    for (const auto& [addr, stats] : report_.site_stats) {
      if (stats.quarantined) {
        still_quarantined.insert(OriginalSiteOf(addr));
      }
    }
    for (const uint64_t orig : was_quarantined) {
      if (still_quarantined.count(orig) == 0) {
        trace_->Record(obs::TraceEventType::kQuarantineExit, machine_->now(),
                       -1, orig, 0);
      }
    }
  }
  if (YH_TRACE_ENABLED(trace_, obs::kTraceSwap)) {
    trace_->Record(obs::TraceEventType::kSwapCommit, machine_->now(), -1, 0,
                   report_.binary_swaps);
  }
  return Status::Ok();
}

uint32_t DualModeScheduler::SwitchCostAt(const instrument::InstrumentedProgram& binary,
                                         isa::Addr yield_ip) const {
  auto it = binary.yields.find(yield_ip);
  if (it != binary.yields.end() && it->second.switch_cycles > 0) {
    return it->second.switch_cycles;
  }
  return machine_->config().cost.yield_switch_cycles;
}

bool DualModeScheduler::YieldLooksUseful(const sim::CpuContext& primary,
                                         isa::Addr yield_ip,
                                         uint32_t switch_cost) const {
  // The primary pass emits [prefetch | muli+add+prefetch]... yield; walk
  // backwards over that sequence recomputing each prefetch's target from the
  // still-live registers and probe the hierarchy without side effects.
  const isa::Program& program = primary_binary_->program;
  bool any_prefetch = false;
  isa::Addr addr = yield_ip;
  for (int back = 0; back < 16 && addr > 0; ++back) {
    --addr;
    const isa::Instruction& insn = program.at(addr);
    if (insn.op == isa::Opcode::kPrefetch) {
      any_prefetch = true;
      const uint64_t vaddr =
          primary.regs[insn.rs1] + static_cast<uint64_t>(insn.imm);
      if (!machine_->hierarchy().WouldHitFast(vaddr, machine_->now(),
                                              switch_cost)) {
        return true;  // hiding a real miss
      }
    } else if (insn.op != isa::Opcode::kMuli && insn.op != isa::Opcode::kAdd) {
      break;  // left the inserted sequence
    }
  }
  // No prefetch in sight (e.g. a manually placed yield): assume useful.
  return !any_prefetch;
}

int DualModeScheduler::SpawnScavenger() {
  if (!factory_) {
    return -1;
  }
  size_t slot = scavengers_.size();
  if (slot >= config_.max_scavengers) {
    // Pool at its cap: reuse an exhausted slot, if any (its occupant halted
    // and its accounting was already flushed).
    slot = 0;
    while (slot < scavengers_.size() && !scavengers_[slot].exhausted) {
      ++slot;
    }
    if (slot >= scavengers_.size()) {
      return -1;  // every slot holds a live scavenger
    }
  }
  std::optional<ContextSetup> setup = factory_();
  if (!setup.has_value()) {
    return -1;
  }
  Scavenger scavenger;
  scavenger.ctx.id = kScavengerCtxIdBase + static_cast<int>(slot);
  scavenger.ctx.ResetArchState(scavenger_binary_->program.entry());
  scavenger.ctx.cyield_enabled = true;  // scavenger mode: CYIELDs fire
  (*setup)(scavenger.ctx);
  if (YH_TRACE_ENABLED(trace_, obs::kTraceScavenger)) {
    trace_->Record(obs::TraceEventType::kScavengerSpawn, machine_->now(),
                   scavenger.ctx.id, 0, 0);
  }
  const int ctx_id = scavenger.ctx.id;
  if (slot == scavengers_.size()) {
    scavengers_.push_back(std::move(scavenger));
  } else {
    scavengers_[slot] = std::move(scavenger);
  }
  ++report_.scavengers_spawned;
  if (spawn_hook_) {
    spawn_hook_(ctx_id, machine_->now());
  }
  return static_cast<int>(slot);
}

int DualModeScheduler::AcquireScavenger(const std::vector<bool>* ran_this_burst) {
  auto skip = [&](size_t idx) {
    return scavengers_[idx].ctx.halted ||
           (ran_this_burst != nullptr && idx < ran_this_burst->size() &&
            (*ran_this_burst)[idx]);
  };
  for (size_t i = 0; i < scavengers_.size(); ++i) {
    const size_t idx = (scavenger_cursor_ + i) % scavengers_.size();
    if (!skip(idx)) {
      scavenger_cursor_ = (idx + 1) % scavengers_.size();
      return static_cast<int>(idx);
    }
  }
  // Every pool member already ran this burst (or halted): scale the pool on
  // demand so the chain keeps consuming fresh cycles instead of resuming a
  // scavenger whose own prefetch is still in flight.
  const int spawned = SpawnScavenger();
  if (spawned >= 0) {
    return spawned;
  }
  // Pool at its cap: wrap to the least-recently-run live scavenger.
  for (size_t i = 0; i < scavengers_.size(); ++i) {
    const size_t idx = (scavenger_cursor_ + i) % scavengers_.size();
    if (!scavengers_[idx].ctx.halted) {
      scavenger_cursor_ = (idx + 1) % scavengers_.size();
      return static_cast<int>(idx);
    }
  }
  return -1;
}

Result<DualModeReport> DualModeScheduler::Run() {
  Result<size_t> ran = RunTasks(std::numeric_limits<size_t>::max());
  if (!ran.ok()) {
    return ran.status();
  }
  return Finalize();
}

void DualModeScheduler::BeginRun() {
  report_ = DualModeReport{};
  report_.site_stats = seeded_site_stats_;
  in_task_ = false;
  task_index_ = 0;
  run_start_ = machine_->now();
  started_ = true;
  if (profiler_ != nullptr) {
    profiler_->OnRunBegin(run_start_);
    AnnounceQuarantineToProfiler();  // seeded carry-over tables
  }
  for (size_t i = 0; i < config_.initial_scavengers; ++i) {
    if (SpawnScavenger() < 0) {
      break;
    }
  }
}

// Runs scavenger work until ~window cycles elapse or a scavenger decides to
// hand back. Returns an error status only on executor errors.
Status DualModeScheduler::RunScavengerBurst() {
  ++report_.bursts;
    // Which pool members already ran in this burst; a chain prefers unvisited
    // scavengers so nobody is resumed into its own in-flight prefetch.
    std::vector<bool> ran(scavengers_.size(), false);
    int idx = AcquireScavenger(&ran);
    if (idx < 0) {
      ++report_.bursts_starved;
      machine_->AdvanceClock(kSelfResumeCycles);
      report_.run.switch_cycles += kSelfResumeCycles;
      if (profiler_ != nullptr) {
        profiler_->OnSelfResume(kSelfResumeCycles);
      }
      return Status::Ok();
    }
    const uint64_t burst_start = machine_->now();
    // Occupancy accounting at every exit from the burst: how much of the
    // window scavengers filled, and whether the burst ended for lack of a
    // runnable scavenger (the pool-scaling feedback signal).
    auto end_burst = [&](bool starved) {
      report_.burst_busy_cycles += machine_->now() - burst_start;
      if (starved) {
        ++report_.bursts_starved;
      }
      if (profiler_ != nullptr) {
        profiler_->OnBurstEnd();
      }
    };
    while (true) {
      if (report_.run.instructions >= config_.max_total_instructions) {
        return ResourceExhaustedError("dual-mode run exceeded instruction budget");
      }
      Scavenger& scavenger = scavengers_[idx];
      if (static_cast<size_t>(idx) >= ran.size()) {
        ran.resize(idx + 1, false);
      }
      ran[idx] = true;
      const isa::Addr ip = scavenger.ctx.pc;
      const sim::StepResult step =
          scavenger_executor_.Step(scavenger.ctx, sim::StallPolicy::kBlocking);
      ++report_.run.instructions;
      if (step.event == sim::StepEvent::kError) {
        return scavenger_executor_.error();
      }
      if (profiler_ != nullptr) {
        profiler_->OnScavengerStep(step.issue_cycles, step.wait_cycles);
      }
      if (spans_ != nullptr) {
        spans_->OnScavengerStep(scavenger.ctx.id, step.issue_cycles,
                                step.wait_cycles);
      }
      if (step.event == sim::StepEvent::kExecuted) {
        continue;
      }

      const bool window_consumed =
          machine_->now() - burst_start >= config_.hide_window_cycles;

      if (step.event == sim::StepEvent::kHalted) {
        // Retire its accounting now; the slot may be reused by a respawn.
        report_.scavenger_issue_cycles += scavenger.ctx.issue_cycles;
        report_.run.issue_cycles += scavenger.ctx.issue_cycles;
        report_.run.stall_cycles += scavenger.ctx.stall_cycles;
        report_.run.switch_cycles += scavenger.ctx.switch_cycles;
        scavenger.exhausted = true;
        if (YH_TRACE_ENABLED(trace_, obs::kTraceScavenger)) {
          trace_->Record(obs::TraceEventType::kScavengerRetire,
                         machine_->now(), scavenger.ctx.id, 0, 0);
        }
        if (retire_hook_) {
          // Its work item finished; notify BEFORE the slot (and ctx id) is
          // reused by the respawn below.
          retire_hook_(scavenger.ctx.id, machine_->now(), /*completed=*/true);
        }
        if (factory_) {
          std::optional<ContextSetup> setup = factory_();
          if (setup.has_value()) {
            scavenger.ctx = sim::CpuContext{};
            scavenger.ctx.id = kScavengerCtxIdBase + idx;
            scavenger.ctx.ResetArchState(scavenger_binary_->program.entry());
            scavenger.ctx.cyield_enabled = true;
            (*setup)(scavenger.ctx);
            scavenger.exhausted = false;
            ++report_.scavengers_spawned;
            if (YH_TRACE_ENABLED(trace_, obs::kTraceScavenger)) {
              trace_->Record(obs::TraceEventType::kScavengerSpawn,
                             machine_->now(), scavenger.ctx.id, 0, 0);
            }
            if (spawn_hook_) {
              spawn_hook_(scavenger.ctx.id, machine_->now());
            }
          }
        }
        if (window_consumed) {
          end_burst(false);
          return Status::Ok();
        }
        const int halted_next = AcquireScavenger(&ran);
        if (halted_next < 0) {
          end_burst(true);
          return Status::Ok();
        }
        ++report_.chains;
        idx = halted_next;
        continue;
      }

      // Yielded. Charge the switch out of this scavenger wherever it goes.
      const uint32_t cost = SwitchCostAt(*scavenger_binary_, ip);
      if (YH_TRACE_ENABLED(trace_, obs::kTraceSched)) {
        trace_->Record(obs::TraceEventType::kCoroSwitch, machine_->now(),
                       scavenger.ctx.id, ip, cost);
      }
      if (profiler_ != nullptr) {
        profiler_->OnScavengerSwitch(cost);
      }
      if (spans_ != nullptr) {
        spans_->OnScavengerSwitch(scavenger.ctx.id, cost);
      }
      machine_->AdvanceClock(cost);
      scavenger.ctx.switch_cycles += cost;
      scavenger.ctx.yields_taken += 1;
      ++report_.run.yields;

      if (step.conditional_yield || window_consumed) {
        // A scavenger-phase CYIELD: placed exactly so that "long enough to
        // hide the miss" has elapsed — hand the CPU back to the primary.
        end_burst(false);
        return Status::Ok();
      }
      // A primary-phase yield hit "too early": chain to another scavenger.
      const int next = AcquireScavenger(&ran);
      if (next < 0) {
        end_burst(true);
        return Status::Ok();
      }
      ++report_.chains;
      idx = next;
    }
}

Result<size_t> DualModeScheduler::RunTasks(size_t max_tasks) {
  if (!started_) {
    BeginRun();
  }
  size_t completed = 0;
  while (!primary_tasks_.empty() && completed < max_tasks) {
    ContextSetup setup = std::move(primary_tasks_.front());
    primary_tasks_.pop_front();

    sim::CpuContext primary;
    primary.id = static_cast<int>(task_index_++);
    primary.ResetArchState(primary_binary_->program.entry());
    primary.cyield_enabled = false;  // primary mode: CYIELDs fall through
    if (setup) {
      setup(primary);
    }
    in_task_ = true;
    const uint64_t task_start = machine_->now();
    if (spans_ != nullptr) {
      spans_->OnPrimaryTaskStart(task_start);
    }

    while (!primary.halted) {
      if (report_.run.instructions >= config_.max_total_instructions) {
        return ResourceExhaustedError("dual-mode run exceeded instruction budget");
      }
      const isa::Addr ip = primary.pc;
      const sim::StepResult step =
          primary_executor_.Step(primary, sim::StallPolicy::kBlocking);
      ++report_.run.instructions;
      if (step.event == sim::StepEvent::kError) {
        return primary_executor_.error();
      }
      if (profiler_ != nullptr) {
        profiler_->OnPrimaryStep(ip, step.issue_cycles, step.wait_cycles);
      }
      if (spans_ != nullptr) {
        spans_->OnPrimaryStep(step.issue_cycles, step.wait_cycles);
      }
      if (step.event == sim::StepEvent::kYielded) {
        const uint32_t cost = SwitchCostAt(*primary_binary_, ip);
        // Ungated sites (manual yields) default to useful, matching the
        // YieldLooksUseful fallback for sites with no prefetch sequence.
        bool yield_useful = true;
        if (config_.site_quarantine) {
          auto annotation = primary_binary_->yields.find(ip);
          const bool gated_site =
              annotation != primary_binary_->yields.end() &&
              annotation->second.kind == instrument::YieldKind::kPrimary;
          if (gated_site) {
            YieldSiteStats& stats = report_.site_stats[ip];
            if (stats.quarantined) {
              // Disabled site: skip the switch and the burst entirely. The
              // residual cost of a bad profile is the inserted sequence's
              // issue cycles, nothing more.
              ++report_.quarantined_skips;
              continue;
            }
            ++stats.visits;
            stats.switch_cycles_paid += cost;
            const bool useful = YieldLooksUseful(primary, ip, cost);
            yield_useful = useful;
            if (useful) {
              ++stats.useful;
            }
            if (YH_TRACE_ENABLED(trace_, obs::kTraceYield)) {
              trace_->Record(useful ? obs::TraceEventType::kYieldHidden
                                    : obs::TraceEventType::kYieldBlown,
                             machine_->now(), primary.id, OriginalSiteOf(ip),
                             cost);
            }
            bool newly_quarantined = false;
            if (stats.visits >= config_.quarantine_min_visits &&
                static_cast<double>(stats.useful) <
                    config_.quarantine_min_useful_fraction *
                        static_cast<double>(stats.visits)) {
              stats.quarantined = true;
              newly_quarantined = true;
            }
            if (config_.quarantine_use_tail) {
              obs::SparseHistogram& hist =
                  site_switch_hist_[OriginalSiteOf(ip)];
              hist.Record(cost);
              if (!stats.quarantined &&
                  stats.visits >= config_.quarantine_min_visits &&
                  hist.P99() > config_.quarantine_tail_switch_cycles) {
                stats.quarantined = true;
                newly_quarantined = true;
              }
            }
            if (newly_quarantined) {
              ++report_.sites_quarantined;
              if (profiler_ != nullptr) {
                profiler_->OnQuarantine(OriginalSiteOf(ip), true);
              }
              if (YH_TRACE_ENABLED(trace_, obs::kTraceQuarantine)) {
                trace_->Record(obs::TraceEventType::kQuarantineEnter,
                               machine_->now(), primary.id, OriginalSiteOf(ip),
                               stats.visits);
              }
            }
          }
        }
        if (YH_TRACE_ENABLED(trace_, obs::kTraceSched)) {
          trace_->Record(obs::TraceEventType::kCoroSwitch, machine_->now(),
                         primary.id, ip, cost);
        }
        if (profiler_ != nullptr) {
          profiler_->OnPrimarySwitch(ip, cost, yield_useful);
        }
        if (spans_ != nullptr) {
          spans_->OnPrimarySwitch(cost);
        }
        machine_->AdvanceClock(cost);
        primary.switch_cycles += cost;
        primary.yields_taken += 1;
        ++report_.run.yields;
        const uint64_t burst_begin = machine_->now();
        YH_RETURN_IF_ERROR(RunScavengerBurst());
        if (spans_ != nullptr) {
          // The burst window is the primary's hidden (useful yield) or blown
          // stall; scavenger-bound requests separately accrue their own exec
          // time inside it — both per-request timelines stay exact.
          spans_->OnPrimaryBurst(machine_->now() - burst_begin, yield_useful);
        }
      }
    }

    if (spans_ != nullptr) {
      spans_->OnPrimaryTaskEnd(machine_->now());
    }
    report_.run.completions.push_back(
        CompletionRecord{primary.id, task_start, machine_->now()});
    report_.primary_latency.Record(machine_->now() - task_start);
    report_.primary_issue_cycles += primary.issue_cycles;
    report_.primary_stall_cycles += primary.stall_cycles;
    report_.run.issue_cycles += primary.issue_cycles;
    report_.run.stall_cycles += primary.stall_cycles;
    report_.run.switch_cycles += primary.switch_cycles;
    if (metrics_ != nullptr) {
      metrics_->GetHistogram("yh_sched_primary_latency_cycles", metric_labels_)
          ->Record(machine_->now() - task_start);
    }
    in_task_ = false;
    // Safe point: charge the flight recorder's and profiler's modeled costs
    // and refresh the registry before the hook runs, so the adaptation loop
    // (or a serving endpoint) observes current numbers on an honest clock.
    // The profiler syncs AFTER the charges so they land in sched_overhead;
    // anything the hook itself charges (sampling) is swept at the next sync.
    ChargeTraceOverhead();
    ChargeProfilerOverhead();
    ChargeSpanOverhead();
    if (profiler_ != nullptr) {
      profiler_->SyncToClock(machine_->now());
    }
    PublishMetrics();
    if (boundary_hook_) {
      // Safe point: no primary in flight. The hook may swap binaries.
      boundary_hook_(report_.run.completions.size());
    }
    ++completed;
  }
  return completed;
}

Result<uint64_t> DualModeScheduler::DrainScavengers(uint64_t max_cycles) {
  if (in_task_) {
    return FailedPreconditionError(
        "scavenger drain requested with a primary task in flight");
  }
  if (!started_) {
    BeginRun();
  }
  const uint64_t start = machine_->now();
  while (machine_->now() - start < max_cycles) {
    bool any_live = false;
    for (const Scavenger& scavenger : scavengers_) {
      if (!scavenger.exhausted && !scavenger.ctx.halted) {
        any_live = true;
        break;
      }
    }
    if (!any_live) {
      break;
    }
    YH_RETURN_IF_ERROR(RunScavengerBurst());
  }
  // Safe point: settle the observability bill exactly as a task boundary
  // does, so drained cycles land on the same honest clock.
  ChargeTraceOverhead();
  ChargeProfilerOverhead();
  ChargeSpanOverhead();
  if (profiler_ != nullptr) {
    profiler_->SyncToClock(machine_->now());
  }
  PublishMetrics();
  return machine_->now() - start;
}

Result<DualModeReport> DualModeScheduler::Finalize() {
  if (!started_) {
    BeginRun();  // a zero-task run still yields a well-formed report
  }
  // Account for scavengers still in flight.
  for (const Scavenger& scavenger : scavengers_) {
    if (!scavenger.exhausted) {
      report_.scavenger_issue_cycles += scavenger.ctx.issue_cycles;
      report_.run.issue_cycles += scavenger.ctx.issue_cycles;
      report_.run.stall_cycles += scavenger.ctx.stall_cycles;
      report_.run.switch_cycles += scavenger.ctx.switch_cycles;
    }
  }
  ChargeTraceOverhead();
  ChargeProfilerOverhead();
  ChargeSpanOverhead();
  if (profiler_ != nullptr) {
    // Final sweep: after this, the taxonomy partitions total_cycles exactly.
    profiler_->SyncToClock(machine_->now());
  }
  report_.run.total_cycles = machine_->now() - run_start_;
  PublishMetrics();
  started_ = false;
  return report_;
}

}  // namespace yieldhide::runtime
