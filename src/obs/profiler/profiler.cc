#include "src/obs/profiler/profiler.h"

#include "src/instrument/backmap.h"

namespace yieldhide::obs {

namespace {
// Modeled accounting cost per primary yield visit (a couple of counter bumps
// on real hardware; 1 cycle keeps enabled runs inside 1.05x).
constexpr uint64_t kVisitCostCycles = 1;
}  // namespace

const char* CycleClassName(CycleClass cls) {
  switch (cls) {
    case CycleClass::kIssueUseful:
      return "issue_useful";
    case CycleClass::kStallExposed:
      return "stall_exposed";
    case CycleClass::kStallHidden:
      return "stall_hidden";
    case CycleClass::kPrefetchOverhead:
      return "prefetch_overhead";
    case CycleClass::kSwitchOverhead:
      return "switch_overhead";
    case CycleClass::kSchedOverhead:
      return "sched_overhead";
    case CycleClass::kScavengerUseful:
      return "scavenger_useful";
    case CycleClass::kScavengerWaste:
      return "scavenger_waste";
    case CycleClass::kQuarantineLoss:
      return "quarantine_loss";
  }
  return "unknown";
}

CycleProfiler::CycleProfiler(const CycleProfilerConfig& config)
    : config_(config) {
  external_ = &sites_[kExternalSite];
}

void CycleProfiler::OnBinary(const instrument::InstrumentedProgram* binary) {
  inserted_.clear();
  covering_.clear();
  // Swap semantics: the new carried quarantine table is re-announced by the
  // owner; stale flags from the old binary must not leak forward.
  for (auto& [site, record] : sites_) {
    record.quarantined = false;
  }
  if (binary == nullptr) {
    return;
  }
  const size_t n = binary->program.size();
  const std::vector<isa::Addr>& fwd = binary->addr_map.forward();
  // An address absent from the forward map was inserted by a rewriting pass;
  // with no rewrite history (hand-built binaries) everything is original.
  inserted_.assign(n, !fwd.empty());
  for (const isa::Addr new_addr : fwd) {
    if (new_addr < n) {
      inserted_[new_addr] = false;
    }
  }
  // Region partition: every address is covered by the next kPrimary yield
  // at-or-after it, attributed to that yield's ORIGINAL site.
  const instrument::ReverseAddrMap original(binary->addr_map, n);
  covering_.assign(n, external_);
  SiteCycles* current = external_;
  auto it = binary->yields.rbegin();
  for (size_t ip = n; ip-- > 0;) {
    while (it != binary->yields.rend() && it->first > ip) {
      ++it;
    }
    if (it != binary->yields.rend() && it->first == ip &&
        it->second.kind == instrument::YieldKind::kPrimary) {
      current = &sites_[original.SiteOf(static_cast<isa::Addr>(ip))];
    }
    covering_[ip] = current;
  }
}

void CycleProfiler::OnRunBegin(uint64_t now_cycles) {
  if (!config_.enabled) {
    return;
  }
  run_begin_ = now_cycles;
  running_ = true;
}

SiteCycles* CycleProfiler::SiteAt(uint64_t ip) {
  return ip < covering_.size() ? covering_[ip] : external_;
}

void CycleProfiler::OnStep(isa::Addr ip, uint32_t issue_cycles,
                           uint32_t wait_cycles) {
  if (!config_.enabled || !running_) {
    return;
  }
  SiteCycles* site = SiteAt(ip);
  if (wait_cycles > 0) {
    Add(site, CycleClass::kStallExposed, wait_cycles);
  }
  if (issue_cycles > 0) {
    if (ip < inserted_.size() && inserted_[ip]) {
      Add(site,
          site->quarantined ? CycleClass::kQuarantineLoss
                            : CycleClass::kPrefetchOverhead,
          issue_cycles);
    } else {
      Add(site, CycleClass::kIssueUseful, issue_cycles);
    }
  }
}

void CycleProfiler::OnPrimarySwitch(uint64_t yield_ip, uint32_t cost_cycles,
                                    bool useful) {
  if (!config_.enabled || !running_) {
    return;
  }
  SiteCycles* site = SiteAt(yield_ip);
  ++site->yield_visits;
  if (useful) {
    ++site->useful_visits;
  }
  site->switch_cost.Record(cost_cycles);
  Add(site, CycleClass::kSwitchOverhead, cost_cycles);
  burst_site_ = site;
  burst_useful_ = useful;
  burst_cycles_ = 0;
  ++total_visits_;
}

void CycleProfiler::OnSwitch(uint64_t ip, uint32_t cost_cycles) {
  if (!config_.enabled || !running_) {
    return;
  }
  Add(SiteAt(ip), CycleClass::kSwitchOverhead, cost_cycles);
}

void CycleProfiler::OnScavengerStep(uint64_t issue_cycles,
                                    uint64_t wait_cycles) {
  if (!config_.enabled || !running_) {
    return;
  }
  SiteCycles* site = BurstSite();
  if (issue_cycles > 0) {
    // The partition that keeps hidden work honest: scavenger progress only
    // counts as HIDDEN latency when the triggering yield was covering a real
    // miss; in a blown burst it is still useful batch work, but it hid
    // nothing.
    Add(site,
        burst_useful_ ? CycleClass::kStallHidden : CycleClass::kScavengerUseful,
        issue_cycles);
  }
  if (wait_cycles > 0) {
    Add(site, CycleClass::kScavengerWaste, wait_cycles);
  }
  burst_cycles_ += issue_cycles + wait_cycles;
}

void CycleProfiler::OnScavengerSwitch(uint32_t cost_cycles) {
  if (!config_.enabled || !running_) {
    return;
  }
  Add(BurstSite(), CycleClass::kSwitchOverhead, cost_cycles);
  burst_cycles_ += cost_cycles;
}

void CycleProfiler::OnSelfResume(uint32_t cost_cycles) {
  if (!config_.enabled || !running_) {
    return;
  }
  Add(BurstSite(), CycleClass::kSchedOverhead, cost_cycles);
}

void CycleProfiler::OnBurstEnd() {
  if (!config_.enabled || !running_) {
    return;
  }
  if (burst_site_ != nullptr && burst_useful_ && burst_cycles_ > 0) {
    burst_site_->hidden_latency.Record(burst_cycles_);
  }
  burst_cycles_ = 0;
}

void CycleProfiler::OnQuarantine(uint64_t original_site, bool quarantined) {
  if (!config_.enabled) {
    return;
  }
  sites_[original_site].quarantined = quarantined;
}

void CycleProfiler::SyncToClock(uint64_t now_cycles) {
  if (!config_.enabled || !running_) {
    return;
  }
  const uint64_t elapsed = now_cycles - run_begin_;
  if (elapsed > classified_) {
    // Clock advances the hooks never saw: boundary-hook work (sampling
    // overhead), modeled trace/profiler capture cost. All scheduling tax.
    Add(external_, CycleClass::kSchedOverhead, elapsed - classified_);
  }
}

uint64_t CycleProfiler::TakeUnchargedOverheadCycles() {
  if (!config_.enabled) {
    return 0;
  }
  const uint64_t delta = (total_visits_ - charged_visits_) * kVisitCostCycles;
  charged_visits_ = total_visits_;
  return delta;
}

TraceSink CycleProfiler::MakeTraceSink() {
  return [this](const TraceEvent& event) {
    switch (event.type) {
      case TraceEventType::kYieldHidden: {
        StreamSiteCounts& counts = stream_sites_[event.ip];
        ++counts.hidden;
        counts.switch_cycles += event.arg;
        break;
      }
      case TraceEventType::kYieldBlown: {
        StreamSiteCounts& counts = stream_sites_[event.ip];
        ++counts.blown;
        counts.switch_cycles += event.arg;
        break;
      }
      default:
        break;
    }
  };
}

std::array<uint64_t, kNumCycleClasses> CycleProfiler::class_totals() const {
  std::array<uint64_t, kNumCycleClasses> totals{};
  for (const auto& [site, record] : sites_) {
    for (size_t i = 0; i < kNumCycleClasses; ++i) {
      totals[i] += record.cycles[i];
    }
  }
  return totals;
}

void CycleProfiler::SnapshotEpoch(uint64_t epoch, uint64_t now_cycles) {
  EpochSlice slice;
  slice.epoch = epoch;
  slice.end_cycle = now_cycles;
  slice.class_totals = class_totals();
  if (config_.epoch_site_snapshots) {
    for (const auto& [site, record] : sites_) {
      slice.site_totals.emplace(site, record.cycles);
    }
  }
  epoch_slices_.push_back(std::move(slice));
}

std::array<uint64_t, kNumCycleClasses> CycleProfiler::EpochDelta(
    size_t index) const {
  std::array<uint64_t, kNumCycleClasses> delta{};
  if (index >= epoch_slices_.size()) {
    return delta;
  }
  delta = epoch_slices_[index].class_totals;
  if (index > 0) {
    for (size_t i = 0; i < kNumCycleClasses; ++i) {
      delta[i] -= epoch_slices_[index - 1].class_totals[i];
    }
  }
  return delta;
}

}  // namespace yieldhide::obs
