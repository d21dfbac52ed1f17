#include "src/pmu/lbr.h"

namespace yieldhide::pmu {

void LbrRecorder::OnBranch(int ctx_id, isa::Addr from, isa::Addr to, bool taken,
                           uint64_t cycle) {
  if (!taken) {
    return;  // real LBR records only taken branches
  }
  LbrEntry entry;
  entry.from = from;
  entry.to = to;
  entry.cycles = static_cast<uint32_t>(cycle - last_branch_cycle_);
  last_branch_cycle_ = cycle;
  if (ring_.size() >= kLbrRingEntries) {
    ring_.pop_front();
  }
  ring_.push_back(entry);
  ++branches_seen_;

  if (branches_seen_ % config_.snapshot_period == 0 &&
      snapshots_.size() < config_.max_snapshots) {
    LbrSnapshot snap;
    snap.entries.assign(ring_.begin(), ring_.end());
    snapshots_.push_back(std::move(snap));
  }
}

std::vector<LbrSnapshot> LbrRecorder::DrainSnapshots() {
  std::vector<LbrSnapshot> out;
  out.swap(snapshots_);
  return out;
}

}  // namespace yieldhide::pmu
