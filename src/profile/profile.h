// Profile database: aggregates PEBS samples into per-instruction event-rate
// estimates and LBR snapshots into measured block latencies and hot edges.
//
// This implements the paper's §3.2 multi-event combination: no single
// hardware event reports "stall cycles caused by an L2/L3 miss at load X", so
// the profile combines (i) precise miss-load samples, (ii) stall-cycle
// samples, and (iii) retired-instruction samples (for execution counts), and
// correlates them per IP. Everything here is an *estimate* scaled by the
// sampling period; ground truth lives in sim::ExactStats and is only used by
// experiments to score these estimates.
#ifndef YIELDHIDE_SRC_PROFILE_PROFILE_H_
#define YIELDHIDE_SRC_PROFILE_PROFILE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/pmu/sample.h"

namespace yieldhide::profile {

// Estimated event counts for one instruction address.
struct SiteProfile {
  double est_executions = 0;  // from INST_RETIRED samples * period
  double est_l1_misses = 0;
  double est_l2_misses = 0;
  double est_l3_misses = 0;
  double est_stall_cycles = 0;

  // Estimated probability that one execution of this load misses the L2
  // (i.e. is served by L3 or DRAM) — the paper's target event family.
  double L2MissProbability() const {
    return est_executions <= 0 ? 0.0 : est_l2_misses / est_executions;
  }
  // Estimated stall cycles per execution.
  double StallPerExecution() const {
    return est_executions <= 0 ? 0.0 : est_stall_cycles / est_executions;
  }
};

// Sampling periods used when scaling samples back to event counts.
struct SamplePeriods {
  uint64_t l1_miss = 0;  // 0 = event not sampled
  uint64_t l2_miss = 0;
  uint64_t l3_miss = 0;
  uint64_t stall_cycles = 0;
  uint64_t retired = 0;
};

// Per-category counters for samples a consumer refused to aggregate. Real
// PEBS streams contain garbage (aliased IPs outside the text segment,
// records with corrupt event encodings); we count-and-drop instead of
// asserting so one bad record cannot poison a whole collection run.
struct SampleDropStats {
  uint64_t accepted = 0;
  uint64_t dropped_out_of_range = 0;  // ip outside [0, code_size)
  uint64_t dropped_unknown_event = 0;  // unrecognized HwEvent encoding

  uint64_t TotalDropped() const {
    return dropped_out_of_range + dropped_unknown_event;
  }
  std::string ToString() const;
};

class LoadProfile {
 public:
  // Accumulates samples, scaling each by its event's period. Samples whose
  // IP is outside [0, code_size) or whose event enum is corrupt are counted
  // in `stats` (if non-null) and dropped. Pass code_size = isa::kInvalidAddr
  // to accept any IP (no binary to validate against).
  void AddSamples(const std::vector<pmu::PebsSample>& samples,
                  const SamplePeriods& periods,
                  isa::Addr code_size = isa::kInvalidAddr,
                  SampleDropStats* stats = nullptr);

  // Adds `delta`'s event estimates to the site at `ip` (creating it if
  // absent). The mutation hook used by faultinject to re-key aggregated
  // evidence without reaching into the private maps.
  void AccumulateSite(isa::Addr ip, const SiteProfile& delta);

  // Removes every site at or beyond `code_size`, returning how many were
  // dropped. total_stall_cycles() shrinks by the dropped sites' stalls.
  size_t DropSitesOutside(isa::Addr code_size);

  const SiteProfile& ForIp(isa::Addr ip) const;
  bool HasIp(isa::Addr ip) const { return sites_.count(ip) != 0; }
  const std::map<isa::Addr, SiteProfile>& sites() const { return sites_; }

  double total_stall_cycles() const { return total_stall_cycles_; }
  // The profile's mass: the sum of every site's execution estimate.
  double TotalExecutions() const;

  // The §3.2 correlation step: IPs whose estimated L2-miss probability is at
  // least `min_miss_probability` AND which account for at least
  // `min_stall_share` of the total estimated stall cycles. Sorted by
  // descending stall contribution, ties by ascending IP.
  std::vector<isa::Addr> LikelyStallLoads(double min_miss_probability,
                                          double min_stall_share) const;

  void Merge(const LoadProfile& other);

  // Multiplies every site's estimates (and the stall total) by `factor`,
  // then removes sites whose execution estimate fell below `min_executions`.
  // Returns the number of sites removed. This is the exponential-decay
  // primitive of the online adaptation loop (src/adapt): old evidence fades
  // each epoch instead of pinning the profile to a dead phase forever.
  size_t Decay(double factor, double min_executions = 0.0);

  // Text serialization (one "ip execs l1 l2 l3 stall" line per site).
  std::string Serialize() const;
  static Result<LoadProfile> Deserialize(std::string_view text);

 private:
  std::map<isa::Addr, SiteProfile> sites_;
  double total_stall_cycles_ = 0;
};

// Measured straight-line run latencies and control-flow edge heat from LBR.
class BlockLatencyProfile {
 public:
  void AddSnapshots(const std::vector<pmu::LbrSnapshot>& snapshots);

  // Mean measured cycles of runs *starting* at `start`, regardless of exit.
  Result<double> MeanLatencyFrom(isa::Addr start) const;

  // Estimated per-cycle "temperature" of an address region: how often runs
  // covering it were observed. Used to order scavenger placement.
  uint64_t RunCount(isa::Addr start) const;

  size_t observed_runs() const { return runs_.size(); }

  void Merge(const BlockLatencyProfile& other);

  // Rewrites every recorded address through `translate` — used to carry a
  // profile collected on the original binary forward across instrumentation
  // passes (via instrument::AddrMap). Latencies are kept as measured; the
  // inserted instructions' cost is absorbed by the scavenger pass's scaling.
  BlockLatencyProfile Translated(
      const std::function<isa::Addr(isa::Addr)>& translate) const;

  // Removes runs and edges touching an address at or beyond `code_size`.
  // Returns {runs_dropped, edges_dropped}.
  std::pair<size_t, size_t> DropOutside(isa::Addr code_size);

  std::string Serialize() const;
  static Result<BlockLatencyProfile> Deserialize(std::string_view text);

 private:
  struct RunStats {
    uint64_t count = 0;
    double total_cycles = 0;
  };
  // (run start, exit branch address) -> latency stats
  std::map<std::pair<isa::Addr, isa::Addr>, RunStats> runs_;
  std::map<std::pair<isa::Addr, isa::Addr>, uint64_t> edges_;
};

// Everything the instrumenter needs from one profiling run.
struct ProfileData {
  LoadProfile loads;
  BlockLatencyProfile blocks;
};

// What SanitizeProfileData removed. Non-zero counters mean the profile
// disagreed with the binary it was applied to — a staleness or corruption
// signal consumers surface in their reports.
struct ProfileSanitizeReport {
  size_t sites_dropped = 0;
  size_t runs_dropped = 0;
  size_t edges_dropped = 0;

  bool AnythingDropped() const {
    return sites_dropped + runs_dropped + edges_dropped > 0;
  }
  std::string ToString() const;
};

// Drops every profile record that references an address outside
// [0, code_size). Run before instrumenting: aliased or stale profile IPs
// must not reach the passes as if they named real instructions.
ProfileSanitizeReport SanitizeProfileData(ProfileData& data,
                                          isa::Addr code_size);

}  // namespace yieldhide::profile

#endif  // YIELDHIDE_SRC_PROFILE_PROFILE_H_
