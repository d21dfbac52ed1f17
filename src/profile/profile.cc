#include "src/profile/profile.h"

#include <algorithm>

#include "src/common/strings.h"

namespace yieldhide::profile {

std::string SampleDropStats::ToString() const {
  return StrFormat("samples: accepted=%llu out_of_range=%llu unknown_event=%llu",
                   static_cast<unsigned long long>(accepted),
                   static_cast<unsigned long long>(dropped_out_of_range),
                   static_cast<unsigned long long>(dropped_unknown_event));
}

void LoadProfile::AddSamples(const std::vector<pmu::PebsSample>& samples,
                             const SamplePeriods& periods, isa::Addr code_size,
                             SampleDropStats* stats) {
  for (const pmu::PebsSample& sample : samples) {
    if (code_size != isa::kInvalidAddr && sample.ip >= code_size) {
      if (stats != nullptr) {
        ++stats->dropped_out_of_range;
      }
      continue;
    }
    // Validate the event encoding before touching sites_: a bit-flipped
    // record must not leave an empty tombstone entry behind.
    if (static_cast<uint8_t>(sample.event) >
        static_cast<uint8_t>(pmu::HwEvent::kRetiredInstructions)) {
      if (stats != nullptr) {
        ++stats->dropped_unknown_event;
      }
      continue;
    }
    SiteProfile& site = sites_[sample.ip];
    switch (sample.event) {
      case pmu::HwEvent::kLoadsL1Miss:
        site.est_l1_misses += static_cast<double>(periods.l1_miss);
        break;
      case pmu::HwEvent::kLoadsL2Miss:
        site.est_l2_misses += static_cast<double>(periods.l2_miss);
        // An L2 miss is by definition also an L1 miss; when the L1 event is
        // not sampled separately, fold it in so est_l1_misses >= est_l2_misses.
        if (periods.l1_miss == 0) {
          site.est_l1_misses += static_cast<double>(periods.l2_miss);
        }
        break;
      case pmu::HwEvent::kLoadsL3Miss:
        site.est_l3_misses += static_cast<double>(periods.l3_miss);
        break;
      case pmu::HwEvent::kStallCycles: {
        const double w = static_cast<double>(periods.stall_cycles);
        site.est_stall_cycles += w;
        total_stall_cycles_ += w;
        break;
      }
      case pmu::HwEvent::kRetiredInstructions:
        site.est_executions += static_cast<double>(periods.retired);
        break;
    }
    if (stats != nullptr) {
      ++stats->accepted;
    }
  }
}

void LoadProfile::AccumulateSite(isa::Addr ip, const SiteProfile& delta) {
  SiteProfile& site = sites_[ip];
  site.est_executions += delta.est_executions;
  site.est_l1_misses += delta.est_l1_misses;
  site.est_l2_misses += delta.est_l2_misses;
  site.est_l3_misses += delta.est_l3_misses;
  site.est_stall_cycles += delta.est_stall_cycles;
  total_stall_cycles_ += delta.est_stall_cycles;
}

size_t LoadProfile::DropSitesOutside(isa::Addr code_size) {
  size_t dropped = 0;
  for (auto it = sites_.lower_bound(code_size); it != sites_.end();) {
    total_stall_cycles_ -= it->second.est_stall_cycles;
    it = sites_.erase(it);
    ++dropped;
  }
  if (total_stall_cycles_ < 0) {
    total_stall_cycles_ = 0;  // guard against float cancellation drift
  }
  return dropped;
}

const SiteProfile& LoadProfile::ForIp(isa::Addr ip) const {
  static const SiteProfile kEmpty;
  auto it = sites_.find(ip);
  return it == sites_.end() ? kEmpty : it->second;
}

std::vector<isa::Addr> LoadProfile::LikelyStallLoads(double min_miss_probability,
                                                     double min_stall_share) const {
  std::vector<isa::Addr> out;
  for (const auto& [ip, site] : sites_) {
    if (site.est_l2_misses <= 0) {
      continue;
    }
    if (site.L2MissProbability() < min_miss_probability) {
      continue;
    }
    const double stall_share =
        total_stall_cycles_ <= 0 ? 0.0 : site.est_stall_cycles / total_stall_cycles_;
    if (stall_share < min_stall_share) {
      continue;
    }
    out.push_back(ip);
  }
  std::sort(out.begin(), out.end(), [this](isa::Addr a, isa::Addr b) {
    return ForIp(a).est_stall_cycles > ForIp(b).est_stall_cycles;
  });
  return out;
}

void LoadProfile::Merge(const LoadProfile& other) {
  for (const auto& [ip, site] : other.sites_) {
    SiteProfile& mine = sites_[ip];
    mine.est_executions += site.est_executions;
    mine.est_l1_misses += site.est_l1_misses;
    mine.est_l2_misses += site.est_l2_misses;
    mine.est_l3_misses += site.est_l3_misses;
    mine.est_stall_cycles += site.est_stall_cycles;
  }
  total_stall_cycles_ += other.total_stall_cycles_;
}

size_t LoadProfile::Decay(double factor, double min_executions) {
  size_t removed = 0;
  total_stall_cycles_ = 0;
  for (auto it = sites_.begin(); it != sites_.end();) {
    SiteProfile& site = it->second;
    site.est_executions *= factor;
    site.est_l1_misses *= factor;
    site.est_l2_misses *= factor;
    site.est_l3_misses *= factor;
    site.est_stall_cycles *= factor;
    if (site.est_executions < min_executions) {
      it = sites_.erase(it);
      ++removed;
      continue;
    }
    total_stall_cycles_ += site.est_stall_cycles;
    ++it;
  }
  return removed;
}

std::string LoadProfile::Serialize() const {
  std::string out = "yh-load-profile v1\n";
  for (const auto& [ip, site] : sites_) {
    out += StrFormat("%u %.1f %.1f %.1f %.1f %.1f\n", ip, site.est_executions,
                     site.est_l1_misses, site.est_l2_misses, site.est_l3_misses,
                     site.est_stall_cycles);
  }
  return out;
}

Result<LoadProfile> LoadProfile::Deserialize(std::string_view text) {
  auto lines = SplitString(text, '\n');
  if (lines.empty() || TrimString(lines[0]) != "yh-load-profile v1") {
    return InvalidArgumentError("bad load-profile header");
  }
  LoadProfile profile;
  for (size_t i = 1; i < lines.size(); ++i) {
    auto fields = SplitString(TrimString(lines[i]), ' ');
    if (fields.empty()) {
      continue;
    }
    if (fields.size() != 6) {
      return InvalidArgumentError(
          StrFormat("load-profile line %zu has %zu fields, want 6", i, fields.size()));
    }
    YH_ASSIGN_OR_RETURN(const uint64_t ip, ParseUint64(fields[0]));
    if (ip >= isa::kInvalidAddr) {
      return InvalidArgumentError(
          StrFormat("load-profile line %zu: ip %llu out of address range", i,
                    static_cast<unsigned long long>(ip)));
    }
    SiteProfile site;
    YH_ASSIGN_OR_RETURN(site.est_executions, ParseDouble(fields[1]));
    YH_ASSIGN_OR_RETURN(site.est_l1_misses, ParseDouble(fields[2]));
    YH_ASSIGN_OR_RETURN(site.est_l2_misses, ParseDouble(fields[3]));
    YH_ASSIGN_OR_RETURN(site.est_l3_misses, ParseDouble(fields[4]));
    YH_ASSIGN_OR_RETURN(site.est_stall_cycles, ParseDouble(fields[5]));
    for (const double v : {site.est_executions, site.est_l1_misses,
                           site.est_l2_misses, site.est_l3_misses,
                           site.est_stall_cycles}) {
      if (v < 0) {
        return InvalidArgumentError(
            StrFormat("load-profile line %zu: negative count", i));
      }
    }
    profile.sites_[static_cast<isa::Addr>(ip)] = site;
    profile.total_stall_cycles_ += site.est_stall_cycles;
  }
  return profile;
}

void BlockLatencyProfile::AddSnapshots(const std::vector<pmu::LbrSnapshot>& snapshots) {
  for (const pmu::LbrSnapshot& snap : snapshots) {
    for (size_t i = 0; i < snap.entries.size(); ++i) {
      const pmu::LbrEntry& entry = snap.entries[i];
      edges_[{entry.from, entry.to}] += 1;
      if (i == 0) {
        continue;  // no preceding entry to bound the run start
      }
      // Run: from the target of the previous transfer to this transfer, with
      // this entry's cycle count as its measured latency.
      const isa::Addr run_start = snap.entries[i - 1].to;
      RunStats& stats = runs_[{run_start, entry.from}];
      ++stats.count;
      stats.total_cycles += entry.cycles;
    }
  }
}

Result<double> BlockLatencyProfile::MeanRunLatency(isa::Addr start, isa::Addr end) const {
  auto it = runs_.find({start, end});
  if (it == runs_.end() || it->second.count == 0) {
    return NotFoundError(StrFormat("run %u..%u never observed", start, end));
  }
  return it->second.total_cycles / static_cast<double>(it->second.count);
}

Result<double> BlockLatencyProfile::MeanLatencyFrom(isa::Addr start) const {
  uint64_t count = 0;
  double cycles = 0;
  for (auto it = runs_.lower_bound({start, 0});
       it != runs_.end() && it->first.first == start; ++it) {
    count += it->second.count;
    cycles += it->second.total_cycles;
  }
  if (count == 0) {
    return NotFoundError(StrFormat("no runs observed starting at %u", start));
  }
  return cycles / static_cast<double>(count);
}

uint64_t BlockLatencyProfile::EdgeCount(isa::Addr from, isa::Addr to) const {
  auto it = edges_.find({from, to});
  return it == edges_.end() ? 0 : it->second;
}

isa::Addr BlockLatencyProfile::HotSuccessor(isa::Addr from) const {
  isa::Addr best = isa::kInvalidAddr;
  uint64_t best_count = 0;
  for (auto it = edges_.lower_bound({from, 0});
       it != edges_.end() && it->first.first == from; ++it) {
    if (it->second > best_count) {
      best_count = it->second;
      best = it->first.second;
    }
  }
  return best;
}

uint64_t BlockLatencyProfile::RunCount(isa::Addr start) const {
  uint64_t count = 0;
  for (auto it = runs_.lower_bound({start, 0});
       it != runs_.end() && it->first.first == start; ++it) {
    count += it->second.count;
  }
  return count;
}

void BlockLatencyProfile::Merge(const BlockLatencyProfile& other) {
  for (const auto& [key, stats] : other.runs_) {
    RunStats& mine = runs_[key];
    mine.count += stats.count;
    mine.total_cycles += stats.total_cycles;
  }
  for (const auto& [key, count] : other.edges_) {
    edges_[key] += count;
  }
}

std::pair<size_t, size_t> BlockLatencyProfile::DropOutside(isa::Addr code_size) {
  size_t runs_dropped = 0;
  size_t edges_dropped = 0;
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (it->first.first >= code_size || it->first.second >= code_size) {
      it = runs_.erase(it);
      ++runs_dropped;
    } else {
      ++it;
    }
  }
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->first.first >= code_size || it->first.second >= code_size) {
      it = edges_.erase(it);
      ++edges_dropped;
    } else {
      ++it;
    }
  }
  return {runs_dropped, edges_dropped};
}

BlockLatencyProfile BlockLatencyProfile::Translated(
    const std::function<isa::Addr(isa::Addr)>& translate) const {
  BlockLatencyProfile out;
  for (const auto& [key, stats] : runs_) {
    out.runs_[{translate(key.first), translate(key.second)}] = stats;
  }
  for (const auto& [key, count] : edges_) {
    out.edges_[{translate(key.first), translate(key.second)}] += count;
  }
  return out;
}

std::string BlockLatencyProfile::Serialize() const {
  std::string out = "yh-block-profile v1\n";
  for (const auto& [key, stats] : runs_) {
    out += StrFormat("run %u %u %llu %.1f\n", key.first, key.second,
                     static_cast<unsigned long long>(stats.count), stats.total_cycles);
  }
  for (const auto& [key, count] : edges_) {
    out += StrFormat("edge %u %u %llu\n", key.first, key.second,
                     static_cast<unsigned long long>(count));
  }
  return out;
}

Result<BlockLatencyProfile> BlockLatencyProfile::Deserialize(std::string_view text) {
  auto lines = SplitString(text, '\n');
  if (lines.empty() || TrimString(lines[0]) != "yh-block-profile v1") {
    return InvalidArgumentError("bad block-profile header");
  }
  BlockLatencyProfile profile;
  for (size_t i = 1; i < lines.size(); ++i) {
    auto fields = SplitString(TrimString(lines[i]), ' ');
    if (fields.empty()) {
      continue;
    }
    if (fields[0] == "run") {
      if (fields.size() != 5) {
        return InvalidArgumentError(StrFormat("bad run line %zu", i));
      }
      YH_ASSIGN_OR_RETURN(const uint64_t a, ParseUint64(fields[1]));
      YH_ASSIGN_OR_RETURN(const uint64_t b, ParseUint64(fields[2]));
      if (a >= isa::kInvalidAddr || b >= isa::kInvalidAddr) {
        return InvalidArgumentError(
            StrFormat("run line %zu: address out of range", i));
      }
      RunStats stats;
      YH_ASSIGN_OR_RETURN(stats.count, ParseUint64(fields[3]));
      YH_ASSIGN_OR_RETURN(stats.total_cycles, ParseDouble(fields[4]));
      if (stats.total_cycles < 0) {
        return InvalidArgumentError(
            StrFormat("run line %zu: negative cycles", i));
      }
      profile.runs_[{static_cast<isa::Addr>(a), static_cast<isa::Addr>(b)}] = stats;
    } else if (fields[0] == "edge") {
      if (fields.size() != 4) {
        return InvalidArgumentError(StrFormat("bad edge line %zu", i));
      }
      YH_ASSIGN_OR_RETURN(const uint64_t a, ParseUint64(fields[1]));
      YH_ASSIGN_OR_RETURN(const uint64_t b, ParseUint64(fields[2]));
      if (a >= isa::kInvalidAddr || b >= isa::kInvalidAddr) {
        return InvalidArgumentError(
            StrFormat("edge line %zu: address out of range", i));
      }
      YH_ASSIGN_OR_RETURN(const uint64_t count, ParseUint64(fields[3]));
      profile.edges_[{static_cast<isa::Addr>(a), static_cast<isa::Addr>(b)}] = count;
    } else {
      return InvalidArgumentError("unknown block-profile record: " + std::string(fields[0]));
    }
  }
  return profile;
}

std::string ProfileSanitizeReport::ToString() const {
  return StrFormat("sanitize: sites_dropped=%zu runs_dropped=%zu edges_dropped=%zu",
                   sites_dropped, runs_dropped, edges_dropped);
}

ProfileSanitizeReport SanitizeProfileData(ProfileData& data, isa::Addr code_size) {
  ProfileSanitizeReport report;
  report.sites_dropped = data.loads.DropSitesOutside(code_size);
  const auto [runs, edges] = data.blocks.DropOutside(code_size);
  report.runs_dropped = runs;
  report.edges_dropped = edges;
  return report;
}

}  // namespace yieldhide::profile
