#include "src/faultinject/profile_faults.h"

#include <algorithm>

#include "src/common/rng.h"

namespace yieldhide::faultinject {
namespace {

// IPs aliased by PEBS land anywhere plausible, including past the end of the
// text segment; give corrupted addresses a 25% overshoot band so consumers
// are forced through their out-of-range paths.
isa::Addr AliasLimit(isa::Addr code_size) {
  return std::max<isa::Addr>(1, code_size + code_size / 4);
}

// Per-address deterministic stream: corruption decisions must not depend on
// map iteration order or on how many random draws earlier addresses made.
Rng AddrRng(uint64_t seed, uint64_t addr) {
  return Rng(seed ^ ((addr + 0x100) * 0x9e3779b97f4a7c15ull));
}

// Worst-case modelled skid distance grows with severity (CounterPoint
// reports skid of a few instructions on real PMUs; a "storm" smears further).
uint64_t SkidSpan(double severity) {
  return 1 + static_cast<uint64_t>(severity * 15.0);
}

profile::LoadProfile CorruptLoads(const profile::LoadProfile& loads,
                                  const FaultSpec& spec, isa::Addr code_size) {
  profile::LoadProfile out;
  const double sev = spec.severity;
  switch (spec.fault) {
    case FaultClass::kIpAlias: {
      const isa::Addr limit = AliasLimit(code_size);
      for (const auto& [ip, site] : loads.sites()) {
        Rng r = AddrRng(spec.seed, ip);
        const isa::Addr where =
            r.NextBool(sev) ? static_cast<isa::Addr>(r.NextBelow(limit)) : ip;
        out.AccumulateSite(where, site);
      }
      break;
    }
    case FaultClass::kSkidStorm: {
      // Precise-event skid: miss and stall evidence smears forward onto
      // neighbouring instructions while execution counts (imprecise event,
      // already smeared) stay put — manufacturing sites whose miss count
      // exceeds their execution count, the exact pathology the confidence
      // gate must catch.
      const uint64_t span = SkidSpan(sev);
      for (const auto& [ip, site] : loads.sites()) {
        Rng r = AddrRng(spec.seed, ip);
        const isa::Addr skid_to =
            ip + static_cast<isa::Addr>(1 + r.NextBelow(span));
        profile::SiteProfile stay = site;
        profile::SiteProfile moved;
        moved.est_l1_misses = site.est_l1_misses * sev;
        moved.est_l2_misses = site.est_l2_misses * sev;
        moved.est_l3_misses = site.est_l3_misses * sev;
        moved.est_stall_cycles = site.est_stall_cycles * sev;
        stay.est_l1_misses -= moved.est_l1_misses;
        stay.est_l2_misses -= moved.est_l2_misses;
        stay.est_l3_misses -= moved.est_l3_misses;
        stay.est_stall_cycles -= moved.est_stall_cycles;
        out.AccumulateSite(ip, stay);
        out.AccumulateSite(skid_to, moved);
      }
      break;
    }
    case FaultClass::kBufferDrop: {
      // Bursty loss shows up in an aggregated profile as whole neighbouring
      // address ranges going dark; drop 8-instruction chunks.
      for (const auto& [ip, site] : loads.sites()) {
        Rng r = AddrRng(spec.seed, ip / 8);
        if (!r.NextBool(sev)) {
          out.AccumulateSite(ip, site);
        }
      }
      break;
    }
    case FaultClass::kPeriodAlias: {
      if (loads.sites().empty()) {
        break;
      }
      // One deterministic "lucky" site absorbs `severity` of everyone's
      // evidence.
      Rng r(spec.seed);
      size_t lucky_index = r.NextBelow(loads.sites().size());
      isa::Addr lucky = loads.sites().begin()->first;
      for (const auto& [ip, site] : loads.sites()) {
        if (lucky_index-- == 0) {
          lucky = ip;
          break;
        }
      }
      for (const auto& [ip, site] : loads.sites()) {
        profile::SiteProfile stay = site;
        profile::SiteProfile moved;
        moved.est_executions = site.est_executions * sev;
        moved.est_l1_misses = site.est_l1_misses * sev;
        moved.est_l2_misses = site.est_l2_misses * sev;
        moved.est_l3_misses = site.est_l3_misses * sev;
        moved.est_stall_cycles = site.est_stall_cycles * sev;
        stay.est_executions -= moved.est_executions;
        stay.est_l1_misses -= moved.est_l1_misses;
        stay.est_l2_misses -= moved.est_l2_misses;
        stay.est_l3_misses -= moved.est_l3_misses;
        stay.est_stall_cycles -= moved.est_stall_cycles;
        out.AccumulateSite(ip, stay);
        out.AccumulateSite(lucky, moved);
      }
      break;
    }
    case FaultClass::kStaleBinary:
    case FaultClass::kRebuildFail:
    case FaultClass::kBackmapCorrupt:
    case FaultClass::kRegression:
    case FaultClass::kShardStall:
    case FaultClass::kStoreCorrupt:
      // Stale drift is injected on the binary (DriftProgram), and the
      // serving classes do not touch an offline profile.
      out = loads;
      break;
  }
  return out;
}

}  // namespace

profile::ProfileData CorruptProfile(const profile::ProfileData& data,
                                    const FaultSpec& spec, isa::Addr code_size) {
  profile::ProfileData out;
  out.loads = CorruptLoads(data.loads, spec, code_size);

  switch (spec.fault) {
    case FaultClass::kIpAlias: {
      const isa::Addr limit = AliasLimit(code_size);
      out.blocks = data.blocks.Translated([&](isa::Addr addr) {
        Rng r = AddrRng(spec.seed, addr);
        return r.NextBool(spec.severity)
                   ? static_cast<isa::Addr>(r.NextBelow(limit))
                   : addr;
      });
      break;
    }
    case FaultClass::kSkidStorm:
    case FaultClass::kBufferDrop:
    case FaultClass::kPeriodAlias:
    case FaultClass::kStaleBinary:
    case FaultClass::kRebuildFail:
    case FaultClass::kBackmapCorrupt:
    case FaultClass::kRegression:
    case FaultClass::kShardStall:
    case FaultClass::kStoreCorrupt:
      // LBR records branch addresses precisely and rides its own buffer;
      // these classes corrupt only the PEBS load/stall side (and stale
      // drift and the serving classes corrupt nothing offline at all).
      out.blocks = data.blocks;
      break;
  }
  return out;
}

}  // namespace yieldhide::faultinject
