#include "src/obs/profiler/export.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/strings.h"

namespace yieldhide::obs {

namespace {

std::string SiteName(uint64_t site) {
  if (site == kExternalSite) {
    return "external";
  }
  return StrFormat("site_0x%llx", static_cast<unsigned long long>(site));
}

// Sites sorted by descending total cycles (stable tie-break on address).
std::vector<std::pair<uint64_t, const SiteCycles*>> SitesByTotal(
    const CycleProfiler& profiler) {
  std::vector<std::pair<uint64_t, const SiteCycles*>> out;
  out.reserve(profiler.sites().size());
  for (const auto& [site, record] : profiler.sites()) {
    out.emplace_back(site, &record);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second->total() > b.second->total();
  });
  return out;
}

std::string HistogramJson(const LatencyHistogram& hist) {
  return StrFormat(
      "{\"count\": %llu, \"p50\": %llu, \"p95\": %llu, \"p99\": %llu, "
      "\"max\": %llu}",
      static_cast<unsigned long long>(hist.count()),
      static_cast<unsigned long long>(hist.P50()),
      static_cast<unsigned long long>(hist.P95()),
      static_cast<unsigned long long>(hist.P99()),
      static_cast<unsigned long long>(hist.max()));
}

}  // namespace

std::string ToFoldedStacks(const CycleProfiler& profiler) {
  std::string out;
  for (const auto& [site, record] : profiler.sites()) {
    for (size_t i = 0; i < kNumCycleClasses; ++i) {
      if (record.cycles[i] == 0) {
        continue;
      }
      out += StrFormat("all;%s;%s %llu\n", SiteName(site).c_str(),
                       CycleClassName(static_cast<CycleClass>(i)),
                       static_cast<unsigned long long>(record.cycles[i]));
    }
  }
  return out;
}

std::string ToTopTable(const CycleProfiler& profiler, size_t top_n) {
  const uint64_t total = profiler.classified_cycles();
  const double denom = total == 0 ? 1.0 : static_cast<double>(total);
  std::string out;
  out += StrFormat("Cycle attribution: %s cycles classified\n\n",
                   WithCommas(total).c_str());
  out += "  class              cycles           %\n";
  const std::array<uint64_t, kNumCycleClasses> totals = profiler.class_totals();
  for (size_t i = 0; i < kNumCycleClasses; ++i) {
    if (totals[i] == 0) {
      continue;
    }
    out += StrFormat("  %-17s %12s  %6.2f%%\n",
                     CycleClassName(static_cast<CycleClass>(i)),
                     WithCommas(totals[i]).c_str(),
                     100.0 * static_cast<double>(totals[i]) / denom);
  }
  out += StrFormat("\nTop %zu sites (flat = site cycles, cum = running "
                   "share):\n",
                   top_n);
  out += "  site           flat             flat%    cum%  visits  useful  "
         "switch_p99  hidden_p99  quarantined\n";
  uint64_t cum = 0;
  size_t shown = 0;
  for (const auto& [site, record] : SitesByTotal(profiler)) {
    if (shown >= top_n) {
      break;
    }
    const uint64_t flat = record->total();
    if (flat == 0) {
      continue;
    }
    cum += flat;
    out += StrFormat(
        "  %-13s %14s  %6.2f%%  %6.2f%%  %6llu  %6llu  %10llu  %10llu  %s\n",
        SiteName(site).c_str(), WithCommas(flat).c_str(),
        100.0 * static_cast<double>(flat) / denom,
        100.0 * static_cast<double>(cum) / denom,
        static_cast<unsigned long long>(record->yield_visits),
        static_cast<unsigned long long>(record->useful_visits),
        static_cast<unsigned long long>(record->switch_cost.P99()),
        static_cast<unsigned long long>(record->hidden_latency.P99()),
        record->quarantined ? "yes" : "no");
    ++shown;
  }
  return out;
}

std::string ToProfileJson(const CycleProfiler& profiler) {
  std::string out = "{\n";
  out += StrFormat("  \"classified_cycles\": %llu,\n",
                   static_cast<unsigned long long>(profiler.classified_cycles()));
  const std::array<uint64_t, kNumCycleClasses> totals = profiler.class_totals();
  out += "  \"classes\": {";
  for (size_t i = 0; i < kNumCycleClasses; ++i) {
    out += StrFormat("%s\"%s\": %llu", i == 0 ? "" : ", ",
                     CycleClassName(static_cast<CycleClass>(i)),
                     static_cast<unsigned long long>(totals[i]));
  }
  out += "},\n  \"sites\": [\n";
  bool first = true;
  for (const auto& [site, record] : SitesByTotal(profiler)) {
    if (record->total() == 0 && record->yield_visits == 0) {
      continue;
    }
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += StrFormat("    {\"site\": \"%s\", \"total\": %llu, ",
                     SiteName(site).c_str(),
                     static_cast<unsigned long long>(record->total()));
    out += "\"classes\": {";
    for (size_t i = 0; i < kNumCycleClasses; ++i) {
      out += StrFormat("%s\"%s\": %llu", i == 0 ? "" : ", ",
                       CycleClassName(static_cast<CycleClass>(i)),
                       static_cast<unsigned long long>(record->cycles[i]));
    }
    out += StrFormat("}, \"visits\": %llu, \"useful\": %llu, "
                     "\"quarantined\": %s, ",
                     static_cast<unsigned long long>(record->yield_visits),
                     static_cast<unsigned long long>(record->useful_visits),
                     record->quarantined ? "true" : "false");
    out += StrFormat("\"switch_cost\": %s, \"hidden_latency\": %s}",
                     HistogramJson(record->switch_cost).c_str(),
                     HistogramJson(record->hidden_latency).c_str());
  }
  out += "\n  ],\n  \"stream\": [\n";
  first = true;
  for (const auto& [site, counts] : profiler.stream_sites()) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += StrFormat(
        "    {\"site\": \"%s\", \"hidden\": %llu, \"blown\": %llu, "
        "\"switch_cycles\": %llu}",
        SiteName(site).c_str(), static_cast<unsigned long long>(counts.hidden),
        static_cast<unsigned long long>(counts.blown),
        static_cast<unsigned long long>(counts.switch_cycles));
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace yieldhide::obs
