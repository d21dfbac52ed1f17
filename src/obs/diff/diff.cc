#include "src/obs/diff/diff.h"

#include <algorithm>
#include <array>
#include <map>

#include "src/common/strings.h"

namespace yieldhide::obs {

const char* RegressionCauseName(RegressionCause cause) {
  switch (cause) {
    case RegressionCause::kControlPlane:
      return "control-plane-induced";
    case RegressionCause::kWorkloadDrift:
      return "workload-drift";
    case RegressionCause::kUnattributed:
      return "unattributed";
  }
  return "unknown";
}

const char* ControlEventKindName(ControlEvent::Kind kind) {
  switch (kind) {
    case ControlEvent::Kind::kCanaryBegin:
      return "canary_begin";
    case ControlEvent::Kind::kCanaryPromote:
      return "canary_promote";
    case ControlEvent::Kind::kCanaryRollback:
      return "canary_rollback";
    case ControlEvent::Kind::kWatchdogFire:
      return "watchdog_fire";
    case ControlEvent::Kind::kSloVeto:
      return "slo_veto";
    case ControlEvent::Kind::kPoisonBlocked:
      return "poison_blocked";
    case ControlEvent::Kind::kRebuildRetry:
      return "rebuild_retry";
    case ControlEvent::Kind::kSloAlertFire:
      return "slo_alert_fire";
    case ControlEvent::Kind::kSloAlertClear:
      return "slo_alert_clear";
  }
  return "unknown";
}

bool IsControlPlaneAction(ControlEvent::Kind kind) {
  switch (kind) {
    case ControlEvent::Kind::kSloAlertFire:
    case ControlEvent::Kind::kSloAlertClear:
      return false;  // symptoms, not actions
    default:
      return true;
  }
}

bool EpochSet::Contains(size_t epoch) const {
  return std::binary_search(epochs.begin(), epochs.end(), epoch);
}

std::string EpochSet::ToString() const {
  std::string out;
  size_t i = 0;
  while (i < epochs.size()) {
    size_t j = i;
    while (j + 1 < epochs.size() && epochs[j + 1] == epochs[j] + 1) {
      ++j;
    }
    if (!out.empty()) {
      out += ",";
    }
    if (j == i) {
      out += StrFormat("%zu", epochs[i]);
    } else {
      out += StrFormat("%zu-%zu", epochs[i], epochs[j]);
    }
    i = j + 1;
  }
  return out.empty() ? "(empty)" : out;
}

Result<EpochSet> ParseEpochSet(const std::string& spec) {
  EpochSet set;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (token.empty()) {
      return InvalidArgumentError(
          StrFormat("diff: empty epoch range in '%s'", spec.c_str()));
    }
    const size_t dash = token.find('-');
    auto parse = [](const std::string& text, size_t* out) {
      if (text.empty()) {
        return false;
      }
      size_t value = 0;
      for (const char c : text) {
        if (c < '0' || c > '9') {
          return false;
        }
        value = value * 10 + static_cast<size_t>(c - '0');
      }
      *out = value;
      return true;
    };
    size_t lo = 0, hi = 0;
    if (dash == std::string::npos) {
      if (!parse(token, &lo)) {
        return InvalidArgumentError(StrFormat(
            "diff: bad epoch range '%s' (expected N or LO-HI)",
            token.c_str()));
      }
      hi = lo;
    } else {
      if (!parse(token.substr(0, dash), &lo) ||
          !parse(token.substr(dash + 1), &hi)) {
        return InvalidArgumentError(StrFormat(
            "diff: bad epoch range '%s' (expected N or LO-HI)",
            token.c_str()));
      }
      if (hi < lo) {
        return InvalidArgumentError(
            StrFormat("diff: reversed epoch range '%s'", token.c_str()));
      }
    }
    for (size_t e = lo; e <= hi; ++e) {
      set.epochs.push_back(e);
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  std::sort(set.epochs.begin(), set.epochs.end());
  set.epochs.erase(std::unique(set.epochs.begin(), set.epochs.end()),
                   set.epochs.end());
  return set;
}

void DiffEngine::AddShard(const CycleProfiler* profiler,
                          const SpanCollector* spans) {
  shards_.push_back(ShardInput{profiler, spans});
}

void DiffEngine::AddControlEvent(const ControlEvent& event) {
  events_.push_back(event);
}

size_t DiffEngine::epoch_count() const {
  size_t count = 0;
  for (const ShardInput& shard : shards_) {
    if (shard.profiler != nullptr) {
      count = std::max(count, shard.profiler->epoch_slices().size());
    }
    if (shard.spans != nullptr) {
      count = std::max(count, shard.spans->epoch_slices().size());
    }
  }
  return count;
}

Result<size_t> DiffEngine::EpochForCycle(size_t shard, uint64_t cycle) const {
  if (shard >= shards_.size() || shards_[shard].profiler == nullptr ||
      shards_[shard].profiler->epoch_slices().empty()) {
    return InvalidArgumentError(
        StrFormat("diff: shard %zu has no epoch slices", shard));
  }
  const auto& slices = shards_[shard].profiler->epoch_slices();
  for (const auto& slice : slices) {
    if (slice.end_cycle >= cycle) {
      return static_cast<size_t>(slice.epoch);
    }
  }
  return static_cast<size_t>(slices.back().epoch);
}

namespace {

// Ranked regressing sites retained in the report.
constexpr size_t kMaxSites = 10;
// Workload-drift floor: the top site's per-epoch delta must exceed this
// fraction of the baseline window's per-epoch total, or the regression is
// unattributed (refutable-hypothesis hygiene: a diagnosis needs a culprit
// that moved the needle).
constexpr double kDriftMinFraction = 0.005;

// Per-window accumulation: everything summed over the window's epochs and
// across shards, in doubles (normalized per epoch at the end).
struct WindowTotals {
  std::map<uint64_t, std::array<double, kNumCycleClasses>> sites;
  std::array<double, kNumCycleClasses> cycle_classes{};
  std::array<double, kNumSpanClasses> span_classes{};
  double total = 0.0;
};

template <typename Slice>
const Slice* SliceAt(const std::vector<Slice>& slices, size_t epoch) {
  // Slices are appended one per epoch boundary in order; epoch ordinals are
  // their indices in every producer this repo has, but match defensively.
  if (epoch < slices.size() && slices[epoch].epoch == epoch) {
    return &slices[epoch];
  }
  for (const Slice& slice : slices) {
    if (slice.epoch == epoch) {
      return &slice;
    }
  }
  return nullptr;
}

}  // namespace

Result<DiffReport> DiffEngine::Diff(const EpochSet& baseline,
                                    const EpochSet& current) const {
  if (baseline.epochs.empty()) {
    return InvalidArgumentError("diff: baseline window is empty");
  }
  if (current.epochs.empty()) {
    return InvalidArgumentError("diff: current window is empty");
  }
  const size_t epochs = epoch_count();
  for (const EpochSet* set : {&baseline, &current}) {
    for (const size_t e : set->epochs) {
      if (e >= epochs) {
        return InvalidArgumentError(StrFormat(
            "diff: epoch %zu out of range (run has %zu epochs)", e, epochs));
      }
    }
  }

  auto accumulate = [&](const EpochSet& set, WindowTotals* out) {
    for (const ShardInput& shard : shards_) {
      for (const size_t e : set.epochs) {
        if (shard.profiler != nullptr) {
          const auto* cur = SliceAt(shard.profiler->epoch_slices(), e);
          const auto* prev =
              e > 0 ? SliceAt(shard.profiler->epoch_slices(), e - 1) : nullptr;
          if (cur != nullptr) {
            for (size_t c = 0; c < kNumCycleClasses; ++c) {
              const uint64_t base = prev != nullptr ? prev->class_totals[c] : 0;
              const double delta =
                  static_cast<double>(cur->class_totals[c] - base);
              out->cycle_classes[c] += delta;
              out->total += delta;
            }
            for (const auto& [site, totals] : cur->site_totals) {
              auto& cell = out->sites[site];
              const auto* prev_totals = [&]() -> const std::array<
                  uint64_t, kNumCycleClasses>* {
                if (prev == nullptr) {
                  return nullptr;
                }
                auto it = prev->site_totals.find(site);
                return it == prev->site_totals.end() ? nullptr : &it->second;
              }();
              for (size_t c = 0; c < kNumCycleClasses; ++c) {
                const uint64_t base =
                    prev_totals != nullptr ? (*prev_totals)[c] : 0;
                cell[c] += static_cast<double>(totals[c] - base);
              }
            }
          }
        }
        if (shard.spans != nullptr) {
          const auto* cur = SliceAt(shard.spans->epoch_slices(), e);
          const auto* prev =
              e > 0 ? SliceAt(shard.spans->epoch_slices(), e - 1) : nullptr;
          if (cur != nullptr) {
            for (size_t c = 0; c < kNumSpanClasses; ++c) {
              const uint64_t base = prev != nullptr ? prev->class_totals[c] : 0;
              out->span_classes[c] +=
                  static_cast<double>(cur->class_totals[c] - base);
            }
          }
        }
      }
    }
    const double n = static_cast<double>(set.epochs.size());
    out->total /= n;
    for (auto& v : out->cycle_classes) {
      v /= n;
    }
    for (auto& v : out->span_classes) {
      v /= n;
    }
    for (auto& [site, cell] : out->sites) {
      for (auto& v : cell) {
        v /= n;
      }
    }
  };

  WindowTotals base, cur;
  accumulate(baseline, &base);
  accumulate(current, &cur);

  DiffReport report;
  report.baseline = baseline;
  report.current = current;
  report.baseline_total_per_epoch = base.total;
  report.current_total_per_epoch = cur.total;

  // Sites: current - baseline per epoch, regressions only, ranked.
  for (const auto& [site, cur_cell] : cur.sites) {
    std::array<double, kNumCycleClasses> base_cell{};
    auto it = base.sites.find(site);
    if (it != base.sites.end()) {
      base_cell = it->second;
    }
    SiteDelta d;
    d.site = site;
    for (size_t c = 0; c < kNumCycleClasses; ++c) {
      d.baseline_per_epoch += base_cell[c];
      d.current_per_epoch += cur_cell[c];
      const double class_delta = cur_cell[c] - base_cell[c];
      if (class_delta > d.dominant_delta_per_epoch) {
        d.dominant_delta_per_epoch = class_delta;
        d.dominant = static_cast<CycleClass>(c);
      }
    }
    d.delta_per_epoch = d.current_per_epoch - d.baseline_per_epoch;
    if (d.delta_per_epoch > 0.0) {
      report.sites.push_back(d);
    }
  }
  std::sort(report.sites.begin(), report.sites.end(),
            [](const SiteDelta& a, const SiteDelta& b) {
              if (a.delta_per_epoch != b.delta_per_epoch) {
                return a.delta_per_epoch > b.delta_per_epoch;
              }
              return a.site < b.site;
            });
  if (report.sites.size() > kMaxSites) {
    report.sites.resize(kMaxSites);
  }

  auto rank_classes = [](const double* base_values, const double* cur_values,
                         size_t count, auto name_of) {
    std::vector<ClassDelta> out;
    for (size_t c = 0; c < count; ++c) {
      ClassDelta d;
      d.name = name_of(c);
      d.baseline_per_epoch = base_values[c];
      d.current_per_epoch = cur_values[c];
      d.delta_per_epoch = cur_values[c] - base_values[c];
      out.push_back(d);
    }
    std::sort(out.begin(), out.end(), [](const ClassDelta& a,
                                         const ClassDelta& b) {
      if (a.delta_per_epoch != b.delta_per_epoch) {
        return a.delta_per_epoch > b.delta_per_epoch;
      }
      return a.name < b.name;
    });
    return out;
  };
  report.cycle_classes =
      rank_classes(base.cycle_classes.data(), cur.cycle_classes.data(),
                   kNumCycleClasses, [](size_t c) {
                     return CycleClassName(static_cast<CycleClass>(c));
                   });
  report.span_classes =
      rank_classes(base.span_classes.data(), cur.span_classes.data(),
                   kNumSpanClasses, [](size_t c) {
                     return SpanClassName(static_cast<SpanClass>(c));
                   });

  for (const ControlEvent& event : events_) {
    if (current.Contains(event.epoch)) {
      report.joined.push_back(event);
    }
  }

  bool control = false;
  for (const ControlEvent& event : report.joined) {
    control = control || IsControlPlaneAction(event.kind);
  }
  const double floor =
      kDriftMinFraction * std::max(base.total, 1.0);
  if (control) {
    report.cause = RegressionCause::kControlPlane;
  } else if (!report.sites.empty() &&
             report.sites.front().delta_per_epoch >= floor) {
    report.cause = RegressionCause::kWorkloadDrift;
  } else if (report.sites.empty() && !report.cycle_classes.empty() &&
             report.cycle_classes.front().delta_per_epoch >= floor) {
    // No per-site slices (site snapshots off): class movement alone can
    // still name drift, just not the site.
    report.cause = RegressionCause::kWorkloadDrift;
  } else {
    report.cause = RegressionCause::kUnattributed;
  }
  return report;
}

std::vector<Exemplar> SupportingExemplars(
    const std::vector<const ExemplarReservoir*>& shards,
    const EpochSet& current, size_t max_exemplars) {
  std::vector<Exemplar> out;
  for (const ExemplarReservoir* shard : shards) {
    for (const Exemplar& e : shard->Merged()) {
      if (current.Contains(static_cast<size_t>(e.context.epoch))) {
        out.push_back(e);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    return ExemplarReservoir::Outranks(a.span, b.span);
  });
  if (out.size() > max_exemplars) {
    out.resize(max_exemplars);
  }
  return out;
}

// ---- renderers -----------------------------------------------------------

namespace {

std::string SiteName(uint64_t site) {
  if (site == kExternalSite) {
    return "external";
  }
  return StrFormat("0x%llx", static_cast<unsigned long long>(site));
}

}  // namespace

std::string ToDiffText(const DiffReport& report,
                       const std::vector<Exemplar>& supporting) {
  const double delta =
      report.current_total_per_epoch - report.baseline_total_per_epoch;
  const double pct = report.baseline_total_per_epoch > 0.0
                         ? 100.0 * delta / report.baseline_total_per_epoch
                         : 0.0;
  std::string out = StrFormat(
      "why: baseline epochs %s (%.0f cycles/epoch) vs current epochs %s "
      "(%.0f cycles/epoch): %+.0f cycles/epoch (%+.1f%%)\n",
      report.baseline.ToString().c_str(), report.baseline_total_per_epoch,
      report.current.ToString().c_str(), report.current_total_per_epoch,
      delta, pct);
  out += StrFormat("cause: %s\n", RegressionCauseName(report.cause));

  if (!report.sites.empty()) {
    out += StrFormat("\nregressing sites (cycles/epoch):\n%-12s %-12s %-12s "
                     "%-12s %s\n",
                     "site", "baseline", "current", "delta", "dominant");
    for (const SiteDelta& s : report.sites) {
      out += StrFormat("%-12s %-12.0f %-12.0f %+-12.0f %s (%+.0f)\n",
                       SiteName(s.site).c_str(), s.baseline_per_epoch,
                       s.current_per_epoch, s.delta_per_epoch,
                       CycleClassName(s.dominant), s.dominant_delta_per_epoch);
    }
  }

  auto class_table = [&](const char* title,
                         const std::vector<ClassDelta>& classes) {
    out += StrFormat("\n%s (cycles/epoch):\n%-16s %-12s %-12s %s\n", title,
                     "class", "baseline", "current", "delta");
    for (const ClassDelta& c : classes) {
      if (c.baseline_per_epoch == 0.0 && c.current_per_epoch == 0.0) {
        continue;
      }
      out += StrFormat("%-16s %-12.0f %-12.0f %+.0f\n", c.name.c_str(),
                       c.baseline_per_epoch, c.current_per_epoch,
                       c.delta_per_epoch);
    }
  };
  class_table("cycle classes", report.cycle_classes);
  class_table("span classes", report.span_classes);

  out += "\ncontrol-plane events in current window:";
  if (report.joined.empty()) {
    out += " none\n";
  } else {
    out += "\n";
    for (const ControlEvent& e : report.joined) {
      out += StrFormat("  epoch %zu shard %zu %s", e.epoch, e.shard,
                       ControlEventKindName(e.kind));
      if (e.generation_id >= 0) {
        out += StrFormat(" (generation %d)", e.generation_id);
      }
      out += "\n";
    }
  }

  out += "supporting exemplars:";
  if (supporting.empty()) {
    out += " none\n";
  } else {
    out += "\n";
    for (const Exemplar& e : supporting) {
      out += StrFormat(
          "  req %llu latency %s epoch %llu generation %d dominant %s%s\n",
          static_cast<unsigned long long>(e.span.id),
          WithCommas(e.span.latency()).c_str(),
          static_cast<unsigned long long>(e.context.epoch),
          e.context.generation_id, SpanClassName(e.span.DominantClass()),
          e.context.control_window ? " [control window]" : "");
    }
  }
  return out;
}

std::string ToDiffJson(const DiffReport& report,
                       const std::vector<Exemplar>& supporting) {
  std::string out = "{\n";
  out += StrFormat(
      "\"baseline\": {\"epochs\": \"%s\", \"cycles_per_epoch\": %.3f},\n",
      report.baseline.ToString().c_str(), report.baseline_total_per_epoch);
  out += StrFormat(
      "\"current\": {\"epochs\": \"%s\", \"cycles_per_epoch\": %.3f},\n",
      report.current.ToString().c_str(), report.current_total_per_epoch);
  out += StrFormat("\"cause\": \"%s\",\n", RegressionCauseName(report.cause));

  out += "\"sites\": [";
  bool first = true;
  for (const SiteDelta& s : report.sites) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"site\": \"%s\", \"baseline\": %.3f, \"current\": %.3f, "
        "\"delta\": %.3f, \"dominant\": \"%s\", \"dominant_delta\": %.3f}",
        SiteName(s.site).c_str(), s.baseline_per_epoch, s.current_per_epoch,
        s.delta_per_epoch, CycleClassName(s.dominant),
        s.dominant_delta_per_epoch);
  }
  out += "\n],\n";

  auto class_array = [&](const char* key,
                         const std::vector<ClassDelta>& classes) {
    out += StrFormat("\"%s\": [", key);
    bool first_class = true;
    for (const ClassDelta& c : classes) {
      out += first_class ? "\n" : ",\n";
      first_class = false;
      out += StrFormat(
          "  {\"class\": \"%s\", \"baseline\": %.3f, \"current\": %.3f, "
          "\"delta\": %.3f}",
          c.name.c_str(), c.baseline_per_epoch, c.current_per_epoch,
          c.delta_per_epoch);
    }
    out += "\n],\n";
  };
  class_array("cycle_classes", report.cycle_classes);
  class_array("span_classes", report.span_classes);

  out += "\"control_events\": [";
  first = true;
  for (const ControlEvent& e : report.joined) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"epoch\": %zu, \"shard\": %zu, \"kind\": \"%s\", "
        "\"generation\": %d}",
        e.epoch, e.shard, ControlEventKindName(e.kind), e.generation_id);
  }
  out += "\n],\n";

  out += "\"exemplars\": [";
  first = true;
  for (const Exemplar& e : supporting) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"id\": %llu, \"latency\": %llu, \"epoch\": %llu, "
        "\"generation\": %d, \"dominant\": \"%s\", \"control_window\": %s}",
        static_cast<unsigned long long>(e.span.id),
        static_cast<unsigned long long>(e.span.latency()),
        static_cast<unsigned long long>(e.context.epoch),
        e.context.generation_id, SpanClassName(e.span.DominantClass()),
        e.context.control_window ? "true" : "false");
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace yieldhide::obs
