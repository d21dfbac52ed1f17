#include "src/obs/span/span.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/obs/exemplar/exemplar.h"

namespace yieldhide::obs {

namespace {

constexpr uint64_t kOpenWindowEnd = ~0ull;

}  // namespace

const char* SpanClassName(SpanClass cls) {
  switch (cls) {
    case SpanClass::kIngressWait:
      return "ingress_wait";
    case SpanClass::kIngress:
      return "ingress";
    case SpanClass::kQueueWait:
      return "queue_wait";
    case SpanClass::kDispatchWait:
      return "dispatch_wait";
    case SpanClass::kExecPrimary:
      return "exec_primary";
    case SpanClass::kStallExposed:
      return "stall_exposed";
    case SpanClass::kStallHidden:
      return "stall_hidden";
    case SpanClass::kBurstBlown:
      return "burst_blown";
    case SpanClass::kSwitch:
      return "switch";
    case SpanClass::kSchedResidue:
      return "sched_residue";
    case SpanClass::kScavExec:
      return "scav_exec";
    case SpanClass::kScavStall:
      return "scav_stall";
    case SpanClass::kScavengerWait:
      return "scavenger_wait";
    case SpanClass::kHarvestWait:
      return "harvest_wait";
    case SpanClass::kEgress:
      return "egress";
    case SpanClass::kFreeze:
      return "freeze";
    case SpanClass::kRequeue:
      return "requeue";
  }
  return "unknown";
}

uint64_t RequestSpan::ClassSum() const {
  uint64_t sum = 0;
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    sum += classes[i];
  }
  return sum;
}

SpanClass RequestSpan::DominantClass() const {
  size_t best = 0;
  for (size_t i = 1; i < kNumSpanClasses; ++i) {
    if (classes[i] > classes[best]) {
      best = i;
    }
  }
  return static_cast<SpanClass>(best);
}

SpanCollector::SpanCollector(const SpanCollectorConfig& config)
    : config_(config) {}

void SpanCollector::AddWait(Active& a, SpanClass cls, uint64_t from,
                            uint64_t to) {
  if (to < from) {
    ++anomalies_;
    return;
  }
  uint64_t frozen = 0;
  for (const auto& [begin, end] : windows_) {
    const uint64_t lo = from > begin ? from : begin;
    const uint64_t hi = to < end ? to : end;
    if (lo < hi) {
      frozen += hi - lo;
    }
  }
  const uint64_t total = to - from;
  if (frozen > total) {  // overlapping windows would be a control-plane bug
    ++anomalies_;
    frozen = total;
  }
  a.span.classes[static_cast<size_t>(SpanClass::kFreeze)] += frozen;
  a.span.classes[static_cast<size_t>(cls)] += total - frozen;
}

void SpanCollector::CloseExecSegment(Active& a, uint64_t now,
                                     SpanClass residue_class) {
  if (now < a.stamp) {
    ++anomalies_;
    return;
  }
  const uint64_t total = now - a.stamp;
  uint64_t attributed = 0;
  auto add = [&](SpanClass cls, uint64_t cycles) {
    a.span.classes[static_cast<size_t>(cls)] += cycles;
    attributed += cycles;
  };
  if (residue_class == SpanClass::kScavengerWait) {
    add(SpanClass::kScavExec, a.issue);
    add(SpanClass::kScavStall, a.wait);
    add(SpanClass::kSwitch, a.switch_cost);
  } else {
    add(SpanClass::kExecPrimary, a.issue);
    add(SpanClass::kStallExposed, a.wait);
    add(SpanClass::kSwitch, a.switch_cost);
    add(SpanClass::kStallHidden, a.burst_hidden);
    add(SpanClass::kBurstBlown, a.burst_blown);
  }
  if (attributed > total) {
    // Counter overshoot: the hooks claimed more cycles than the clock
    // advanced. Exactness is broken; VerifyExactness() will fail.
    ++anomalies_;
  } else {
    a.span.classes[static_cast<size_t>(residue_class)] += total - attributed;
  }
  a.issue = a.wait = a.switch_cost = a.burst_hidden = a.burst_blown = 0;
  a.stamp = now;
}

void SpanCollector::Transition(uint64_t id, SpanClass phase_class, int32_t ctx,
                               uint64_t now) {
  ++transitions_;
  TraceEmit(trace_, TraceEventType::kSpanBegin, now, ctx, id,
            static_cast<uint64_t>(phase_class));
}

void SpanCollector::OnAdmit(uint64_t id, uint64_t arrival,
                            uint64_t ingress_begin, uint64_t ingress_end,
                            const std::string& tenant) {
  if (!config_.enabled) {
    return;
  }
  Active a;
  a.span.id = id;
  a.span.arrival_cycle = arrival;
  a.span.tenant = tenant;
  a.phase = Phase::kQueued;
  AddWait(a, SpanClass::kIngressWait, arrival, ingress_begin);
  if (ingress_end >= ingress_begin) {
    a.span.classes[static_cast<size_t>(SpanClass::kIngress)] +=
        ingress_end - ingress_begin;
  } else {
    ++anomalies_;
  }
  a.stamp = ingress_end;
  active_.emplace(id, a);
  Transition(id, SpanClass::kQueueWait, -1, ingress_end);
}

void SpanCollector::OnDispatchPrimary(uint64_t id, uint64_t now) {
  if (!config_.enabled) {
    return;
  }
  auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  Active& a = it->second;
  AddWait(a,
          a.phase == Phase::kRequeued ? SpanClass::kRequeue
                                      : SpanClass::kQueueWait,
          a.stamp, now);
  a.phase = Phase::kDispatched;
  a.stamp = now;
  dispatch_fifo_.push_back(id);
  ++transitions_;
}

void SpanCollector::OnPrimaryTaskStart(uint64_t now) {
  if (!config_.enabled) {
    return;
  }
  primary_active_ = nullptr;
  // The front end dispatches exactly one request per task boundary, so task
  // start order matches dispatch order.
  while (dispatch_head_ < dispatch_fifo_.size()) {
    const uint64_t id = dispatch_fifo_[dispatch_head_++];
    auto it = active_.find(id);
    if (it == active_.end()) {
      continue;
    }
    Active& a = it->second;
    AddWait(a, SpanClass::kDispatchWait, a.stamp, now);
    a.phase = Phase::kRunningPrimary;
    a.stamp = now;
    a.issue = a.wait = a.switch_cost = a.burst_hidden = a.burst_blown = 0;
    primary_active_ = &a;
    Transition(id, SpanClass::kExecPrimary, -1, now);
    return;
  }
  if (dispatch_head_ > 0 && dispatch_head_ == dispatch_fifo_.size()) {
    dispatch_fifo_.clear();
    dispatch_head_ = 0;
  }
}

void SpanCollector::OnPrimaryStep(uint64_t issue_cycles, uint64_t wait_cycles) {
  if (primary_active_ == nullptr) {
    return;
  }
  primary_active_->issue += issue_cycles;
  primary_active_->wait += wait_cycles;
}

void SpanCollector::OnPrimarySwitch(uint32_t cost_cycles) {
  if (primary_active_ == nullptr) {
    return;
  }
  primary_active_->switch_cost += cost_cycles;
}

void SpanCollector::OnPrimaryBurst(uint64_t duration_cycles, bool useful) {
  if (primary_active_ == nullptr) {
    return;
  }
  if (useful) {
    primary_active_->burst_hidden += duration_cycles;
  } else {
    primary_active_->burst_blown += duration_cycles;
  }
}

void SpanCollector::OnPrimaryTaskEnd(uint64_t now) {
  if (primary_active_ == nullptr) {
    return;
  }
  Active& a = *primary_active_;
  CloseExecSegment(a, now, SpanClass::kSchedResidue);
  a.phase = Phase::kDoneExec;
  primary_active_ = nullptr;
  Transition(a.span.id, SpanClass::kHarvestWait, -1, now);
}

void SpanCollector::OnScavengerBind(int32_t ctx, uint64_t id, uint64_t now) {
  if (!config_.enabled) {
    return;
  }
  auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  Active& a = it->second;
  AddWait(a,
          a.phase == Phase::kRequeued ? SpanClass::kRequeue
                                      : SpanClass::kQueueWait,
          a.stamp, now);
  a.phase = Phase::kRunningScav;
  a.stamp = now;
  a.issue = a.wait = a.switch_cost = a.burst_hidden = a.burst_blown = 0;
  a.span.scavenged = true;
  scav_ctx_[ctx] = id;
  last_ctx_ = ctx;
  last_active_ = &a;
  Transition(id, SpanClass::kScavExec, ctx, now);
}

SpanCollector::Active* SpanCollector::ScavengerRequest(int32_t ctx) {
  if (ctx != last_ctx_) {
    last_ctx_ = ctx;
    auto it = scav_ctx_.find(ctx);
    last_active_ =
        it == scav_ctx_.end() ? nullptr : &active_.find(it->second)->second;
  }
  return last_active_;
}

void SpanCollector::OnScavengerStep(int32_t ctx, uint64_t issue_cycles,
                                    uint64_t wait_cycles) {
  if (Active* a = ScavengerRequest(ctx)) {
    a->issue += issue_cycles;
    a->wait += wait_cycles;
  }
}

void SpanCollector::OnScavengerSwitch(int32_t ctx, uint32_t cost_cycles) {
  if (Active* a = ScavengerRequest(ctx)) {
    a->switch_cost += cost_cycles;
  }
}

SpanCollector::Active* SpanCollector::UnbindScavenger(int32_t ctx,
                                                      uint64_t now) {
  auto it = scav_ctx_.find(ctx);
  if (it == scav_ctx_.end()) {
    return nullptr;
  }
  Active& a = active_.find(it->second)->second;
  CloseExecSegment(a, now, SpanClass::kScavengerWait);
  scav_ctx_.erase(it);
  if (last_ctx_ == ctx) {
    last_active_ = nullptr;
  }
  return &a;
}

void SpanCollector::OnScavengerDone(int32_t ctx, uint64_t now) {
  if (Active* a = UnbindScavenger(ctx, now)) {
    a->phase = Phase::kDoneExec;
    Transition(a->span.id, SpanClass::kHarvestWait, ctx, now);
  }
}

void SpanCollector::OnRequeue(int32_t ctx, uint64_t now) {
  if (Active* a = UnbindScavenger(ctx, now)) {
    a->phase = Phase::kRequeued;
    ++a->span.requeues;
    Transition(a->span.id, SpanClass::kRequeue, ctx, now);
  }
}

void SpanCollector::OnHarvest(uint64_t id, uint64_t egress_begin,
                              uint64_t egress_end) {
  auto it = active_.find(id);
  if (it == active_.end()) {
    return;
  }
  Finalize(it->second, egress_begin, egress_end);
  if (last_active_ == &it->second) {
    last_active_ = nullptr;
    last_ctx_ = -1;
  }
  if (primary_active_ == &it->second) {
    primary_active_ = nullptr;
  }
  active_.erase(it);
}

void SpanCollector::Finalize(Active& a, uint64_t egress_begin,
                             uint64_t egress_end) {
  AddWait(a, SpanClass::kHarvestWait, a.stamp, egress_begin);
  if (egress_end >= egress_begin) {
    a.span.classes[static_cast<size_t>(SpanClass::kEgress)] +=
        egress_end - egress_begin;
  } else {
    ++anomalies_;
  }
  a.span.complete_cycle = egress_end;
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    class_totals_[i] += a.span.classes[i];
    if (a.span.classes[i] != 0) {
      class_hist_[i].Record(a.span.classes[i]);
    }
  }
  ++completed_count_;
  if (completed_.size() < config_.max_records) {
    completed_.push_back(a.span);
  }
  if (exemplars_ != nullptr) {
    exemplars_->Offer(a.span);
  }
  ++transitions_;
  TraceEmit(trace_, TraceEventType::kSpanEnd, egress_end, -1, a.span.id,
            a.span.latency());
}

void SpanCollector::BeginControlWindow(uint64_t now) {
  if (!config_.enabled || window_open_) {
    return;
  }
  windows_.emplace_back(now, kOpenWindowEnd);
  window_open_ = true;
}

void SpanCollector::EndControlWindow(uint64_t now) {
  if (!config_.enabled || !window_open_) {
    return;
  }
  windows_.back().second = now;
  window_open_ = false;
}

uint64_t SpanCollector::TakeUnchargedOverheadCycles() {
  uint64_t delta = (transitions_ - charged_transitions_) * kSpanEventCostCycles;
  charged_transitions_ = transitions_;
  if (exemplars_ != nullptr) {
    // The reservoir's accepted-insertion cost rides the same safe-point
    // charge; the scheduler never needs to know the reservoir exists.
    delta += exemplars_->TakeUnchargedOverheadCycles();
  }
  return delta;
}

void SpanCollector::SnapshotEpoch(uint64_t epoch, uint64_t now_cycles) {
  EpochSlice slice;
  slice.epoch = epoch;
  slice.end_cycle = now_cycles;
  AggregateTotals(slice.class_totals, /*include_active=*/true);
  epoch_slices_.push_back(slice);
}

void SpanCollector::AggregateTotals(uint64_t out[kNumSpanClasses],
                                    bool include_active) const {
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    out[i] = class_totals_[i];
  }
  if (!include_active) {
    return;
  }
  for (const auto& [id, a] : active_) {
    for (size_t i = 0; i < kNumSpanClasses; ++i) {
      out[i] += a.span.classes[i];
    }
    // Fold the open execution counters so mid-run aggregates reconcile
    // against the profiler to the cycle.
    if (a.phase == Phase::kRunningScav) {
      out[static_cast<size_t>(SpanClass::kScavExec)] += a.issue;
      out[static_cast<size_t>(SpanClass::kScavStall)] += a.wait;
      out[static_cast<size_t>(SpanClass::kSwitch)] += a.switch_cost;
    } else {
      out[static_cast<size_t>(SpanClass::kExecPrimary)] += a.issue;
      out[static_cast<size_t>(SpanClass::kStallExposed)] += a.wait;
      out[static_cast<size_t>(SpanClass::kSwitch)] += a.switch_cost;
      out[static_cast<size_t>(SpanClass::kStallHidden)] += a.burst_hidden;
      out[static_cast<size_t>(SpanClass::kBurstBlown)] += a.burst_blown;
    }
  }
}

Status SpanCollector::VerifyExactness() const {
  if (anomalies_ != 0) {
    return InternalError(
        StrFormat("span attribution recorded %llu anomalies",
                  static_cast<unsigned long long>(anomalies_)));
  }
  for (const RequestSpan& span : completed_) {
    if (span.ClassSum() != span.latency()) {
      return InternalError(StrFormat(
          "request %llu: span classes sum to %llu but latency is %llu",
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.ClassSum()),
          static_cast<unsigned long long>(span.latency())));
    }
  }
  return Status::Ok();
}

// ---- exports -------------------------------------------------------------

namespace {

std::vector<RequestSpan> MergeCompleted(
    const std::vector<const SpanCollector*>& shards) {
  std::vector<RequestSpan> all;
  for (const SpanCollector* c : shards) {
    all.insert(all.end(), c->completed().begin(), c->completed().end());
  }
  std::sort(all.begin(), all.end(),
            [](const RequestSpan& a, const RequestSpan& b) {
              return ExemplarReservoir::Outranks(a, b);
            });
  return all;
}

}  // namespace

std::string ToSpanTopTable(const std::vector<const SpanCollector*>& shards,
                           size_t top_n) {
  const std::vector<RequestSpan> all = MergeCompleted(shards);
  uint64_t totals[kNumSpanClasses] = {};
  uint64_t grand = 0;
  for (const SpanCollector* c : shards) {
    for (size_t i = 0; i < kNumSpanClasses; ++i) {
      totals[i] += c->class_totals()[i];
      grand += c->class_totals()[i];
    }
  }
  std::string out = StrFormat("%zu completed requests, %s attributed cycles\n",
                              all.size(), WithCommas(grand).c_str());
  out += StrFormat("%-14s %-12s %-5s %-3s %-14s %-12s %s\n", "request",
                   "latency", "slot", "rq", "dominant", "cycles", "share");
  const size_t n = top_n < all.size() ? top_n : all.size();
  for (size_t i = 0; i < n; ++i) {
    const RequestSpan& s = all[i];
    const SpanClass dom = s.DominantClass();
    const uint64_t dom_cycles = s.classes[static_cast<size_t>(dom)];
    out += StrFormat(
        "%-14llu %-12s %-5s %-3u %-14s %-12s %5.1f%%\n",
        static_cast<unsigned long long>(s.id),
        WithCommas(s.latency()).c_str(), s.scavenged ? "scav" : "prim",
        s.requeues, SpanClassName(dom), WithCommas(dom_cycles).c_str(),
        s.latency() == 0 ? 0.0
                         : 100.0 * static_cast<double>(dom_cycles) /
                               static_cast<double>(s.latency()));
  }
  out += StrFormat("\n%-14s %-14s %-7s %-12s %-12s %s\n", "class", "cycles",
                   "share", "p50", "p90", "p99");
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    if (totals[i] == 0) {
      continue;
    }
    // Per-request class-cycle distribution, merged across shards
    // (LatencyHistogram merge == concatenation).
    LatencyHistogram merged;
    for (const SpanCollector* c : shards) {
      merged.Merge(c->class_histogram(i));
    }
    out += StrFormat("%-14s %-14s %5.1f%% %-12s %-12s %s\n",
                     SpanClassName(static_cast<SpanClass>(i)),
                     WithCommas(totals[i]).c_str(),
                     grand == 0 ? 0.0
                                : 100.0 * static_cast<double>(totals[i]) /
                                      static_cast<double>(grand),
                     WithCommas(merged.P50()).c_str(),
                     WithCommas(merged.ValueAtQuantile(0.90)).c_str(),
                     WithCommas(merged.P99()).c_str());
  }
  return out;
}

std::string ToSpanJson(const std::vector<const SpanCollector*>& shards) {
  const std::vector<RequestSpan> all = MergeCompleted(shards);
  std::string out = "{\"requests\": [\n";
  bool first = true;
  for (const RequestSpan& s : all) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += StrFormat(
        "  {\"id\": %llu, \"latency\": %llu, \"scavenged\": %s, "
        "\"requeues\": %u, ",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.latency()),
        s.scavenged ? "true" : "false", s.requeues);
    if (!s.tenant.empty()) {
      // Tenant names are [A-Za-z0-9_-] (TenantSpec::Validate), so emitting
      // them unescaped keeps the output RFC-8259 clean.
      out += StrFormat("\"tenant\": \"%s\", ", s.tenant.c_str());
    }
    out += "\"classes\": {";
    bool first_class = true;
    for (size_t i = 0; i < kNumSpanClasses; ++i) {
      if (s.classes[i] == 0) {
        continue;
      }
      if (!first_class) {
        out += ", ";
      }
      first_class = false;
      out += StrFormat("\"%s\": %llu",
                       SpanClassName(static_cast<SpanClass>(i)),
                       static_cast<unsigned long long>(s.classes[i]));
    }
    out += "}}";
  }
  out += "\n], \"totals\": {";
  uint64_t totals[kNumSpanClasses] = {};
  for (const SpanCollector* c : shards) {
    for (size_t i = 0; i < kNumSpanClasses; ++i) {
      totals[i] += c->class_totals()[i];
    }
  }
  bool first_total = true;
  for (size_t i = 0; i < kNumSpanClasses; ++i) {
    if (!first_total) {
      out += ", ";
    }
    first_total = false;
    out += StrFormat("\"%s\": %llu", SpanClassName(static_cast<SpanClass>(i)),
                     static_cast<unsigned long long>(totals[i]));
  }
  out += StrFormat("}, \"completed\": %zu}\n", all.size());
  return out;
}

std::string ToPerfettoSpanJson(const std::vector<TraceEvent>& events,
                               double cycles_per_ns) {
  struct Open {
    uint64_t cls = 0;
    uint64_t cycle = 0;
  };
  std::unordered_map<uint64_t, Open> open;
  ChromeTraceWriter writer("yieldhide spans", cycles_per_ns);
  GuardTrack guard(&writer);
  auto close = [&](uint64_t id, const Open& o, uint64_t end_cycle) {
    writer.Emit(StrFormat(
        "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"span\", \"ts\": %.3f, "
        "\"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
        "\"args\": {\"req\": %llu, \"cycle\": %llu}}",
        SpanClassName(static_cast<SpanClass>(o.cls)), writer.Us(o.cycle),
        writer.Us(end_cycle - o.cycle), TrackIdFor(id),
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(o.cycle)));
  };
  size_t requests = 0;
  for (const TraceEvent& event : events) {
    guard.Observe(event);
    if (event.type == TraceEventType::kCanaryRollback) {
      writer.Emit(StrFormat(
          "{\"ph\": \"i\", \"s\": \"g\", \"name\": \"rollback\", "
          "\"cat\": \"guard\", \"ts\": %.3f, \"pid\": 0, \"tid\": %d, "
          "\"args\": {\"generation\": %llu}}",
          writer.Us(event.cycle), GuardTrack::kTid,
          static_cast<unsigned long long>(event.arg)));
    } else if (event.type == TraceEventType::kWatchdogFire) {
      writer.Emit(StrFormat(
          "{\"ph\": \"i\", \"s\": \"g\", \"name\": \"watchdog\", "
          "\"cat\": \"guard\", \"ts\": %.3f, \"pid\": 0, \"tid\": %d, "
          "\"args\": {\"shard\": %d}}",
          writer.Us(event.cycle), GuardTrack::kTid, event.ctx_id));
    } else if (event.type == TraceEventType::kSpanBegin) {
      auto it = open.find(event.ip);
      if (it != open.end()) {
        close(event.ip, it->second, event.cycle);
        it->second = Open{event.arg, event.cycle};
      } else {
        open.emplace(event.ip, Open{event.arg, event.cycle});
      }
    } else if (event.type == TraceEventType::kSpanEnd) {
      auto it = open.find(event.ip);
      if (it != open.end()) {
        close(event.ip, it->second, event.cycle);
        open.erase(it);
      }
      ++requests;
      writer.Emit(StrFormat(
          "{\"ph\": \"i\", \"s\": \"t\", \"name\": \"complete\", "
          "\"cat\": \"span\", \"ts\": %.3f, \"pid\": 0, \"tid\": %d, "
          "\"args\": {\"req\": %llu, \"latency\": %llu}}",
          writer.Us(event.cycle), TrackIdFor(event.ip),
          static_cast<unsigned long long>(event.ip),
          static_cast<unsigned long long>(event.arg)));
    }
  }
  return writer.Finish(StrFormat("\"requests\": %zu", requests));
}

}  // namespace yieldhide::obs
